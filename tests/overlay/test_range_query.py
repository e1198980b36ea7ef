"""Unit tests for shower range queries."""

import pytest

from repro.core.errors import RoutingError
from repro.overlay.range_query import range_query
from repro.storage.indexing import EntryKind

from tests.conftest import LEN_ATTR, WORDS, build_word_network


@pytest.fixture(scope="module")
def network():
    return build_word_network(n_peers=32)


def _len_range(network, lo, hi, start=0, collect=True):
    lo_key, hi_key = network.codec.attr_value_range(LEN_ATTR, lo, hi)
    return range_query(
        network.router, lo_key, hi_key, start, collect_results=collect
    )


class TestRangeQuery:
    def test_finds_exactly_in_range_values(self, network):
        outcome = _len_range(network, 5.0, 6.0)
        values = sorted(
            e.triple.value
            for e in outcome.entries
            if e.kind is EntryKind.ATTR_VALUE and e.triple.attribute == LEN_ATTR
        )
        expected = sorted(len(w) for w in WORDS if 5 <= len(w) <= 6)
        assert values == expected

    def test_narrow_range_touches_few_partitions(self, network):
        narrow = _len_range(network, 5.0, 5.0)
        wide = _len_range(network, 1.0, 1000.0)
        assert narrow.partitions_touched <= wide.partitions_touched

    def test_contacted_peers_cover_partitions(self, network):
        outcome = _len_range(network, 4.0, 10.0)
        assert len(outcome.contacted_peer_ids) == outcome.partitions_touched

    def test_result_messages_charged(self, network):
        network.tracer.reset()
        _len_range(network, 4.0, 20.0)
        assert network.tracer.snapshot().by_type.get("result", 0) > 0
        assert network.tracer.payload_bytes > 0

    def test_collect_results_off_charges_no_results(self, network):
        network.tracer.reset()
        _len_range(network, 4.0, 20.0, collect=False)
        assert network.tracer.snapshot().by_type.get("result", 0) == 0

    def test_rejects_inverted_range(self, network):
        lo_key, hi_key = network.codec.attr_value_range(LEN_ATTR, 4.0, 20.0)
        with pytest.raises(RoutingError):
            range_query(network.router, hi_key, lo_key, 0)

    def test_rejects_mismatched_widths(self, network):
        with pytest.raises(RoutingError):
            range_query(network.router, "0101", "01011", 0)

    def test_empty_region_returns_nothing(self, network):
        outcome = _len_range(network, 900.0, 901.0)
        values = [
            e
            for e in outcome.entries
            if e.kind is EntryKind.ATTR_VALUE and e.triple.attribute == LEN_ATTR
        ]
        assert values == []
