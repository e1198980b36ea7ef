"""Unit tests for exact-match and range operators."""

import pytest

from repro.core.config import StoreConfig
from repro.engine import QueryEngine
from repro.query.operators.base import MatchedObject, OperatorContext
from repro.query.operators.exact import (
    keyword_lookup,
    lookup_object,
    scan_attribute,
    select_equals,
)
from repro.query.operators.range_scan import numeric_similar, select_range
from repro.similarity.numeric import Interval
from repro.storage.indexing import EntryKind
from repro.storage.triple import Triple

from tests.conftest import (
    LEN_ATTR,
    TEXT_ATTR,
    WORDS,
    build_word_network,
    word_triples,
)


@pytest.fixture(scope="module")
def ctx():
    return OperatorContext(build_word_network(n_peers=48))


class TestLookupObject:
    def test_full_object(self, ctx):
        triples = lookup_object(ctx, "w:0000")
        assert {t.attribute for t in triples} == {TEXT_ATTR, LEN_ATTR}
        assert all(t.oid == "w:0000" for t in triples)

    def test_missing_object(self, ctx):
        assert lookup_object(ctx, "w:nosuch") == ()

    def test_every_object_is_its_triples(self, ctx):
        objects = {}
        for triple in word_triples():
            objects.setdefault(triple.oid, set()).add(triple)
        for oid, triples in objects.items():
            assert set(lookup_object(ctx, oid)) == triples


class TestSelectEquals:
    def test_string_selection(self, ctx):
        matches = select_equals(ctx, TEXT_ATTR, "banana")
        assert [m.matched for m in matches] == ["banana"]
        assert matches[0].value_of(LEN_ATTR) == len("banana")

    def test_numeric_selection(self, ctx):
        matches = select_equals(ctx, LEN_ATTR, 5)
        expected = {w for w in WORDS if len(w) == 5}
        assert {m.value_of(TEXT_ATTR) for m in matches} == expected

    def test_no_match(self, ctx):
        assert select_equals(ctx, TEXT_ATTR, "nosuchword") == []

    def test_without_object_fetch(self, ctx):
        matches = select_equals(ctx, TEXT_ATTR, "banana", fetch_full_objects=False)
        assert len(matches) == 1
        assert matches[0].value_of(LEN_ATTR) is None  # only the hit triple


class TestKeywordLookup:
    def test_finds_value_anywhere(self, ctx):
        triples = keyword_lookup(ctx, "cherry")
        assert [(t.attribute, t.value) for t in triples] == [(TEXT_ATTR, "cherry")]

    def test_numeric_keyword(self, ctx):
        triples = keyword_lookup(ctx, 5)
        assert all(t.value == 5 for t in triples)
        assert len(triples) == sum(1 for w in WORDS if len(w) == 5)


class TestScanAttribute:
    def test_scans_all_values(self, ctx):
        triples = scan_attribute(ctx, TEXT_ATTR)
        assert {t.value for t in triples} == set(WORDS)

    def test_costs_scale_with_region(self, ctx):
        ctx.network.tracer.reset()
        scan_attribute(ctx, TEXT_ATTR)
        scan_cost = ctx.network.tracer.message_count
        ctx.network.tracer.reset()
        select_equals(ctx, TEXT_ATTR, "banana", fetch_full_objects=False)
        exact_cost = ctx.network.tracer.message_count
        assert exact_cost < scan_cost


class TestSelectRange:
    def test_inclusive_bounds(self, ctx):
        triples = select_range(ctx, LEN_ATTR, Interval(5.0, 7.0))
        values = sorted(t.value for t in triples)
        assert values == sorted(len(w) for w in WORDS if 5 <= len(w) <= 7)

    def test_empty_range_region(self, ctx):
        assert select_range(ctx, LEN_ATTR, Interval(500.0, 600.0)) == []

    def test_results_sorted_by_value(self, ctx):
        triples = select_range(ctx, LEN_ATTR, Interval(4.0, 10.0))
        values = [float(t.value) for t in triples]
        assert values == sorted(values)


class TestNumericSimilar:
    def test_within_distance(self, ctx):
        matches = numeric_similar(ctx, LEN_ATTR, 6.0, 1.0)
        expected = sorted(
            abs(len(w) - 6.0) for w in WORDS if abs(len(w) - 6.0) <= 1.0
        )
        assert sorted(m.distance for m in matches) == expected

    @pytest.mark.parametrize("center,d", [(6.0, 1.0), (4.0, 0.0), (5.5, 2.5)])
    def test_is_the_interval_range(self, ctx, center, d):
        """``|x - v| <= d`` is the range ``[v - d, v + d]`` (Section 4)."""
        matches = numeric_similar(ctx, LEN_ATTR, center, d)
        triples = select_range(ctx, LEN_ATTR, Interval(center - d, center + d))
        assert sorted(m.oid for m in matches) == sorted(t.oid for t in triples)

    def test_full_objects_fetched(self, ctx):
        matches = numeric_similar(ctx, LEN_ATTR, 4.0, 0.0)
        assert all(m.value_of(TEXT_ATTR) is not None for m in matches)

    def test_negative_distance_rejected(self, ctx):
        from repro.core.errors import ExecutionError

        with pytest.raises(ExecutionError):
            numeric_similar(ctx, LEN_ATTR, 4.0, -1.0)


# -- colliding composite keys: the value view vs. the scan it replaced --------

#: 300 long titles behind one 40-character prefix: the truncated value
#: hash gives them all one ``key(A#v)``.
PREFIX = "The collected letters and papers of the "
TITLES = [f"{PREFIX}{i:03d} house of {i * 7 % 300}" for i in range(300)]


def scanned_select(ctx, attribute, value):
    """``select_equals`` as a filter of the whole run ``Router.retrieve``
    returns — the read the value view replaced."""
    initiator_id = ctx.random_initiator()
    key = ctx.codec.attr_value_key(attribute, value)
    entries, peer = ctx.router.retrieve(key, initiator_id, phase="exact")
    hits = [
        e.triple
        for e in entries
        if e.kind is EntryKind.ATTR_VALUE
        and e.triple.attribute == attribute
        and e.triple.value == value
    ]
    if hits:
        payload = sum(t.payload_size() for t in hits)
        sent = ctx.router.send_result(
            peer.peer_id, initiator_id, payload, phase="exact"
        )
        assert sent
    objects = ctx.fetch_objects(
        {t.oid for t in hits},
        delegating_peer_id=peer.peer_id,
        initiator_id=initiator_id,
        phase="exact",
    )
    return sorted(
        (
            MatchedObject(t.oid, str(t.value), 0.0, objects.get(t.oid, (t,)))
            for t in hits
        ),
        key=lambda m: m.oid,
    )


def scanned_keyword(ctx, value):
    """``keyword_lookup`` as a filter of ``Router.retrieve``'s run."""
    initiator_id = ctx.random_initiator()
    key = ctx.codec.value_key(value)
    entries, peer = ctx.router.retrieve(key, initiator_id, phase="exact")
    hits = [
        e.triple
        for e in entries
        if e.kind is EntryKind.VALUE and e.triple.value == value
    ]
    if hits:
        payload = sum(t.payload_size() for t in hits)
        sent = ctx.router.send_result(
            peer.peer_id, initiator_id, payload, phase="exact"
        )
        assert sent
    return sorted(hits, key=lambda t: (t.oid, t.attribute))


class TestCollidingValues:
    """Twin engines, one reading the value view and one scanning the key's
    run: the same rows in the same order, and the same messages."""

    @pytest.fixture
    def twins(self):
        triples = [Triple(f"t:{i:03d}", "title", t) for i, t in enumerate(TITLES)]
        # Equal numbers of two types under one attribute and one key.
        triples += [Triple(f"n:{i}", "count", 1 if i % 2 else 1.0) for i in range(6)]
        config = StoreConfig(seed=3)
        return [QueryEngine.build(16, triples, config=config) for __ in range(2)]

    @staticmethod
    def costs_equal(view, scan):
        a, b = view.last_cost(), scan.last_cost()
        assert (a.messages, a.payload_bytes) == (b.messages, b.payload_bytes)
        assert a.by_type == b.by_type and a.by_phase == b.by_phase

    def check(self, view, scan, values):
        for attribute, value in values:
            got = view.select(attribute, value)
            with scan.recorded():
                expected = scanned_select(scan.ctx, attribute, value)
            assert got == expected
            self.costs_equal(view, scan)
            got = view.keyword(value)
            with scan.recorded():
                expected = scanned_keyword(scan.ctx, value)
            assert got == expected
            self.costs_equal(view, scan)

    def test_titles_share_one_key(self, twins):
        codec = twins[0].network.codec
        assert len({codec.attr_value_key("title", t) for t in TITLES}) == 1
        assert len({codec.value_key(t) for t in TITLES}) == 1

    def test_view_reads_what_the_scan_filtered(self, twins):
        view, scan = twins
        absent = f"{PREFIX}999 nowhere"
        values = [("title", t) for t in TITLES[::37]]
        values += [("title", absent), ("count", 1), ("count", 1.0), ("count", 2)]
        self.check(view, scan, values)
        assert [m.oid for m in view.select("count", 1)] == [f"n:{i}" for i in range(6)]
        assert view.select("title", absent) == []

    def test_view_follows_writes(self, twins):
        view, scan = twins
        values = [("title", t) for t in TITLES[:3]] + [("count", 1.0)]
        self.check(view, scan, values)  # builds the views the writes patch
        gone = [Triple("t:001", "title", TITLES[1]), Triple("n:3", "count", 1)]
        added = [Triple("t:new", "title", TITLES[2]), Triple("n:new", "count", 1)]
        for engine in twins:
            engine.delete(gone)
            engine.insert(added)
        self.check(view, scan, values)
        assert view.select("title", TITLES[1]) == []
        assert [m.oid for m in view.select("title", TITLES[2])] == ["t:002", "t:new"]
