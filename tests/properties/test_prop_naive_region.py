"""Property tests: the columnar region comparison equals the per-entry one.

:func:`repro.query.operators.naive._compare_region` answers from a
:class:`~repro.query.operators.naive.RegionColumn` (rows scanned once,
distinct strings encoded once, one batch kernel pass); the reference in
``tests/reference/naive_region.py`` walks every contacted store entry by
entry and runs the banded DP.  They must produce the identical
:class:`~repro.query.operators.naive.RegionComparison` — matched rows in
store order, comparison tallies and scanned store versions — for every
input the operator can hand them:

* several attributes hashed under **one key region** (``attr_bits`` of 1
  or 2 makes prefixes collide), so the attribute test matters;
* **non-string values**, which are stored but never compared;
* the **schema level**, where attribute names are the strings;
* **replicas with diverged versions** (one replica written behind the
  network's back), contacted through either replica;
* a **partial contact list**, as the sampled estimator and degraded mode
  produce;
* a column **retained across** queries and such writes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StoreConfig
from repro.overlay.network import PGridNetwork
from repro.query.operators.naive import RegionColumn, _compare_region
from repro.similarity.verify import BatchVerifier
from repro.storage.indexing import EntryKind, IndexEntry
from repro.storage.triple import Triple

from tests.reference.naive_region import compare_region_per_entry

ATTRIBUTES = ["t:title", "t:name", "u:title", "u:alias"]

words = st.text(alphabet="abcé🙂", max_size=7)
values = st.one_of(words, words, st.integers(min_value=0, max_value=99))
triples = st.lists(
    st.builds(
        Triple,
        st.integers(min_value=0, max_value=11).map(lambda i: f"o:{i:02d}"),
        st.sampled_from(ATTRIBUTES),
        values,
    ),
    min_size=1,
    max_size=30,
)


def build_network(rows, attr_bits: int, seed: int) -> PGridNetwork:
    config = StoreConfig(seed=seed, attr_bits=attr_bits, replication=2)
    probe = PGridNetwork(1, config)
    sample = [entry.key for entry in probe.entry_factory.entries_for_all(rows)]
    network = PGridNetwork(12, config, sample_keys=sample)
    network.insert_triples(rows)
    return network


def write_one_replica(network, triple: Triple, replica: int) -> None:
    """Add ``triple``'s ATTR_VALUE entry to a single replica's store."""
    key = network.codec.attr_value_key(triple.attribute, triple.value)
    peer_ids = network.partition_for(key).peer_ids
    peer = network.peer(peer_ids[replica % len(peer_ids)])
    peer.store.add(IndexEntry(key, EntryKind.ATTR_VALUE, triple))


def contact(network, region_prefix: str, picks: list[int]) -> list:
    """One replica of each picked partition under the region
    (``pick < 0`` leaves the partition out)."""
    contacted = []
    for partition, pick in zip(network.partitions_under(region_prefix), picks):
        if pick < 0:
            continue
        peer_ids = partition.peer_ids
        contacted.append(
            (network.peer(peer_ids[pick % len(peer_ids)]), partition.index)
        )
    return contacted


class TestColumnarRegionComparison:
    @settings(max_examples=120, deadline=None)
    @given(
        rows=triples,
        attr_bits=st.sampled_from([1, 2, 8]),
        seed=st.integers(min_value=0, max_value=3),
        schema_level=st.booleans(),
        attribute=st.sampled_from(ATTRIBUTES),
        searches=st.lists(words, min_size=1, max_size=3),
        band=st.integers(min_value=0, max_value=4),
        picks=st.lists(
            st.integers(min_value=-1, max_value=1), min_size=12, max_size=12
        ),
        late=st.lists(
            st.tuples(
                st.builds(
                    Triple, st.just("o:late"), st.sampled_from(ATTRIBUTES), values
                ),
                st.integers(min_value=0, max_value=1),
            ),
            max_size=2,
        ),
    )
    def test_matches_per_entry_reference(
        self, rows, attr_bits, seed, schema_level, attribute, searches, band,
        picks, late,
    ):
        network = build_network(rows, attr_bits, seed)
        compared = "" if schema_level else attribute
        region_prefix = (
            "" if schema_level else network.codec.attr_prefix(attribute)
        )
        retained = RegionColumn(region_prefix, compared, schema_level)
        # Round 0 on the loaded data; then one replica of some partition
        # is written (versions diverge) and the same column answers again.
        for write in [None, *late]:
            if write is not None:
                write_one_replica(network, *write)
            contacted = contact(network, region_prefix, picks)
            for s in searches:
                expected = compare_region_per_entry(
                    contacted, s, compared, band, schema_level, region_prefix
                )
                assert _compare_region(
                    contacted, retained, band, BatchVerifier(s, band)
                ) == expected
                throwaway = RegionColumn(
                    region_prefix, compared, schema_level, retained=False
                )
                assert _compare_region(
                    contacted, throwaway, band, BatchVerifier(s, band)
                ) == expected

    def test_other_replica_of_a_diverged_partition_is_rescanned(self, region_scans):
        rows = [Triple(f"o:{i:02d}", "t:title", w) for i, w in enumerate(
            ["apple", "apply", "ample", "maple", "grape", "grace"]
        )]
        network = build_network(rows, attr_bits=8, seed=1)
        prefix = network.codec.attr_prefix("t:title")
        column = RegionColumn(prefix, "t:title", False)
        everyone = [0] * 12
        first = _compare_region(
            contact(network, prefix, everyone), column, 1,
            BatchVerifier("apple", 1),
        )
        write_one_replica(network, Triple("o:new", "t:title", "appla"), 1)
        scans = region_scans.call_count
        # Replica 0 is unchanged: nothing is read again, nothing new matches.
        again = _compare_region(
            contact(network, prefix, everyone), column, 1,
            BatchVerifier("apple", 1),
        )
        assert region_scans.call_count == scans
        assert again == first
        # Replica 1 of the written partition reports another version.
        other = _compare_region(
            contact(network, prefix, [1] * 12), column, 1,
            BatchVerifier("apple", 1),
        )
        assert region_scans.call_count == scans + 1
        assert "o:new" in {
            oid for matched in other.by_partition.values()
            for oid, __, ___ in matched
        }
