"""Property test: the positional posting table equals the per-entry scan.

:meth:`repro.query.operators.similar.GramScanMemo.candidate_oids` answers
a gram peer's step-3 scan from one cached table per gram key — the
postings as sorted ``source_length, position, oid`` columns, the filters
replayed as bisects; the reference in ``tests/reference/gram_scan.py``
applies ``FilterConfig.admits`` to every posting and every occurrence.
They must return the same oid set for every input the operator can hand
them:

* postings with **repeated oids** and **one oid at several positions**;
* **two attributes and two grams colliding on one key**, at both index
  levels, so the table must keep them apart;
* 1–3 **occurrences** of the gram in the query (a gram repeated inside
  the search string keeps every position);
* ``d`` from 0 to 6 against positions 0–9 and lengths 1–10: windows that
  miss the table, cut into it, and **reach past both ends** of it;
* all four **filter subsets**;
* a **store write between probes** — the cached table must not outlive
  the store version it was built from.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.operators.similar import GramScanMemo
from repro.similarity.filters import FilterConfig
from repro.storage.datastore import LocalDataStore
from repro.storage.indexing import EntryKind, IndexEntry
from repro.storage.qgrams import PositionalQGram
from repro.storage.triple import Triple

from tests.reference.gram_scan import candidate_oids_per_entry

KEY = "010011"
PARTITION = 3
ATTRIBUTES = ["a:title", "b:title"]
GRAMS = ["ab", "cd"]

postings = st.lists(
    st.builds(
        lambda oid, attribute, gram, position, length, schema: IndexEntry(
            KEY,
            EntryKind.SCHEMA_GRAM if schema else EntryKind.INSTANCE_GRAM,
            Triple(f"o:{oid}", attribute, "v"),
            gram=gram,
            position=position,
            source_length=length,
        ),
        st.integers(0, 7),
        st.sampled_from(ATTRIBUTES),
        st.sampled_from(GRAMS),
        st.integers(0, 9),
        st.integers(1, 10),
        st.booleans(),
    ),
    max_size=30,
    unique=True,
)

probes = st.lists(
    st.fixed_dictionaries(
        {
            "gram": st.sampled_from(GRAMS),
            "length": st.integers(1, 10),
            "positions": st.lists(st.integers(0, 9), min_size=1, max_size=3),
            "attribute": st.sampled_from(ATTRIBUTES),
            "schema_level": st.booleans(),
            "d": st.integers(0, 6),
            "filters": st.builds(FilterConfig, st.booleans(), st.booleans()),
        }
    ),
    min_size=1,
    max_size=4,
)


def check(memo, peer, probe) -> None:
    occurrences = [
        PositionalQGram(probe["gram"], position, probe["length"])
        for position in probe["positions"]
    ]
    attribute = "" if probe["schema_level"] else probe["attribute"]
    arguments = (
        occurrences, attribute, probe["schema_level"], probe["d"], probe["filters"],
    )
    assert memo.candidate_oids(
        peer, PARTITION, KEY, *arguments
    ) == candidate_oids_per_entry(peer.store, KEY, *arguments)


@settings(max_examples=300, deadline=None)
@given(stored=postings, written=postings, removed=st.integers(0, 29), asked=probes)
def test_table_replay_equals_the_per_entry_scan(stored, written, removed, asked):
    peer = SimpleNamespace(store=LocalDataStore(), partition_index=PARTITION)
    peer.store.add_bulk(stored)
    memo = GramScanMemo(network=None)
    for probe in asked:
        check(memo, peer, probe)
    # A write between probes: new postings in, one old posting out.
    present = set(stored)
    peer.store.add_bulk([entry for entry in written if entry not in present])
    if stored:
        peer.store.remove(stored[removed % len(stored)])
    for probe in asked:
        check(memo, peer, probe)
    assert memo.hits + memo.misses == 2 * len(asked)
