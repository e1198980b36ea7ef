"""Mini Figure 1: compare the three strategies across network sizes.

Run with::

    python examples/scalability_sweep.py

A scaled-down version of the paper's evaluation (Section 6): the 6-query
workload (three string top-N queries, three anchored similarity
self-joins) replayed under the ``qsamples``, ``qgrams`` and ``strings``
strategies while the network grows.  The expected picture is the paper's:
the naive ``strings`` broadcast grows linearly with the peer count while
both q-gram strategies grow roughly logarithmically, with q-samples
cheapest.

The sweep runs on the incremental engine
(:class:`repro.overlay.incremental.IncrementalNetworkBuilder`): each
cell's network is grown from the trie-derivation state of the previous
cells rather than rebuilt, and naive broadcasts are memoized across the
workload — both bit-identical to a from-scratch run (the engine's
equivalence tests pin this), which is why the printed build times stay
flat while the peer count multiplies.  A fourth, **adaptive** series
rides along: the cost model (docs/ARCHITECTURE.md, "Engine & cost
model") picks naive vs. q-gram per query from collected statistics —
watch it track the cheapest fixed curve as the network grows.  For the
full harness — all four panels, CSV/JSON output, paper-scale option —
use ``python -m repro.bench``.
"""

from repro.core.config import StoreConfig
from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.bench.experiment import ALL_WITH_ADAPTIVE
from repro.bench.report import format_panel, shape_check
from repro.bench.sweep import sweep

PEER_COUNTS = (64, 256, 1024)
WORD_COUNT = 1200


def main() -> None:
    config = StoreConfig(seed=0, index_values=False, index_schema_grams=False)
    corpus = bible_triples(WORD_COUNT, seed=0)
    strings = [str(t.value) for t in corpus]
    print(
        f"{WORD_COUNT} words, peers {list(PEER_COUNTS)}, "
        "2 x 6-query workload per cell — this takes a minute or two\n"
    )
    result = sweep(
        "bible",
        corpus,
        TEXT_ATTRIBUTE,
        strings,
        peer_counts=PEER_COUNTS,
        config=config,
        repetitions=2,
        strategies=ALL_WITH_ADAPTIVE,
        progress=lambda message: print(f"  {message}"),
    )
    print()
    print(format_panel("fig1a", result))
    print()
    print(format_panel("fig1b", result))
    print()
    builds = ", ".join(
        f"{cell.n_peers}p={cell.build_seconds:.2f}s" for cell in result.cells
    )
    print(f"incremental network builds: {builds}")
    for cell in result.cells:
        if cell.adaptive_choices:
            print(
                f"adaptive picks at {cell.n_peers} peers: "
                f"{cell.adaptive_choices} "
                f"(stats walk: {cell.adaptive_stats_messages} messages)"
            )
    findings = shape_check(result)
    if findings:
        for finding in findings:
            print(f"! {finding}")
    else:
        print(
            "shape checks passed: naive grows linearly and is overtaken; "
            "q-gram strategies grow ~logarithmically; q-samples cheapest."
        )


if __name__ == "__main__":
    main()
