"""Pins ``tools/ledger_hash.py``: the full message ledger and every answer
of its fixed workload (four strategy arms, writes, churn, top-N, a join).

These digests move only when a measured series moves, which the
bit-identical measurement contract forbids for refactors and
optimisations.  A change that *means* to alter what a query sends or
returns edits them here, in the same commit, and says so in CHANGES.md.
"""

import importlib.util
from pathlib import Path
from unittest import mock

from repro.overlay.incremental import PreparedDataset

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ledger_hash.py"

MESSAGES = 18962
LEDGER = "a31450abc1bcd4a26384a49b1fa8273a47df4320f5c6da00dec7e3be99e18b51"
ANSWERS = "8aead8e15d7dfa5e2058d14622b88cd9b3fc666931717f711beaee42f3604f87"


def load_tool():
    spec = importlib.util.spec_from_file_location("ledger_hash", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_ledger_and_answers_are_the_pinned_ones():
    assert load_tool().run() == (MESSAGES, LEDGER, ANSWERS)


def test_a_warm_dataset_gives_the_pinned_ones():
    """Two runs in one interpreter, the first run's dataset kept alive:
    every arm of the second builds its network from that dataset."""
    tool = load_tool()
    prepare = PreparedDataset.prepare
    kept: list[PreparedDataset] = []

    def keep(triples, config):
        kept.append(prepare(triples, config))
        return kept[-1]

    with mock.patch.object(PreparedDataset, "prepare", keep):
        for __ in range(2):
            assert tool.run() == (MESSAGES, LEDGER, ANSWERS)
    assert len(kept) == 2 * len(tool.STRATEGIES)
    assert all(dataset is kept[0] for dataset in kept)
