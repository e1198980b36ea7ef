"""Unit tests for the mixed read-write benchmark (bench/mutate.py)."""

import pytest

from repro.bench import mutate

SMALL = dict(
    words=120, n_peers=16, steps=3, queries_per_step=4, write_batch=3,
    query_pool=6,
)


@pytest.fixture(scope="module")
def payload():
    return mutate.run_mutate_bench(**SMALL)


class TestArms:
    def test_no_arm_answers_stale(self, payload):
        staleness = payload["staleness"]
        assert staleness["queries_compared"] == payload["workload"]["queries"]
        assert staleness["stale_answers_delta"] == 0
        assert staleness["stale_answers_drop"] == 0

    def test_arms_charge_identical_messages(self, payload):
        arms = payload["arms"]
        for field in ("messages", "payload_bytes", "queries"):
            assert arms["delta"][field] == arms["drop"][field]
            assert arms["delta"][field] == arms["reference"][field]

    def test_drop_arm_clears_before_each_write(self, payload):
        """Every step ends in a write, which finds the memos just
        cleared: nothing is invalidated and nothing is left."""
        drop = payload["arms"]["drop"]
        assert drop["memo_hits"] > 0
        assert drop["memo_invalidations"] == 0
        assert drop["memo_entries_end"] == 0

    def test_delta_arm_retains_more(self, payload):
        retention = payload["retention"]
        assert retention["delta_hit_rate"] > retention["drop_hit_rate"]
        assert retention["advantage"] > 0

    def test_reference_arm_is_memo_free(self, payload):
        reference = payload["arms"]["reference"]
        assert reference["memo_hits"] == reference["memo_misses"] == 0


class TestMainGate:
    @staticmethod
    def _fake_payload(stale_delta: int, stale_drop: int) -> dict:
        return {
            "retention": {
                "delta_hit_rate": 0.6, "drop_hit_rate": 0.3,
                "advantage": 0.3,
            },
            "staleness": {
                "queries_compared": 12,
                "stale_answers_delta": stale_delta,
                "stale_answers_drop": stale_drop,
            },
            "recovery": {
                "divergent_partitions": 0, "entries_copied": 0,
                "repair_messages": 0, "memo_entries_before": 0,
                "memo_entries_after": 0,
            },
        }

    @pytest.mark.parametrize(
        "stale_delta, stale_drop, status",
        [(0, 0, 0), (1, 0, 1), (0, 1, 1)],
    )
    def test_exit_status_gates_both_memoized_arms(
        self, monkeypatch, capsys, stale_delta, stale_drop, status
    ):
        monkeypatch.setattr(
            mutate,
            "run_mutate_bench",
            lambda **kwargs: self._fake_payload(stale_delta, stale_drop),
        )
        assert mutate.main([]) == status
        capsys.readouterr()
