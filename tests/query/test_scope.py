"""One operation, one :class:`OperationScope`, one cost report."""

import copy

import pytest

from evaluation.workload import QueryKind, WorkloadQuery, run_query
from repro.core.config import SimilarityStrategy, StoreConfig
from repro.core.errors import ExecutionError
from repro.engine import QueryEngine
from repro.query.operators.base import OperationScope
from repro.query.operators.similar import similar

from tests.conftest import TEXT_ATTR, WORDS, word_triples


def _engine() -> QueryEngine:
    engine = QueryEngine.build(
        32, word_triples(), StoreConfig(seed=7), strategy="adaptive"
    )
    engine.analyze([TEXT_ATTR])
    return engine


def _series(cost) -> tuple:
    return (
        cost.messages,
        cost.payload_bytes,
        cost.by_type,
        cost.by_phase,
        cost.decisions,
    )


class TestScope:
    def test_nested_scope_is_refused(self):
        engine = _engine()
        with OperationScope(engine.ctx) as outer:
            with pytest.raises(RuntimeError):
                with OperationScope(engine.ctx):
                    pass  # pragma: no cover - never entered
            assert engine.ctx.scope is outer
        assert engine.ctx.scope is None
        with engine.recorded():
            with pytest.raises(RuntimeError):
                engine.similar("apple", TEXT_ATTR, 1)

    def test_a_raising_body_still_yields_a_report(self):
        engine = _engine()
        scope = OperationScope(engine.ctx)
        with pytest.raises(ExecutionError):
            with scope:
                similar(engine.ctx, "apple", TEXT_ATTR, 1)
                similar(engine.ctx, "apple", TEXT_ATTR, -1)
        assert engine.ctx.scope is None
        assert scope.cost is not None
        assert scope.cost.messages > 0
        assert [d.search for d in scope.cost.decisions] == ["apple"]
        assert scope.cost.verifier["kernel"] == engine.verifier_pool.kernel.name

    @pytest.mark.parametrize("kind", list(QueryKind))
    def test_run_query_reports_what_the_engine_records(self, kind):
        """``run_query`` on one engine and the matching engine call on its
        twin measure the same operation the same way."""
        runner, recorder = _engine(), _engine()
        for search, parameter in zip(WORDS[:6], (1, 2, 3, 1, 2, 3)):
            # The initiator the recorder's context is about to draw.
            initiator = recorder.network.random_peer_id(
                copy.deepcopy(recorder.ctx.rng)
            )
            query = WorkloadQuery(kind, parameter, search, initiator)
            report = run_query(
                runner.ctx, TEXT_ATTR, query, SimilarityStrategy.ADAPTIVE
            )
            if kind is QueryKind.TOP_N:
                recorder.top_n_string(TEXT_ATTR, search, parameter, 5)
            else:
                recorder.sim_join_anchored(TEXT_ATTR, search, TEXT_ATTR, parameter)
            assert report.decisions
            assert _series(report) == _series(recorder.last_cost())
