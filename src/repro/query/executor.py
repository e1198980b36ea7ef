"""Distributed VQL execution.

The :class:`Executor` walks a :class:`~repro.query.planner.QueryPlan`
step by step, producing variable bindings with the physical operators of
:mod:`repro.query.operators` — every network interaction those operators
perform is charged to the network's message tracer.  The executor
measures nothing itself: :meth:`repro.engine.QueryEngine.query` runs it
inside one :class:`~repro.query.operators.base.OperationScope`, whose
delta is the query's cost report.

Execution model (Section 3: "finally generated query plans are included
in messages, which are routed to the processing peers"): one initiating
peer drives the plan; access steps run in the overlay, joins of collected
bindings happen at the initiator.

Rank-aware queries: when the planner promoted a step to ``TOP_N``, the
executor asks the top-N operator for ``offset + limit`` matches — and if
later joins or residual filters eliminate too many rows, it doubles the
fetch and re-runs (adaptive overfetch), so the push-down never loses
results that a full scan would have found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import RankFunction
from repro.core.errors import ExecutionError
from repro.overlay.messages import CostReport
from repro.query.ast import (
    CompareOp,
    Comparison,
    Const,
    DistCall,
    SelectQuery,
    SortDirection,
    Term,
    Var,
)
from repro.query.bindings import BindingSet, Row
from repro.query.operators.base import MatchedObject, OperatorContext
from repro.query.operators.exact import scan_attribute, select_equals
from repro.query.operators.range_scan import numeric_similar, select_range
from repro.query.operators.similar import similar
from repro.query.operators.string_range import select_string_range
from repro.query.operators.topn import top_n_numeric, top_n_string_nn
from repro.query.planner import AccessMethod, PlanStep, QueryPlan, plan as build_plan
from repro.query.parser import parse
from repro.similarity.edit_distance import edit_distance, edit_distance_within
from repro.similarity.numeric import Interval
from repro.storage.triple import ValueType, is_numeric

#: Widest numeric interval used for one-sided range predicates.
_NUMERIC_EDGE = 1.7e308

#: Overfetch retries for the top-N push-down before giving up on it.
_TOP_N_RETRIES = 4

#: Hard cap for string NN deepening in ORDER BY ... NN queries.
_NN_MAX_DISTANCE = 5


@dataclass
class QueryResult:
    """Rows, cost, and provenance of one executed query."""

    rows: list[Row]
    plan: QueryPlan
    #: Set by :meth:`repro.engine.QueryEngine.query` (its scope's report).
    cost: CostReport | None = None
    bindings: BindingSet = field(repr=False, default_factory=BindingSet)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, variable: str) -> list[ValueType]:
        """All values of one selected variable, in row order."""
        return [row[variable] for row in self.rows]


class Executor:
    """Executes VQL queries against a populated network."""

    def __init__(self, ctx: OperatorContext):
        self.ctx = ctx

    def execute_text(self, text: str, initiator_id: int | None = None) -> QueryResult:
        """Parse, plan and execute VQL text."""
        return self.execute(parse(text), initiator_id)

    def execute(
        self, query: SelectQuery, initiator_id: int | None = None
    ) -> QueryResult:
        """Plan and execute a query AST — cost-based ordering when the
        context holds statistics (:meth:`repro.engine.QueryEngine.analyze`)."""
        query_plan = build_plan(query, self.ctx.catalog)
        if initiator_id is None:
            initiator_id = self.ctx.random_initiator()
        bindings = self._run_with_overfetch(query_plan, initiator_id)
        rows = self._finalize(query, bindings)
        return QueryResult(rows=rows, plan=query_plan, bindings=bindings)

    # -- plan execution -----------------------------------------------------------

    def _run_with_overfetch(
        self, query_plan: QueryPlan, initiator_id: int
    ) -> BindingSet:
        query = query_plan.query
        needed = (query.limit or 0) + query.offset
        has_top_n = any(s.method is AccessMethod.TOP_N for s in query_plan.steps)
        fetch = max(needed, 1)
        for attempt in range(_TOP_N_RETRIES):
            exhausted: list[bool] = []
            bindings = self._run_plan(query_plan, initiator_id, fetch, exhausted)
            if not has_top_n:
                return bindings
            if len(bindings) >= needed or all(exhausted):
                return bindings
            fetch *= 4
        # Push-down kept starving: fall back to an exhaustive run by
        # treating the TOP_N step as a scan (correct, possibly expensive).
        downgraded = QueryPlan(
            query=query,
            steps=[
                PlanStep(s.pattern, AccessMethod.SCAN, cost_rank=s.cost_rank)
                if s.method is AccessMethod.TOP_N
                else s
                for s in query_plan.steps
            ],
            residual_filters=query_plan.residual_filters,
        )
        return self._run_plan(downgraded, initiator_id, fetch, [])

    def _run_plan(
        self,
        query_plan: QueryPlan,
        initiator_id: int,
        top_n_fetch: int,
        exhausted_out: list[bool],
    ) -> BindingSet:
        bindings = BindingSet.unit()
        pending_filters = list(query_plan.residual_filters)
        for step in query_plan.steps:
            if not bindings:
                return bindings
            bindings = self._execute_step(
                step, bindings, initiator_id, query_plan.query, top_n_fetch,
                exhausted_out,
            )
            bindings, pending_filters = self._apply_ready_filters(
                bindings, pending_filters
            )
        if pending_filters:
            unapplied = ", ".join(str(f) for f in pending_filters)
            raise ExecutionError(f"filters left unapplied: {unapplied}")
        return bindings

    def _apply_ready_filters(
        self, bindings: BindingSet, pending: list[Comparison]
    ) -> tuple[BindingSet, list[Comparison]]:
        bound = bindings.variables()
        still_pending: list[Comparison] = []
        for comparison in pending:
            if comparison.variables() <= bound:
                bindings = bindings.filter(
                    lambda row, c=comparison: _evaluate_filter(c, row)
                )
            else:
                still_pending.append(comparison)
        return bindings, still_pending

    # -- step dispatch ---------------------------------------------------------------

    def _execute_step(
        self,
        step: PlanStep,
        bindings: BindingSet,
        initiator_id: int,
        query: SelectQuery,
        top_n_fetch: int,
        exhausted_out: list[bool],
    ) -> BindingSet:
        method = step.method
        if method is AccessMethod.EXACT:
            produced = self._step_exact(step, initiator_id)
        elif method is AccessMethod.STRING_SIMILARITY:
            produced = self._step_string_similarity(step, initiator_id)
        elif method is AccessMethod.NUMERIC_SIMILARITY:
            produced = self._step_numeric_similarity(step, initiator_id)
        elif method is AccessMethod.SCHEMA_SIMILARITY:
            produced = self._step_schema_similarity(step, initiator_id)
        elif method is AccessMethod.RANGE:
            produced = self._step_range(step, initiator_id)
        elif method is AccessMethod.STRING_RANGE:
            produced = self._step_string_range(step, initiator_id)
        elif method is AccessMethod.SCAN:
            produced = self._step_scan(step, initiator_id)
        elif method is AccessMethod.TOP_N:
            produced = self._step_top_n(
                step, initiator_id, query, top_n_fetch, exhausted_out
            )
        elif method is AccessMethod.OID_JOIN:
            return self._step_oid_join(step, bindings, initiator_id)
        elif method is AccessMethod.SIMJOIN_PROBE:
            return self._step_simjoin_probe(step, bindings, initiator_id)
        else:  # pragma: no cover - enum is closed
            raise ExecutionError(f"unsupported access method {method}")
        return bindings.join(produced)

    # -- independent access steps -------------------------------------------------------

    def _step_exact(self, step: PlanStep, initiator_id: int) -> BindingSet:
        attribute = _const_str(step.pattern.predicate)
        value = step.pattern.object
        assert isinstance(value, Const)
        matches = select_equals(
            self.ctx, attribute, value.value, initiator_id, fetch_full_objects=False
        )
        rows = []
        for match in matches:
            row = _subject_row(step, match.oid)
            if row is not None:
                rows.append(row)
        return BindingSet(rows)

    def _step_string_similarity(self, step: PlanStep, initiator_id: int) -> BindingSet:
        spec = step.similarity
        assert spec is not None and spec.target is not None
        attribute = _const_str(step.pattern.predicate)
        result = similar(
            self.ctx, str(spec.target), attribute, spec.edit_limit, initiator_id
        )
        return self._rows_from_matches(
            step, result.matches, attribute, str(spec.target), spec.edit_limit
        )

    def _step_numeric_similarity(self, step: PlanStep, initiator_id: int) -> BindingSet:
        spec = step.similarity
        assert spec is not None and spec.target is not None
        attribute = _const_str(step.pattern.predicate)
        matches = numeric_similar(
            self.ctx,
            attribute,
            float(spec.target),  # type: ignore[arg-type]
            spec.numeric_limit,
            initiator_id,
            fetch_full_objects=False,
        )
        rows = []
        for match in matches:
            if spec.strict and match.distance >= spec.numeric_limit:
                continue
            row = _subject_row(step, match.oid)
            if row is None:
                continue
            row[_var_name(step.pattern.object)] = _numeric_value(match.matched)
            rows.append(row)
        return BindingSet(rows)

    def _step_schema_similarity(self, step: PlanStep, initiator_id: int) -> BindingSet:
        spec = step.similarity
        assert spec is not None and spec.target is not None
        result = similar(
            self.ctx, str(spec.target), "", spec.edit_limit, initiator_id
        )
        predicate_var = _var_name(step.pattern.predicate)
        object_term = step.pattern.object
        rows: list[Row] = []
        for match in result.matches:
            base = _subject_row(step, match.oid)
            if base is None:
                continue
            for triple in match.triples:
                distance = edit_distance_within(
                    str(spec.target), triple.attribute, spec.edit_limit
                )
                if distance > spec.edit_limit:
                    continue
                row = dict(base)
                row[predicate_var] = triple.attribute
                if isinstance(object_term, Var):
                    row[object_term.name] = triple.value
                elif triple.value != object_term.value:
                    continue
                rows.append(row)
        return BindingSet(rows)

    def _step_range(self, step: PlanStep, initiator_id: int) -> BindingSet:
        spec = step.range
        assert spec is not None
        attribute = _const_str(step.pattern.predicate)
        lo = spec.lower if spec.lower is not None else -_NUMERIC_EDGE
        hi = spec.upper if spec.upper is not None else _NUMERIC_EDGE
        triples = select_range(self.ctx, attribute, Interval(lo, hi), initiator_id)
        rows = []
        for triple in triples:
            if not spec.admits(float(triple.value)):
                continue
            row = _subject_row(step, triple.oid)
            if row is None:
                continue
            row[_var_name(step.pattern.object)] = triple.value
            rows.append(row)
        return BindingSet(rows)

    def _step_string_range(self, step: PlanStep, initiator_id: int) -> BindingSet:
        spec = step.string_range
        assert spec is not None
        attribute = _const_str(step.pattern.predicate)
        lo = spec.lower if spec.lower is not None else ""
        hi = spec.upper if spec.upper is not None else "\x7f"
        triples = select_string_range(
            self.ctx,
            attribute,
            lo,
            hi,
            initiator_id,
            lo_strict=spec.lower_strict,
            hi_strict=spec.upper_strict,
        )
        rows = []
        for triple in triples:
            row = _subject_row(step, triple.oid)
            if row is None:
                continue
            row[_var_name(step.pattern.object)] = triple.value
            rows.append(row)
        return BindingSet(rows)

    def _step_scan(self, step: PlanStep, initiator_id: int) -> BindingSet:
        attribute = _const_str(step.pattern.predicate)
        triples = scan_attribute(self.ctx, attribute, initiator_id)
        rows = []
        for triple in triples:
            row = _subject_row(step, triple.oid)
            if row is None:
                continue
            object_term = step.pattern.object
            if isinstance(object_term, Var):
                row[object_term.name] = triple.value
            elif triple.value != object_term.value:
                continue
            rows.append(row)
        return BindingSet(rows)

    def _step_top_n(
        self,
        step: PlanStep,
        initiator_id: int,
        query: SelectQuery,
        fetch: int,
        exhausted_out: list[bool],
    ) -> BindingSet:
        order = query.order_by
        assert order is not None
        attribute = _const_str(step.pattern.predicate)
        if order.is_nearest_neighbour:
            assert order.nn_target is not None
            target = order.nn_target.value
            if is_numeric(target):
                result = top_n_numeric(
                    self.ctx,
                    attribute,
                    fetch,
                    RankFunction.NN,
                    reference=float(target),
                    initiator_id=initiator_id,
                )
            else:
                result = top_n_string_nn(
                    self.ctx,
                    attribute,
                    str(target),
                    fetch,
                    max_distance=_NN_MAX_DISTANCE,
                    initiator_id=initiator_id,
                )
        else:
            rank = (
                RankFunction.MAX
                if order.direction is SortDirection.DESC
                else RankFunction.MIN
            )
            try:
                result = top_n_numeric(
                    self.ctx, attribute, fetch, rank, initiator_id=initiator_id
                )
            except ExecutionError:
                # MIN/MAX ranking is numeric-only (Algorithm 4); a string
                # attribute falls back to the exhaustive scan, which the
                # finalizer then sorts lexicographically.
                exhausted_out.append(True)
                return self._step_scan(
                    PlanStep(step.pattern, AccessMethod.SCAN), initiator_id
                )
        exhausted_out.append(len(result.matches) < fetch)
        rows = []
        for match in result.matches:
            row = _subject_row(step, match.oid)
            if row is None:
                continue
            value = match.value_of(attribute)
            if value is None:
                value = _numeric_value(match.matched)
            row[_var_name(step.pattern.object)] = value
            rows.append(row)
        return BindingSet(rows)

    # -- dependent (bind-join) steps ------------------------------------------------------

    def _step_oid_join(
        self, step: PlanStep, bindings: BindingSet, initiator_id: int
    ) -> BindingSet:
        subject = step.pattern.subject
        if isinstance(subject, Const):
            oids = [str(subject.value)]
            subject_var = None
        else:
            subject_var = subject.name
            oids = [str(v) for v in bindings.distinct_values(subject_var)]
        objects = self.ctx.fetch_objects(
            oids,
            delegating_peer_id=initiator_id,
            initiator_id=initiator_id,
            phase="oid_join",
        )

        def expand(row: Row):
            oid = str(subject.value) if subject_var is None else str(row[subject_var])
            for triple in objects.get(oid, ()):
                extension = _match_pattern_triple(step, triple, row)
                if extension is not None:
                    yield extension

        return bindings.extend_each(expand)

    def _step_simjoin_probe(
        self, step: PlanStep, bindings: BindingSet, initiator_id: int
    ) -> BindingSet:
        spec = step.similarity
        assert spec is not None and spec.partner_var is not None
        attribute = _const_str(step.pattern.predicate)
        partner = spec.partner_var
        probe_cache: dict[ValueType, list[tuple[str, ValueType]]] = {}
        for value in bindings.distinct_values(partner):
            probe_cache[value] = self._probe_similarity(
                attribute, value, spec, initiator_id
            )

        def expand(row: Row):
            for oid, matched in probe_cache.get(row[partner], ()):
                extension = _subject_row(step, oid)
                if extension is None:
                    continue
                object_term = step.pattern.object
                if isinstance(object_term, Var):
                    extension[object_term.name] = matched
                elif matched != object_term.value:
                    continue
                yield extension

        return bindings.extend_each(expand)

    def _probe_similarity(
        self, attribute: str, value: ValueType, spec, initiator_id: int
    ) -> list[tuple[str, ValueType]]:
        """One similarity probe of the join's right side."""
        pairs: list[tuple[str, ValueType]] = []
        if is_numeric(value):
            matches = numeric_similar(
                self.ctx,
                attribute,
                float(value),
                spec.numeric_limit,
                initiator_id,
                fetch_full_objects=False,
            )
            for match in matches:
                if spec.strict and match.distance >= spec.numeric_limit:
                    continue
                pairs.append((match.oid, _numeric_value(match.matched)))
        else:
            result = similar(
                self.ctx, str(value), attribute, spec.edit_limit, initiator_id
            )
            for match in result.matches:
                for triple in match.triples:
                    if triple.attribute != attribute:
                        continue
                    if not isinstance(triple.value, str):
                        continue
                    if edit_distance_within(
                        str(value), triple.value, spec.edit_limit
                    ) <= spec.edit_limit:
                        pairs.append((match.oid, triple.value))
        return pairs

    # -- helpers -------------------------------------------------------------------------

    def _rows_from_matches(
        self,
        step: PlanStep,
        matches: list[MatchedObject],
        attribute: str,
        target: str,
        limit: int,
    ) -> BindingSet:
        """Rows for a string-similarity step, one per qualifying value."""
        rows: list[Row] = []
        for match in matches:
            base = _subject_row(step, match.oid)
            if base is None:
                continue
            for triple in match.triples:
                if triple.attribute != attribute or not isinstance(triple.value, str):
                    continue
                if edit_distance_within(target, triple.value, limit) > limit:
                    continue
                row = dict(base)
                object_term = step.pattern.object
                if isinstance(object_term, Var):
                    row[object_term.name] = triple.value
                elif triple.value != object_term.value:
                    continue
                rows.append(row)
        return BindingSet(rows)

    # -- finalization ---------------------------------------------------------------------

    def _finalize(self, query: SelectQuery, bindings: BindingSet) -> list[Row]:
        rows = list(bindings)
        order = query.order_by
        if order is not None:
            name = order.variable.name
            if order.is_nearest_neighbour:
                assert order.nn_target is not None
                target = order.nn_target.value
                rows.sort(key=lambda row: (_distance(row[name], target), str(row[name])))
            else:
                reverse = order.direction is SortDirection.DESC
                rows.sort(key=lambda row: _sort_key(row[name]), reverse=reverse)
        if query.offset:
            rows = rows[query.offset :]
        if query.limit is not None:
            rows = rows[: query.limit]
        names = [v.name for v in query.select]
        return [{n: row[n] for n in names} for row in rows]


# -- module-level helpers ---------------------------------------------------------------


def _const_str(term: Term) -> str:
    if not isinstance(term, Const) or not isinstance(term.value, str):
        raise ExecutionError(f"expected a constant attribute, got {term}")
    return term.value


def _var_name(term: Term) -> str:
    if not isinstance(term, Var):
        raise ExecutionError(f"expected a variable, got {term}")
    return term.name


def _subject_row(step: PlanStep, oid: str) -> Row | None:
    """Base row binding the pattern's subject, or None on a const mismatch."""
    subject = step.pattern.subject
    if isinstance(subject, Const):
        return {} if str(subject.value) == oid else None
    return {subject.name: oid}


def _match_pattern_triple(step: PlanStep, triple, row: Row) -> Row | None:
    """Extensions contributed by one object triple for an OID_JOIN step."""
    extension: Row = {}
    predicate = step.pattern.predicate
    if isinstance(predicate, Const):
        if triple.attribute != predicate.value:
            return None
    else:
        bound = row.get(predicate.name)
        if bound is not None:
            if triple.attribute != bound:
                return None
        else:
            extension[predicate.name] = triple.attribute
    object_term = step.pattern.object
    if isinstance(object_term, Const):
        if triple.value != object_term.value:
            return None
    else:
        bound = row.get(object_term.name)
        if bound is not None:
            if triple.value != bound:
                return None
        else:
            extension[object_term.name] = triple.value
    return extension


def _numeric_value(text: str) -> ValueType:
    """Recover the numeric type from a stringified match value."""
    value = float(text)
    return int(value) if value.is_integer() else value


def _distance(a: ValueType, b: ValueType) -> float:
    if is_numeric(a) and is_numeric(b):
        return abs(float(a) - float(b))
    if isinstance(a, str) and isinstance(b, str):
        return float(edit_distance(a, b))
    raise ExecutionError(f"dist() between incompatible types: {a!r} vs {b!r}")


def _sort_key(value: ValueType):
    if is_numeric(value):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def _evaluate_filter(comparison: Comparison, row: Row) -> bool:
    left = _evaluate_operand(comparison.left, row)
    right = _evaluate_operand(comparison.right, row)
    op = comparison.op
    if op is CompareOp.EQ:
        return left == right
    if op is CompareOp.NE:
        return left != right
    if is_numeric(left) and is_numeric(right):
        lf, rf = float(left), float(right)
    elif isinstance(left, str) and isinstance(right, str):
        lf, rf = left, right  # type: ignore[assignment]
    else:
        raise ExecutionError(
            f"cannot compare {left!r} with {right!r} in {comparison}"
        )
    if op is CompareOp.LT:
        return lf < rf
    if op is CompareOp.LE:
        return lf <= rf
    if op is CompareOp.GT:
        return lf > rf
    return lf >= rf


def _evaluate_operand(operand, row: Row) -> ValueType:
    if isinstance(operand, Const):
        return operand.value
    if isinstance(operand, Var):
        return row[operand.name]
    if isinstance(operand, DistCall):
        left = _evaluate_operand(operand.left, row)
        right = _evaluate_operand(operand.right, row)
        return _distance(left, right)
    raise ExecutionError(f"cannot evaluate operand {operand!r}")
