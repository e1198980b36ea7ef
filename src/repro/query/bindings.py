"""Variable bindings — the executor's working representation.

A :class:`BindingSet` is a bag of rows, each row a ``variable -> value``
mapping.  Joins between binding sets are local hash joins at the query
initiator: the network cost of *producing* the rows was already charged by
the operators, combining them is free (Section 3: intermediate results are
materialized at processing peers / the initiator).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping

from repro.storage.triple import ValueType

Row = dict[str, ValueType]


class BindingSet:
    """An ordered bag of variable-binding rows."""

    def __init__(self, rows: Iterable[Mapping[str, ValueType]] | None = None):
        self.rows: list[Row] = [dict(r) for r in rows] if rows is not None else []

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    @classmethod
    def unit(cls) -> "BindingSet":
        """The join identity: a single empty row."""
        return cls([{}])

    def variables(self) -> set[str]:
        """Variables bound in at least one row (uniform by construction)."""
        return set(self.rows[0]) if self.rows else set()

    def distinct_values(self, variable: str) -> list[ValueType]:
        """Sorted distinct values of one variable across all rows."""
        values = {row[variable] for row in self.rows if variable in row}
        return sorted(values, key=lambda v: (str(type(v)), str(v)))

    def filter(self, predicate: Callable[[Row], bool]) -> "BindingSet":
        """Rows satisfying ``predicate``."""
        return BindingSet(row for row in self.rows if predicate(row))

    def join(self, other: "BindingSet") -> "BindingSet":
        """Natural hash join on the shared variables.

        With no shared variables this degenerates to a cross product —
        the planner orders steps to avoid that, but correctness does not
        depend on it.
        """
        shared = sorted(self.variables() & other.variables())
        if not shared:
            return BindingSet(
                {**left, **right} for left in self.rows for right in other.rows
            )
        index: dict[tuple, list[Row]] = defaultdict(list)
        for row in other.rows:
            index[tuple(row[v] for v in shared)].append(row)
        joined: list[Row] = []
        for left in self.rows:
            key = tuple(left[v] for v in shared)
            for right in index.get(key, ()):
                joined.append({**left, **right})
        return BindingSet(joined)

    def extend_each(
        self,
        expander: Callable[[Row], Iterable[Mapping[str, ValueType]]],
    ) -> "BindingSet":
        """Bind-join: expand every row by the extensions ``expander`` yields.

        Rows with no extension are dropped (inner-join semantics).
        """
        result: list[Row] = []
        for row in self.rows:
            for extension in expander(row):
                result.append({**row, **extension})
        return BindingSet(result)
