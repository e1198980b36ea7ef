"""Reference: the pure-python banded DP as an edit kernel.

Every candidate, single probe or batch member alike, goes through
:func:`edit_distance_within` — the definition itself: the exact edit
distance when it is ``<= d``, the saturating sentinel ``d + 1``
otherwise.  No bit-parallel scan, no prefilter and no column pass is
involved, which is what makes it the ground truth the shipped
:class:`~repro.similarity.kernels.MyersKernel` is property-tested
against.

Engines verify through the kernel their pool resolves, so tests pin one
by patching module-level names, never through an option:
:func:`engines_verify_with` makes engines built inside it verify through
a given kernel, and :func:`numpy_free_myers` is the shipped kernel as a
numpy-free interpreter builds it (no prefilter).  :func:`myers_within`
is one probe of the shipped bit-parallel scan, for comparing it with
the DP pair by pair.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro import engine as engine_module
from repro.similarity import kernels
from repro.similarity.kernels import BoundKernel, EditKernel, MyersKernel, MyersQuery
from repro.similarity.verify import VerifierPool


def edit_distance_within(a: str, b: str, d: int) -> int:
    """Banded Levenshtein: exact distance if ``<= d``, else ``d + 1``.

    The length filter comes first: strings whose lengths differ by more
    than ``d`` cannot be within ``d``.  The DP then only fills cells with
    ``|i - j| <= d``; any row whose band minimum exceeds ``d`` aborts.
    """
    if d < 0:
        return 0 if a == b else 1
    length_gap = abs(len(a) - len(b))
    if length_gap > d:
        return d + 1
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    n, m = len(a), len(b)
    infinity = d + 1
    previous = [j if j <= d else infinity for j in range(m + 1)]
    for i in range(1, n + 1):
        lo = max(1, i - d)
        hi = min(m, i + d)
        current = [infinity] * (m + 1)
        if i <= d:
            current[0] = i
        ch_a = a[i - 1]
        row_min = current[0] if i <= d else infinity
        for j in range(lo, hi + 1):
            cost = 0 if ch_a == b[j - 1] else 1
            best = previous[j - 1] + cost
            if previous[j] + 1 < best:
                best = previous[j] + 1
            if current[j - 1] + 1 < best:
                best = current[j - 1] + 1
            if best > infinity:
                best = infinity
            current[j] = best
            if best < row_min:
                row_min = best
        if row_min >= infinity:
            return infinity
        previous = current
    result = previous[m]
    return result if result <= d else infinity


def myers_within(a: str, b: str, d: int) -> int:
    """One-shot ``MyersQuery(a).within(b, d)`` with the DP's ``d < 0``
    contract (0 when equal, 1 otherwise)."""
    if d < 0:
        return 0 if a == b else 1
    return MyersQuery(a).within(b, d)


class _BoundReference(BoundKernel):
    __slots__ = ("query",)

    def __init__(self, query: str, d: int):
        super().__init__(d)
        self.query = query

    def distance(self, candidate: str) -> int:
        return edit_distance_within(self.query, candidate, self.d)


class ReferenceKernel(EditKernel):
    """The banded DP behind the :class:`EditKernel` interface."""

    name = "reference"

    def bind(self, query: str, d: int) -> BoundKernel:
        return _BoundReference(query, d)


@contextmanager
def engines_verify_with(kernel: EditKernel):
    """Engines built inside the block verify through ``kernel``."""
    with mock.patch.object(
        engine_module, "VerifierPool", lambda: VerifierPool(kernel=kernel)
    ):
        yield


def numpy_free_myers() -> MyersKernel:
    """:class:`MyersKernel` built as if numpy did not import: plain Myers."""
    with mock.patch.object(kernels, "_np", None):
        return MyersKernel()
