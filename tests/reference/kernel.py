"""Reference: the pure-python banded DP as an edit kernel.

Single probes go through
:func:`repro.similarity.edit_distance.edit_distance_within`; every batch
takes :class:`~repro.similarity.verify.BatchVerifier`'s sorted
shared-prefix path, so a verifier bound to this kernel is bit for bit the
verifier as it ran before any fast kernel existed.  No bit-parallel scan,
no prefilter and no column pass is involved, which is what makes it the
ground truth the shipped :class:`~repro.similarity.kernels.MyersKernel`
is property-tested against.
"""

from __future__ import annotations

from repro.similarity.edit_distance import edit_distance_within
from repro.similarity.kernels import BoundKernel, EditKernel


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
