"""Reference: the pure-python banded DP as an edit kernel.

Every candidate, single probe or batch member alike, goes through
:func:`repro.similarity.edit_distance.edit_distance_within` — the
definition itself.  No bit-parallel scan, no prefilter and no column
pass is involved, which is what makes it the ground truth the shipped
:class:`~repro.similarity.kernels.MyersKernel` is property-tested
against.

Engines verify through the kernel their pool resolves, so tests pin one
by patching module-level names, never through an option:
:func:`engines_verify_with` makes engines built inside it verify through
a given kernel, and :func:`numpy_free_myers` is the shipped kernel as a
numpy-free interpreter builds it (no prefilter).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro import engine as engine_module
from repro.similarity import kernels
from repro.similarity.edit_distance import edit_distance_within
from repro.similarity.kernels import BoundKernel, EditKernel, MyersKernel
from repro.similarity.verify import VerifierPool


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
