"""Edit distance — the paper's string ``dist()`` (Section 3).

:func:`edit_distance` is the classic two-row Wagner–Fischer Levenshtein;
VQL evaluates ``dist()`` values with it.  The decision form
``edit(a, b) <= d`` that Algorithm 2's verification step (line 23)
needs is answered by :mod:`repro.similarity.kernels`; the banded DP
that defines its contract is the reference kernel in
``tests/reference/kernel.py``.
"""

from __future__ import annotations


def edit_distance(a: str, b: str) -> int:
    """Exact Levenshtein distance (unit insert/delete/substitute costs)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a  # keep the inner row short
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current[j] = min(
                previous[j] + 1,  # delete from a
                current[j - 1] + 1,  # insert into a
                previous[j - 1] + cost,  # substitute
            )
        previous = current
    return previous[-1]
