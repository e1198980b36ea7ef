"""Positional q-grams and q-samples (Section 4, after Gravano et al. [7]).

Following Gravano et al., strings are *extended* before decomposition:
``q - 1`` copies of a begin marker are prepended and ``q - 1`` copies of an
end marker appended, so a string of length ``n`` yields ``n + q - 1``
overlapping grams (at least ``q - 1 + 1`` even for the empty string).  The
markers are control characters that cannot occur in real data.

This extension is what makes the paper's count bound exact: one edit
operation destroys at most ``q`` of the extended grams, so two strings
within edit distance ``d`` share at least

    ``max(|s1|, |s2|) - 1 - (d - 1) * q``

extended q-grams — the formula quoted in Section 4.  (A non-positive bound
means the filter is vacuous; see :mod:`repro.similarity.filters` for how
operators deal with that regime.)

Two decompositions are provided:

* :func:`positional_qgrams` — all overlapping extended grams with their
  starting positions (the *qgram* strategy);
* :func:`qgram_sample` — ``d + 1`` non-overlapping grams taken every q-th
  position (the *qsample* strategy, after Schallehn et al. [11]): cheaper
  to look up because ``d`` edits can destroy at most ``d`` of ``d + 1``
  disjoint grams, so at least one sampled gram survives in any true match.

:func:`gram_counts` counts what the cost model needs of either one
without building it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.errors import StorageError

#: Begin-of-string marker used for gram extension ('#' in Gravano et al.).
BEGIN_PAD = "\x01"

#: End-of-string marker used for gram extension ('$' in Gravano et al.).
END_PAD = "\x02"


@dataclass(frozen=True, slots=True)
class PositionalQGram:
    """A q-gram together with where it came from.

    ``position`` is the gram's starting offset in the *extended* source
    string; ``source_length`` the length of the original (unextended)
    string.  Both feed the position and length filters of Algorithm 2,
    line 8.
    """

    gram: str
    position: int
    source_length: int


def extend(text: str, q: int) -> str:
    """The extended form: ``(q-1) * BEGIN + text + (q-1) * END``."""
    if q < 1:
        raise StorageError(f"q must be >= 1, got {q}")
    pad = q - 1
    return BEGIN_PAD * pad + text + END_PAD * pad


def positional_qgrams(text: str, q: int) -> list[PositionalQGram]:
    """All overlapping positional q-grams of the extended string.

    A string of length ``n`` yields exactly ``n + q - 1`` grams.
    """
    source_length = len(text)
    return [
        PositionalQGram(gram, position, source_length)
        for gram, position in qgram_tuples(text, q)
    ]


def qgram_tuples(text: str, q: int) -> list[tuple[str, int]]:
    """All overlapping extended q-grams as plain ``(gram, position)`` tuples.

    The hot-path form of :func:`positional_qgrams`: index builds and
    operators that decompose thousands of strings per query pay for a
    :class:`PositionalQGram` allocation per gram otherwise.  The source
    length is ``len(text)`` and needs no per-gram copy.
    """
    extended = extend(text, q)
    return [(extended[i : i + q], i) for i in range(len(extended) - q + 1)]


def qgram_sample(text: str, q: int, d: int) -> list[PositionalQGram]:
    """A q-sample: ``d + 1`` non-overlapping grams, every q-th position.

    Processes the extended string left to right, taking grams at positions
    ``0, q, 2q, ...`` (the paper's "starting from each qth position").
    When the string is too short to supply ``d + 1`` disjoint grams — the
    paper's "if s is long enough" proviso — the pigeonhole guarantee
    breaks, so this function *falls back to the full overlapping set*,
    which for such short strings is barely larger than the sample anyway.
    """
    if d < 0:
        raise StorageError(f"d must be >= 0, got {d}")
    extended = extend(text, q)
    wanted = d + 1
    if len(extended) < q * wanted:
        return positional_qgrams(text, q)
    source_length = len(text)
    sample: list[PositionalQGram] = []
    position = 0
    while position + q <= len(extended) and len(sample) < wanted:
        sample.append(PositionalQGram(extended[position : position + q], position, source_length))
        position += q
    return sample


def gram_counts(text: str, q: int, d: int | None = None) -> tuple[int, int]:
    """``(distinct gram texts, total gram characters)`` of a decomposition.

    The two numbers the cost model reads off a query's grams, counted on
    the extended string without building a gram: of
    :func:`positional_qgrams` when ``d`` is None, of
    :func:`qgram_sample` (with its short-string fallback to the full
    set) otherwise.
    """
    extended = extend(text, q)
    if d is not None:
        if d < 0:
            raise StorageError(f"d must be >= 0, got {d}")
        if len(extended) >= q * (d + 1):
            sample = {extended[i : i + q] for i in range(0, q * (d + 1), q)}
            return len(sample), q * (d + 1)
    # Every start at once: the i-th gram is the i-th tuple of q shifted
    # copies, so one C-level zip stands in for a slice per start.
    grams = set(zip(*[extended[shift:] for shift in range(q)]))
    return len(grams), q * max(0, len(extended) - q + 1)


def qgram_set(text: str, q: int) -> set[str]:
    """The plain (unpositioned) extended q-gram set of ``text``."""
    return {gram for gram, __ in qgram_tuples(text, q)}


def count_filter_threshold(len_a: int, len_b: int, q: int, d: int) -> int:
    """Minimum shared extended q-grams for strings within distance ``d``.

    The paper's bound: ``max(|s1|, |s2|) - 1 - (d - 1) * q``.  A
    non-positive threshold means the count filter cannot prune anything
    (and gram lookups alone cannot guarantee completeness).
    """
    return max(len_a, len_b) - 1 - (d - 1) * q


def guaranteed_complete(query_length: int, q: int, d: int) -> bool:
    """Can gram lookups for this query guarantee zero false negatives?

    True when every candidate within distance ``d`` must share at least
    one extended gram: the bound above is ``>= 1`` for all candidate
    lengths exactly when ``query_length >= 2 + (d - 1) * q`` (candidates
    can only raise the ``max``).
    """
    return count_filter_threshold(query_length, 0, q, d) >= 1


def shared_gram_count(a: str, b: str, q: int) -> int:
    """Number of extended q-grams (multiset) shared by two strings."""
    grams_a = Counter(gram for gram, __ in qgram_tuples(a, q))
    grams_b = Counter(gram for gram, __ in qgram_tuples(b, q))
    return sum((grams_a & grams_b).values())
