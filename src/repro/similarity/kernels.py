"""Edit-distance verification kernel — the fast path under one contract.

A kernel answers the same question as
:func:`repro.similarity.edit_distance.edit_distance_within`: the exact
edit distance between the query and a candidate when it is ``<= d``, the
saturating sentinel ``d + 1`` otherwise.  Kernels change *wall-clock
only* — match sets, memo contents and every measured message/byte series
stay bit-identical whichever kernel runs (the property suite and
``tests/test_kernel_parity.py`` check exactly that differential against
the banded-DP twin in ``tests/reference/kernel.py``).

One kernel ships, :class:`MyersKernel` — Myers' bit-parallel algorithm
(JACM 1999).  The query is compiled once into per-character bitmasks
(:class:`MyersQuery`); each candidate is then verified in
``O(len(candidate))`` word operations instead of ``O(d * len)`` DP
cells.  Queries up to 64 characters use a single int-as-bitvector
block; longer queries use the multi-block variant with carry
propagation between words.  Optionally, a numpy-vectorized bag filter
prunes whole candidate batches before any bit-parallel work: strings
within edit distance ``d`` share at least ``max(|a|, |b|) - d``
characters with the query *counted as multisets* (the bag distance,
Bartolini, Ciaccia and Patella, SPIRE 2002), so candidates below that
bound are rejected with zero per-candidate python work.  For a column
encoded once (:class:`EncodedColumn`) the same scan also runs *across*
candidates: one ``uint64`` lane per string, one step per character
position.

The default, :func:`resolve_kernel` of ``None``, is Myers with the numpy
prefilter when numpy is importable and plain Myers otherwise; the kernel
layer must degrade gracefully without numpy, which is a dev-only
dependency.  ``QueryEngine(edit_kernel=...)`` takes another
:class:`EditKernel` instance, the seam tests pin a kernel through.
"""

from __future__ import annotations

from collections import Counter

try:  # numpy is optional (requirements-dev only) — prefilter gates on it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None

#: Machine word width used by the bit-parallel kernel.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1
_HIGH_BIT = 1 << (WORD_BITS - 1)

#: Batches smaller than this skip the numpy prefilter — the fixed cost
#: of building the code arrays outweighs pruning a handful of strings.
PREFILTER_MIN_BATCH = 8

#: Multi-block queries fall back to the shared-prefix sorted path once a
#: batch is at least this large: sorted natural-language candidates share
#: prefixes the trie-style DP reuses, which beats re-running a
#: multi-word bit-parallel scan per candidate.
SHARED_FALLBACK_MIN_BATCH = 32


def numpy_available() -> bool:
    """True when the optional numpy prefilter dependency is importable."""
    return _np is not None


class MyersQuery:
    """One query compiled for bit-parallel scanning.

    Holds the per-character bitmask table (``masks[block][ch]`` has bit
    ``i % 64`` set iff ``query[i] == ch`` for positions in ``block``) so
    one query verifies thousands of candidates without re-deriving
    masks.  Instances are built once per :class:`BatchVerifier` and are
    immutable afterwards.
    """

    __slots__ = ("query", "length", "blocks", "masks")

    def __init__(self, query: str):
        self.query = query
        self.length = len(query)
        self.blocks = max(1, (self.length + WORD_BITS - 1) // WORD_BITS)
        masks: list[dict[str, int]] = [{} for __ in range(self.blocks)]
        for index, ch in enumerate(query):
            block = masks[index // WORD_BITS]
            block[ch] = block.get(ch, 0) | (1 << (index % WORD_BITS))
        self.masks = masks

    def within(self, text: str, d: int) -> int:
        """``edit_distance_within(self.query, text, d)``, bit-parallel."""
        m = self.length
        n = len(text)
        if n - m > d or m - n > d:
            return d + 1
        if self.query == text:
            return 0
        if m == 0:
            return n if n <= d else d + 1
        if self.blocks == 1:
            return self._within_one_block(text, d)
        return self._within_multi_block(text, d)

    def _within_one_block(self, text: str, d: int) -> int:
        """Single-word Myers scan (queries of at most 64 characters).

        Python ints are unbounded, so every complement and shift is
        re-masked to the pattern width; ``score`` tracks the distance at
        the pattern's last row and the scan exits early once even a
        match-only suffix could not bring it back under ``d``.
        """
        m = self.length
        mask = (1 << m) - 1
        last = 1 << (m - 1)
        get = self.masks[0].get
        vp = mask
        vn = 0
        score = m
        remaining = len(text)
        for ch in text:
            eq = get(ch, 0)
            xv = eq | vn
            xh = ((((eq & vp) + vp) & mask) ^ vp) | eq
            ph = vn | (mask & ~(xh | vp))
            mh = vp & xh
            if ph & last:
                score += 1
            elif mh & last:
                score -= 1
            ph = ((ph << 1) | 1) & mask
            vp = ((mh << 1) & mask) | (mask & ~(xv | ph))
            vn = ph & xv
            remaining -= 1
            if score - remaining > d:
                return d + 1
        return score if score <= d else d + 1


    def _within_multi_block(self, text: str, d: int) -> int:
        """Multi-word Myers scan with horizontal carries between blocks.

        ``hin``/``hout`` propagate the horizontal delta (-1/0/+1) from
        each 64-bit block into the next; the score is read at the
        pattern's true last row, so the phantom high bits of the final
        block never influence the result (carries only propagate
        upward).
        """
        blocks = self.blocks
        masks = self.masks
        last = 1 << ((self.length - 1) % WORD_BITS)
        last_block = blocks - 1
        vp = [_WORD_MASK] * blocks
        vn = [0] * blocks
        score = self.length
        remaining = len(text)
        for ch in text:
            hin = 1
            for b in range(blocks):
                eq = masks[b].get(ch, 0)
                pv = vp[b]
                mv = vn[b]
                xv = eq | mv
                if hin < 0:
                    eq |= 1
                xh = ((((eq & pv) + pv) & _WORD_MASK) ^ pv) | eq
                ph = mv | (_WORD_MASK & ~(xh | pv))
                mh = pv & xh
                if b == last_block:
                    if ph & last:
                        score += 1
                    elif mh & last:
                        score -= 1
                    hout = 0
                elif ph & _HIGH_BIT:
                    hout = 1
                elif mh & _HIGH_BIT:
                    hout = -1
                else:
                    hout = 0
                ph = (ph << 1) & _WORD_MASK
                mh = (mh << 1) & _WORD_MASK
                if hin > 0:
                    ph |= 1
                elif hin < 0:
                    mh |= 1
                vp[b] = mh | (_WORD_MASK & ~(xv | ph))
                vn[b] = ph & xv
                hin = hout
            remaining -= 1
            if score - remaining > d:
                return d + 1
        return score if score <= d else d + 1


def myers_within(a: str, b: str, d: int) -> int:
    """One-shot bit-parallel ``edit_distance_within(a, b, d)``.

    Matches the reference contract exactly, including the degenerate
    ``d < 0`` case (0 when equal, 1 otherwise).  For repeated probes of
    one query, build a :class:`MyersQuery` (or use the kernel through
    :class:`~repro.similarity.verify.BatchVerifier`) so masks are
    computed once.
    """
    if d < 0:
        return 0 if a == b else 1
    return MyersQuery(a).within(b, d)


# -- candidate prefilter -------------------------------------------------------


def _query_bag(query: str):
    """``(points, caps)``: the query's distinct code points and how often
    each occurs, ``caps`` ending in a 0 for every character the query
    lacks — O(distinct characters), whatever the largest code point.
    ``None`` for an empty query or one with a lone surrogate."""
    if not query:
        return None
    try:
        query.encode("utf-32-le")
    except UnicodeEncodeError:
        return None
    tally = Counter(query)
    return _np.array([*map(ord, tally)]), _np.array([*tally.values(), 0])


def _prefilter_survivors(bag, pending: list[str], query_length: int, d: int):
    """Indices of ``pending`` that survive the bag-distance bound.

    ``ed(a, b) >= max(|a|, |b|) - |bag(a) ∩ bag(b)|`` (Bartolini, Ciaccia
    and Patella, SPIRE 2002): the right side is 0 for equal strings and
    one edit moves it by at most one, so rejecting a candidate whose
    multiset intersection with the query is below ``max(len, m) - d`` is
    sound; the bound subsumes the length screen.  Vectorized over the
    batch: a table built per batch maps each UTF-32 code point to its
    slot in the query's ``bag`` (code points above the query's largest
    are clipped into the "not in the query" slot first, so the table
    ends there), one ``bincount`` counts candidate × slot, and each row
    is clipped at the query's counts and summed.  ``None`` when the batch
    cannot be encoded (lone surrogates), which skips the filter.
    """
    try:
        joined = "".join(pending).encode("utf-32-le")
    except UnicodeEncodeError:
        return None
    points, caps = bag
    count, width = len(pending), len(caps)
    top = int(points.max()) + 1
    table = _np.full(top + 1, width - 1)
    table[points] = _np.arange(width - 1)
    slot = table.take(_np.minimum(_np.frombuffer(joined, dtype=_np.uint32), top))
    lengths = _np.fromiter(map(len, pending), dtype=_np.intp, count=count)
    slot += _np.arange(0, count * width, width).repeat(lengths)
    counts = _np.bincount(slot, minlength=count * width).reshape(count, width)
    common = _np.minimum(counts, caps).sum(1)
    return _np.flatnonzero(common >= _np.maximum(lengths, query_length) - d).tolist()


# -- pre-encoded columns -------------------------------------------------------


#: Character positions an :class:`EncodedColumn` holds per lane.  The
#: batch scan takes queries of at most ``WORD_BITS`` characters and only
#: lanes within ``d`` of the query's length, so longer strings are never
#: walked and stay out of the matrix.
COLUMN_ROWS = 2 * WORD_BITS


class EncodedColumn:
    """A column of strings prepared once for any number of queries.

    ``values`` are the column's distinct strings — shortest first when
    ``matrix`` is asked for, in first-seen order otherwise.  With the
    matrix asked for, numpy importable and no lone surrogate among
    them, the strings of at most :data:`COLUMN_ROWS` characters — a
    prefix of ``values`` — are also held as ``codes``: one row per
    character position, one lane per string, each character replaced by
    its index in the column's own dense ``alphabet`` (in the smallest
    unsigned type that fits it), which is the layout the batch Myers
    scan walks.  ``active_from[j]`` is the first lane longer than ``j``
    characters: at position ``j`` the live lanes are exactly that
    suffix, so no padding is ever read.  Without the matrix (``codes is
    None``) a verifier answers the column through its per-candidate
    path; an owner that will use the column once asks for none, because
    encoding costs more than one per-candidate pass saves.
    """

    __slots__ = ("values", "lengths", "codes", "alphabet", "active_from")

    def __init__(self, strings, matrix: bool = True):
        self.lengths = self.codes = self.alphabet = self.active_from = None
        if not matrix:
            self.values = tuple(dict.fromkeys(strings))
            return
        self.values = tuple(sorted(dict.fromkeys(strings), key=len))
        if _np is None:
            return
        count = len(self.values)
        lengths = _np.fromiter(map(len, self.values), dtype=_np.intp, count=count)
        lanes = int(_np.searchsorted(lengths, COLUMN_ROWS, side="right"))
        if not lanes:
            return
        try:
            joined = "".join(self.values[:lanes]).encode("utf-32-le")
        except UnicodeEncodeError:
            return
        points, dense = _np.unique(
            _np.frombuffer(joined, dtype=_np.uint32), return_inverse=True
        )
        short = lengths[:lanes]
        rows = int(short[-1])
        lane = _np.repeat(_np.arange(lanes, dtype=_np.intp), short)
        position = _np.arange(len(lane), dtype=_np.intp) - (
            _np.cumsum(short) - short
        )[lane]
        codes = _np.zeros(
            (rows, lanes), dtype=_np.min_scalar_type(max(len(points) - 1, 0))
        )
        codes[position, lane] = dense
        self.lengths = lengths
        self.codes = codes
        self.alphabet = {
            chr(point): code for code, point in enumerate(points.tolist())
        }
        self.active_from = _np.searchsorted(
            short, _np.arange(rows), side="right"
        ).tolist()


def _batch_one_block(state: MyersQuery, column: EncodedColumn, d: int):
    """The single-block Myers scan of ``state`` run across ``column``.

    Same recurrence as :meth:`MyersQuery._within_one_block`, one
    ``uint64`` ``vp``/``vn``/``score`` lane per string and one step per
    character position.  Every step only carries information towards
    higher bits, so the bits above the pattern need no masking.  Lanes
    whose length differs from the query's by more than ``d`` are never
    scanned.  Returns the strings within ``d`` with their distances, and
    how many lanes were scanned.
    """
    m = state.length
    lengths = column.lengths
    low = int(_np.searchsorted(lengths, m - d, side="left"))
    high = int(_np.searchsorted(lengths, m + d, side="right"))
    if low >= high:
        return {}, 0
    eq_table = _np.zeros(len(column.alphabet), dtype=_np.uint64)
    for ch, mask in state.masks[0].items():
        code = column.alphabet.get(ch)
        if code is not None:
            eq_table[code] = mask
    one = _np.uint64(1)
    last = _np.uint64(1 << (m - 1))
    width = high - low
    vp = _np.full(width, _WORD_MASK, dtype=_np.uint64)
    vn = _np.zeros(width, dtype=_np.uint64)
    score = _np.full(width, m, dtype=_np.int64)
    codes = column.codes
    active_from = column.active_from
    for j in range(int(lengths[high - 1])):
        start = max(active_from[j], low)
        offset = start - low
        pv = vp[offset:]
        nv = vn[offset:]
        eq = eq_table.take(codes[j, start:high])
        xv = eq | nv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = nv | ~(xh | pv)
        mh = pv & xh
        live = score[offset:]
        live += (ph & last) != 0
        live -= (mh & last) != 0
        ph = (ph << one) | one
        vp[offset:] = (mh << one) | ~(xv | ph)
        vn[offset:] = ph & xv
    near = _np.flatnonzero(score <= d)
    values = column.values
    return {
        values[low + lane]: distance
        for lane, distance in zip(near.tolist(), score[near].tolist())
    }, width


# -- kernels -------------------------------------------------------------------


class EditKernel:
    """Interface verified batches and probes route through.

    A kernel is stateless and shareable; :meth:`bind` compiles per-query
    state once, and the bound object serves every probe and batch of
    that :class:`~repro.similarity.verify.BatchVerifier`.
    """

    #: Identity reported in diagnostics (``CostReport.verifier``,
    #: ``/stats``).
    name = "abstract"

    def bind(self, query: str, d: int) -> "BoundKernel":
        raise NotImplementedError


class BoundKernel:
    """Kernel state compiled for one ``(query, d)`` pair."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        self.d = d

    def distance(self, candidate: str) -> int:
        """Exact distance when ``<= d``, else the ``d + 1`` sentinel."""
        raise NotImplementedError

    def survivors(self, pending: list[str]):
        """Batch prefilter: surviving indices, or ``None`` when inactive."""
        return None

    def prefers_shared(self, batch_size: int) -> bool:
        """True when the sorted shared-prefix DP should run this batch."""
        return True

    def column_distances(self, column: EncodedColumn):
        """Batch scan of a pre-encoded column: ``({string: distance} for
        the strings within d, lanes scanned)``, or ``None`` when this
        kernel has no batch form for it."""
        return None


class _BoundMyers(BoundKernel):
    __slots__ = ("state", "bag")

    def __init__(self, query: str, d: int, prefilter: bool):
        super().__init__(d)
        self.state = MyersQuery(query)
        # Built on the first batch big enough to filter, so binding pays
        # for the masks alone; ``False`` when there is none to build.
        self.bag = None if prefilter else False

    def distance(self, candidate: str) -> int:
        return self.state.within(candidate, self.d)

    def survivors(self, pending: list[str]):
        if len(pending) < PREFILTER_MIN_BATCH:
            return None
        if self.bag is None:
            self.bag = _query_bag(self.state.query) or False
        if not self.bag:
            return None
        return _prefilter_survivors(self.bag, pending, self.state.length, self.d)

    def prefers_shared(self, batch_size: int) -> bool:
        # Multi-block scans pay ``blocks`` words per candidate character;
        # on large sorted batches the shared-prefix DP amortizes better.
        return (
            self.state.blocks > 1 and batch_size >= SHARED_FALLBACK_MIN_BATCH
        )

    def column_distances(self, column: EncodedColumn):
        if (
            column.codes is None
            or not 0 < self.state.length <= WORD_BITS
            or self.state.length + self.d > COLUMN_ROWS
        ):
            return None
        return _batch_one_block(self.state, column, self.d)


class MyersKernel(EditKernel):
    """Bit-parallel kernel with an optional numpy batch prefilter."""

    __slots__ = ("prefilter",)

    def __init__(self, prefilter: bool | None = None):
        if prefilter is None:
            prefilter = numpy_available()
        self.prefilter = bool(prefilter) and numpy_available()

    @property
    def name(self) -> str:
        return "myers+prefilter" if self.prefilter else "myers"

    def bind(self, query: str, d: int) -> BoundKernel:
        return _BoundMyers(query, d, self.prefilter)


def resolve_kernel(spec: EditKernel | None = None) -> EditKernel:
    """``spec`` itself, or the default :class:`MyersKernel` for ``None``.

    Anything else — a kernel *name* included — raises :class:`TypeError`.
    """
    if isinstance(spec, EditKernel):
        return spec
    if spec is None:
        return MyersKernel()
    raise TypeError(f"edit kernel must be an EditKernel or None, not {spec!r}")
