"""Batched edit-distance verification — the final step of Algorithm 2.

Every similarity operator ends the same way: a pile of candidate strings
must be checked against one ``(query, d)`` pair (line 23's ``dist()``
call).  Doing that with one from-scratch banded DP per candidate wastes
three kinds of work that this module recovers:

* **repeats** — workload candidates repeat heavily (the same value is
  stored under many oids, replicas and gram keys), so every distinct
  ``(query, candidate)`` pair is computed at most once and memoized;
* **shared prefixes** — candidates sorted lexicographically share long
  prefixes (natural-language corpora especially); the banded DP rows for
  a common prefix are computed once and reused, trie-style, instead of
  re-deriving them per candidate.  A prefix whose band minimum already
  exceeds ``d`` is *dead*: every candidate extending it is rejected with
  no further DP work;
* **length filtering** — the ``|len(a) - len(b)| <= d`` screen never
  costs DP work: the flat path's vectorized bag bound subsumes it
  (with an inline guard when the prefilter is off), and the shared path
  screens candidates before sorting.

The per-candidate distance work itself routes through an
:class:`~repro.similarity.kernels.EditKernel` — Myers' bit-parallel
scan with a numpy bag prefilter when numpy is importable
(:func:`~repro.similarity.kernels.resolve_kernel`).  Kernels change
wall-clock only: the verifier is provably equivalent to calling
:func:`repro.similarity.edit_distance.edit_distance_within` per
candidate — the property suite checks exactly that, against the
banded-DP kernel in ``tests/reference/kernel.py`` — so no kernel
changes any match set.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence

from repro.similarity.kernels import EditKernel, EncodedColumn, resolve_kernel

#: Default bound on live verifiers in a :class:`VerifierPool`.  Each
#: verifier's memo grows with the distinct candidates its query has
#: seen, so bounding the verifier count bounds total memo memory in the
#: long-lived service; distance memos are store-independent, making
#: eviction always safe (never a correctness event).
DEFAULT_POOL_LIMIT = 512


class KernelCounters:
    """Verification-work tallies, aggregated across verifiers.

    One instance is shared by every verifier of a pool (so totals
    survive verifier eviction); standalone verifiers get their own.
    ``computed`` counts candidates that actually reached a kernel scan
    or DP extension, ``memo_hits`` dict probes that skipped all work,
    ``prefilter_rejected`` candidates the vectorized bag filter
    discarded before any scan, and ``batches_flat`` /
    ``batches_shared`` record which batch path the kernel chose.
    """

    __slots__ = (
        "computed",
        "memo_hits",
        "prefilter_rejected",
        "batches_flat",
        "batches_shared",
    )

    def __init__(self) -> None:
        self.computed = 0
        self.memo_hits = 0
        self.prefilter_rejected = 0
        self.batches_flat = 0
        self.batches_shared = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class BatchVerifier:
    """Verifies candidate strings against one ``(query, d)`` pair.

    Use :meth:`distances` for batches and :meth:`distance` for one-off
    probes; both return the exact edit distance when it is ``<= d`` and
    the saturating sentinel ``d + 1`` otherwise, and both share one memo
    across the verifier's lifetime.  ``kernel`` selects the distance
    implementation (default: :func:`resolve_kernel`'s Myers kernel);
    batches run either the kernel's flat per-candidate path or the
    sorted shared-prefix DP below, whichever the kernel prefers for the
    batch's size — the choice is recorded on ``counters``.  A column
    encoded once by its owner
    (:class:`~repro.similarity.kernels.EncodedColumn`) goes through
    :meth:`distances` as well and is answered without the memo.
    """

    __slots__ = ("query", "d", "_memo", "computed", "kernel", "_bound", "counters")

    def __init__(
        self,
        query: str,
        d: int,
        kernel: EditKernel | None = None,
        counters: KernelCounters | None = None,
    ):
        self.query = query
        self.d = d
        self._memo: dict[str, int] = {}
        #: Distinct candidates actually sent through a kernel scan or DP
        #: (diagnostics: ``len`` of every ``distances``/``distance``
        #: input minus memo, length-filter and prefilter hits).
        self.computed = 0
        self.kernel = resolve_kernel(kernel)
        self._bound = self.kernel.bind(query, d)
        self.counters = counters if counters is not None else KernelCounters()

    # -- single-candidate path ------------------------------------------------

    def distance(self, candidate: str) -> int:
        """Memoized ``edit_distance_within(query, candidate, d)``."""
        memo = self._memo
        found = memo.get(candidate)
        if found is not None:
            self.counters.memo_hits += 1
            return found
        result = self._bound.distance(candidate)
        self.computed += 1
        self.counters.computed += 1
        memo[candidate] = result
        return result

    def within(self, candidate: str) -> bool:
        """Predicate form: True iff ``edit(query, candidate) <= d``."""
        return self.distance(candidate) <= self.d

    # -- batched path ---------------------------------------------------------

    def distances(
        self, candidates: Iterable[str] | EncodedColumn
    ) -> dict[str, int]:
        """Distances for every distinct candidate, batched.

        Duplicates collapse first (``dict.fromkeys``, C-speed, keeps
        first-appearance order); already-memoized candidates cost a dict
        probe; the rest are verified through the kernel's preferred
        batch path (flat bit-parallel scan or shared-prefix banded DP).

        A pre-encoded :class:`~repro.similarity.kernels.EncodedColumn`
        is answered sparsely — only its strings within ``d`` — see
        :meth:`_column_distances`.
        """
        if isinstance(candidates, EncodedColumn):
            return self._column_distances(candidates)
        memo = self._memo
        result: dict[str, int] = {}
        if memo:
            fresh: list[str] = []
            hits = 0
            for candidate in dict.fromkeys(candidates):
                found = memo.get(candidate)
                if found is None:
                    fresh.append(candidate)
                else:
                    hits += 1
                    result[candidate] = found
            self.counters.memo_hits += hits
        else:
            fresh = list(dict.fromkeys(candidates))
        if fresh:
            verified = self._verify(fresh)
            memo.update(verified)
            if not result:
                return verified
            result.update(verified)
        return result

    def _column_distances(self, column: EncodedColumn) -> dict[str, int]:
        """One pass over a column that was encoded once: the distances
        of its strings within ``d`` (in a region-sized column nearly all
        are beyond it, and those are left out).

        The kernel's batch scan when it has one for this query and
        column, the per-candidate paths otherwise — identical values
        either way.  A column is its owner's unit of reuse (the naive
        operator retains the whole region outcome), so nothing here
        reads or writes the per-candidate memo: a region-sized pass
        must not park a region of strings in a pooled verifier.
        """
        batch = self._bound.column_distances(column)
        if batch is None:
            d = self.d
            return {
                value: distance
                for value, distance in self._verify(column.values).items()
                if distance <= d
            }
        near, scanned = batch
        counters = self.counters
        counters.batches_flat += 1
        counters.prefilter_rejected += len(column.values) - scanned
        counters.computed += scanned
        self.computed += scanned
        return near

    def _verify(self, fresh: Sequence[str]) -> dict[str, int]:
        """Distances of distinct candidates through the kernel's
        preferred per-candidate batch path; touches no memo."""
        verified: dict[str, int] = {}
        if self._bound.prefers_shared(len(fresh)):
            self.counters.batches_shared += 1
            d = self.d
            reject = d + 1
            query_length = len(self.query)
            pending = []
            for candidate in fresh:
                if abs(len(candidate) - query_length) > d:
                    verified[candidate] = reject
                else:
                    pending.append(candidate)
            if pending:
                pending.sort()
                self._verify_sorted(pending, verified)
        else:
            self.counters.batches_flat += 1
            self._verify_flat(fresh, verified)
        return verified

    def _verify_flat(
        self, pending: Sequence[str], result: dict[str, int]
    ) -> None:
        """Per-candidate kernel scans, after an optional batch prefilter.

        The kernel's vectorized bag filter (when active) rejects
        candidates that provably exceed ``d`` — every length-incompatible
        one among them — with zero per-candidate python work; survivors
        each get one bit-parallel scan.  Without it the loop screens
        lengths inline, so length-rejected candidates never count as
        ``computed`` on either path.
        """
        counters = self.counters
        d = self.d
        reject = d + 1
        query_length = len(self.query)
        keep = self._bound.survivors(pending)
        if keep is not None and len(keep) < len(pending):
            counters.prefilter_rejected += len(pending) - len(keep)
            # Provisionally reject everything in bulk, then overwrite the
            # survivors with their real scans below.
            result.update(dict.fromkeys(pending, reject))
            pending = [pending[index] for index in keep]
        distance = self._bound.distance
        computed = 0
        for candidate in pending:
            if abs(len(candidate) - query_length) > d:
                result[candidate] = reject
                continue
            result[candidate] = distance(candidate)
            computed += 1
        self.computed += computed
        counters.computed += computed

    def _verify_sorted(self, pending: list[str], result: dict[str, int]) -> None:
        """Shared-prefix banded DP over sorted, length-compatible candidates.

        ``rows[i]`` is the banded DP row comparing the current candidate's
        ``i``-char prefix against the query: ``rows[i][j]`` = distance
        between prefix and ``query[:j]`` for ``|i - j| <= d``, saturated
        at ``d + 1`` outside the band.  Moving from one candidate to the
        next pops rows down to their common prefix and extends from there;
        ``dead_depth`` marks a prefix whose whole band exceeded ``d``, so
        candidates sharing it are rejected without touching the DP.
        """
        query = self.query
        counters = self.counters
        d = self.d
        m = len(query)
        infinity = d + 1
        first_row = [j if j <= d else infinity for j in range(m + 1)]
        rows: list[list[int]] = [first_row]
        previous = ""
        dead_depth: int | None = None
        for candidate in pending:
            if candidate == query:
                result[candidate] = 0
                continue
            shared = _common_prefix_len(previous, candidate)
            previous = candidate
            if dead_depth is not None:
                if shared >= dead_depth:
                    result[candidate] = infinity
                    continue
                dead_depth = None
            del rows[shared + 1 :]
            self.computed += 1
            counters.computed += 1
            outcome: int | None = None
            for i in range(len(rows), len(candidate) + 1):
                row = self._extend_row(rows[i - 1], candidate[i - 1], i)
                if row is None:
                    dead_depth = i
                    outcome = infinity
                    break
                rows.append(row)
            if outcome is None:
                final = rows[len(candidate)][m]
                outcome = final if final <= d else infinity
            result[candidate] = outcome

    def _extend_row(
        self, previous: list[int], ch: str, i: int
    ) -> list[int] | None:
        """One banded DP step; ``None`` when the whole band exceeds ``d``."""
        query = self.query
        d = self.d
        m = len(query)
        infinity = d + 1
        row = [infinity] * (m + 1)
        row_min = infinity
        if i <= d:
            row[0] = i
            row_min = i
        lo = i - d if i - d > 1 else 1
        hi = i + d if i + d < m else m
        for j in range(lo, hi + 1):
            best = previous[j - 1] + (0 if ch == query[j - 1] else 1)
            other = previous[j] + 1
            if other < best:
                best = other
            other = row[j - 1] + 1
            if other < best:
                best = other
            if best > infinity:
                best = infinity
            row[j] = best
            if best < row_min:
                row_min = best
        if row_min >= infinity:
            return None
        return row


class VerifierPool:
    """Caches :class:`BatchVerifier` instances per ``(query, d)`` pair.

    One pool per composite operator run (a join's probes, a top-N's
    deepening rounds) lets every probe touching the same query string
    share one memo.  The pool is size-bounded: beyond ``max_verifiers``
    live verifiers the least-recently-used one is evicted, which in a
    long-lived service caps total memo growth.  Distance memos depend
    only on the ``(query, candidate, d)`` strings — never on store
    state — so eviction is always safe; an evicted pair is simply
    recomputed on its next appearance.  ``hits`` / ``misses`` /
    ``evictions`` count pool traffic, and every verifier shares one
    :class:`KernelCounters`, so kernel-level totals survive eviction.
    """

    __slots__ = (
        "_verifiers",
        "kernel",
        "max_verifiers",
        "hits",
        "misses",
        "evictions",
        "counters",
    )

    def __init__(
        self,
        kernel: EditKernel | None = None,
        max_verifiers: int = DEFAULT_POOL_LIMIT,
    ) -> None:
        if max_verifiers < 1:
            raise ValueError(
                f"max_verifiers must be >= 1, got {max_verifiers}"
            )
        self._verifiers: OrderedDict[tuple[str, int], BatchVerifier] = (
            OrderedDict()
        )
        self.kernel = resolve_kernel(kernel)
        self.max_verifiers = max_verifiers
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.counters = KernelCounters()

    def get(self, query: str, d: int) -> BatchVerifier:
        key = (query, d)
        verifier = self._verifiers.get(key)
        if verifier is not None:
            self.hits += 1
            self._verifiers.move_to_end(key)
            return verifier
        self.misses += 1
        verifier = BatchVerifier(
            query, d, kernel=self.kernel, counters=self.counters
        )
        self._verifiers[key] = verifier
        while len(self._verifiers) > self.max_verifiers:
            self._verifiers.popitem(last=False)
            self.evictions += 1
        return verifier

    def memo_entries(self) -> int:
        """Total memoized ``(query, candidate)`` pairs across live verifiers."""
        return sum(
            len(verifier._memo) for verifier in self._verifiers.values()
        )

    def stats(self) -> dict[str, object]:
        """Pool traffic, bounds, and aggregated kernel counters."""
        return {
            "kernel": self.kernel.name,
            "verifiers": len(self._verifiers),
            "max_verifiers": self.max_verifiers,
            "memo_entries": self.memo_entries(),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            **self.counters.as_dict(),
        }

    def __len__(self) -> int:
        return len(self._verifiers)


def _common_prefix_len(a: str, b: str) -> int:
    """Length of the longest common prefix of two strings."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i
