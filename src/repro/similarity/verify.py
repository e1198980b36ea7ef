"""Batched edit-distance verification — the final step of Algorithm 2.

Every similarity operator ends the same way: a pile of candidate strings
must be checked against one ``(query, d)`` pair (line 23's ``dist()``
call).  Doing that with one from-scratch banded DP per candidate wastes
two kinds of work that this module recovers:

* **repeats** — workload candidates repeat heavily (the same value is
  stored under many oids, replicas and gram keys), so every distinct
  ``(query, candidate)`` pair is computed at most once and memoized;
* **length filtering** — the ``|len(a) - len(b)| <= d`` screen never
  costs a scan: the vectorized bag bound subsumes it, with an inline
  guard for candidates the prefilter does not see.

The per-candidate distance work itself routes through an
:class:`~repro.similarity.kernels.EditKernel` — Myers' bit-parallel
scan with a numpy bag prefilter when numpy is importable
(:func:`~repro.similarity.kernels.resolve_kernel`).  Kernels change
wall-clock only: the verifier is provably equivalent to calling the
banded DP ``edit_distance_within`` of ``tests/reference/kernel.py`` per
candidate — the property suite checks exactly that — so no kernel
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
    ``computed`` counts candidates that actually reached a kernel scan,
    ``memo_hits`` dict probes that skipped all work, and
    ``prefilter_rejected`` candidates the vectorized bag filter
    discarded before any scan.
    """

    __slots__ = ("computed", "memo_hits", "prefilter_rejected")

    def __init__(self) -> None:
        self.computed = 0
        self.memo_hits = 0
        self.prefilter_rejected = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class BatchVerifier:
    """Verifies candidate strings against one ``(query, d)`` pair.

    Use :meth:`distances` for batches and :meth:`distance` for one-off
    probes; both return the exact edit distance when it is ``<= d`` and
    the saturating sentinel ``d + 1`` otherwise, and both share one memo
    across the verifier's lifetime.  ``kernel`` selects the distance
    implementation (default: :func:`resolve_kernel`'s Myers kernel);
    work tallies go to ``counters``.  A column encoded once by its owner
    (:class:`~repro.similarity.kernels.EncodedColumn`) goes through
    :meth:`distances` as well and is answered without the memo.
    """

    __slots__ = ("query", "d", "_memo", "kernel", "_bound", "counters")

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
        probe; the rest are verified by :meth:`_verify`.

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
        counters.prefilter_rejected += len(column.values) - scanned
        counters.computed += scanned
        return near

    def _verify(self, pending: Sequence[str]) -> dict[str, int]:
        """Distances of distinct candidates, one kernel scan each after
        the kernel's batch prefilter; touches no memo.

        The vectorized bag filter (when active) rejects candidates that
        provably exceed ``d`` — every length-incompatible one among them
        — with zero per-candidate python work; survivors each get one
        scan.  Without it the loop screens lengths inline, so
        length-rejected candidates never count as ``computed`` either
        way.
        """
        result: dict[str, int] = {}
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
        counters.computed += computed
        return result


class VerifierPool:
    """Caches :class:`BatchVerifier` instances per ``(query, d)`` pair.

    One pool per composite operator run (a join's probes, a top-N's
    deepening rounds) lets every probe touching the same query string
    share one memo.  The pool is size-bounded: beyond
    :data:`DEFAULT_POOL_LIMIT` (read when the pool is built) live
    verifiers the least-recently-used one is evicted, which in a
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

    def __init__(self, kernel: EditKernel | None = None) -> None:
        self._verifiers: OrderedDict[tuple[str, int], BatchVerifier] = (
            OrderedDict()
        )
        self.kernel = resolve_kernel(kernel)
        self.max_verifiers = DEFAULT_POOL_LIMIT
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

