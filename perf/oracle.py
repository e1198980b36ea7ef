"""Independent answer oracle: brute force over the benchmark's own live set.

The oracle shares no code with ``src/``: it has its own edit-distance DP
and its own copy of which object currently stores which string, updated
by the workloads as they write.  Answers are compared *immediately* (the
live set moves in ``mutate_mix``) but outside every timer.

What "correct" means follows the paper, not the implementation:

* every returned match must be a true match at its true distance
  (soundness) — always;
* the match set must be *complete* wherever the paper guarantees it: for
  the naive broadcast always, for the q-gram strategies when the search
  string is long enough that any string within distance ``d`` shares a
  gram, ``len(s) >= 2 + (d - 1) * q`` (Section 4).  Outside that regime a
  gram lookup may legitimately miss matches, so only soundness is checked;
* top-N deepens ``d = 0, 1, ...`` until it holds ``n`` matches, so its
  sorted distance list must equal brute force up to the largest
  guaranteed radius and be sound beyond it.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

#: q-gram length of the workloads' ``StoreConfig`` (its default).
Q = 3

Match = tuple[str, float]  # (oid, reported distance)


def edit_distance(a: str, b: str, limit: int) -> int:
    """Levenshtein distance, or ``limit + 1`` as soon as it must exceed it."""
    if abs(len(a) - len(b)) > limit:
        return limit + 1
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, 1):
        current = [j]
        best = j
        for i, ca in enumerate(a, 1):
            cell = previous[i - 1] if ca == cb else 1 + min(
                previous[i - 1], previous[i], current[i - 1]
            )
            current.append(cell)
            if cell < best:
                best = cell
        if best > limit:
            return limit + 1
        previous = current
    return previous[-1]


def guaranteed_radius(length: int, max_distance: int) -> int:
    """Largest ``d <= max_distance`` with gram-lookup completeness (or -1)."""
    radius = -1
    for d in range(max_distance + 1):
        if length >= 2 + (d - 1) * Q:
            radius = d
    return radius


class Oracle:
    """Brute-force reference over one string attribute's live values."""

    def __init__(self, triples: Iterable, sample_rate: float, seed: int):
        self.oids_by_value: dict[str, set[str]] = {}
        self.sample_rate = sample_rate
        self._rng = random.Random(seed)
        self.checked = 0
        self.mismatches = 0
        self.insert(triples)

    # -- the live set ---------------------------------------------------------

    def insert(self, triples: Iterable) -> None:
        for triple in triples:
            self.oids_by_value.setdefault(str(triple.value), set()).add(triple.oid)

    def delete(self, triples: Iterable) -> None:
        for triple in triples:
            oids = self.oids_by_value.get(str(triple.value))
            if oids is not None:
                oids.discard(triple.oid)
                if not oids:
                    del self.oids_by_value[str(triple.value)]

    def sampled(self) -> bool:
        """Seeded coin: check this similarity-shaped answer or not."""
        return self._rng.random() < self.sample_rate

    # -- brute force ----------------------------------------------------------

    def _true_matches(self, search: str, limit: int) -> dict[str, int]:
        """oid -> distance for every live string within ``limit``."""
        found: dict[str, int] = {}
        for value, oids in self.oids_by_value.items():
            distance = edit_distance(search, value, limit)
            if distance <= limit:
                for oid in oids:
                    found[oid] = distance
        return found

    def _verdict(self, ok: bool) -> bool:
        self.checked += 1
        if not ok:
            self.mismatches += 1
        return ok

    # -- checks ---------------------------------------------------------------

    def check_exact(self, value: str, oids: Iterable[str]) -> bool:
        return self._verdict(
            sorted(oids) == sorted(self.oids_by_value.get(value, ()))
        )

    def check_similar(
        self, search: str, d: int, matches: Sequence[Match], broadcast: bool
    ) -> bool:
        """Exact match set where completeness is guaranteed, else soundness."""
        truth = self._true_matches(search, d)
        got = dict(matches)
        sound = len(got) == len(matches) and all(
            truth.get(oid) == distance for oid, distance in got.items()
        )
        complete = broadcast or guaranteed_radius(len(search), d) == d
        return self._verdict(sound and (len(got) == len(truth) or not complete))

    def check_strings_within(self, search: str, d: int, values: Iterable[str]) -> bool:
        """VQL ``dist(?w, s) <= d`` projection: the matching strings, with
        multiplicity (one row per object)."""
        truth = self._true_matches(search, d)
        want = sorted(
            value
            for value, oids in self.oids_by_value.items()
            for oid in oids
            if oid in truth
        )
        complete = guaranteed_radius(len(search), d) == d
        got = sorted(values)
        if complete:
            return self._verdict(got == want)
        return self._verdict(all(value in self.oids_by_value for value in got))

    def check_top_n(
        self,
        search: str,
        n: int,
        max_distance: int,
        matches: Sequence[Match],
        broadcast: bool,
    ) -> bool:
        """Sorted distance list vs brute force, up to the guaranteed radius."""
        truth = self._true_matches(search, max_distance)
        distances = [distance for __, distance in matches]
        sound = (
            len(matches) <= n
            and len({oid for oid, __ in matches}) == len(matches)
            and distances == sorted(distances)
            and all(truth.get(oid) == distance for oid, distance in matches)
        )
        radius = (
            max_distance
            if broadcast
            else guaranteed_radius(len(search), max_distance)
        )
        want = sorted(x for x in truth.values() if x <= radius)[:n]
        got = [x for x in distances if x <= radius]
        return self._verdict(sound and got == want)
