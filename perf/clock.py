"""Time at reference speed: a calibration probe beside every measurement.

The sandbox this benchmark runs in does not hold its speed: the same
Python loop, timed once a second, took 119–158 ms within a minute, and
whole runs came out 20–50 % slower for minutes at a time (steal time stays
0 — the guest cannot see why).  Medians cannot remove a slowdown that
covers a whole run, so every *timing* the end-to-end metrics are built from
is divided by a **speed factor** measured right beside it:

    factor = (time of a fixed probe, now) / NOMINAL_NS

``factor > 1`` means the machine is slower than the reference just now.
The probe is ~1 ms of what the program itself mostly does, in roughly its
proportions: md5 digests, q-gram slicing, ``Counter`` and set updates,
small-object construction and method calls, bisects, a keyed sort.  The mix
matters: recorded for seven minutes beside a fixed engine workload while a
second process loaded the other core on and off (the workload's 2-second
medians varied 17.6–34.3 ms), workload time followed this probe with a
log-log slope of 0.91 and 3.7 % residual variation; a probe of dictionary
lookups and slicing alone under-reacted (slope 1.2, 5 %), pointer chasing
more so (1.8).  It is a first-order correction, not an exact one.

The probe must run **on the CPU that does the work**: two probes pinned
to the sandbox's two CPUs and run side by side each flipped between 1.0 and
1.5 ms for seconds at a time, independently of one another.  Workers are
therefore pinned to one CPU and probe on it; the HTTP server child probes
itself every 100 ms on its own event loop and hands the samples to the
load generator (:mod:`perf.serve_entry`).

Reported times are therefore "milliseconds at reference speed", and rates
"per second at reference speed".  The raw values and the factor are kept
in every repeat's result (``--json``) and the traced run reports the factor
as ``clock.speed_factor``.  Counts, shares and the simulated cost are never
scaled.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from time import perf_counter_ns

from perf.stats import median

#: The probe's duration on the reference container in a quiet phase.
NOMINAL_NS = 1_000_000

#: Probes whose median gives the factor at one instant (nearest in time).
WINDOW = 5

#: Strings one probe works through (of a fixed ring of ``_RING``).
_BATCH = 190
_RING = 3000


class _Record:
    __slots__ = ("key", "digest", "size")

    def __init__(self, key: str, digest: str, size: int):
        self.key, self.digest, self.size = key, digest, size

    def weight(self) -> int:
        return self.size + len(self.key)


class SpeedLog:
    """Probe samples by time of day, and the factors read off them."""

    def __init__(self):
        self.at_ns: list[int] = []
        self.took_ns: list[int] = []

    def extend(self, at_ns: list[int], took_ns: list[int]) -> None:
        """Samples taken elsewhere (the server child's, on its own CPU)."""
        self.at_ns.extend(at_ns)
        self.took_ns.extend(took_ns)

    def factor_at(self, at_ns: int) -> float:
        """Median of the ``WINDOW`` probes nearest in time, over nominal."""
        index = bisect.bisect_left(self.at_ns, at_ns)
        low = max(0, min(index - WINDOW // 2, len(self.at_ns) - WINDOW))
        return median(self.took_ns[low:low + WINDOW]) / NOMINAL_NS

    def factor(self) -> float:
        return median(self.took_ns) / NOMINAL_NS


class SpeedProbe(SpeedLog):
    """A fixed piece of work, timed on demand on the CPU that calls it."""

    def __init__(self):
        super().__init__()
        self._words = [
            f"w{index * 7919 % 10007:05d}x{index % 97}" for index in range(_RING)
        ]
        self._sorted = sorted(self._words)
        self._index = {word: at for at, word in enumerate(self._words)}
        self._next = 0
        # The interpreter specialises a loop over its first executions; the
        # probe must not read that as a slow machine.
        self.burst(3)
        self.at_ns.clear()
        self.took_ns.clear()

    def sample(self) -> int:
        """Run the probe once; remember when and how long."""
        grams_seen: Counter[str] = Counter()
        heavy: set[str] = set()
        out: list[tuple[str, int]] = []
        batch = self._words[self._next:self._next + _BATCH]
        self._next = (self._next + _BATCH) % (_RING - _BATCH)
        started = perf_counter_ns()
        for key in batch:
            digest = hashlib.md5(key.encode()).hexdigest()
            grams = [key[at:at + 3] for at in range(len(key) - 2)]
            for gram in grams:
                grams_seen[gram] += 1
            record = _Record(key, digest[:8], len(grams))
            if record.weight() > 10:
                heavy.add(record.key)
            where = bisect.bisect_left(self._sorted, key)
            out.append((record.digest, where + self._index[key]))
        out.sort(key=lambda item: item[0])
        ended = perf_counter_ns()
        self.at_ns.append(ended)
        self.took_ns.append(ended - started)
        return ended

    def burst(self, count: int = WINDOW) -> None:
        for __ in range(count):
            self.sample()
