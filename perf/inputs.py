"""Seeded inputs: corpora, search-string samplers and workload sizes.

The same ``--seed`` always produces the same corpus and the same
operation stream.  Two samplers keep a time-bounded run *representative*
of its corpus however many operations fit into it:

* :class:`Spread` walks a pool ordered by ``(length, string)`` with a
  golden-ratio stride, so every prefix of its picks covers the pool's
  length law and alphabet range evenly — a run's cost then depends on the
  corpus, not on which few strings a short random sample happened to hit;
* :class:`Zipf` draws ranks with probability ∝ ``1 / rank**s`` over a
  seeded dealing of ranks to its pool and re-deals every ``redeal`` draws
  (popularity drift): hot strings still repeat — that is what memos
  cache — but no single string's cost decides the run, and every deal's
  hot set has the pool's own mix of string lengths.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass

#: Zipf exponent of the service and mutation read mixes.
ZIPF_EXPONENT = 1.1

_GOLDEN = 0.6180339887498949


class Spread:
    """Evenly spread picks from a pool (low-discrepancy, seeded start)."""

    def __init__(self, pool: Sequence[str], rng: random.Random):
        self.pool = sorted(pool, key=lambda s: (len(s), s))
        self._u = rng.random()

    def __call__(self) -> str:
        self._u = (self._u + _GOLDEN) % 1.0
        return self.pool[int(self._u * len(self.pool))]


def _van_der_corput(index: int) -> float:
    """0.5, 0.25, 0.75, 0.125, ... — the base-2 radical inverse."""
    value, scale = 0.0, 0.5
    while index:
        value += scale * (index & 1)
        index >>= 1
        scale /= 2
    return value


class Zipf:
    """Zipf-distributed picks from a pool with drifting popularity.

    A *deal* assigns popularity ranks to strings.  The first ``HOT`` ranks
    take positions 1/2, 1/4, 3/4, 1/8, ... of the pool ordered by length
    (ties in seeded random order), so the hot set of every deal — the few
    strings that receive most of the traffic — has the pool's own length
    mix; which strings of each length are hot is random.  The rest follow
    in shuffled order.
    """

    HOT = 32

    def __init__(
        self,
        pool: Sequence[str],
        rng: random.Random,
        redeal: int,
        exponent: float = ZIPF_EXPONENT,
    ):
        self._pool = list(pool)
        self._rng = rng
        self._redeal = redeal
        self._draws = 0
        self._cumulative = list(
            itertools.accumulate(
                1.0 / rank**exponent for rank in range(1, len(self._pool) + 1)
            )
        )
        self._ranked = self._deal()

    def _deal(self) -> list[str]:
        rng = self._rng
        by_length = sorted(self._pool, key=lambda s: (len(s), rng.random()))
        hot: dict[int, str] = {}
        for rank in range(1, min(self.HOT, len(by_length)) + 1):
            position = int(_van_der_corput(rank) * len(by_length))
            while position in hot:
                position = (position + 1) % len(by_length)
            hot[position] = by_length[position]
        rest = [s for position, s in enumerate(by_length) if position not in hot]
        rng.shuffle(rest)
        return list(hot.values()) + rest

    def __call__(self) -> str:
        if self._draws and self._draws % self._redeal == 0:
            self._ranked = self._deal()
        self._draws += 1
        target = self._rng.random() * self._cumulative[-1]
        return self._ranked[bisect.bisect_left(self._cumulative, target)]


def shuffled_cycle(pattern: Sequence, rng: random.Random):
    """Endless stream of ``pattern`` re-shuffled per pass: exact mix shares."""
    pattern = list(pattern)
    while True:
        rng.shuffle(pattern)
        yield from pattern


@dataclass(frozen=True)
class Sizes:
    """How big one workload is at one ``--scale``.

    ``min_ops`` is the fixed operation prefix every repeat completes
    whatever the clock says; ``sim_messages``/``sim_bytes`` are summed over
    exactly that prefix, which makes them machine-independent.
    """

    corpus: int
    peers: int
    min_ops: int
    write_probes: int


#: ``--scale`` -> workload -> sizes.  Names never change with the scale.
SIZES: dict[str, dict[str, Sizes]] = {
    "default": {
        # min_ops counts repetitions of the 6-query mix on four engines.
        "fig1_replay": Sizes(corpus=4000, peers=512, min_ops=12, write_probes=60),
        "serve_http": Sizes(corpus=1200, peers=64, min_ops=500, write_probes=60),
        # min_ops counts steps (1 write batch + 10 reads); 64 steps end with
        # the first churn episode.
        "mutate_mix": Sizes(corpus=4000, peers=512, min_ops=64, write_probes=0),
        # min_ops counts passes over the 10-operation pattern; a delete
        # batch costs ~0.1 s at this many peers, hence the short probe.
        "large_overlay": Sizes(corpus=4000, peers=8192, min_ops=80, write_probes=20),
    },
    "tiny": {
        "fig1_replay": Sizes(corpus=300, peers=32, min_ops=1, write_probes=4),
        "serve_http": Sizes(corpus=200, peers=16, min_ops=20, write_probes=4),
        "mutate_mix": Sizes(corpus=300, peers=32, min_ops=3, write_probes=0),
        "large_overlay": Sizes(corpus=300, peers=128, min_ops=2, write_probes=4),
    },
}

#: Draws between two popularity re-deals of a :class:`Zipf` sampler.
ZIPF_REDEAL = 60

#: Triples per write batch, everywhere a workload writes.
WRITE_BATCH = 8
