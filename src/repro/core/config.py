"""Configuration objects shared across the library.

:class:`StoreConfig` bundles every tunable of the system — key-space width,
q-gram parameters, similarity strategy, replication factor — so that a
network, its storage scheme and its operators are always built from one
consistent parameter set.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

from repro.core.errors import ConfigError

#: Spellings accepted as a false environment flag (case-insensitive,
#: surrounding whitespace ignored).  An *unset* variable uses the
#: caller's default; an empty one is explicit false.
FALSE_FLAG_VALUES = frozenset({"", "0", "false", "no", "off"})

#: Spellings accepted as a true environment flag.
TRUE_FLAG_VALUES = frozenset({"1", "true", "yes", "on"})


def env_flag(name: str, default: bool = False) -> bool:
    """Read a boolean environment variable, normalized like enum names.

    The one sanctioned way to parse an on/off environment switch
    (``REPRO_FULL_SCALE``, ...): values are
    ``.strip().lower()``-normalized first — the same idiom
    :meth:`SimilarityStrategy.from_name` uses — so ``"False"``,
    ``"FALSE"``, ``" no "`` and ``"off"`` all read as false instead of
    silently enabling the flag.  Unset variables return ``default``;
    a value that is neither a known true nor false spelling raises
    :class:`~repro.core.errors.ConfigError` rather than guessing.

    Raw ``os.environ.get(...) not in (...)`` flag parsing is banned by
    ``tools/check_env_flags.py`` precisely because it is case-sensitive;
    route new flags through this helper.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    normalized = raw.strip().lower()
    if normalized in FALSE_FLAG_VALUES:
        return False
    if normalized in TRUE_FLAG_VALUES:
        return True
    raise ConfigError(
        f"environment flag {name}={raw!r} is neither true "
        f"({'/'.join(sorted(TRUE_FLAG_VALUES))}) nor false "
        f"({'/'.join(sorted(v for v in FALSE_FLAG_VALUES if v))}/empty)"
    )


#: Default total key width in bits.  32 bits gives 4 × 10⁹ distinct slots,
#: ample for 10⁵ peers and 10⁶ data entries.
DEFAULT_KEY_BITS = 32

#: Default number of leading bits of an ``attribute#value`` composite key
#: reserved for the attribute part (the ``key(a#v)`` keys of paper §3).
DEFAULT_ATTR_BITS = 12

#: Default q-gram length.  q=3 follows Gravano et al. [7].
DEFAULT_Q = 3

#: Default number of routing references P-Grid keeps per trie level.
DEFAULT_REFS_PER_LEVEL = 2


class SimilarityStrategy(enum.Enum):
    """Physical strategy used by the string-similarity operator.

    * ``NAIVE`` — broadcast the full search string to every peer holding a
      slice of the attribute's value range and compare locally (the paper's
      baseline, Section 4).
    * ``QGRAM`` — look up *all* overlapping positional q-grams of the search
      string (Algorithm 2 with a full q-gram set).
    * ``QSAMPLE`` — look up only ``d + 1`` non-overlapping q-grams sampled
      every q-th position (Algorithm 2 with a q-sample, after [11]).
    * ``ADAPTIVE`` — not a physical strategy itself: each query is resolved
      to one of the three above by the cost model
      (:mod:`repro.query.cost`), using collected statistics when
      available.  This is the "choice depending on cost optimizations"
      the paper defers to ongoing work.  The decision, its predicted
      cost, and the measured cost are recorded on the query's
      :class:`~repro.overlay.messages.CostReport`.
    """

    NAIVE = "strings"
    QGRAM = "qgrams"
    QSAMPLE = "qsamples"
    ADAPTIVE = "adaptive"

    @property
    def is_physical(self) -> bool:
        """True for strategies an operator can execute directly."""
        return self is not SimilarityStrategy.ADAPTIVE

    @classmethod
    def from_name(cls, name: str) -> "SimilarityStrategy":
        """Resolve a strategy from its enum name or paper label.

        Accepts ``"qgram"``, ``"QGRAM"``, ``"qgrams"``, ``"strings"`` etc.
        """
        normalized = name.strip().lower()
        for strategy in cls:
            if normalized in (strategy.name.lower(), strategy.value):
                return strategy
        aliases = {
            "qgram": cls.QGRAM,
            "qsample": cls.QSAMPLE,
            "string": cls.NAIVE,
            "naive": cls.NAIVE,
        }
        if normalized in aliases:
            return aliases[normalized]
        raise ConfigError(f"unknown similarity strategy: {name!r}")


class TrieBalancing(enum.Enum):
    """How peer partitions are carved out of the key space.

    ``DATA_AWARE`` mirrors P-Grid's load balancing [2]: leaf boundaries are
    chosen so every peer stores roughly the same number of entries.
    ``UNIFORM`` splits the key space evenly regardless of data skew and
    exists mainly for the ablation benchmark.
    """

    DATA_AWARE = "data-aware"
    UNIFORM = "uniform"


class RankFunction(enum.Enum):
    """Ranking functions supported by the top-N operator (Algorithm 4)."""

    MIN = "MIN"
    MAX = "MAX"
    NN = "NN"


@dataclass(frozen=True)
class StoreConfig:
    """Immutable bundle of all system parameters.

    Parameters
    ----------
    key_bits:
        Total width of binary keys, in bits.
    attr_bits:
        Leading bits of composite ``A#v`` keys reserved for the attribute.
    q:
        q-gram length for string similarity.
    strategy:
        Default physical strategy for string-similarity queries.
    refs_per_level:
        Routing references kept per trie level (fault tolerance / random
        choice, Section 2).
    replication:
        Structural replication factor: number of peers per key-space
        partition.
    balancing:
        Trie construction policy.
    seed:
        Seed for all randomized choices (routing-reference sampling,
        replica selection).  Experiments are reproducible bit-for-bit.
    index_values:
        Insert ``key(v) -> triple`` entries (keyword search support).
    index_instance_grams:
        Insert ``key(A#q) -> gram entry`` for each value q-gram.
    index_schema_grams:
        Insert ``key(q) -> gram entry`` for each attribute-name q-gram.
    """

    key_bits: int = DEFAULT_KEY_BITS
    attr_bits: int = DEFAULT_ATTR_BITS
    q: int = DEFAULT_Q
    strategy: SimilarityStrategy = SimilarityStrategy.QGRAM
    refs_per_level: int = DEFAULT_REFS_PER_LEVEL
    replication: int = 1
    balancing: TrieBalancing = TrieBalancing.DATA_AWARE
    seed: int = 0
    index_values: bool = True
    index_instance_grams: bool = True
    index_schema_grams: bool = True

    def __post_init__(self) -> None:
        if self.key_bits < 4 or self.key_bits > 128:
            raise ConfigError(f"key_bits must be in [4, 128], got {self.key_bits}")
        if not 0 < self.attr_bits < self.key_bits:
            raise ConfigError(
                f"attr_bits must be in (0, key_bits), got {self.attr_bits}"
            )
        if self.q < 1:
            raise ConfigError(f"q must be >= 1, got {self.q}")
        if self.refs_per_level < 1:
            raise ConfigError(
                f"refs_per_level must be >= 1, got {self.refs_per_level}"
            )
        if self.replication < 1:
            raise ConfigError(f"replication must be >= 1, got {self.replication}")

    @property
    def value_bits(self) -> int:
        """Bits of a composite key left for the value part."""
        return self.key_bits - self.attr_bits

    def replace(self, **changes: object) -> "StoreConfig":
        """Return a copy with the given fields replaced."""
        values = {f: getattr(self, f) for f in self.__dataclass_fields__}
        values.update(changes)
        return StoreConfig(**values)  # type: ignore[arg-type]
