"""Trie construction: carving the key space into peer partitions.

A P-Grid network of ``n`` peers partitions the binary key space into
``n_partitions`` leaf prefixes forming a *complete prefix-free cover*: every
full-width key has exactly one covering leaf.  With structural replication
``k``, ``n_partitions = n / k`` and ``k`` peers share each leaf.

Two builders are provided (paper §2):

* :func:`uniform_paths` — splits the space evenly; leaf depths differ by at
  most one.  This is what a perfectly balanced trie looks like.
* :func:`data_aware_paths` — mirrors P-Grid's construction/load-balancing
  algorithm [2]: the space is split recursively, allocating peers to each
  half *proportionally to the data volume* that falls into it, so every
  peer ends up storing roughly the same number of entries even under
  heavily skewed key distributions (e.g. order-preserved English words).
"""

from __future__ import annotations

import bisect
from collections.abc import MutableMapping, Sequence

from repro.core.errors import OverlayError
from repro.overlay import keys as keyspace


def uniform_paths(n_partitions: int) -> list[str]:
    """Leaf paths of a balanced trie with ``n_partitions`` leaves.

    Peers are distributed by recursive halving: ``ceil(n/2)`` leaves under
    ``'0'`` and ``floor(n/2)`` under ``'1'``, giving depths that differ by
    at most one.  The result is sorted (in-order = key order).
    """
    if n_partitions < 1:
        raise OverlayError(f"need at least one partition, got {n_partitions}")
    paths: list[str] = []

    def split(prefix: str, count: int) -> None:
        if count == 1:
            paths.append(prefix)
            return
        left = (count + 1) // 2
        split(prefix + "0", left)
        split(prefix + "1", count - left)

    split("", n_partitions)
    return paths


def data_aware_paths(
    n_partitions: int,
    sample_keys: Sequence[str],
    key_bits: int,
    count_cache: MutableMapping[str, int] | None = None,
) -> list[str]:
    """Leaf paths balanced against an observed key distribution.

    ``sample_keys`` is a (representative sample of the) multiset of data
    keys that will be stored.  At every split, peers are allocated to the
    two halves proportionally to how many sample keys fall into each —
    P-Grid's construction algorithm converges to the same shape through
    pairwise peer interactions [2]; we compute it directly since the
    simulator has a global view.

    Falls back to uniform splitting inside regions that contain no sample
    keys, and guarantees every partition gets at least one peer.

    A prefix's count is the run of the sorted sample between its lowest
    and highest full-width keys, ``prefix`` padded with ``0`` and with
    ``1`` (two bisections, no integer conversion).

    ``count_cache`` memoizes the per-prefix sample counts.  The counts
    depend only on ``(sample_keys, key_bits)``, so a sweep that grows the
    partition count over a *fixed* dataset can pass the same mapping into
    every call and re-derive each trie from mostly cached splits — the
    incremental construction used by
    :class:`repro.overlay.incremental.IncrementalNetworkBuilder`.  The
    caller owns the cache and must not reuse it across different key
    samples or key widths.
    """
    if n_partitions < 1:
        raise OverlayError(f"need at least one partition, got {n_partitions}")
    if n_partitions > (1 << key_bits):
        raise OverlayError(
            f"{n_partitions} partitions cannot tile a {key_bits}-bit key space"
        )
    if not sample_keys:
        return uniform_paths(n_partitions)
    sorted_keys = sorted(sample_keys)
    paths: list[str] = []

    def count_in(prefix: str) -> int:
        """Sample keys covered by ``prefix`` (binary search on sorted keys)."""
        if count_cache is not None:
            cached = count_cache.get(prefix)
            if cached is not None:
                return cached
        lo = bisect.bisect_left(sorted_keys, prefix.ljust(key_bits, "0"))
        hi = bisect.bisect_right(sorted_keys, prefix.ljust(key_bits, "1"))
        count = hi - lo
        if count_cache is not None:
            count_cache[prefix] = count
        return count

    def split(prefix: str, count: int) -> None:
        if count == 1:
            paths.append(prefix)
            return
        left_data = count_in(prefix + "0")
        right_data = count_in(prefix + "1")
        total = left_data + right_data
        if total == 0:
            left = (count + 1) // 2
        else:
            left = round(count * left_data / total)
            left = max(1, min(count - 1, left))
        # Each child subtree can hold at most 2^(remaining depth) leaves;
        # without this clamp, extreme skew (many identical sample keys)
        # would push more peers into a subtree than it has key slots.
        side_capacity = 1 << (key_bits - len(prefix) - 1)
        left = max(left, count - side_capacity)
        left = min(left, side_capacity)
        split(prefix + "0", left)
        split(prefix + "1", count - left)

    split("", n_partitions)
    return paths


def validate_cover(paths: Sequence[str]) -> None:
    """Check that ``paths`` is a complete prefix-free cover of the key space.

    Raises :class:`OverlayError` if any path prefixes another (overlap) or
    if the united intervals leave a gap.  Used by tests and by the network
    constructor as a safety net.
    """
    ordered = sorted(paths)
    for i in range(len(ordered) - 1):
        if ordered[i + 1].startswith(ordered[i]):
            raise OverlayError(
                f"overlapping partitions: {ordered[i]!r} and {ordered[i + 1]!r}"
            )
    # Completeness: the paths, in key order, must tile [0, 2^b) exactly,
    # where b is the maximum depth.
    bits = max((len(p) for p in ordered), default=0)
    position = 0
    for path in ordered:
        lo, hi = keyspace.prefix_interval(path, bits)
        if lo != position:
            raise OverlayError(f"gap in key-space cover before {path!r}")
        position = hi + 1
    if position != 1 << bits:
        raise OverlayError("key-space cover does not reach the top of the space")


def find_responsible(paths: Sequence[str], key: str) -> int:
    """Index (in sorted order) of the leaf path responsible for ``key``.

    ``paths`` must be sorted.  A leaf is responsible when its path is a
    prefix of the key (or equals it).  Runs in O(log n) via bisection —
    this is the simulator's "oracle" used for correctness checks; actual
    queries route hop-by-hop through :mod:`repro.overlay.routing`.
    """
    index = bisect.bisect_right(paths, key) - 1
    if index >= 0 and key.startswith(paths[index]):
        return index
    # ``key`` may be shorter than the path (a prefix query): the bisection
    # neighbour to the right is then the first covered leaf.
    if index + 1 < len(paths) and paths[index + 1].startswith(key):
        return index + 1
    if index >= 0 and paths[index].startswith(key):
        return index
    raise OverlayError(f"no partition responsible for key {key!r}")


def partition_load(paths: Sequence[str], data_keys: Sequence[str]) -> list[int]:
    """Entries per partition — the load-balance diagnostic.

    Returns a list aligned with ``sorted(paths)`` counting how many of
    ``data_keys`` each partition would store.
    """
    ordered = sorted(paths)
    loads = [0] * len(ordered)
    for key in data_keys:
        loads[find_responsible(ordered, key)] += 1
    return loads
