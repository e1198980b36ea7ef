"""Unit tests for trie construction and the partition oracle."""

import pytest

from repro.core.errors import OverlayError
from repro.overlay import trie
from repro.overlay.hashing import OrderPreservingStringHash

from tests.reference.routing_tables import partition_loads


class TestUniformPaths:
    def test_power_of_two(self):
        paths = trie.uniform_paths(8)
        assert len(paths) == 8
        assert all(len(p) == 3 for p in paths)

    def test_single_partition(self):
        assert trie.uniform_paths(1) == [""]

    def test_non_power_of_two_depth_spread(self):
        paths = trie.uniform_paths(6)
        depths = {len(p) for p in paths}
        assert depths <= {2, 3}
        assert len(paths) == 6

    def test_cover_validates(self):
        for count in (1, 2, 3, 5, 8, 13, 100):
            trie.validate_cover(trie.uniform_paths(count))

    def test_rejects_zero(self):
        with pytest.raises(OverlayError):
            trie.uniform_paths(0)


class TestDataAwarePaths:
    def _keys(self, words, bits=16):
        hasher = OrderPreservingStringHash(bits)
        return [hasher.key(w) for w in words]

    def test_cover_complete(self):
        keys = self._keys(["apple"] * 50 + ["banana"] * 30 + ["zebra"] * 5)
        paths = trie.data_aware_paths(8, keys, 16)
        trie.validate_cover(paths)
        assert len(paths) == 8

    def test_balances_skewed_data(self):
        # Heavy lexicographic skew: every word starts with "aa", so a
        # uniform split would dump the whole corpus into one partition.
        import random

        rng = random.Random(4)
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        words = [
            "aa" + "".join(rng.choice(alphabet) for __ in range(6))
            for __ in range(300)
        ]
        # A complete trie must still spend one leaf per empty sibling
        # level (the "aa" prefix pins ~11 of them), so enough peers are
        # needed for the waste to amortize — as in any real P-Grid.
        keys = self._keys(words, bits=32)
        paths = trie.data_aware_paths(64, keys, 32)
        loads = partition_loads(paths, keys)
        uniform_loads = partition_loads(trie.uniform_paths(64), keys)
        mean = len(words) / 64
        assert max(loads) <= 4 * mean
        assert max(uniform_loads) >= 10 * mean  # the skew is real

    def test_uniform_fallback_without_samples(self):
        assert trie.data_aware_paths(4, [], 16) == trie.uniform_paths(4)

    def test_depth_capped_by_key_bits(self):
        keys = self._keys(["same"] * 100, bits=8)
        paths = trie.data_aware_paths(64, keys, 8)
        assert all(len(p) <= 8 for p in paths)


class TestValidateCover:
    def test_detects_overlap(self):
        with pytest.raises(OverlayError):
            trie.validate_cover(["0", "01", "1"])

    def test_detects_gap(self):
        with pytest.raises(OverlayError):
            trie.validate_cover(["00", "1"])

    def test_detects_missing_top(self):
        with pytest.raises(OverlayError):
            trie.validate_cover(["00", "01", "10"])

    def test_accepts_root(self):
        trie.validate_cover([""])


class TestFindResponsible:
    def test_full_key(self):
        paths = sorted(trie.uniform_paths(8))
        index = trie.find_responsible(paths, "0110")
        assert paths[index] == "011"

    def test_key_shorter_than_paths(self):
        paths = sorted(trie.uniform_paths(8))
        index = trie.find_responsible(paths, "01")
        assert paths[index].startswith("01")

    def test_every_key_has_owner(self):
        paths = sorted(trie.uniform_paths(5))
        for value in range(16):
            key = format(value, "04b")
            index = trie.find_responsible(paths, key)
            assert key.startswith(paths[index])

    def test_partition_load_counts(self):
        paths = trie.uniform_paths(4)
        keys = ["0000", "0001", "1000", "1111"]
        assert partition_loads(paths, keys) == [2, 0, 1, 1]
