"""Unit tests for the bit-parallel verification kernels."""

import importlib
import inspect

import pytest

from perf.layers import LAYERS
from repro.engine import QueryEngine
from repro.similarity import kernels
from repro.similarity.edit_distance import edit_distance, edit_distance_within
from repro.similarity.kernels import (
    MyersKernel,
    MyersQuery,
    numpy_available,
    resolve_kernel,
)
from repro.similarity.verify import BatchVerifier, VerifierPool
from tests.reference.kernel import ReferenceKernel, myers_within, numpy_free_myers


def pairs_straddling_word_boundary():
    """(a, b) pairs whose query lengths bracket the 64-char block edge."""
    base = "abcdefghij" * 13  # 130 chars
    out = []
    for m in (1, 63, 64, 65, 127, 128, 129):
        a = base[:m]
        out.append((a, a))
        out.append((a, a[:-1] + "z"))
        out.append((a, a[1:]))
        out.append((a, "x" + a))
        out.append((a, a[: m // 2] + "zz" + a[m // 2 :]))
    return out


class TestMyersWithin:
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_curated_short_pairs(self, d):
        cases = [
            ("", ""), ("", "a"), ("a", ""), ("a", "a"), ("a", "b"),
            ("apple", "apply"), ("apple", "maple"), ("kitten", "sitting"),
            ("abc", "abcabc"), ("zzzz", "aaaa"),
        ]
        for a, b in cases:
            assert myers_within(a, b, d) == edit_distance_within(a, b, d)

    @pytest.mark.parametrize("d", [0, 1, 2, 5])
    def test_word_boundary_pairs(self, d):
        for a, b in pairs_straddling_word_boundary():
            assert myers_within(a, b, d) == edit_distance_within(a, b, d), (
                len(a), len(b), d
            )

    def test_unicode(self):
        cases = [
            ("héllo", "hello"), ("naïve", "naive"), ("日本語", "日本言"),
            ("🙂🙃", "🙂"), ("ß" * 70, "ß" * 68 + "ss"),
        ]
        for a, b in cases:
            for d in (0, 1, 2, 3):
                assert myers_within(a, b, d) == edit_distance_within(a, b, d)

    def test_negative_d_matches_reference_contract(self):
        assert myers_within("same", "same", -1) == 0
        assert myers_within("same", "diff", -1) == 1
        assert edit_distance_within("same", "same", -1) == 0
        assert edit_distance_within("same", "diff", -1) == 1

    def test_sentinel_saturates(self):
        assert myers_within("apple", "zzzzz", 2) == 3
        assert myers_within("a" * 100, "b" * 100, 4) == 5

    def test_exact_value_when_within(self):
        assert myers_within("kitten", "sitting", 5) == edit_distance(
            "kitten", "sitting"
        )

    def test_masks_reused_across_candidates(self):
        state = MyersQuery("portrait of a young woman")
        for text in ("portrait of a young woman", "portrait of a young womn",
                     "portrait of young woman!!"):
            assert state.within(text, 3) == edit_distance_within(
                "portrait of a young woman", text, 3
            )


class TestResolveKernel:
    def test_instance_passthrough(self):
        kernel = ReferenceKernel()
        assert resolve_kernel(kernel) is kernel

    def test_default_is_myers(self):
        assert isinstance(resolve_kernel(None), MyersKernel)
        assert isinstance(resolve_kernel(), MyersKernel)

    @pytest.mark.parametrize("spec", ["reference", "myers", "auto", 0])
    def test_anything_else_raises(self, spec):
        with pytest.raises(TypeError):
            resolve_kernel(spec)

    def test_engine_pool_resolves_the_default(self, word_network):
        engine = QueryEngine(word_network)
        assert isinstance(engine.verifier_pool.kernel, MyersKernel)

    def test_prefilter_gates_on_numpy(self):
        assert list(inspect.signature(MyersKernel).parameters) == []
        assert MyersKernel().prefilter == numpy_available()
        assert numpy_free_myers().prefilter is False


class TestKernelBatches:
    CANDIDATES = [
        "apple", "apply", "ample", "maple", "apples", "applet", "appl",
        "aple", "grape", "grapes", "grace", "trace", "track", "crack", "",
        "banana", "band", "bandana", "bananas", "applicable", "application",
        "zzzzz", "qqqqq", "wwwww", "mmmmm",
    ] * 3

    def reference_result(self, query, d):
        return {
            c: edit_distance_within(query, c, d) for c in self.CANDIDATES
        }

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_plain_myers_matches_reference(self, d):
        verifier = BatchVerifier("apple", d, kernel=numpy_free_myers())
        assert verifier.distances(self.CANDIDATES) == self.reference_result(
            "apple", d
        )
        assert verifier.counters.prefilter_rejected == 0

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_prefilter_path_matches_reference(self, d):
        verifier = BatchVerifier("apple", d, kernel=MyersKernel())
        assert verifier.distances(self.CANDIDATES) == self.reference_result(
            "apple", d
        )

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_prefilter_rejections_counted_and_sound(self):
        verifier = BatchVerifier("apple", 1, kernel=MyersKernel())
        result = verifier.distances(self.CANDIDATES)
        assert verifier.counters.prefilter_rejected > 0
        # Rejections are diagnostics only — values still exact.
        assert result == self.reference_result("apple", 1)
        # Prefilter-rejected candidates never count as computed.
        distinct = len(set(self.CANDIDATES))
        assert verifier.counters.computed < distinct

    def test_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        kernel = MyersKernel()
        assert kernel.prefilter is False
        assert kernel.name == "myers"
        verifier = BatchVerifier("apple", 2, kernel=kernel)
        assert verifier.distances(self.CANDIDATES) == self.reference_result(
            "apple", 2
        )
        assert verifier.counters.prefilter_rejected == 0

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_surrogate_candidates_skip_prefilter_correctly(self):
        # Lone surrogates cannot be UTF-32-encoded; the prefilter must
        # step aside instead of raising, and results stay exact.
        batch = ["appl\ud800", "apple", "apply"] * 4
        bound = MyersKernel().bind("apple", 2)
        assert bound.survivors(batch) is None
        verifier = BatchVerifier("apple", 2, kernel=MyersKernel())
        result = verifier.distances(batch)
        for candidate in set(batch):
            assert result[candidate] == edit_distance_within(
                "apple", candidate, 2
            )

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_prefilter_counts_repeated_characters_once_each(self):
        # "aaa" has every character in "abc"'s set, but shares one with
        # it as a multiset: ed >= 3 - 1 = 2, so at d = 1 it is rejected.
        bound = MyersKernel().bind("abc", 1)
        batch = ["aaa", "abb", "abc", "ab", "cab", "bca", "ccc", "abcd"]
        assert bound.survivors(batch) == [1, 2, 3, 4, 5, 7]

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    @pytest.mark.parametrize("query", ["", "appl\ud800"])
    def test_empty_or_unencodable_query_skips_prefilter(self, query):
        bound = MyersKernel().bind(query, 2)
        batch = ["apple", "apply", "", "a", "ab"] * 2
        assert bound.survivors(batch) is None
        verifier = BatchVerifier(query, 2, kernel=MyersKernel())
        assert verifier.distances(batch) == {
            c: edit_distance_within(query, c, 2) for c in batch
        }

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_prefilter_state_is_built_lazily(self):
        bound = MyersKernel().bind("apple", 1)
        assert bound.bag is None
        # A batch of one (or any below the minimum) never meets the filter.
        assert bound.survivors(["apply"]) is None
        assert bound.survivors(["apply"] * (kernels.PREFILTER_MIN_BATCH - 1)) is None
        assert bound.bag is None
        bound.survivors(["apply"] * kernels.PREFILTER_MIN_BATCH)
        assert bound.bag is not None
        assert numpy_free_myers().bind("apple", 1).bag is False

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_astral_query_holds_no_per_code_point_table(self):
        query = "🙂🙃 sunset 😀"
        pool = VerifierPool()
        verifier = pool.get(query, 2)
        batch = [query, "🙂🙃 sunsat 😀", "sunset"] + [
            "🙂" * size for size in range(8, 16)
        ]
        assert verifier.distances(batch) == {
            c: edit_distance_within(query, c, 2) for c in batch
        }
        points, caps = verifier._bound.bag
        distinct = len(set(query))
        # 8 bytes per distinct character and one spare slot, not 0x1F643.
        assert points.nbytes + caps.nbytes <= 16 * (distinct + 1)


class TestCounters:
    def test_memo_hits_counted(self):
        verifier = BatchVerifier("apple", 2)
        verifier.distances(["apply", "ample"])
        assert verifier.counters.memo_hits == 0
        verifier.distances(["apply", "ample"])
        assert verifier.counters.memo_hits == 2
        verifier.distance("apply")
        assert verifier.counters.memo_hits == 3

    def test_length_rejects_are_not_computed(self):
        verifier = BatchVerifier("apple", 2)
        verifier.distances(["apply", "ample", "zzzzzzzzzzzz"])
        assert verifier.counters.computed == 2


class TestFrozenConsumers:
    """What the benchmark under ``perf/`` reads from the kernel layer:
    the kernel name it records, the verifier counters it sums, and the
    callables of its ``similarity.verify`` layer row."""

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_default_kernel_name_with_numpy(self):
        assert resolve_kernel(None).name == "myers+prefilter"

    def test_default_kernel_name_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        assert resolve_kernel(None).name == "myers"

    def test_verifier_stats_carry_the_summed_counters(self, word_network):
        stats = QueryEngine(word_network).verifier_stats()
        for key in ("computed", "memo_hits", "prefilter_rejected"):
            assert isinstance(stats[key], int)

    @pytest.mark.parametrize("target", LAYERS["similarity.verify"])
    def test_verify_layer_row_resolves(self, target):
        module_name, qualname = target.split(":")
        found = importlib.import_module(module_name)
        for part in qualname.split("."):
            found = getattr(found, part)
        assert callable(found)
