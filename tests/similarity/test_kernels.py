"""Unit tests for the bit-parallel verification kernels."""

import pytest

from repro.engine import QueryEngine
from repro.similarity import kernels
from repro.similarity.edit_distance import edit_distance, edit_distance_within
from repro.similarity.kernels import (
    MyersKernel,
    MyersQuery,
    myers_within,
    numpy_available,
    resolve_kernel,
)
from repro.similarity.verify import BatchVerifier, VerifierPool
from tests.reference.kernel import ReferenceKernel


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

    def test_engine_takes_instances_only(self, word_network):
        with pytest.raises(TypeError):
            QueryEngine(word_network, edit_kernel="reference")
        kernel = ReferenceKernel()
        engine = QueryEngine(word_network, edit_kernel=kernel)
        assert engine.edit_kernel is engine.verifier_pool.kernel is kernel

    def test_prefilter_gates_on_numpy(self):
        assert MyersKernel(prefilter=True).prefilter == numpy_available()
        assert MyersKernel(prefilter=False).prefilter is False
        assert MyersKernel(prefilter=False).name == "myers"
        if numpy_available():
            assert MyersKernel().name == "myers+prefilter"


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
    def test_flat_path_matches_reference(self, d):
        verifier = BatchVerifier("apple", d, kernel=MyersKernel(prefilter=False))
        assert verifier.distances(self.CANDIDATES) == self.reference_result(
            "apple", d
        )
        assert verifier.counters.batches_flat == 1
        assert verifier.counters.batches_shared == 0

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_prefilter_path_matches_reference(self, d):
        verifier = BatchVerifier("apple", d, kernel=MyersKernel(prefilter=True))
        assert verifier.distances(self.CANDIDATES) == self.reference_result(
            "apple", d
        )

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_prefilter_rejections_counted_and_sound(self):
        verifier = BatchVerifier("apple", 1, kernel=MyersKernel(prefilter=True))
        result = verifier.distances(self.CANDIDATES)
        assert verifier.counters.prefilter_rejected > 0
        # Rejections are diagnostics only — values still exact.
        assert result == self.reference_result("apple", 1)
        # Prefilter-rejected candidates never count as computed.
        distinct = len(set(self.CANDIDATES))
        assert verifier.computed < distinct

    def test_shared_fallback_for_long_queries(self):
        query = "x" * 80  # multi-block
        batch = [
            "x" * 79 + suffix for suffix in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        ] + ["x" * 80, "x" * 81, "y" * 80, "z" * 80, "x" * 78, "x" * 82]
        assert len(set(batch)) >= kernels.SHARED_FALLBACK_MIN_BATCH
        verifier = BatchVerifier(query, 2, kernel=MyersKernel())
        result = verifier.distances(batch)
        assert verifier.counters.batches_shared == 1
        assert result == {
            c: edit_distance_within(query, c, 2) for c in batch
        }

    def test_small_multiblock_batch_stays_flat(self):
        query = "x" * 80
        verifier = BatchVerifier(query, 2, kernel=MyersKernel())
        verifier.distances(["x" * 80, "x" * 79])
        assert verifier.counters.batches_flat == 1

    def test_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        kernel = MyersKernel(prefilter=True)
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
        bound = MyersKernel(prefilter=True).bind("apple", 2)
        assert bound.survivors(batch) is None
        verifier = BatchVerifier("apple", 2, kernel=MyersKernel(prefilter=True))
        result = verifier.distances(batch)
        for candidate in set(batch):
            assert result[candidate] == edit_distance_within(
                "apple", candidate, 2
            )

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_prefilter_counts_repeated_characters_once_each(self):
        # "aaa" has every character in "abc"'s set, but shares one with
        # it as a multiset: ed >= 3 - 1 = 2, so at d = 1 it is rejected.
        bound = MyersKernel(prefilter=True).bind("abc", 1)
        batch = ["aaa", "abb", "abc", "ab", "cab", "bca", "ccc", "abcd"]
        assert bound.survivors(batch) == [1, 2, 3, 4, 5, 7]

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    @pytest.mark.parametrize("query", ["", "appl\ud800"])
    def test_empty_or_unencodable_query_skips_prefilter(self, query):
        bound = MyersKernel(prefilter=True).bind(query, 2)
        batch = ["apple", "apply", "", "a", "ab"] * 2
        assert bound.survivors(batch) is None
        verifier = BatchVerifier(query, 2, kernel=MyersKernel(prefilter=True))
        assert verifier.distances(batch) == {
            c: edit_distance_within(query, c, 2) for c in batch
        }

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_prefilter_state_is_built_lazily(self):
        bound = MyersKernel(prefilter=True).bind("apple", 1)
        assert bound.bag is None
        # A batch of one (or any below the minimum) never meets the filter.
        assert bound.survivors(["apply"]) is None
        assert bound.survivors(["apply"] * (kernels.PREFILTER_MIN_BATCH - 1)) is None
        assert bound.bag is None
        bound.survivors(["apply"] * kernels.PREFILTER_MIN_BATCH)
        assert bound.bag is not None
        assert MyersKernel(prefilter=False).bind("apple", 1).bag is False

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_astral_query_holds_no_per_code_point_table(self):
        query = "🙂🙃 sunset 😀"
        pool = VerifierPool(kernel=MyersKernel(prefilter=True))
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

    def test_reference_kernel_uses_shared_path(self):
        verifier = BatchVerifier("apple", 2, kernel=ReferenceKernel())
        verifier.distances(self.CANDIDATES)
        assert verifier.counters.batches_shared == 1
        assert verifier.counters.batches_flat == 0


class TestCounters:
    def test_memo_hits_counted(self):
        verifier = BatchVerifier("apple", 2)
        verifier.distances(["apply", "ample"])
        assert verifier.counters.memo_hits == 0
        verifier.distances(["apply", "ample"])
        assert verifier.counters.memo_hits == 2
        verifier.distance("apply")
        assert verifier.counters.memo_hits == 3

    def test_computed_mirrors_attribute(self):
        verifier = BatchVerifier("apple", 2)
        verifier.distances(["apply", "ample", "zzzzzzzzzzzz"])
        assert verifier.counters.computed == verifier.computed
