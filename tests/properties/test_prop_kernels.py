"""Property tests: the Myers kernel is equivalent to the reference DP.

The kernel contract mirrors the verifier's: for every ``(a, b, d)``,
``myers_within`` must return exactly what ``edit_distance_within``
returns (which is itself property-tested against brute-force
``edit_distance``).  Both bit-parallel variants are covered — the
single-block path (queries <= 64 chars) and the multi-block carry path —
over unicode alphabets, empty strings, ``d = 0`` and lengths straddling
the 64-character word boundary.  The batch suite then pins the
forced-kernel invariant the whole PR rests on: every kernel produces the
identical ``distances()`` dict.  The bag-filter suite pins the batch
prefilter's survivors to a ``Counter`` twin
(``tests/reference/bag_filter.py``) and checks that no candidate within
``d`` is ever filtered out.  The column suite does the same for the
batch (across-candidates) form of the scan over an
:class:`~repro.similarity.kernels.EncodedColumn`, including every input
that must fall back to per-candidate scans instead.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.similarity import kernels
from repro.similarity.edit_distance import edit_distance, edit_distance_within
from repro.similarity.kernels import (
    COLUMN_ROWS,
    PREFILTER_MIN_BATCH,
    EncodedColumn,
    MyersKernel,
    MyersQuery,
    numpy_available,
)
from repro.similarity.verify import BatchVerifier
from tests.reference import bag_filter
from tests.reference.kernel import ReferenceKernel, myers_within, numpy_free_myers

DEEP = settings.get_profile("deep")


def sized(count: int) -> settings:
    """``count`` examples, or the deep profile's under
    ``--hypothesis-profile=deep`` (the ``kernel-parity`` CI job)."""
    return DEEP if settings.default is DEEP else settings(max_examples=count)


# Mixed-script alphabet: ASCII, accents, CJK, an astral-plane emoji.
unicode_alphabet = "abz éß日本🙂 "
short_texts = st.text(alphabet=unicode_alphabet, max_size=12)
#: Long texts cross the 64-char block boundary (single- vs multi-block).
long_texts = st.text(alphabet="abz ", min_size=50, max_size=140)
distances = st.integers(min_value=0, max_value=5)


def batch_kernels():
    kernels = [ReferenceKernel(), numpy_free_myers()]
    if numpy_available():
        kernels.append(MyersKernel())
    return kernels


class TestMyersEquivalence:
    @sized(400)
    @given(short_texts, short_texts, distances)
    def test_short_matches_banded_dp(self, a, b, d):
        assert myers_within(a, b, d) == edit_distance_within(a, b, d)

    @sized(150)
    @given(long_texts, long_texts, distances)
    def test_multiblock_matches_banded_dp(self, a, b, d):
        assert myers_within(a, b, d) == edit_distance_within(a, b, d)

    @sized(150)
    @given(short_texts, short_texts)
    def test_exact_value_matches_brute_force(self, a, b):
        true = edit_distance(a, b)
        assert myers_within(a, b, true) == true
        if true > 0:
            # One below the true distance must saturate to the sentinel.
            assert myers_within(a, b, true - 1) == true

    @sized(150)
    @given(short_texts, st.lists(short_texts, max_size=10), distances)
    def test_mask_state_is_reusable(self, query, candidates, d):
        state = MyersQuery(query)
        for candidate in candidates:
            assert state.within(candidate, d) == edit_distance_within(
                query, candidate, d
            )

    @sized(100)
    @given(st.text(alphabet="ab", min_size=60, max_size=70), distances)
    def test_word_boundary_identity(self, a, d):
        # Probes clustered exactly around the 64-char block edge.
        for b in (a, a[:-1], a + "b", a[:32] + "z" + a[32:]):
            assert myers_within(a, b, d) == edit_distance_within(a, b, d)


class TestForcedKernelBatchIdentity:
    @sized(200)
    @given(short_texts, st.lists(short_texts, max_size=20), distances)
    def test_distances_identical_across_kernels(self, query, candidates, d):
        results = [
            BatchVerifier(query, d, kernel=kernel).distances(candidates)
            for kernel in batch_kernels()
        ]
        for other in results[1:]:
            assert other == results[0]

    @sized(60)
    @given(long_texts, st.lists(long_texts, min_size=1, max_size=40), distances)
    def test_multiblock_batches_identical_across_kernels(
        self, query, candidates, d
    ):
        # Multi-block queries, in batches past the prefilter's minimum,
        # agree with the reference.
        results = [
            BatchVerifier(query, d, kernel=kernel).distances(candidates)
            for kernel in batch_kernels()
        ]
        for other in results[1:]:
            assert other == results[0]

    @sized(100)
    @given(short_texts, st.lists(short_texts, min_size=1, max_size=12), distances)
    def test_interleaved_singles_and_batches_per_kernel(
        self, query, candidates, d
    ):
        for kernel in batch_kernels():
            verifier = BatchVerifier(query, d, kernel=kernel)
            half = len(candidates) // 2
            for candidate in candidates[:half]:
                assert verifier.distance(candidate) == edit_distance_within(
                    query, candidate, d
                )
            result = verifier.distances(candidates)
            for candidate in candidates:
                assert result[candidate] == edit_distance_within(
                    query, candidate, d
                )


#: Queries repeat letters and reach the astral plane; candidates add
#: code points below, between and above the query's (``c``, ``~``,
#: ``😀`` below ``🙂``, U+10FFFF above everything) and empty strings.
bag_queries = st.text(alphabet="ab🙂", min_size=1, max_size=12)
bag_candidates = st.text(alphabet="ab c~😀🙂\U0010ffff", max_size=14)


class TestBagFilter:
    @sized(300)
    @given(
        bag_queries,
        st.lists(bag_candidates, min_size=PREFILTER_MIN_BATCH, max_size=30),
        distances,
    )
    def test_survivors_are_exactly_the_bag_bound(self, query, pending, d):
        keep = MyersKernel().bind(query, d).survivors(pending)
        if not numpy_available():
            assert keep is None
            return
        assert keep == bag_filter.survivors(query, pending, d)
        # Sound: a candidate within d is never filtered out.
        for index, candidate in enumerate(pending):
            if edit_distance_within(query, candidate, d) <= d:
                assert index in keep


#: Queries at the widths the single-block batch scan accepts (1..64) and
#: the first it must refuse (65), plus the empty query.
edge_queries = st.sampled_from([0, 1, 2, 63, 64, 65]).flatmap(
    lambda size: st.text(alphabet="abz 🙂", min_size=size, max_size=size)
)
column_queries = st.one_of(short_texts, short_texts, edge_queries)
#: Candidates: empty, shorter and longer than the query, repeated,
#: astral-plane, and (rarely) carrying a lone surrogate.
column_texts = st.one_of(
    short_texts,
    st.text(alphabet="abz 🙂", min_size=55, max_size=70),
)
with_surrogates = st.text(alphabet="ab\ud800\udfff", max_size=6)
#: Strings too long for any batch scan: kept in ``values``, not encoded.
outliers = st.integers(min_value=COLUMN_ROWS + 1, max_value=COLUMN_ROWS + 40).flatmap(
    lambda size: st.text(alphabet="ab\ud800", min_size=size, max_size=size)
)
column_distances = st.integers(min_value=0, max_value=6)


def expected(query, column, d):
    """What a column pass answers: the strings within ``d``."""
    return {
        value: distance
        for value in column.values
        if (distance := edit_distance_within(query, value, d)) <= d
    }


class TestColumnBatchKernel:
    @sized(300)
    @given(
        column_queries,
        st.lists(column_texts, max_size=24),
        column_distances,
    )
    def test_column_distances_match_banded_dp(self, query, candidates, d):
        candidates = candidates + candidates[:3]  # duplicates collapse
        column = EncodedColumn(candidates)
        assert sorted(column.values) == sorted(set(candidates))
        assert list(map(len, column.values)) == sorted(map(len, column.values))
        for kernel in batch_kernels():
            verifier = BatchVerifier(query, d, kernel=kernel)
            assert verifier.distances(column) == expected(query, column, d)
            # A column pass is never parked in the per-candidate memo.
            assert not verifier._memo

    @sized(100)
    @given(column_queries, st.lists(column_texts, min_size=1, max_size=12))
    def test_batch_form_runs_exactly_when_it_can(self, query, candidates):
        column = EncodedColumn(candidates)
        bound = MyersKernel().bind(query, 2)
        batch = bound.column_distances(column)
        if numpy_available() and 0 < len(query) <= 64:
            distances, scanned = batch
            assert distances == expected(query, column, 2)
            assert scanned == sum(
                abs(len(value) - len(query)) <= 2 for value in column.values
            )
        else:
            assert batch is None
        assert ReferenceKernel().bind(query, 2).column_distances(column) is None

    @sized(100)
    @given(
        st.one_of(short_texts, with_surrogates),
        st.lists(st.one_of(short_texts, with_surrogates), max_size=12),
        column_distances,
    )
    def test_lone_surrogates_fall_back_not_crash(self, query, candidates, d):
        column = EncodedColumn(candidates)
        if any("\ud800" in c or "\udfff" in c for c in candidates):
            assert column.codes is None
        for kernel in batch_kernels():
            assert BatchVerifier(query, d, kernel=kernel).distances(
                column
            ) == expected(query, column, d)

    @sized(100)
    @given(
        column_queries,
        st.lists(column_texts, max_size=12),
        st.lists(outliers, min_size=1, max_size=3),
        column_distances,
    )
    def test_long_outliers_are_carried_but_not_encoded(
        self, query, candidates, long_values, d
    ):
        column = EncodedColumn(candidates + long_values)
        assert set(long_values) <= set(column.values)
        if column.codes is not None:
            # One long value (surrogates and all) costs the matrix nothing.
            rows, lanes = column.codes.shape
            assert rows == max(map(len, candidates)) <= COLUMN_ROWS
            assert lanes == len(set(candidates))
            assert column.codes.dtype.itemsize == 1
        for kernel in batch_kernels():
            assert BatchVerifier(query, d, kernel=kernel).distances(
                column
            ) == expected(query, column, d)

    def test_band_reaching_past_the_matrix_rows_falls_back(self):
        query = "ab" * 32
        column = EncodedColumn(["ab" * 32, "ba" * 60, "a" * (COLUMN_ROWS + 1)])
        for d in (COLUMN_ROWS - 64, COLUMN_ROWS - 63):
            bound = MyersKernel().bind(query, d)
            batch = bound.column_distances(column)
            assert (batch is None) == (not numpy_available() or d > COLUMN_ROWS - 64)
            assert BatchVerifier(query, d).distances(column) == expected(
                query, column, d
            )

    @sized(50)
    @given(column_queries, st.lists(column_texts, max_size=16), column_distances)
    def test_column_without_matrix_takes_per_candidate_scans(
        self, query, candidates, d
    ):
        column = EncodedColumn(candidates, matrix=False)
        assert column.codes is None
        assert MyersKernel().bind(query, d).column_distances(column) is None
        for kernel in batch_kernels():
            verifier = BatchVerifier(query, d, kernel=kernel)
            assert verifier.distances(column) == expected(query, column, d)
            assert not verifier._memo

    @sized(100)
    @given(column_queries, st.lists(column_texts, max_size=16), column_distances)
    def test_numpy_free_column_degrades_to_per_candidate_scans(
        self, query, candidates, d
    ):
        with mock.patch.object(kernels, "_np", None):
            column = EncodedColumn(candidates)
            assert column.codes is None
            bare = BatchVerifier(query, d, kernel=MyersKernel()).distances(column)
        assert bare == expected(query, column, d)
        # The same strings encoded with numpy give the same answer.
        assert BatchVerifier(query, d).distances(
            EncodedColumn(candidates)
        ) == bare
