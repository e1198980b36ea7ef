"""Property-based tests: the Similar operator vs. brute force.

The central guarantee of the paper's Algorithm 2: for every strategy, the
operator returns exactly the stored strings within edit distance ``d`` of
the query — *within the completeness regime* (``len(s) >= 2 + (d-1)*q``,
see ``guaranteed_complete`` in ``tests/conftest.py``).  The naive baseline is
complete unconditionally.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.overlay.network import PGridNetwork
from repro.query.operators.base import OperatorContext
from repro.query.operators.similar import similar
from repro.similarity.edit_distance import edit_distance
from repro.storage.triple import Triple
from tests.conftest import guaranteed_complete

ATTR = "t:v"

corpora = st.lists(
    st.text(alphabet="abcde", min_size=1, max_size=10),
    min_size=1,
    max_size=20,
    unique=True,
)


def build_ctx(words, n_peers, seed):
    config = StoreConfig(seed=seed)
    triples = [Triple(f"x:{i:03d}", ATTR, w) for i, w in enumerate(words)]
    probe = PGridNetwork(1, config)
    sample = [e.key for e in probe.entry_factory.entries_for_all(triples)]
    network = PGridNetwork(n_peers, config, sample_keys=sample)
    network.insert_triples(triples)
    return OperatorContext(network)


class TestSimilarCompleteness:
    @settings(max_examples=20, deadline=None)
    @given(
        corpora,
        st.text(alphabet="abcde", min_size=1, max_size=10),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=4, max_value=24),
    )
    def test_naive_matches_brute_force(self, words, query, d, n_peers):
        ctx = build_ctx(words, n_peers, seed=2)
        result = similar(
            ctx, query, ATTR, d, strategy=SimilarityStrategy.NAIVE
        )
        expected = sorted(w for w in words if edit_distance(query, w) <= d)
        assert sorted(m.matched for m in result.matches) == expected

    @settings(max_examples=20, deadline=None)
    @given(
        corpora,
        st.text(alphabet="abcde", min_size=1, max_size=10),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=4, max_value=24),
    )
    def test_qgram_complete_in_guaranteed_regime(self, words, query, d, n_peers):
        ctx = build_ctx(words, n_peers, seed=3)
        result = similar(ctx, query, ATTR, d, strategy=SimilarityStrategy.QGRAM)
        got = sorted(m.matched for m in result.matches)
        expected = sorted(w for w in words if edit_distance(query, w) <= d)
        if guaranteed_complete(len(query), ctx.config.q, d):
            assert got == expected
        else:
            # Soundness always holds; completeness may not.
            assert set(got) <= set(expected)

    @settings(max_examples=20, deadline=None)
    @given(
        corpora,
        st.text(alphabet="abcde", min_size=1, max_size=10),
        st.integers(min_value=0, max_value=2),
    )
    def test_qsample_sound_and_complete_when_guaranteed(self, words, query, d):
        ctx = build_ctx(words, 16, seed=4)
        result = similar(
            ctx, query, ATTR, d, strategy=SimilarityStrategy.QSAMPLE
        )
        got = sorted(m.matched for m in result.matches)
        expected = sorted(w for w in words if edit_distance(query, w) <= d)
        assert set(got) <= set(expected)  # soundness, always
        # The sample guarantee needs d+1 disjoint grams of the extended
        # query: len + q - 1 >= q * (d + 1); shorter queries fall back to
        # the full set, whose guarantee is the count-bound regime.
        if guaranteed_complete(len(query), ctx.config.q, d):
            assert got == expected

    @settings(max_examples=15, deadline=None)
    @given(corpora, st.integers(min_value=0, max_value=2))
    def test_strategies_agree_on_stored_queries(self, words, d):
        """Querying a stored string: all strategies find it (distance 0)."""
        ctx = build_ctx(words, 16, seed=5)
        query = words[0]
        for strategy in SimilarityStrategy:
            result = similar(ctx, query, ATTR, d, strategy=strategy)
            assert query in {m.matched for m in result.matches}
