"""Property tests: the cost model prices exactly what its twin prices.

:class:`~repro.query.cost.StrategyCostModel` counts a query's grams
instead of building them, keeps the trie's structural terms per shape
and prices the three strategies in one pass.  None of that may move a
prediction by one bit: the chosen strategy and every strategy's
``messages``, ``payload_bytes`` and ``latency_ms`` must equal those of
``tests/reference/cost.py``, which tokenizes and recomputes everything
per strategy.  The draws cover schema level, an analyzed, an unanalyzed
and a never-stored attribute, no catalog, two values of ``q`` and a
network with dark partitions (reach < 1).

Two hand-made mutants of :func:`~repro.storage.qgrams.gram_counts` are
killed here (by the explicit examples, whatever hypothesis draws): the
q-sample fallback taken at ``len(extended) <= q·(d+1)`` instead of
``<``, and a gram count that keeps duplicate gram texts.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import StoreConfig
from repro.engine import QueryEngine
from repro.storage.qgrams import gram_counts, positional_qgrams, qgram_sample
from tests.conftest import LEN_ATTR, TEXT_ATTR, WORDS, word_triples
from tests.reference.cost import ReferenceCostModel

DEEP = settings.get_profile("deep")


def sized(count: int) -> settings:
    """``count`` examples, or the deep profile's under
    ``--hypothesis-profile=deep`` (the ``kernel-parity`` CI job)."""
    return DEEP if settings.default is DEEP else settings(
        max_examples=count, deadline=None
    )


#: Schema level, analyzed, stored but never analyzed, never stored.
ATTRIBUTES = ("", TEXT_ATTR, LEN_ATTR, "nowhere:attr")

#: ``(q, with dark partitions)`` of each world the draws run against.
WORLDS = ((3, False), (2, False), (3, True))

queries = st.one_of(
    st.sampled_from(["", "a", "ab", "abc", "aaaa", "abab"] + WORDS),
    st.text(alphabet="ab", max_size=10),  # repeated grams
    st.text(alphabet="aé日🙂 x", max_size=12),  # non-ASCII
)


def _world(q: int, dark: bool) -> QueryEngine:
    if dark:  # 48 partitions of two replicas; the text region spans three
        config, peers = StoreConfig(seed=7, q=q, replication=2), 96
    else:
        config, peers = StoreConfig(seed=7, q=q), 32
    engine = QueryEngine.build(peers, word_triples(), config)
    engine.analyze([TEXT_ATTR])
    if dark:
        network = engine.network
        region = network.partitions_under(network.codec.attr_prefix(TEXT_ATTR))
        engine.churn.fail_peers(list(region[0].peer_ids), protect_partitions=False)
        assert 0.0 < engine.cost_model._reachable_fraction(TEXT_ATTR) < 1.0
        assert engine.cost_model._reachable_fraction("") < 1.0
    return engine


@pytest.fixture(scope="module")
def worlds():
    return {world: _world(*world) for world in WORLDS}


def _numbers(predictions):
    return {
        name: (p.strategy, p.messages, p.payload_bytes, p.latency_ms)
        for name, p in predictions.items()
    }


@sized(300)
@given(
    world=st.sampled_from(WORLDS),
    s=queries,
    d=st.integers(min_value=0, max_value=6),
    attribute=st.sampled_from(ATTRIBUTES),
    with_catalog=st.booleans(),
)
@example(world=(3, False), s="ab", d=1, attribute=TEXT_ATTR, with_catalog=True)
@example(world=(2, False), s="ab", d=1, attribute="", with_catalog=False)
@example(world=(3, False), s="aaaa", d=0, attribute=TEXT_ATTR, with_catalog=True)
@example(world=(3, True), s="aaaaaa", d=2, attribute=TEXT_ATTR, with_catalog=True)
def test_choose_and_predict_equal_the_twin(
    worlds, world, s, d, attribute, with_catalog
):
    engine = worlds[world]
    catalog = engine.ctx.catalog if with_catalog else None
    # The engine's own model: its shape table persists across draws.
    model = engine.cost_model
    twin = ReferenceCostModel(engine.network)

    decision = model.choose(s, attribute, d, catalog)
    chosen, expected = twin.choose(s, attribute, d, catalog)
    assert decision.chosen is chosen
    assert list(decision.predictions) == list(expected)
    assert _numbers(decision.predictions) == _numbers(expected)
    assert _numbers(model.predict_all(s, attribute, d, catalog)) == _numbers(
        expected
    )


@sized(300)
@given(
    s=queries,
    q=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=0, max_value=6),
)
@example(s="ab", q=3, d=1)
@example(s="aaaa", q=2, d=0)
def test_gram_counts_equal_the_tokenizers(s, q, d):
    def counted(grams):
        return len({g.gram for g in grams}), sum(len(g.gram) for g in grams)

    assert gram_counts(s, q) == counted(positional_qgrams(s, q))
    assert gram_counts(s, q, d) == counted(qgram_sample(s, q, d))
