"""Stateful equivalence of the delta-maintained engine under mutation.

A hypothesis rule-based state machine interleaves inserts, deletes,
peer failures, recoveries, and similarity queries on two engines over
identically-built networks:

* the **primary** — fully memoized, ``memo_maintenance="delta"``: writes
  invalidate only the affected partitions' memo entries;
* the **reference** — ``memoize=False``: every query recomputes from the
  stores, so it can never serve anything stale.

After every query the two answers must agree bit-for-bit — the match
lists *and* the measured cost series (messages, payload bytes, per-type
and per-phase breakdowns).  Any memo entry that survives a write it
should not have survived shows up here as a divergence; so does any
memo that changes what a query charges (memos are required to be
cost-transparent).

Both engines see the exact same op sequence with explicit initiator
peers, so their RNG streams never decouple; equivalence is exact, not
statistical.  Every query draws its physical strategy — q-grams,
q-samples or the naive broadcast — so all three memos, the naive one's
retained region columns included, live through the writes and churn.

After every rule the network ledger's O(1) bookkeeping is checked
against the scans it replaced: the offline count, the mutation token
(moves iff some store changed, never backwards) and every peer's
partition index.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import SimilarityStrategy, StoreConfig
from repro.engine import QueryEngine
from repro.query.operators.similar import similar
from repro.storage.triple import Triple

ATTR = "w:text"

WORDS = [
    "apple", "apply", "ample", "maple",
    "grape", "grace", "trace",
    "banana", "band", "bandana",
    "cherry", "berry", "merry",
]


STRATEGIES = [
    SimilarityStrategy.QGRAM,
    SimilarityStrategy.QSAMPLE,
    SimilarityStrategy.NAIVE,
]


def _answer(
    engine: QueryEngine, word: str, d: int, initiator: int, strategy
) -> tuple:
    """One query's full observable: matches plus the measured series."""
    with engine.recorded():
        result = similar(engine.ctx, word, ATTR, d, initiator, strategy=strategy)
    cost = engine.last_cost()
    return (
        tuple(sorted((m.oid, m.matched, m.distance) for m in result.matches)),
        cost.messages,
        cost.payload_bytes,
        tuple(sorted(cost.by_type.items())),
        tuple(sorted(cost.by_phase.items())),
    )


class MutationEquivalence(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(min_value=0, max_value=7),
        n_peers=st.sampled_from([8, 12, 16]),
    )
    def setup(self, seed, n_peers):
        config = StoreConfig(seed=seed, replication=2)
        triples = [Triple(f"w:{i:03d}", ATTR, w) for i, w in enumerate(WORDS)]
        # Same peers / config / data → deterministically identical
        # networks; only the memo wiring differs between the two arms.
        self.primary = QueryEngine.build(
            n_peers=n_peers, triples=triples, config=config,
            memo_maintenance="delta",
        )
        self.reference = QueryEngine.build(
            n_peers=n_peers, triples=triples, config=config, memoize=False
        )
        self.engines = (self.primary, self.reference)
        self.counter = 0
        self.live_batches: list[tuple[Triple, ...]] = []
        #: Per engine: ``(token, every store's identity and version)`` as
        #: of the previous invariant check.
        self.seen = [self._store_state(engine) for engine in self.engines]

    def teardown(self):
        if hasattr(self, "engines"):
            # Whatever the interleaving did to them, the memos' partition
            # indexes still find every record: naming all partitions
            # empties both caches and counts each record once.
            everywhere = set(range(self.primary.network.n_partitions))
            for memo in (self.primary.gram_scan_memo, self.primary.fetch_memo):
                cached = len(memo)
                assert memo.invalidate_partitions(everywhere) == cached
                assert len(memo) == 0
        for engine in getattr(self, "engines", ()):
            engine.close()

    # -- ops ----------------------------------------------------------------------

    @rule(
        word=st.sampled_from(WORDS),
        d=st.integers(min_value=0, max_value=2),
        initiator=st.integers(min_value=0, max_value=10**6),
        strategy=st.sampled_from(STRATEGIES),
    )
    def query(self, word, d, initiator, strategy):
        peer_id = initiator % self.primary.n_peers
        assert _answer(self.primary, word, d, peer_id, strategy) == _answer(
            self.reference, word, d, peer_id, strategy
        )

    @rule(
        base=st.sampled_from(WORDS),
        size=st.integers(min_value=1, max_value=3),
    )
    def insert(self, base, size):
        batch = tuple(
            Triple(f"m:{self.counter}:{i}", ATTR, f"{base}x{self.counter}")
            for i in range(size)
        )
        self.counter += 1
        # respect_online: offline replicas miss the write and stay
        # divergent until a recover() rule repairs them — identically in
        # both arms, since both see the same offline set.
        applied = [e.insert(list(batch), respect_online=True) for e in self.engines]
        assert applied[0] == applied[1]
        self.live_batches.append(batch)

    @precondition(lambda self: self.live_batches)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete(self, pick):
        batch = self.live_batches.pop(pick % len(self.live_batches))
        applied = [e.delete(list(batch), respect_online=True) for e in self.engines]
        assert applied[0] == applied[1]

    @rule(peer=st.integers(min_value=0, max_value=10**6))
    def fail_peer(self, peer):
        peer_id = peer % self.primary.n_peers
        reports = [
            e.fail_peers([peer_id], protect_partitions=True)
            for e in self.engines
        ]
        assert reports[0].failed_peer_ids == reports[1].failed_peer_ids
        assert not reports[0].dark_partitions

    @rule(peer=st.integers(min_value=0, max_value=10**6))
    def flip_online_directly(self, peer):
        """``peer.online = ...`` behind the engine's back, both arms alike."""
        peer_id = peer % self.primary.n_peers
        network = self.primary.network
        target = network.peer(peer_id)
        if target.online and not any(
            network.peer(replica).online for replica in target.replicas
        ):
            return  # queries need one live replica per partition
        for engine in self.engines:
            flipped = engine.network.peer(peer_id)
            flipped.online = not flipped.online

    @precondition(lambda self: self.primary.churn.offline_peer_ids())
    @rule()
    def recover(self):
        reports = [e.recover(repair=True) for e in self.engines]
        assert reports[0].recovered_peers == reports[1].recovered_peers
        assert (
            reports[0].divergent_partitions == reports[1].divergent_partitions
        )
        assert reports[0].entries_copied == reports[1].entries_copied

    # -- invariants ---------------------------------------------------------------

    @staticmethod
    def _store_state(engine) -> tuple:
        return (
            engine.network.store_version_token(),
            [(id(p.store), p.store.version) for p in engine.network.peers],
        )

    @invariant()
    def stores_identical(self):
        if not hasattr(self, "engines"):
            return
        assert (
            self.primary.store_version == self.reference.store_version
        )

    @invariant()
    def ledger_matches_scans(self):
        if not hasattr(self, "engines"):
            return
        for slot, engine in enumerate(self.engines):
            network = engine.network
            assert network.ledger.offline == sum(
                not peer.online for peer in network.peers
            )
            for peer in network.peers:
                assert (
                    peer.partition_index
                    == network.partition_for(peer.path).index
                )
            token, stores = self._store_state(engine)
            seen_token, seen_stores = self.seen[slot]
            assert token >= seen_token
            assert (token != seen_token) == (stores != seen_stores)
            self.seen[slot] = (token, stores)


TestMutationEquivalence = MutationEquivalence.TestCase
TestMutationEquivalence.settings = settings(
    max_examples=200, stateful_step_count=10, deadline=None
)
