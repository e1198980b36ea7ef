"""Stateful equivalence of the delta-maintained engine under mutation.

A hypothesis rule-based state machine interleaves inserts, deletes,
peer failures, recoveries, and similarity queries on two engines over
identically-built networks:

* the **primary** — fully memoized (the default engine): a
  write drops only the memo entries its index entries name (the written
  oid's record, the written gram keys' tables — patched where provable)
  and carries the rest of each written partition to the new version;
* the **reference** — ``memoize=False``: every query recomputes from the
  stores, so it can never serve anything stale.

After every query the two answers must agree bit-for-bit — the match
lists *and* the measured cost series (messages, payload bytes, per-type
and per-phase breakdowns).  Any memo entry that survives a write it
should not have survived shows up here as a divergence; so does any
memo that changes what a query charges (memos are required to be
cost-transparent).

The writes are built to be *seen*: an inserted string is one inserted
letter away from a corpus word (inside every query radius, under the
gram keys the word's queries look up) and its oid comes from a pool of
nine, so objects that queries have already fetched gain and lose
triples.  ``write_near_then_query`` makes the kill directed instead of
lucky: warm a gram-strategy query of ``w``, write one edit from ``w``,
ask again.  Two hand-made mutants of the memo maintenance **passed** the
earlier form of this machine (fresh oids only, strings ``{base}x{n}``
drifting out of every radius) at 200 x 10 and fail this one at that
size:

* *written ``OID`` record not dropped* — ``FetchObjectsMemo.note_write``
  pops nothing: a grown object is served without its new triple;
* *written gram table not dropped* — ``GramScanMemo.note_write`` skips
  the named tables: the new posting is never a candidate.

Both engines see the exact same op sequence with explicit initiator
peers, so their RNG streams never decouple; equivalence is exact, not
statistical.  Every query draws its physical strategy — q-grams,
q-samples or the naive broadcast — so all three memos, the naive one's
retained region columns included, live through the writes and churn.

After every rule the network ledger's O(1) bookkeeping is checked
against the scans it replaced: the offline count, the mutation token
(moves iff some store changed, never backwards) and every peer's
partition index; and every cached record's stamp is either dead or the
one its memo's stamp index holds for that partition and version.

Tier-1 runs 200 examples of 10 steps; ``--hypothesis-profile=deep``
(registered in ``tests/conftest.py``; the ``mutate-smoke`` CI job) runs
1000 of 30.
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
from repro.query.operators.base import DEAD_STAMP
from repro.query.operators.similar import similar
from repro.storage.triple import Triple

ATTR = "w:text"

WORDS = [
    "apple", "apply", "ample", "maple",
    "grape", "grace", "trace",
    "banana", "band", "bandana",
    "cherry", "berry", "merry",
]


GRAM_STRATEGIES = [SimilarityStrategy.QGRAM, SimilarityStrategy.QSAMPLE]
STRATEGIES = [*GRAM_STRATEGIES, SimilarityStrategy.NAIVE]

#: Where and what to insert into a corpus word; any choice is one edit.
edits = st.tuples(st.integers(min_value=0, max_value=7), st.sampled_from("aeo"))
#: First component of a written oid: with the position in the batch
#: (0..2) a pool of nine objects that writes keep changing.
slots = st.integers(min_value=0, max_value=2)


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
            n_peers=n_peers, triples=triples, config=config
        )
        self.reference = QueryEngine.build(
            n_peers=n_peers, triples=triples, config=config, memoize=False
        )
        self.engines = (self.primary, self.reference)
        #: ``(base word, triples)`` of every insert not yet deleted.
        self.live_batches: list[tuple[str, tuple[Triple, ...]]] = []
        #: Per engine: ``(token, every store's identity and version)`` as
        #: of the previous invariant check.
        self.seen = [self._store_state(engine) for engine in self.engines]

    def teardown(self):
        for engine in getattr(self, "engines", ()):
            engine.close()

    # -- ops ----------------------------------------------------------------------

    def _same_answer(self, word, d, initiator, strategy):
        peer_id = initiator % self.primary.n_peers
        assert _answer(self.primary, word, d, peer_id, strategy) == _answer(
            self.reference, word, d, peer_id, strategy
        )

    def _insert(self, base, slot, size, edit):
        cut, letter = edit
        cut %= len(base) + 1
        value = base[:cut] + letter + base[cut:]
        batch = tuple(Triple(f"m:{slot}:{i}", ATTR, value) for i in range(size))
        # respect_online: offline replicas miss the write and stay
        # divergent until a recover() rule repairs them — identically in
        # both arms, since both see the same offline set.
        applied = [e.insert(list(batch), respect_online=True) for e in self.engines]
        assert applied[0] == applied[1]
        self.live_batches.append((base, batch))

    def _delete(self, pick) -> str:
        base, batch = self.live_batches.pop(pick % len(self.live_batches))
        applied = [e.delete(list(batch), respect_online=True) for e in self.engines]
        assert applied[0] == applied[1]
        return base

    @rule(
        word=st.sampled_from(WORDS),
        d=st.integers(min_value=0, max_value=2),
        initiator=st.integers(min_value=0, max_value=10**6),
        strategy=st.sampled_from(STRATEGIES),
    )
    def query(self, word, d, initiator, strategy):
        self._same_answer(word, d, initiator, strategy)

    @rule(
        base=st.sampled_from(WORDS),
        slot=slots,
        size=st.integers(min_value=1, max_value=3),
        edit=edits,
    )
    def insert(self, base, slot, size, edit):
        self._insert(base, slot, size, edit)

    @precondition(lambda self: self.live_batches)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete(self, pick):
        self._delete(pick)

    @rule(
        base=st.sampled_from(WORDS),
        slot=slots,
        edit=edits,
        pick=st.none() | st.integers(min_value=0, max_value=10**6),
        initiator=st.integers(min_value=0, max_value=10**6),
        strategy=st.sampled_from(GRAM_STRATEGIES),
    )
    def write_near_then_query(self, base, slot, edit, pick, initiator, strategy):
        """Warm the memos on ``w``, write one edit away from ``w`` (an
        insert, or the delete of an earlier one), ask again at the
        covering distance."""
        if pick is not None and self.live_batches:
            base = self.live_batches[pick % len(self.live_batches)][0]
        self._same_answer(base, 1, initiator, strategy)
        if pick is not None and self.live_batches:
            self._delete(pick)
        else:
            self._insert(base, slot, 1, edit)
        self._same_answer(base, 1, initiator, strategy)

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
    def stamps_are_indexed_or_dead(self):
        """What a write can still reach, it reaches through the index."""
        if not hasattr(self, "engines"):
            return
        fetch, scans = self.primary.fetch_memo, self.primary.gram_scan_memo
        stamped = [
            (fetch, fetch.addresses[oid][1], record.stamp)
            for oid, record in fetch.records.items()
        ] + [
            (scans, signature[0], table[0])
            for signature, table in scans._cache.items()
        ]
        for memo, partition, stamp in stamped:
            assert stamp[0] == DEAD_STAMP or any(
                held is stamp for held in memo._stamps._held[partition]
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
DEEP = settings.get_profile("deep")
TestMutationEquivalence.settings = (
    DEEP
    if settings.default is DEEP
    else settings(max_examples=200, stateful_step_count=10, deadline=None)
)
