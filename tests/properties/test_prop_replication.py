"""Replica audit and anti-entropy repair == the signature-only reference.

``audit_replicas`` passes a replica at the first replica's version token
without computing a signature, and ``repair_partition`` computes each
replica's signatures once; both must answer exactly what
``tests/reference/replication.py`` answers: the same divergent
partitions, the same copied counts and repair traffic, the same stores
and version tokens afterwards — and after a repair no partition is
divergent.

Each replica's state is drawn from a partition's shared entry list: the
same objects in the same order (the identity fast path), the same objects
in another order (as a repair leaves a lagging replica), equal-but-distinct
copies, one entry missing, one duplicate too many, or one entry swapped
for its signature twin (the value ``1`` for ``"1"``).  The pool holds a
string whose gram repeats at two positions, so one key carries two
entries of one object that only the position tells apart.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.config import StoreConfig
from repro.overlay.network import PGridNetwork
from repro.overlay.replication import audit_replicas, repair_partition
from repro.storage.indexing import EntryKind, IndexEntry
from repro.storage.triple import Triple
from tests.reference import replication as reference

VALUE_KEY, AB_KEY, BA_KEY = "0011", "0110", "1010"


def entry_pool() -> list[IndexEntry]:
    """Per object: ``a = "1"``, its twin ``a = 1``, and the grams of
    ``"abab"`` — ``ab`` at positions 0 and 2 under one key."""
    pool = []
    for oid in ("o:1", "o:2"):
        text = Triple(oid, "a", "abab")
        pool += [
            IndexEntry(VALUE_KEY, EntryKind.ATTR_VALUE, Triple(oid, "a", "1")),
            IndexEntry(VALUE_KEY, EntryKind.ATTR_VALUE, Triple(oid, "a", 1)),
            IndexEntry(AB_KEY, EntryKind.INSTANCE_GRAM, text, "ab", 0, 4),
            IndexEntry(BA_KEY, EntryKind.INSTANCE_GRAM, text, "ba", 1, 4),
            IndexEntry(AB_KEY, EntryKind.INSTANCE_GRAM, text, "ab", 2, 4),
        ]
    return pool


def signature_twin(entry: IndexEntry) -> IndexEntry:
    """The entry with ``1`` for ``"1"`` (or back): unequal, one signature."""
    value = entry.triple.value
    if value not in ("1", 1):
        return entry
    triple = Triple(entry.triple.oid, "a", 1 if value == "1" else "1")
    return dataclasses.replace(entry, triple=triple)


def copy_of(entry: IndexEntry) -> IndexEntry:
    """An equal entry sharing no object with ``entry`` but its strings."""
    return dataclasses.replace(entry, triple=dataclasses.replace(entry.triple))


VARIANTS = ("same", "same", "shuffled", "copies", "missing", "duplicate", "twin")


@st.composite
def replica_states(draw, replication: int, partitions: int):
    """Per partition, one entry list per replica (what its store receives)."""
    pool = entry_pool()
    states = []
    for __ in range(partitions):
        shared = draw(st.lists(st.sampled_from(pool), max_size=8))
        replicas = []
        for __ in range(replication):
            variant = draw(st.sampled_from(VARIANTS))
            held = list(shared)
            if variant == "shuffled":
                held = draw(st.permutations(held))
            elif variant == "copies":
                held = [copy_of(entry) for entry in held]
            elif held and variant != "same":
                at = draw(st.integers(min_value=0, max_value=len(held) - 1))
                if variant == "missing":
                    del held[at]
                elif variant == "duplicate":
                    held.insert(draw(st.integers(0, len(held))), held[at])
                else:
                    held[at] = signature_twin(held[at])
            replicas.append(held)
        states.append(replicas)
    return states


def loaded_network(replication: int, states) -> PGridNetwork:
    network = PGridNetwork(
        replication * len(states), StoreConfig(seed=3, replication=replication)
    )
    for partition, replicas in zip(network.partitions, states):
        for peer_id, held in zip(partition.peer_ids, replicas):
            network.peer(peer_id).store.add_bulk(held)
    return network


@st.composite
def scenarios(draw):
    replication = draw(st.integers(min_value=1, max_value=3))
    partitions = draw(st.integers(min_value=1, max_value=3))
    states = draw(replica_states(replication, partitions))
    return replication, states


class TestAuditAndRepairEqualReference:
    @settings(max_examples=300, deadline=None)
    @given(scenarios(), st.booleans())
    def test_audit_then_repair(self, scenario, charge_messages):
        replication, states = scenario
        network = loaded_network(replication, states)
        twin = loaded_network(replication, states)

        report = audit_replicas(network)
        divergent = reference.audit_divergent(twin)
        assert report.divergent_partitions == divergent
        assert report.consistent is (not divergent)
        assert report.partitions == network.n_partitions
        assert report.replication == replication

        for index in divergent:
            assert repair_partition(
                network, index, charge_messages=charge_messages
            ) == reference.repair_partition(
                twin, index, charge_messages=charge_messages
            )
        for peer, twin_peer in zip(network.peers, twin.peers):
            got, expected = list(peer.store), list(twin_peer.store)
            assert len(got) == len(expected)
            assert all(a is b for a, b in zip(got, expected))
            assert peer.store.version == twin_peer.store.version
        assert network.tracer.snapshot() == twin.tracer.snapshot()

        assert reference.audit_divergent(network) == []
        assert audit_replicas(network).consistent
