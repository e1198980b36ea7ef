"""Property test: Algorithm 1's one-loop walk against its per-hop twin.

:class:`~tests.reference.routing.ReferenceRouter` walks one hop and one
message at a time and picks with ``random.shuffle``.  Two equal networks,
one routed by each, are driven through the same walks, batched contacts
and showers.  Everything must come out equal: the reached peers (or the
type of error raised), the tracer's counters, the bytes per phase, the
router RNG's final state and — with a verbose log — the message log.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import StoreConfig
from repro.core.errors import PartitionUnreachableError, RoutingError
from repro.overlay.faults import FaultMode, FaultPlan
from repro.overlay.keys import int_to_key
from repro.overlay.network import PGridNetwork

from tests.conftest import bytes_by_phase
from tests.reference.routing import ReferenceRouter

KEY_BITS = 16

#: healthy, an installed no-op plan, a verbose log, and an active lossy
#: plan (the walk's hop-by-hop branch) in either fault mode.
TRANSPORTS = ("healthy", "noop", "log", "lossy-strict", "lossy-degraded")


def _network(
    n_peers: int, config: StoreConfig, transport: str, offline: set[int]
) -> PGridNetwork:
    network = PGridNetwork(n_peers, config)
    network.tracer.record_log = transport == "log"
    if transport == "noop":
        network.install_faults(FaultPlan())
    elif transport.startswith("lossy"):
        network.install_faults(FaultPlan.lossy(0.3, seed=config.seed))
        if transport.endswith("degraded"):
            network.fault_mode = FaultMode.DEGRADED
    for peer_id in offline:
        network.peer(peer_id).online = False
    return network


def _run(network: PGridNetwork, op: tuple) -> object:
    router = network.router
    kind, arg, start = op
    try:
        if kind == "route":
            return router.route(arg, start).peer_id
        if kind == "partitions":
            reached = router.route_partitions(arg, start)
            return {index: peer.peer_id for index, peer in reached.items()}
        return [peer.peer_id for peer in router.multicast_prefix(arg, start)]
    except (PartitionUnreachableError, RoutingError) as error:
        return type(error)


@st.composite
def scenarios(draw):
    config = StoreConfig(
        seed=draw(st.integers(0, 2**16)),
        key_bits=KEY_BITS,
        replication=draw(st.integers(1, 3)),
        refs_per_level=draw(st.integers(1, 3)),
    )
    n_peers = draw(st.integers(8, 96))
    probe = PGridNetwork(n_peers, config)
    peers = probe.n_peers
    offline = set(
        draw(st.lists(st.integers(0, peers - 1), max_size=peers // 3))
    )
    if draw(st.booleans()):
        # One partition left dark: every replica of it offline.
        dark = draw(st.integers(0, probe.n_partitions - 1))
        offline.update(probe.partition(dark).peer_ids)
    full = st.integers(0, 2**KEY_BITS - 1).map(
        lambda value: int_to_key(value, KEY_BITS)
    )
    keys = st.one_of(
        full,
        st.tuples(full, st.integers(0, probe.max_depth + 2)).map(
            lambda pair: pair[0][: pair[1]]
        ),
    )
    starts = st.integers(0, peers - 1)
    ops = st.one_of(
        st.tuples(st.just("route"), keys, starts),
        st.tuples(
            st.just("partitions"),
            st.sets(st.integers(0, probe.n_partitions - 1), max_size=6),
            starts,
        ),
        st.tuples(
            st.just("multicast"),
            full.map(lambda key: key[: probe.max_depth // 2]),
            starts,
        ),
    )
    return (
        n_peers,
        config,
        draw(st.sampled_from(TRANSPORTS)),
        offline,
        draw(st.lists(ops, min_size=1, max_size=25)),
    )


@settings(deadline=None)
@given(scenarios())
def test_the_walk_equals_its_per_hop_twin(scenario):
    n_peers, config, transport, offline, ops = scenario
    network = _network(n_peers, config, transport, offline)
    twin = _network(n_peers, config, transport, offline)
    twin.router = ReferenceRouter(twin, random.Random(config.seed + 1))

    for op in ops:
        assert _run(network, op) == _run(twin, op), op

    assert network.tracer.snapshot() == twin.tracer.snapshot()
    assert bytes_by_phase(network.tracer) == bytes_by_phase(twin.tracer)
    assert network.router.rng.getstate() == twin.router.rng.getstate()
    assert network.tracer.log == twin.tracer.log
    if network.fault_injector is not None:
        assert network.fault_injector.session == twin.fault_injector.session
        assert (
            network.fault_injector.rng.getstate()
            == twin.fault_injector.rng.getstate()
        )
