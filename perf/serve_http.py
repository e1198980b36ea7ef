"""The ``serve_http`` workload: one load generator, one server child.

The load generator is this process: one asyncio loop, two keep-alive
connections (:class:`~repro.serve.client.HttpClient`), no worker threads.
The server is a separate child started through :mod:`perf.serve_entry`.

Phases of an untraced repeat, in order:

1. **closed loop** — both connections send their next request as soon as
   the previous reply arrived; completed requests per second is the
   server's capacity (``ops_per_s``), and the simulated cost is summed
   over the first ``min_ops`` requests in issue order;
2. **open loop** — Poisson arrivals at a fixed rate whatever the server
   does (200 per *reference* second, see :mod:`perf.clock`); every request
   is timed *from the instant it was due*, so a stall charges the requests
   queued behind it (``lat_*``); how late the generator itself fired is
   ``loadgen.late_p99_ms``;
3. **write probe** — alternate insert/delete batches (``write_lat_p50_ms``).

A traced repeat runs an untraced child first (closed-loop baseline and
the rate ladder), then a traced child (closed and open loop, write probe)
whose span dump is merged with the client's round-trip times.
"""

from __future__ import annotations

import asyncio
import json
import random
import select
import signal
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from repro.datasets.bible import TEXT_ATTRIBUTE, bible_triples
from repro.serve.client import HttpClient

from perf.clock import NOMINAL_NS, SpeedLog
from perf.inputs import SIZES, WRITE_BATCH, ZIPF_REDEAL, Spread, Zipf, shuffled_cycle
from perf.oracle import Oracle
from perf.paths import OUT_DIR, ROOT, child_env
from perf.stats import median, percentile, ratio
from perf.trace import CALLS, SCOPED, SELF_NS, boundary_rows, layer_totals
from perf.workloads import ORACLE_SAMPLE

CONNECTIONS = 2
OPEN_RATE = 200.0
LADDER = (150.0, 300.0, 450.0, 600.0, 900.0)
LADDER_P95_LIMIT_MS = 100.0
TOP_N_MAX_DISTANCE = 3
STARTUP_TIMEOUT = 120.0
#: The prober process samples the server's CPU this often ...
PROBE_EVERY_S = 0.1
#: ... the write probe pauses this long between batch pairs ...
WRITE_PAUSE_S = 0.015
#: ... and a phase waits this long for the samples around its end.
SETTLE_S = 0.12

#: Six request kinds in the shares 30/15/15/10/20/10 %.
KINDS = (
    ("similar_d1",) * 6 + ("similar_d2",) * 3 + ("topn",) * 3
    + ("topn_stream",) * 2 + ("exact",) * 4 + ("vql",) * 2
)
#: Strategy named by similarity-shaped requests: 50/30/20 %.
STRATEGIES = ("adaptive",) * 5 + ("qgrams",) * 3 + ("qsamples",) * 2

#: Shares of a repeat's seconds: untraced repeat, and the two children of a
#: traced one (``rung`` is one ladder rung; at most five run).
UNTRACED_SPLIT = {"closed": 0.35, "open": 0.65}
TRACED_SPLIT = {"baseline": 0.15, "rung": 0.08, "closed": 0.25, "open": 0.2}


@dataclass
class Planned:
    kind: str
    path: str
    payload: dict
    search: str = ""
    d: int = 0
    n: int = 0
    check: bool = False


@dataclass
class Done:
    """One finished request, as the client saw it."""

    planned: Planned
    ok: bool
    due_ns: int
    sent_ns: int
    end_ns: int
    messages: int = 0
    payload_bytes: int = 0
    decisions: list = field(default_factory=list)
    matches: int = 0


class Mix:
    """The seeded six-kind zipfian read mix."""

    def __init__(self, strings: list[str], oracle: Oracle, rng: random.Random):
        self.rng = rng
        self.oracle = oracle
        self.draw = Zipf(strings, rng, ZIPF_REDEAL)
        self.kinds = shuffled_cycle(KINDS, rng)

    def __iter__(self):
        return self

    def __next__(self) -> Planned:
        kind, search = next(self.kinds), self.draw()
        if kind == "exact":
            return Planned(
                kind, "/query/exact",
                {"attribute": TEXT_ATTRIBUTE, "value": search},
                search=search, check=True,
            )
        check = self.oracle.sampled()
        if kind == "vql":
            text = (
                f"SELECT ?w WHERE {{ (?o,{TEXT_ATTRIBUTE},?w) "
                f"FILTER (dist(?w,'{search}') <= 1) }}"
            )
            return Planned(kind, "/query/vql", {"text": text}, search, d=1, check=check)
        strategy = self.rng.choice(STRATEGIES)
        if kind.startswith("similar"):
            d = int(kind[-1])
            return Planned(
                kind, "/query/similar",
                {"search": search, "attribute": TEXT_ATTRIBUTE, "d": d,
                 "strategy": strategy},
                search, d=d, check=check,
            )
        n = self.rng.choice((5, 10))
        path = "/query/topn" if kind == "topn" else "/query/topn/stream"
        return Planned(
            kind, path,
            {"attribute": TEXT_ATTRIBUTE, "search": search, "n": n,
             "max_distance": TOP_N_MAX_DISTANCE, "strategy": strategy},
            search, n=n, check=check,
        )


def _matches_of(planned: Planned, reply) -> list[dict]:
    if planned.kind == "topn_stream":
        return [line["match"] for line in reply.lines if "match" in line]
    return reply.json().get("matches", [])


def verify(oracle: Oracle, planned: Planned, reply) -> bool:
    """Oracle verdict on one reply (gram strategies: see ``perf.oracle``)."""
    if planned.kind == "vql":
        return oracle.check_strings_within(
            planned.search, planned.d, [row["w"] for row in reply.json()["rows"]]
        )
    pairs = [(m["oid"], m["distance"]) for m in _matches_of(planned, reply)]
    if planned.kind == "exact":
        return oracle.check_exact(planned.search, [oid for oid, __ in pairs])
    if planned.kind.startswith("similar"):
        return oracle.check_similar(planned.search, planned.d, pairs, False)
    return oracle.check_top_n(
        planned.search, planned.n, TOP_N_MAX_DISTANCE, pairs, False
    )


class LoadGen:
    """Two connections, the phases that drive them, and what they saw."""

    def __init__(self, port: int, oracle: Oracle, speed: SpeedLog):
        self.clients = [HttpClient("127.0.0.1", port) for __ in range(CONNECTIONS)]
        self.oracle = oracle
        #: Speed of the server's CPU, as the prober process reports it.
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        #: Sampled ``(request, reply)`` pairs awaiting their oracle verdict.
        self.unchecked: list[tuple[Planned, object]] = []

    def check_answers(self) -> None:
        """Oracle verdicts for the finished phase — outside every timer.

        Deferring them is safe because the live set does not move during
        the read phases; running them between requests would stall the
        other connection's reply on this single event loop.
        """
        for planned, reply in self.unchecked:
            if not verify(self.oracle, planned, reply):
                self.failed += 1
                print(f"oracle mismatch on {planned.kind}", file=sys.stderr)
        self.unchecked.clear()

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def fire(self, client: HttpClient, planned: Planned, due_ns: int) -> Done:
        """One request; failures of any kind count, never raise."""
        self.attempted += 1
        sent = perf_counter_ns()
        try:
            reply = await client.request("POST", planned.path, planned.payload)
        except Exception as exc:
            self.failed += 1
            print(f"request failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return Done(planned, False, due_ns, sent, perf_counter_ns())
        end = perf_counter_ns()
        if reply.status not in (200, 206):
            self.failed += 1
            print(f"status {reply.status} on {planned.path}", file=sys.stderr)
            return Done(planned, False, due_ns, sent, end)
        body = next(
            (line for line in reply.lines if line.get("done")), None
        ) if reply.lines else reply.json()
        cost = (body or {}).get("cost", {})
        done = Done(
            planned, True, due_ns, sent, end,
            messages=cost.get("messages", 0),
            payload_bytes=cost.get("payload_bytes", 0),
            decisions=(body or {}).get("decisions", []),
        )
        if planned.path.startswith("/query"):
            done.matches = (
                len(body.get("rows", [])) if planned.kind == "vql"
                else len(_matches_of(planned, reply))
            )
            if planned.check:
                self.unchecked.append((planned, reply))
        return done

    async def control(self, method: str, path: str, payload=None) -> dict:
        reply = await self.clients[0].request(method, path, payload)
        return reply.json()

    async def mark(self, label: str) -> dict:
        return await self.control("POST", "/perf/mark", {"label": label})

    # -- closed loop ---------------------------------------------------------------

    async def closed_loop(self, mix, seconds: float, min_ops: int) -> dict:
        issued = 0
        records: list[tuple[int, Done]] = []
        loop_ns = 0
        started = perf_counter_ns()
        deadline = started + int(seconds * 1e9)

        async def connection(client: HttpClient) -> None:
            nonlocal issued, loop_ns
            begun = perf_counter_ns()
            while issued < min_ops or perf_counter_ns() < deadline:
                index, issued = issued, issued + 1
                records.append(
                    (index, await self.fire(client, next(mix), perf_counter_ns()))
                )
            loop_ns += perf_counter_ns() - begun

        await asyncio.gather(*(connection(c) for c in self.clients))
        await asyncio.sleep(SETTLE_S)  # let the probe samples around the end arrive
        self.check_answers()
        good = [done for __, done in records if done.ok]
        wall_ns = max(done.end_ns for __, done in records) - started
        # A unit is one pattern's worth of consecutive completions.
        ends = sorted(done.end_ns for done in good)
        unit_rates = [
            len(KINDS) / ((ends[i] - ends[i - len(KINDS)]) / 1e9)
            * self.speed.factor_at(ends[i])
            for i in range(len(KINDS), len(ends), len(KINDS))
        ]
        prefix = [done for index, done in records if index < min_ops]
        return {
            "records": [done for __, done in records],
            "ops": len(good),
            "seconds": wall_ns / 1e9,
            "unit_rates": unit_rates,
            "rtt_ns": sum(d.end_ns - d.sent_ns for d in good),
            "loop_ns": loop_ns,
            "sim_messages": sum(d.messages for d in prefix),
            "sim_bytes": sum(d.payload_bytes for d in prefix),
        }

    # -- open loop -----------------------------------------------------------------

    async def open_loop(self, mix, rate: float, seconds: float, rng) -> dict:
        """Poisson arrivals for ``seconds``; then the backlog is drained."""
        queue: deque[tuple[int, Planned]] = deque()
        wakeup = asyncio.Event()
        records: list[Done] = []
        inflight = 0
        finished = False
        backlog: dict[str, int] = {}
        late_ms: list[float] = []
        started = perf_counter_ns()
        horizon = int(seconds * 1e9)

        async def connection(client: HttpClient) -> None:
            nonlocal inflight
            while True:
                while not queue:
                    if finished:
                        return
                    wakeup.clear()
                    await wakeup.wait()
                due_ns, planned = queue.popleft()
                inflight += 1
                records.append(await self.fire(client, planned, due_ns))
                inflight -= 1

        async def arrivals() -> None:
            nonlocal finished
            due = started
            while True:
                # ``rate`` is per *reference* second: a gap stretches with the
                # speed factor of the moment, so a slow phase offers the same
                # load relative to capacity instead of tipping the queue over.
                gap_ns = rng.expovariate(rate) * 1e9
                due += int(gap_ns * self.speed.factor_at(perf_counter_ns()))
                if due - started >= horizon:
                    break
                await _sleep_until(due)
                if "middle" not in backlog and due - started >= horizon // 2:
                    backlog["middle"] = len(queue) + inflight
                late_ms.append((perf_counter_ns() - due) / 1e6)
                queue.append((due, next(mix)))
                wakeup.set()
            await _sleep_until(started + horizon)
            backlog["end"] = len(queue) + inflight
            finished = True
            wakeup.set()

        workers = [asyncio.ensure_future(connection(c)) for c in self.clients]
        await arrivals()
        # A few queued requests at one instant are a burst, not a trend; an
        # overloaded rung gains tens per second (and fails the p95 limit too).
        growing = backlog["end"] > backlog.get("middle", 0) + 4 * CONNECTIONS
        abandoned = 0
        if growing:
            # Beyond capacity: do not sit out an unbounded drain.
            abandoned = len(queue)
            queue.clear()
        await asyncio.gather(*workers)
        window = (started, perf_counter_ns())
        await asyncio.sleep(SETTLE_S)
        self.check_answers()
        good = [d for d in records if d.ok]
        return {
            "records": records,
            "ops_ms": [
                [d.planned.kind,
                 (d.end_ns - d.due_ns) / 1e6 / self.speed.factor_at(d.end_ns)]
                for d in good
            ],
            "late_ms": late_ms,
            "growing": growing,
            "abandoned": abandoned,
            "failed": len(records) - len(good),
            "window": window,
        }

    async def ladder(self, mix, rung_seconds: float, rng) -> tuple[float, list[float]]:
        """Highest rung that holds the latency limit without a growing backlog."""
        best = 0.0
        late: list[float] = []
        for rate in LADDER:
            rung = await self.open_loop(mix, rate, rung_seconds, rng)
            late.extend(rung["late_ms"])
            # A failed or abandoned request counts as missing the limit.
            missed = rung["failed"] + rung["abandoned"]
            samples = [ms for __, ms in rung["ops_ms"]] + [float("inf")] * missed
            ok = (
                percentile(samples, 0.95) <= LADDER_P95_LIMIT_MS
                and missed == 0
                and not rung["growing"]
            )
            if not ok:
                break
            best = rate
        return best, late

    # -- write probe ---------------------------------------------------------------

    async def write_probe(self, batches: int, strings, rng) -> dict[str, list[float]]:
        near = Spread(strings, rng)
        raw: dict[str, list[tuple[int, int]]] = {"insert": [], "delete": []}
        for index in range(batches // 2):
            triples = []
            for slot in range(WRITE_BATCH):
                base = near()
                cut = rng.randrange(len(base) + 1)
                triples.append(
                    {
                        "oid": f"mut:{index:05d}:{slot}",
                        "attribute": TEXT_ATTRIBUTE,
                        "value": base[:cut] + rng.choice("aeiostnr") + base[cut:],
                    }
                )
            for kind in ("insert", "delete"):
                done = await self.fire(
                    self.clients[0],
                    Planned(kind, f"/mutate/{kind}", {"triples": triples}),
                    perf_counter_ns(),
                )
                if done.ok:
                    raw[kind].append((done.end_ns, done.end_ns - done.sent_ns))
            # Spread the probe over several speed-probe samples: run flat out
            # it is over before the prober has looked twice.
            await asyncio.sleep(WRITE_PAUSE_S)
        await asyncio.sleep(SETTLE_S)
        return {
            kind: [ns / 1e6 / self.speed.factor_at(end) for end, ns in samples]
            for kind, samples in raw.items()
        }


async def _sleep_until(target_ns: int) -> None:
    delay = (target_ns - perf_counter_ns()) / 1e9
    if delay > 0:
        await asyncio.sleep(delay)


# -- the prober and the server child ------------------------------------------------


class Prober:
    """The :mod:`perf.prober` process and the speed log it feeds.

    Its lines are read by a task on the load generator's own event loop:
    no thread, and the factor of the moment is always at hand.
    """

    def __init__(self):
        self.speed = SpeedLog()
        self.process: asyncio.subprocess.Process | None = None
        self._reader: asyncio.Task | None = None

    async def start(self) -> None:
        self.process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "perf.prober", str(PROBE_EVERY_S),
            cwd=ROOT, env=child_env(), stdout=asyncio.subprocess.PIPE,
        )
        self._reader = asyncio.ensure_future(self._read())
        while len(self.speed.at_ns) < 2:  # it is up and measuring
            await asyncio.sleep(0.01)

    async def _read(self) -> None:
        async for line in self.process.stdout:
            at_ns, took_ns = line.split()
            self.speed.extend([int(at_ns)], [int(took_ns)])

    async def stop(self) -> None:
        if self.process is not None and self.process.returncode is None:
            self.process.terminate()
            await self.process.wait()
        if self._reader is not None:
            await asyncio.gather(self._reader, return_exceptions=True)



class ServerChild:
    """Spawn, await readiness, stop — and never leave it running."""

    def __init__(self, sizes, seed: int, trace: bool, speed: SpeedLog):
        self.speed = speed
        self.spawned_ns = perf_counter_ns()
        OUT_DIR.mkdir(exist_ok=True)
        self.dump = OUT_DIR / "spans-serve_http.json"
        self.dump.unlink(missing_ok=True)
        spec = {
            "peers": sizes.peers, "words": sizes.corpus, "seed": seed,
            "trace": trace, "dump": str(self.dump),
        }
        self.started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perf.serve_entry", json.dumps(spec)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        self.port = 0
        self.setup_raw_s = 0.0
        self.setup_s = 0.0

    async def ready(self) -> None:
        """Spawn -> first ``GET /healthz`` 200 is the workload's set-up time."""
        # A plain blocking read: nothing else runs on the loop yet, and the
        # load generator must not grow an executor thread.
        readable, __, __ = select.select([self.process.stdout], [], [], STARTUP_TIMEOUT)
        line = self.process.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError("server child did not announce its port")
        self.port = json.loads(line)["port"]
        client = HttpClient("127.0.0.1", self.port)
        try:
            reply = await client.request("GET", "/healthz")
        finally:
            await client.close()
        if reply.status != 200:
            raise RuntimeError(f"/healthz answered {reply.status}")
        self.setup_raw_s = perf_counter() - self.started
        await asyncio.sleep(SETTLE_S)
        during = [
            took for at, took in zip(self.speed.at_ns, self.speed.took_ns)
            if at >= self.spawned_ns
        ]
        self.setup_s = self.setup_raw_s / (median(during) / NOMINAL_NS)

    def stop(self) -> dict | None:
        """SIGTERM, wait, and read the span dump if one was written (it stays
        on disk as the run's span file)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        return json.loads(self.dump.read_text()) if self.dump.exists() else None


# -- repeats -----------------------------------------------------------------------


def run_repeat(
    name: str, seed: int, repeat: int, seconds: float, scale: str, trace: bool
) -> dict:
    return asyncio.run(_run_repeat(seed, repeat, seconds, SIZES[scale][name], trace))


async def _run_repeat(seed, repeat, seconds, sizes, trace) -> dict:
    rng = random.Random(seed * 1009 + repeat * 9176 + 13)
    corpus = bible_triples(sizes.corpus, seed=seed)
    strings = sorted({str(t.value) for t in corpus})
    oracle = Oracle(corpus, ORACLE_SAMPLE, seed * 31 + repeat)
    mix = Mix(strings, oracle, rng)
    split = TRACED_SPLIT if trace else UNTRACED_SPLIT

    baseline = None
    if trace:
        baseline = await _session(
            sizes, seed, False, oracle,
            lambda gen: _baseline_phases(gen, mix, rng, seconds, split, sizes),
        )
    main = await _session(
        sizes, seed, trace, oracle,
        lambda gen: _main_phases(gen, mix, rng, seconds, split, sizes, strings),
    )
    closed, open_ = main["closed"], main["open"]
    sessions = [main] + ([baseline] if baseline else [])
    result = {
        "workload": "serve_http",
        "setup_s": main["setup_s"],
        "unit_rates": closed["unit_rates"],
        "ops_ms": open_["ops_ms"],
        "insert_ms": main["write_lat_ms"]["insert"],
        "delete_ms": main["write_lat_ms"]["delete"],
        "sim_messages": closed["sim_messages"],
        "sim_bytes": closed["sim_bytes"],
        "sim_units": sizes.min_ops,
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "oracle_checked": oracle.checked,
        "peak_rss_mb": main["end"]["rss_mb"],
        # As the wall clock saw it, before scaling to reference speed.
        "raw": {
            "setup_s": main["setup_raw_s"],
            "ops": closed["ops"],
            "op_seconds": closed["seconds"],
            "speed_factor": main["speed_factor"],
        },
    }
    if trace:
        result["trace"] = _trace_material(main, baseline)
        result["trace"]["speed_factor"] = main["speed_factor"]
        result["unrestored"] = main["dump"]["unrestored"]
    return result


async def _session(sizes, seed, trace, oracle, phases) -> dict:
    """One server child's lifetime around ``phases(loadgen)``."""
    prober = Prober()
    await prober.start()
    child = ServerChild(sizes, seed, trace, prober.speed)
    outcome: dict = {}
    try:
        await child.ready()
        gen = LoadGen(child.port, oracle, prober.speed)
        try:
            outcome = await phases(gen)
            outcome["end"] = await gen.mark("end")
            outcome["speed_factor"] = gen.speed.factor()
        finally:
            await gen.close()
        outcome.update(attempted=gen.attempted, failed=gen.failed)
    finally:
        outcome["dump"] = child.stop()
        await prober.stop()
    outcome.update(setup_s=child.setup_s, setup_raw_s=child.setup_raw_s)
    return outcome


async def _baseline_phases(gen, mix, rng, seconds, split, sizes) -> dict:
    closed = await gen.closed_loop(
        mix, seconds * split["baseline"], sizes.min_ops // 2
    )
    best, late = await gen.ladder(mix, seconds * split["rung"], rng)
    return {"closed": closed, "max_rate_ok_rps": best, "ladder_late_ms": late}


async def _main_phases(gen, mix, rng, seconds, split, sizes, strings) -> dict:
    stats_before = await gen.control("GET", "/stats")
    await gen.mark("closed:start")
    closed = await gen.closed_loop(mix, seconds * split["closed"], sizes.min_ops)
    await gen.mark("closed:end")
    stats_closed = await gen.control("GET", "/stats")
    open_ = await gen.open_loop(mix, OPEN_RATE, seconds * split["open"], rng)
    stats_after = await gen.control("GET", "/stats")
    write_lat_ms = await gen.write_probe(sizes.write_probes, strings, rng)
    return {
        "closed": closed,
        "open": open_,
        "write_lat_ms": write_lat_ms,
        "stats": (stats_before, stats_closed, stats_after),
    }


# -- merging the client's view with the server's spans -------------------------------


def _trace_material(main: dict, baseline: dict) -> dict:
    """Raw per-layer numbers (same keys as the engine workloads produce).

    The accounting unit is one closed-loop request as its connection lives
    it: loop time = round trip + the client's own bookkeeping (``driver``).
    The round trip splits into the server-side ``handle`` span plus, for
    streamed replies, the drain of the stream; what is left is
    ``serve.http``.  Inside ``handle``/drain, whatever is not covered by a
    deeper boundary on either thread — validation, JSON, the executor hop
    and the wait for the engine lock — is ``serve.app`` self time.
    """
    dump, closed, open_ = main["dump"], main["closed"], main["open"]
    names = [b["name"] for b in dump["boundaries"]]
    before, after = dump["marks"]["closed:start"], dump["marks"]["closed:end"]
    cells = [
        [now - then for now, then in zip(cell, old)]
        for cell, old in zip(after["cells"], before["cells"])
    ]
    counters = {
        key: value - before["counters"].get(key, 0)
        for key, value in after["counters"].items()
    }
    cell = lambda name: cells[names.index(name)]  # noqa: E731

    layers = layer_totals(dump["boundaries"], cells)

    handle, respond = names.index("QueryService.handle"), names.index("write_response")
    lo, hi = before["at_ns"], after["at_ns"]
    in_window = [s for s in dump["spans"] if lo <= s[4] and s[5] <= hi]
    handle_ns = sum(s[5] - s[4] for s in in_window if s[3] == handle)
    drains = [s for s in in_window if s[3] == respond and s[7] == "stream"]
    drain_ns = sum(s[5] - s[4] for s in drains)
    loop_thread = {s[6] for s in dump["spans"] if s[3] == handle}
    engine_roots_ns = sum(
        s[5] - s[4] for s in in_window if s[2] == -1 and s[6] not in loop_thread
    )
    # ``handle`` and drain self times exclude their loop-thread children;
    # the engine thread's roots run inside them and come off as well.
    # Non-stream ``write_response`` calls belong to the round trip's rest.
    layers["serve.app"]["self_ns"] += (
        sum(s[5] - s[4] - s[8] for s in drains) - engine_roots_ns
    )
    layers["serve.http"]["self_ns"] = closed["rtt_ns"] - handle_ns - drain_ns

    stats_before, stats_closed, stats_after = main["stats"]
    by_type = lambda stats: stats["engine"]["by_type"].get("route", 0)  # noqa: E731
    admission = stats_after["admission"]
    rejected = admission["rejected_capacity"] + admission["rejected_overload"]
    records = closed["records"] + open_["records"]
    ratios = [
        d["predicted_messages"] / d["actual_messages"]
        for done in records for d in done.decisions if d["actual_messages"]
    ]
    analyze = names.index("QueryEngine.analyze")
    base_closed = baseline["closed"]
    return {
        "layers": layers,
        "boundaries": boundary_rows(dump["boundaries"], cells),
        "counters": counters,
        "traced_ops": closed["ops"],
        "traced_ns": closed["loop_ns"],
        "untraced_ops": base_closed["ops"],
        "untraced_ns": base_closed["loop_ns"],
        "all_ops": len(records),
        "token_ns": cell("PGridNetwork.store_version_token")[SELF_NS],
        "delta_ns": 0,
        "repair_ns": 0,
        "route_calls": cell("Router.route")[CALLS],
        "fetch_calls": cell("OperatorContext.fetch_objects")[CALLS],
        "send_calls": cell("MessageTracer.send")[CALLS],
        "bulk_calls": cell("MessageTracer.send_bulk")[CALLS],
        "lookup_calls": cell("LocalDataStore.lookup")[CALLS],
        "scoped_partition_lookups": cell("PGridNetwork.partition_for")[SCOPED],
        "scoped_hashes": cell("uniform_key")[SCOPED],
        "traced_vql_ops": sum(d.planned.kind == "vql" for d in closed["records"]),
        "traced_route_messages": by_type(stats_closed) - by_type(stats_before),
        "traced_writes": 0,
        "traced_recovers": 0,
        "failover_messages": sum(
            stats_after["engine"]["by_phase"].get(phase, 0)
            for phase in ("failover", "retry")
        ),
        "decisions": sum(len(done.decisions) for done in records),
        "pred_over_actual_p50": median(ratios),
        "within_2x_share": 0.0,
        "matches": sum(done.matches for done in records),
        "recovers": 0,
        "entries_copied": 0,
        "memo": _stats_delta(stats_before["memos"], stats_after["memos"]),
        "invalidations_per_write": 0.0,
        "memo_entries_end": sum(m["entries"] for m in stats_after["memos"].values()),
        "verifier": {
            key: stats_after["verifier"].get(key, 0) - stats_before["verifier"].get(key, 0)
            for key in ("computed", "memo_hits", "prefilter_rejected")
        },
        "build_s": baseline["end"]["build_s"],
        "analyze_ms": sum(s[5] - s[4] for s in dump["spans"] if s[3] == analyze) / 1e6,
        "engine_wait_ms": _engine_waits(dump["spans"], names, loop_thread, open_["window"]),
        "rejected_share": ratio(rejected, rejected + admission["admitted"]),
        "late_p99_ms": percentile(open_["late_ms"], 0.99),
        "ladder_late_p99_ms": percentile(baseline["ladder_late_ms"], 0.99),
        "max_rate_ok_rps": baseline["max_rate_ok_rps"],
    }


def _stats_delta(before: dict, after: dict) -> dict:
    return {
        name: {key: stats[key] - before[name][key] for key in stats}
        for name, stats in after.items()
    }


#: What the engine thread opens first for a non-streamed request: an
#: engine method, or — for ``/query/topn`` — the operator itself.
_ENGINE_ENTRIES = frozenset(
    {f"QueryEngine.{name}" for name in ("similar", "select", "query", "insert", "delete")}
    | {"top_n_string_nn"}
)


def _engine_waits(spans, names, loop_thread, window) -> list[float]:
    """``handle`` entry -> engine entry, per non-streamed engine request.

    The engine lock is FIFO and a handler requests it without awaiting
    anything first, so the k-th such ``handle`` entry owns the k-th entry
    span that the engine thread opens for a non-streamed request.
    """
    lo, hi = window
    handle = names.index("QueryService.handle")
    entries = sorted(
        s[4] for s in spans
        if s[3] == handle and s[7] is not None and s[7][1] in (200, 206)
        and s[7][0].startswith(("/mutate", "/query"))
        and not s[7][0].endswith("/stream")
    )
    roots = sorted(
        s[4] for s in spans
        if s[2] == -1 and s[6] not in loop_thread and names[s[3]] in _ENGINE_ENTRIES
    )
    if len(entries) != len(roots):
        print(
            f"engine_wait: {len(entries)} handle entries vs {len(roots)} engine "
            "entries; not pairing", file=sys.stderr,
        )
        return []
    return [
        (root - entry) / 1e6
        for entry, root in zip(entries, roots) if lo <= entry <= hi
    ]
