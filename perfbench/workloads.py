"""The four benchmark workloads, driven only through public entry points.

Each workload function takes ``(seed, seconds, tracer, exact)`` and
returns an :class:`Outcome`.  ``tracer`` is ``None`` for a measured run; in
a traced run the workload marks its set-up and measured window on it.
``exact=False`` (the traced run, which reports no ``op_cycles``) lets a
workload stop at its deadline before it has run the fixed prefix of
operations ``op_cycles`` is the mean over.

Every workload has one *operation* that its end-to-end metrics describe:

=============== ==========================================
workload        operation
=============== ==========================================
sessions-thread one session ``submit`` of 64 symbols
ingest-proc     one ``submit`` frame of 64 symbols
migrate-live    one ``FleetClient.migrate_live`` rollout
synth-ea        one ``api.migrate(method="ea")`` call
=============== ==========================================

Per-request bookkeeping is kept small (flat arrays of floats; on
sessions-thread and migrate-live each reply is checked as it arrives and
its future dropped), the generated specs are dropped once the program's
machines are built, and ``peak_rss_mb`` is read before any after-run
check.  So beyond the interpreter and the inputs handed to the program,
the figure is the program's memory, and it barely grows with how many
requests a fast host served.
"""

from __future__ import annotations

import asyncio
import json
import math
import queue
import random
import resource
import struct
import threading
import time
from array import array
from collections import deque
from typing import Callable, Dict, List

from machines import RefStepper, digest, mutate_spec, random_spec, words

clock = time.perf_counter

#: How long a request may wait for its reply before it counts as failed.
REPLY_TIMEOUT_S = 60.0

#: Set-ups per run, by workload; ``setup_s`` is their median.  The first
#: one also pays the lazy imports, as a user's first call would.  A set-up
#: takes 4-40 ms, mostly thread or process start-up and hand-offs, so each
#: workload sets up for about half a second: the median of 15 set-ups
#: still moved by a quarter from one run to the next.
SETUPS = {"sessions-thread": 101, "ingest-proc": 31, "migrate-live": 21, "synth-ea": 21}


class Outcome:
    """What one workload run measured."""

    def __init__(self, workload: str, window_ops: int):
        self.workload = workload
        self.setup_s: List[float] = []
        #: completion time (from ``t0``) and latency of each operation,
        #: seconds, as 4-byte floats; the latency is ``inf`` for a failed one
        self.op_end = array("f")
        self.op_lat = array("f")
        self.ops_ok = 0
        #: start and length of the measured window, and how many
        #: operations each window of the timed figures holds
        self.t0 = 0.0
        self.window_s = 0.0
        self.window_ops = window_ops
        self.op_cycles = 0.0
        self.attempted = 0
        self.failed = 0
        self.digest = ""
        #: named and diagnostic figures without a metric, printed in the run's table
        self.notes: Dict[str, object] = {}
        #: figures read off the program's reports for the traced table
        self.extra: Dict[str, float] = {}
        self.peak_rss_mb = 0.0

    def op(self, end: float, latency: float) -> None:
        self.op_end.append(end - self.t0)
        self.op_lat.append(latency)

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        errors = self.notes.setdefault("errors", [])
        if len(errors) < 5:
            errors.append(why)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; a failed sample (``inf``) sorts last."""
    if not len(values):
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _timed_setups(build: Callable, teardown: Callable, out: Outcome, tracer):
    """Build ``SETUPS[out.workload]`` times, tearing down all but the last;
    returns the last."""
    if tracer is not None:
        tracer.begin("setup")
    built = None
    count = SETUPS[out.workload]
    for k in range(count):
        started = clock()
        built = build()
        out.setup_s.append(clock() - started)
        if k < count - 1:
            teardown(built)
    return built


def _fleet_counters(client) -> Dict[str, float]:
    totals = client.totals()
    return {
        "batches": totals.batches_ok,
        "rejected": totals.rejected,
        "fallbacks": totals.engine_fallbacks,
    }


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def _settled(future):
    """A resolved future reduced to what the check needs: the hash of its
    output word, or the error text."""
    exc = future.exception()
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    return hash(tuple(future.result()))


def _warm_keys(client, prefix: str) -> List[str]:
    """One shard key per shard, for the set-up's warm-up requests."""
    fleet = client.fleet
    keys: Dict[int, str] = {}
    k = 0
    while len(keys) < fleet.n_workers:
        key = f"{prefix}{k}"
        keys.setdefault(fleet.shard_for(key), key)
        k += 1
    return [keys[s] for s in sorted(keys)]


def _reference_table(ref: RefStepper, states, pool) -> tuple:
    """The reference outputs of every (state, word) pair, computed before
    set-up into two flat arrays indexed ``state * len(pool) + word``.

    Checking a reply in the loop is then one lookup, the table takes
    under 1 MB, and the benchmark keeps nothing per request but its time
    and latency.  Returns ``(index of the reset state, next-state
    indexes, hashes of the output words)``.
    """
    state_index = {state: k for k, state in enumerate(states)}
    next_of = array("H")
    outputs_of = array("q")
    for state in states:
        for word in pool:
            nxt, outputs = ref.run(state, word)
            next_of.append(state_index[nxt])
            outputs_of.append(hash(tuple(outputs)))
    return state_index[ref.reset], next_of, outputs_of


# -- sessions-thread ------------------------------------------------------

SESSIONS_LANES = 512
SESSIONS_IN_FLIGHT = 256
SESSIONS_WORD = 64


def sessions_thread(seed: int, seconds: float, tracer=None, exact: bool = True) -> Outcome:
    """Closed loop from the main thread: 256 session requests in flight
    over 512 lanes of 64-symbol words, 2 thread shards, 16x4 machine."""
    out = Outcome("sessions-thread", 10 * SESSIONS_IN_FLIGHT)
    rng = random.Random(f"sessions-thread/{seed}")
    spec = random_spec(rng, n_states=16, n_inputs=4, n_outputs=4, name="sessions")
    pool = words(rng, spec.inputs, SESSIONS_WORD, 4096)
    out.digest = digest(spec, pool)
    ref = RefStepper(spec)

    from repro import api

    machine = spec.fsm()
    keys = [f"lane{k}" for k in range(SESSIONS_LANES)]

    def build():
        client = api.serve(
            machine, n_workers=2, options=api.Options(fleet_mode="thread"),
            queue_depth=SESSIONS_LANES,
        )
        warm = [
            client.submit(key, pool[0], session="warm")
            for key in _warm_keys(client, "warm")
        ]
        for future in warm:
            future.result(timeout=REPLY_TIMEOUT_S)
        return client

    n_pool = len(pool)
    reset, next_of, outputs_of = _reference_table(ref, spec.states, pool)
    client = _timed_setups(build, lambda c: c.close(), out, tracer)
    lane_state = [reset] * SESSIONS_LANES
    try:
        before = _fleet_counters(client)
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        put = done.put
        free = deque(range(SESSIONS_LANES))
        #: request id -> (future, lane, word index, send time)
        pending: Dict[int, tuple] = {}
        submit = client.submit
        sent = 0

        def send() -> None:
            nonlocal sent
            lane = free.popleft()
            rid = sent
            sent += 1
            word_index = rid % n_pool
            out.attempted += 1
            t0 = clock()
            try:
                future = submit(keys[lane], pool[word_index], session=lane)
            except Exception as exc:  # FleetOverloaded and friends
                out.fail(f"lane {lane}: submit: {type(exc).__name__}: {exc}")
                out.op(clock(), math.inf)
                free.append(lane)
                return
            pending[rid] = (future, lane, word_index, t0)
            future.add_done_callback(lambda _f, rid=rid: put((rid, clock())))

        if tracer is not None:
            tracer.begin_window()
        started = out.t0 = clock()
        deadline = started + seconds
        for _ in range(SESSIONS_IN_FLIGHT):
            send()
        while pending:
            try:
                rid, t_done = done.get(timeout=REPLY_TIMEOUT_S)
            except queue.Empty:
                out.fail(f"{len(pending)} requests got no reply", count=len(pending))
                for _ in pending:
                    out.op(clock(), math.inf)
                break
            future, lane, word_index, t0 = pending.pop(rid)
            settled = _settled(future)
            if isinstance(settled, str):
                out.fail(f"lane {lane}: {settled}")
                out.op(t_done, math.inf)
            else:
                entry = lane_state[lane] * n_pool + word_index
                lane_state[lane] = next_of[entry]
                if settled == outputs_of[entry]:
                    out.ops_ok += 1
                    out.op(t_done, t_done - t0)
                else:
                    out.fail(f"lane {lane}: outputs differ from the reference")
                    out.op(t_done, math.inf)
            free.append(lane)
            if t_done < deadline:
                send()
        out.window_s = clock() - started
        if tracer is not None:
            tracer.end_window()
        out.extra.update(_delta(_fleet_counters(client), before))
    finally:
        client.close()
        if tracer is not None:
            tracer.stop()
    out.peak_rss_mb = _rss_mb()
    out.op_cycles = float(SESSIONS_WORD)
    out.notes["sym_per_s"] = out.ops_ok * SESSIONS_WORD / out.window_s
    return out


# -- ingest-proc ----------------------------------------------------------

INGEST_WORD = 64
INGEST_KEY = "conn"
_LENGTH = struct.Struct(">I")


async def _roundtrip(reader, writer, frame: dict) -> dict:
    """One request/reply on the frame protocol, with the benchmark's own
    framing (4-byte big-endian length, then compact JSON)."""
    body = json.dumps(frame, separators=(",", ":")).encode()
    writer.write(_LENGTH.pack(len(body)) + body)
    await writer.drain()
    (size,) = _LENGTH.unpack(await reader.readexactly(_LENGTH.size))
    return json.loads(await reader.readexactly(size))


def _submit(word) -> dict:
    return {"op": "submit", "key": INGEST_KEY, "symbols": list(word)}


def ingest_proc(seed: int, seconds: float, tracer=None, exact: bool = True) -> Outcome:
    """One loopback connection, a FIFO closed loop of 64-symbol
    datapath-lane submit frames, on the IngestServer's own event loop,
    into a process fleet with one worker process."""
    out = Outcome("ingest-proc", 512)
    rng = random.Random(f"ingest-proc/{seed}")
    spec = random_spec(rng, n_states=16, n_inputs=4, n_outputs=4, name="ingest")
    pool = words(rng, spec.inputs, INGEST_WORD, 4096)
    out.digest = digest(spec, pool)
    ref = RefStepper(spec)

    from repro import api
    from repro.aio import IngestServer

    machine = spec.fsm()

    async def build():
        client = api.serve(machine, n_workers=1, options=api.Options(fleet_mode="process"))
        server = await IngestServer(client.fleet).start()
        reader, writer = await asyncio.open_connection(*server.address)
        warm = await _roundtrip(reader, writer, _submit(pool[0]))
        return client, server, reader, writer, warm

    async def teardown(built) -> None:
        client, server, _reader, writer, _warm = built
        writer.close()
        await writer.wait_closed()
        await server.close()
        client.close()

    n_pool = len(pool)
    reset, next_of, outputs_of = _reference_table(ref, spec.states, pool)

    def check(state: int, word_index: int, reply: dict, done: float, sent: float) -> int:
        """Count one reply against the reference; returns the lane's next
        state.  A refused request leaves the lane where it was."""
        if not reply.get("ok"):
            out.fail(f"{reply.get('error')}: {reply.get('message')}")
            out.op(done, math.inf)
            return state
        entry = state * n_pool + word_index
        if hash(tuple(reply["outputs"])) == outputs_of[entry]:
            out.ops_ok += 1
            out.op(done, done - sent)
        else:
            out.fail("outputs differ from the reference")
            out.op(done, math.inf)
        return next_of[entry]

    async def run() -> None:
        if tracer is not None:
            tracer.begin("setup")
        built = None
        count = SETUPS[out.workload]
        for k in range(count):
            started = clock()
            built = await build()
            out.setup_s.append(clock() - started)
            if k < count - 1:
                await teardown(built)
        client, _server, reader, writer, warm = built
        try:
            before = _fleet_counters(client)
            if tracer is not None:
                tracer.begin_window()
            started = out.t0 = clock()
            deadline = started + seconds
            # The last set-up's warm-up request moved the lane from reset;
            # it is checked, not timed.
            out.attempted += 1
            state = next_of[reset * n_pool]
            if not warm.get("ok") or hash(tuple(warm["outputs"])) != outputs_of[reset * n_pool]:
                out.fail("the warm-up reply differs from the reference")
            # One timer for the whole window, not one per request: a reply
            # that has not come by then is cut off and counts as failed.
            watchdog = asyncio.get_running_loop().call_later(
                seconds + REPLY_TIMEOUT_S, writer.transport.abort
            )
            sent = 0
            while clock() < deadline:
                word_index = sent % n_pool
                sent += 1
                out.attempted += 1
                t0 = clock()
                try:
                    reply = await _roundtrip(reader, writer, _submit(pool[word_index]))
                except (ConnectionError, asyncio.IncompleteReadError) as exc:
                    out.fail(f"connection: {type(exc).__name__}: {exc}")
                    out.op(clock(), math.inf)
                    break
                state = check(state, word_index, reply, clock(), t0)
            watchdog.cancel()
            out.window_s = clock() - started
            if tracer is not None:
                tracer.end_window()
            out.extra.update(_delta(_fleet_counters(client), before))
        finally:
            await teardown(built)
            if tracer is not None:
                tracer.stop()

    asyncio.run(run())
    # The worker process has been reaped by the fleet's close.
    out.peak_rss_mb = _rss_mb() + _rss_mb(children=True)
    out.op_cycles = float(INGEST_WORD)
    out.notes["sym_per_s"] = out.ops_ok * INGEST_WORD / out.window_s
    return out


# -- migrate-live ---------------------------------------------------------

MIGRATE_CHAIN = 1800
MIGRATE_DELTAS = 8
MIGRATE_RATE = 1000.0
MIGRATE_WORD = 16
#: Shard queue bound: two seconds of each shard's traffic, so a stall of
#: the host shows as request latency rather than as refused requests.
MIGRATE_QUEUE = 1024
#: Rollouts whose mean cycle count is ``op_cycles``: a fixed prefix of
#: the chain, so the figure is exact for a seed however fast the host is,
#: and long enough that it moves little from one seed to the next.
MIGRATE_CYCLE_ROLLOUTS = 800


def _chain_targets(n: int):
    """Indexes along the chain and back again (each step is one hop)."""
    while True:
        yield from range(1, n)
        yield from range(n - 2, -1, -1)


def migrate_live(seed: int, seconds: float, tracer=None, exact: bool = True) -> Outcome:
    """The main thread rolls the fleet along a seeded chain of targets
    (8 deltas per hop, 12 states x 2 inputs, -O2), while one generator
    thread sends open-loop datapath traffic at 1000 req/s of 16-symbol
    words across 2 thread shards."""
    from layers import GENERATOR_THREAD

    out = Outcome("migrate-live", 32)
    rng = random.Random(f"migrate-live/{seed}")
    chain = [random_spec(rng, n_states=12, n_inputs=2, n_outputs=4, name="m0")]
    for k in range(1, MIGRATE_CHAIN):
        chain.append(mutate_spec(rng, chain[-1], MIGRATE_DELTAS, name=f"m{k}"))
    pool = words(rng, chain[0].inputs, MIGRATE_WORD, 2048)
    traffic_keys = [f"user{k}" for k in range(64)]
    out.digest = digest(chain, pool)
    outputs_ok = frozenset(chain[0].outputs)

    from repro import api

    machines = [spec.fsm() for spec in chain]
    del chain  # the program holds the machines; the specs were only for them

    def build():
        client = api.serve(
            machines[0], family=machines[1:], n_workers=2,
            options=api.Options(opt_level="O2"), queue_depth=MIGRATE_QUEUE,
        )
        warm = [client.submit(key, pool[0]) for key in _warm_keys(client, "warm")]
        for future in warm:
            future.result(timeout=REPLY_TIMEOUT_S)
        return client

    client = _timed_setups(build, lambda c: c.close(), out, tracer)
    targets = _chain_targets(MIGRATE_CHAIN)
    # One slot per traffic request, in schedule order.  Each reply is
    # checked in its done callback and its future dropped, so the run keeps
    # three floats per request, plus the text of the few that failed.
    due_at = array("d")
    sent_at = array("d")
    done_at = array("d")  # stays inf unless a correct reply arrived
    errors: Dict[int, str] = {}
    stop = threading.Event()
    rollouts = 0
    shard_walls: List[float] = []
    cycles: List[int] = []

    def settle(future, j: int) -> None:
        t = clock()
        exc = future.exception()
        if exc is not None:
            errors[j] = f"{type(exc).__name__}: {exc}"
            return
        result = future.result()
        if len(result) == MIGRATE_WORD and outputs_ok.issuperset(result):
            done_at[j] = t
        else:
            errors[j] = "reply is not a word over the output alphabet"

    def generate(start: float) -> None:
        submit = client.submit
        n_pool = len(pool)
        j = 0
        while not stop.is_set():
            due = start + j / MIGRATE_RATE
            now = clock()
            if due > now:
                time.sleep(due - now)
            due_at.append(due)
            sent_at.append(clock())
            done_at.append(math.inf)
            try:
                future = submit(traffic_keys[j % 64], pool[j % n_pool])
            except Exception as exc:
                errors[j] = f"submit: {type(exc).__name__}: {exc}"
            else:
                future.add_done_callback(lambda f, j=j: settle(f, j))
            j += 1

    try:
        before = _fleet_counters(client)
        cache_before = client.fleet.plan_cache.cache_info()["chunks"]
        started = out.t0 = clock()
        generator = threading.Thread(
            target=generate, args=(started,), name=GENERATOR_THREAD, daemon=True
        )
        generator.start()
        if tracer is not None:
            tracer.begin_window()
        deadline = started + seconds
        need = MIGRATE_CYCLE_ROLLOUTS if exact else 0
        while clock() < deadline or rollouts < need:
            target = machines[next(targets)]
            out.attempted += 1
            rollouts += 1
            t0 = clock()
            try:
                report = client.migrate_live(target)
            except Exception as exc:
                out.fail(f"rollout to {target.name}: {type(exc).__name__}: {exc}")
                out.op(clock(), math.inf)
                continue
            t1 = clock()
            if report.verified and report.zero_downtime:
                out.ops_ok += 1
                out.op(t1, t1 - t0)
            else:
                out.fail(
                    f"rollout to {target.name}: verified={report.verified} "
                    f"downtime={report.service_downtime_cycles}"
                )
                out.op(t1, math.inf)
            if len(cycles) < MIGRATE_CYCLE_ROLLOUTS:
                cycles.append(report.migration_cycles)
            shard_walls.extend(s.wall_seconds for s in report.shards)
        stop.set()
        generator.join(timeout=60)
        client.drain()
        out.window_s = clock() - started
        if tracer is not None:
            tracer.end_window()
        out.extra.update(_delta(_fleet_counters(client), before))
        cache_after = client.fleet.plan_cache.cache_info()["chunks"]
        out.extra["chunk_hits"] = cache_after["hits"] - cache_before["hits"]
        out.extra["chunk_misses"] = cache_after["misses"] - cache_before["misses"]
    finally:
        stop.set()
        client.close()
        if tracer is not None:
            tracer.stop()
    out.peak_rss_mb = _rss_mb()

    symbols_ok = 0
    traffic_lat = array("f")
    for j, due in enumerate(due_at):
        out.attempted += 1
        if done_at[j] == math.inf:
            out.fail(f"traffic: {errors.get(j, 'no reply')}")
            traffic_lat.append(math.inf)
        else:
            traffic_lat.append(done_at[j] - due)
            symbols_ok += MIGRATE_WORD
    lateness = [s - d for s, d in zip(sent_at, due_at)]
    out.op_cycles = sum(cycles) / max(1, len(cycles))
    out.notes["traffic_sym_per_s"] = symbols_ok / out.window_s
    # Traffic latency runs from the due time, so it counts the generator's
    # own lateness; printed, not a metric (see README: it moves with the
    # host's state far more than any bound allows).
    for q in (50, 90, 99):
        out.notes[f"traffic_p{q}_ms"] = percentile(traffic_lat, q) * 1e3
    out.notes["lateness_p50_ms"] = percentile(lateness, 50) * 1e3
    out.notes["lateness_p90_ms"] = percentile(lateness, 90) * 1e3
    out.notes["rollouts"] = rollouts
    out.extra["rollouts"] = rollouts
    out.extra["shard_p50_ms"] = percentile(shard_walls, 50) * 1e3 if shard_walls else 0.0
    out.extra["lateness_p90_ms"] = out.notes["lateness_p90_ms"]
    return out


# -- synth-ea -------------------------------------------------------------

#: (states, |Td|) of successive pairs: fixed, so that a seed changes only
#: the machines' contents, and every seed's pairs cost the EA alike.
SYNTH_SHAPES = [(12, 6), (13, 8), (14, 10), (15, 12), (16, 7), (14, 9)]
#: Pairs generated per run.  Each call takes the next one, so a run's
#: latency sample spans many machines rather than repeating a few.
SYNTH_POOL = 240
#: Pairs whose mean EA program length is ``op_cycles``: a fixed prefix of
#: the pool, so the figure is exact for a seed however fast the host is,
#: and long enough that it moves little from one seed to the next.
SYNTH_CYCLE_PAIRS = 96


def synth_ea(seed: int, seconds: float, tracer=None, exact: bool = True) -> Outcome:
    """A single-thread loop of ``api.migrate(M, M', method="ea", -O2)``
    over a seeded Table-2-style pair set (12-16 states, |Td| 6-12)."""
    # One call on each pair shape per window.
    out = Outcome("synth-ea", len(SYNTH_SHAPES))
    rng = random.Random(f"synth-ea/{seed}")
    pairs = []
    for k in range(SYNTH_POOL):
        n_states, n_deltas = SYNTH_SHAPES[k % len(SYNTH_SHAPES)]
        src = random_spec(rng, n_states=n_states, n_inputs=2, n_outputs=2, name=f"src{k}")
        dst = mutate_spec(rng, src, n_deltas, name=f"dst{k}")
        pairs.append((src, dst, n_deltas))
    out.digest = digest([p[0] for p in pairs], [p[1] for p in pairs])
    fixed = random.Random("synth-ea/warm-up")
    warm_src = random_spec(fixed, n_states=6, n_inputs=2, n_outputs=2, name="warm")
    warm_dst = mutate_spec(fixed, warm_src, 3, name="warm'")

    from repro import api

    fsms = [(s.fsm(), d.fsm(), n) for s, d, n in pairs]
    del pairs
    warm_pair = (warm_src.fsm(), warm_dst.fsm())

    def build():
        outcome = api.migrate(
            *warm_pair, options=api.Options(method="ea", opt_level="O2", seed=0)
        )
        if not outcome.verified:
            raise RuntimeError("warm-up migration did not verify")

    _timed_setups(build, lambda _none: None, out, tracer)
    jsr = [
        len(api.synthesise(m, mp, options=api.Options(method="jsr", opt_level="O2")))
        for m, mp, _n in fsms[:SYNTH_CYCLE_PAIRS]
    ]
    lengths: List[int] = []
    if tracer is not None:
        tracer.begin_window()
    started = out.t0 = clock()
    deadline = started + seconds
    k = 0
    need = SYNTH_CYCLE_PAIRS if exact else 0
    # Whole cycles of SYNTH_SHAPES only, so every run's latency sample
    # holds each shape equally often.
    while clock() < deadline or k % len(SYNTH_SHAPES) or k < need:
        source, target, n_deltas = fsms[k % SYNTH_POOL]
        out.attempted += 1
        t0 = clock()
        try:
            outcome = api.migrate(
                source, target,
                options=api.Options(method="ea", opt_level="O2", seed=k),
            )
        except Exception as exc:
            out.fail(f"pair {k}: {type(exc).__name__}: {exc}")
            out.op(clock(), math.inf)
            k += 1
            continue
        t1 = clock()
        length = len(outcome.program)
        if k < SYNTH_CYCLE_PAIRS:
            lengths.append(length)
        if not outcome.verified:
            out.fail(f"pair {k}: hardware did not verify")
            out.op(t1, math.inf)
        elif not n_deltas <= length <= 3 * (n_deltas + 1):
            out.fail(
                f"pair {k}: {length} cycles outside "
                f"[{n_deltas}, {3 * (n_deltas + 1)}]"
            )
            out.op(t1, math.inf)
        else:
            out.ops_ok += 1
            out.op(t1, t1 - t0)
        k += 1
    out.window_s = clock() - started
    if tracer is not None:
        tracer.end_window()
        tracer.stop()
    out.op_cycles = sum(lengths) / max(1, len(lengths))
    jsr = jsr[:len(lengths)]
    out.notes["jsr_cycles"] = sum(jsr) / max(1, len(jsr))
    out.notes["ea_vs_jsr"] = out.op_cycles / out.notes["jsr_cycles"]
    out.peak_rss_mb = _rss_mb()
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "sessions-thread": sessions_thread,
    "ingest-proc": ingest_proc,
    "migrate-live": migrate_live,
    "synth-ea": synth_ea,
}
