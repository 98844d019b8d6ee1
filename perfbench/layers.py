"""The traced run: wrappers around each layer's public functions.

Tracing lives entirely in the benchmark.  :func:`Tracer.install` patches
each function in :data:`WRAPS` where its caller looks it up (a module
attribute or a class attribute), records one span per call in memory —
name, thread, start, end, parent span, self time and an optional value
read off the call — and :func:`Tracer.uninstall` puts the originals back.
Spans are written out when the run ends.

A span's self time is its duration minus the durations of the wrapped
calls made inside it on the same thread, so for every thread the self
times of all spans add up to the time covered by outermost spans; the
rest of the thread's wall time is reported as unattributed.  Coroutine
functions (``aio.submit_async``) are timed from first await to result
and kept out of the per-thread accounting, because other tasks run on
the loop thread while they wait.

Forked worker processes inherit the wrappers but stop recording at fork;
their spans are not collected.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# -- what gets wrapped --------------------------------------------------
# (span name, module, attribute path, value read off the call or None)


def _length(args, kwargs, result):
    """Lanes of a stream batch, or symbols of a word: the first argument's length."""
    return len(args[1])


def _decision(args, kwargs, result):
    return result.name


def _accepted(args, kwargs, result):
    return 1 if result else 0


def _returned(args, kwargs, result):
    return result


def _stream_symbols(args, kwargs, result):
    return sum(len(word) for word in args[1])


def _steps_eliminated(args, kwargs, result):
    return len(args[0]) - len(result[0])


WRAPS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("aio.encode_frame", "repro.aio.frames", "encode_frame", None),
    ("aio.decode_frame", "repro.aio.frames", "decode_frame", None),
    ("aio.submit_async", "repro.aio.server", "submit_async", None),
    ("fleet.submit", "repro.fleet.pool", "FSMFleet.submit", None),
    ("migration.stall", "repro.core.incremental", "IncrementalMigrator.stall", _returned),
    ("plancache.chunks", "repro.fleet.plancache", "PlanCache.chunks", None),
    ("exec.select", "repro.exec.dispatcher", "Dispatcher.select", _decision),
    ("exec.miss", "repro.exec.dispatcher", "Dispatcher.miss", None),
    ("exec.run_streams", "repro.exec.batching", "run_streams", _length),
    ("exec.run_batch", "repro.exec.backends", "TableBackend.run_batch", _length),
    ("exec.run_batch", "repro.exec.backends", "CycleBackend.run_batch", _length),
    ("exec.run_batch", "repro.procfleet.backend", "ShmTableBackend.run_batch", _length),
    ("engine.run_streams", "repro.engine.compiled", "CompiledFSM.run_streams", _stream_symbols),
    ("engine.word_runs", "repro.engine.streams", "StreamRun.word_runs", None),
    ("engine.run_word", "repro.engine.compiled", "CompiledFSM.run_word", None),
    ("engine.compile", "repro.engine.compiled", "CompiledFSM.__init__", None),
    ("procfleet.request", "repro.procfleet.session", "WorkerSession.request", None),
    ("procfleet.ring_send", "repro.procfleet.ring", "FrameRing.send_request", _accepted),
    ("procfleet.publish", "repro.procfleet.session", "WorkerSession.publish", None),
    ("procfleet.start", "repro.procfleet.session", "WorkerSession.start", None),
    ("hw.commit_engine_run", "repro.hw.machine", "HardwareFSM.commit_engine_run", None),
    ("hw.realises", "repro.hw.machine", "HardwareFSM.realises", None),
    ("hw.run_program", "repro.hw.machine", "HardwareFSM.run_program", None),
    ("core.ea_program", "repro.core.ea", "ea_program", None),
    # The EA seeds its population from the greedy nearest-neighbour order;
    # greedy_program itself is never called on the api.migrate(method="ea") path.
    ("core.greedy_order", "repro.core.ea", "nearest_neighbour_order", None),
    ("core.optimise_program", "repro.core.passes", "optimise_program", _steps_eliminated),
    ("core.incremental_chunks", "repro.fleet.plancache", "incremental_chunks", None),
    ("core.optimise_chunks", "repro.fleet.plancache", "optimise_chunks", None),
]

#: Span-name prefix -> layer, in report order.
LAYERS = {
    "aio": "aio",
    "fleet": "fleet",
    "migration": "migration",
    "plancache": "migration",
    "exec": "exec",
    "engine": "engine",
    "procfleet": "procfleet",
    "hw": "hw",
    "core": "core",
}

#: Thread roles reported, in order.
ROLES = ("main", "generator", "shard")

#: Name of the benchmark's open-loop traffic thread (role "generator").
GENERATOR_THREAD = "perfbench-generator"


class Tracer:
    """In-memory span recorder for one traced run (see module docstring)."""

    def __init__(self):
        #: (id, parent id or -1, name, thread id, start, end, self s, phase, value)
        self.spans: List[tuple] = []
        #: (name, thread id, start, end, phase) of coroutine calls
        self.async_spans: List[tuple] = []
        self.phase: Optional[str] = None
        self.recording = False
        self.window: Tuple[float, float] = (0.0, 0.0)
        self.roles: Dict[int, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.recording = False
        self.spans = []
        self.async_spans = []

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        for name, module, path, value in WRAPS:
            owner = importlib.import_module(module)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if inspect.iscoroutinefunction(original):
                wrapper = self._wrap_async(name, original)
            else:
                wrapper = self._wrap_sync(name, original, value)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap_sync(self, name: str, fn, value):
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][1] if stack else -1
            frame = [0.0, next(ids)]
            stack.append(frame)
            result = noted = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                if value is not None and result is not None:
                    noted = value(args, kwargs, result)
                tracer.spans.append((
                    frame[1], parent, name, ident(), t0, t1,
                    t1 - t0 - frame[0], tracer.phase, noted,
                ))

        return wrapper

    def _wrap_async(self, name: str, fn):
        clock = time.perf_counter
        ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.recording:
                return await fn(*args, **kwargs)
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.async_spans.append(
                    (name, ident(), t0, clock(), tracer.phase)
                )

        return wrapper

    # -- phases ---------------------------------------------------------
    def begin(self, phase: str) -> None:
        self.phase = phase
        self.recording = True

    def begin_window(self) -> None:
        """Start the measured window: snapshot thread roles, note the time."""
        from repro.fleet.worker import ShardWorker

        roles = {}
        for thread in threading.enumerate():
            if thread is threading.main_thread():
                roles[thread.ident] = "main"
            elif isinstance(thread, ShardWorker):
                roles[thread.ident] = "shard"
            elif thread.name == GENERATOR_THREAD:
                roles[thread.ident] = "generator"
            else:
                roles[thread.ident] = "other"
        self.roles = roles
        self.begin("measure")
        self.window = (time.perf_counter(), 0.0)

    def end_window(self) -> None:
        self.window = (self.window[0], time.perf_counter())
        self.phase = "teardown"

    def stop(self) -> None:
        self.recording = False
        self.phase = None

    # -- output ---------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span as one JSON line (written once, at run end)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "parent", "name", "thread", "start", "end", "self", "phase", "value")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), default=str) + "\n")
            for name, tid, t0, t1, phase in self.async_spans:
                fh.write(json.dumps({
                    "name": name, "thread": tid, "start": t0, "end": t1,
                    "phase": phase, "async": True,
                }) + "\n")


# -- aggregation ----------------------------------------------------------

def _p50(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class Aggregate:
    """Per-span-name and per-role sums over one phase of a tracer."""

    def __init__(self, tracer: Tracer, phase: str = "measure"):
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.values: Dict[str, list] = {}
        self.role_self: Dict[str, Dict[str, float]] = {}
        w0, w1 = tracer.window
        self.window_s = max(w1 - w0, 1e-9)
        roles = tracer.roles
        for (_id, _parent, name, tid, t0, t1, own, span_phase, value) in tracer.spans:
            if span_phase != phase:
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.durations.setdefault(name, []).append(t1 - t0)
            if value is not None:
                self.values.setdefault(name, []).append(value)
            role = roles.get(tid, "other")
            layer = LAYERS[name.split(".", 1)[0]]
            per_role = self.role_self.setdefault(role, {})
            per_role[layer] = per_role.get(layer, 0.0) + own
        for name, _tid, t0, t1, span_phase in tracer.async_spans:
            if span_phase == phase:
                self.calls[name] = self.calls.get(name, 0) + 1
                self.durations.setdefault(name, []).append(t1 - t0)
        self.threads: Dict[str, int] = {}
        for role in roles.values():
            self.threads[role] = self.threads.get(role, 0) + 1

    def self_ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1e3

    def p50_us(self, name: str) -> float:
        return _p50(self.durations.get(name, [])) * 1e6

    def role_wall_s(self, role: str) -> float:
        return self.window_s * self.threads.get(role, 0)

    def share(self, role: str, layer: str) -> float:
        wall = self.role_wall_s(role)
        return self.role_self.get(role, {}).get(layer, 0.0) / wall if wall else 0.0

    def unattributed_share(self, role: str) -> float:
        wall = self.role_wall_s(role)
        if not wall:
            return 0.0
        return 1.0 - sum(self.role_self.get(role, {}).values()) / wall


def per_layer_metrics(
    agg: Aggregate, setup: Aggregate, extra: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced run.

    ``agg`` covers the measured window and ``setup`` the set-ups before
    it (worker spawns and table publishes happen there).  ``extra``
    carries the figures the workload reads off the program's own reports
    (rollout shard times, plan-cache counters, fleet totals).  Layers a
    workload bypasses report 0.
    """
    m: Dict[str, float] = {}
    # aio (the event loop runs on the main thread)
    m["aio.encode_frame.self_ms"] = agg.self_ms("aio.encode_frame")
    m["aio.decode_frame.self_ms"] = agg.self_ms("aio.decode_frame")
    m["aio.submit_async.p50_us"] = agg.p50_us("aio.submit_async")
    m["aio.self_share"] = agg.share("main", "aio")
    # fleet
    selects = agg.calls.get("exec.select", 0)
    m["fleet.submit.calls"] = agg.calls.get("fleet.submit", 0)
    m["fleet.submit.p50_us"] = agg.p50_us("fleet.submit")
    m["fleet.batches_per_run"] = extra.get("batches", 0) / selects if selects else 0.0
    m["fleet.rejected"] = extra.get("rejected", 0)
    m["fleet.fallbacks"] = extra.get("fallbacks", 0)
    m["fleet.unattributed_share"] = agg.unattributed_share("shard")
    # migration + plancache
    stalls = agg.values.get("migration.stall", [])
    rollouts = extra.get("rollouts", 0)
    m["migration.shard_p50_ms"] = extra.get("shard_p50_ms", 0.0)
    m["migration.stall.calls_per_rollout"] = len(stalls) / rollouts if rollouts else 0.0
    m["migration.stall.cycles_per_call"] = sum(stalls) / len(stalls) if stalls else 0.0
    m["migration.stall.self_ms"] = agg.self_ms("migration.stall")
    m["plancache.chunks.p50_ms"] = agg.p50_us("plancache.chunks") / 1e3
    m["plancache.chunks.hits"] = extra.get("chunk_hits", 0)
    m["plancache.chunks.misses"] = extra.get("chunk_misses", 0)
    # exec
    decisions = agg.values.get("exec.select", [])
    m["exec.select.p50_us"] = agg.p50_us("exec.select")
    for backend in ("table-py", "table-numpy", "table-shm", "cycle"):
        hits = sum(1 for d in decisions if d == backend)
        m[f"exec.backend_share.{backend}"] = hits / len(decisions) if decisions else 0.0
    m["exec.misses"] = agg.calls.get("exec.miss", 0)
    lanes = agg.values.get("exec.run_streams", [])
    m["exec.run_streams.lanes_per_call"] = sum(lanes) / len(lanes) if lanes else 0.0
    m["exec.run_streams.self_ms"] = agg.self_ms("exec.run_streams")
    symbols = agg.values.get("exec.run_batch", [])
    m["exec.run_batch.symbols_per_call"] = sum(symbols) / len(symbols) if symbols else 0.0
    m["exec.run_batch.self_ms"] = agg.self_ms("exec.run_batch")
    # engine
    kernel_symbols = sum(agg.values.get("engine.run_streams", []))
    kernel_s = sum(agg.durations.get("engine.run_streams", []))
    m["engine.run_streams.self_ms"] = agg.self_ms("engine.run_streams")
    m["engine.run_streams.p50_us"] = agg.p50_us("engine.run_streams")
    m["engine.word_runs.self_ms"] = agg.self_ms("engine.word_runs")
    m["engine.word_runs.p50_us"] = agg.p50_us("engine.word_runs")
    m["engine.kernel_sym_per_s"] = kernel_symbols / kernel_s if kernel_s else 0.0
    m["engine.run_word.self_ms"] = agg.self_ms("engine.run_word")
    m["engine.compiles"] = agg.calls.get("engine.compile", 0)
    # procfleet (parent side; the worker's own spans are not collected)
    requests = agg.calls.get("procfleet.request", 0)
    ring_sends = agg.values.get("procfleet.ring_send", [])
    m["procfleet.request.p50_us"] = agg.p50_us("procfleet.request")
    m["procfleet.request.self_ms"] = agg.self_ms("procfleet.request")
    m["procfleet.ring_share"] = sum(ring_sends) / requests if requests else 0.0
    m["procfleet.publishes"] = (
        setup.calls.get("procfleet.publish", 0) + agg.calls.get("procfleet.publish", 0)
    )
    m["procfleet.spawn_ms"] = setup.p50_us("procfleet.start") / 1e3
    # hw
    m["hw.commit_engine_run.self_ms"] = agg.self_ms("hw.commit_engine_run")
    m["hw.realises.self_ms"] = agg.self_ms("hw.realises")
    m["hw.run_program.self_ms"] = agg.self_ms("hw.run_program")
    # core
    m["core.ea_program.self_ms"] = agg.self_ms("core.ea_program")
    m["core.ea_program.p50_ms"] = agg.p50_us("core.ea_program") / 1e3
    m["core.greedy_order.self_ms"] = agg.self_ms("core.greedy_order")
    m["core.optimise_program.self_ms"] = agg.self_ms("core.optimise_program")
    m["core.passes.steps_eliminated"] = sum(agg.values.get("core.optimise_program", []))
    m["core.incremental_chunks.self_ms"] = agg.self_ms("core.incremental_chunks")
    m["core.optimise_chunks.self_ms"] = agg.self_ms("core.optimise_chunks")
    # thread roles (the shard role's is fleet.unattributed_share)
    for role in ("main", "generator"):
        m[f"role.{role}.unattributed_share"] = agg.unattributed_share(role)
    m["generator.lateness_p90_ms"] = extra.get("lateness_p90_ms", 0.0)
    m["obs.trace_overhead_pct"] = extra.get("trace_overhead_pct", 0.0)
    return m


def layer_table(agg: Aggregate) -> List[str]:
    """The human-readable per-layer table: calls, self ms, p50 per call,
    share of each thread role's wall time, and the unattributed share."""
    lines = [
        f"traced window {agg.window_s:.3f} s; threads per role "
        + ", ".join(f"{r}={n}" for r, n in sorted(agg.threads.items())),
        f"{'span':<26}{'calls':>9}{'self ms':>11}{'p50 us':>11}",
    ]
    for name in sorted(agg.calls):
        lines.append(
            f"{name:<26}{agg.calls[name]:>9}{agg.self_ms(name):>11.2f}"
            f"{agg.p50_us(name):>11.1f}"
        )
    roles = [r for r in (*ROLES, "other") if agg.threads.get(r)]
    layers = list(dict.fromkeys(LAYERS.values()))
    lines.append(f"{'share of role wall':<26}" + "".join(f"{r:>11}" for r in roles))
    for layer in layers:
        lines.append(
            f"{layer:<26}" + "".join(f"{agg.share(r, layer):>11.4f}" for r in roles)
        )
    lines.append(
        f"{'unattributed':<26}"
        + "".join(f"{agg.unattributed_share(r):>11.4f}" for r in roles)
    )
    return lines
