"""Batch-engine throughput benchmark and regression gate.

Measures symbols/second through three serving paths on the same
workload:

* **per-cycle** — clocking the cycle-accurate Fig. 5 datapath one
  symbol at a time (the pre-engine serving hot path);
* **python** — the compiled dense-table kernel, pure-Python loop
  (sequential stream, ``CompiledFSM.run_word``);
* **numpy** — the numpy stream kernel over the same words, one lane
  per word, with every output materialised
  (``CompiledFSM.run_streams(words, kernel="numpy").word_runs()``),
  when numpy is importable.

plus a reconfiguration-replay row (cycles/s replaying a fixed seeded
chain of chunk plans, the ``migrate-live`` shape, through
``IncrementalMigrator.stall``: the netlist's reconfiguration path,
recorded, not gated), one dispatcher-driven serving row per
execution backend (``repro.exec``: select → run_batch →
commit, the fleet's hot path without the threads; unavailable backends
record why they were skipped), and end-to-end fleet serving
throughput with 1 and 4 workers, engine on vs off.  Writes
``BENCH_engine_throughput.json`` at the repository root and exits
non-zero (the CI ``engine`` job's gate) if:

* the pure-Python batch kernel is *slower* than per-cycle serving
  (speedup < 1x — the engine must never be a pessimisation),
* numpy is available but its batch kernel fails a 5x speedup over
  per-cycle serving, or
* numpy is available and a multi-stream row misses its gate against
  the per-stream ``run_word`` loop (thread-CPU medians of interleaved
  repeats; the wall-clock medians are recorded beside them):
  the kernel 5x at 64 and 512 lanes, full ``word_runs()``
  materialisation 2x at 512 lanes, and raw words (encode + kernel +
  ``word_runs()``) 1x at the fleet's coalesced shape of 32 lanes x 64
  symbols.

Run with ``make bench-engine``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import sys
import time

from repro.core.incremental import IncrementalMigrator
from repro.engine import CompiledFSM, numpy_available
from repro.exec import Dispatcher, names, unavailable_reason
from repro.fleet import FSMFleet
from repro.fleet.plancache import PlanCache
from repro.hw.machine import HardwareFSM
from repro.workloads.library import sequence_detector
from repro.workloads.mutate import mutate_target
from repro.workloads.random_fsm import random_fsm
from repro.workloads.suite import traffic_words

N_WORDS = 256
WORD_LEN = 64
REPEATS = 3
MIN_PY_SPEEDUP = 1.0
MIN_NUMPY_SPEEDUP = 5.0

# Multi-stream plane: lane counts swept, repeats per row (medians of
# interleaved runs), and the CI gates as (row, lane counts, minimum
# speedup over the per-stream pure-Python loop): the kernel at every
# width from 64 streams up, full materialisation at 512, and the
# fleet's path from raw words at its coalesced shape (32 lanes x 64
# symbols).
STREAM_COUNTS = (1, 8, 32, 64, 512)
STREAM_WORD_LEN = 64
STREAM_REPEATS = 41
STREAM_CALLS = 3
STREAM_GATES = (
    ("stream_numpy", (64, 512), 5.0),
    ("stream_numpy_materialised", (512,), 2.0),
    ("stream_numpy_raw_words", (32,), 1.0),
)
EA_POPULATION = 16
EA_TRACES = 64

# Reconfiguration replay: a seeded chain of REPLAY_HOPS migrations of
# 12 states x 2 inputs x 4 outputs, REPLAY_DELTAS deltas per hop (the
# migrate-live workload's shape), planned once at -O2 and replayed on
# a fresh datapath per repeat with the fleet's stall budget and trace
# bound.
REPLAY_HOPS = 24
REPLAY_DELTAS = 8
REPLAY_STALL_BUDGET = 12
REPLAY_TRACE_ENTRIES = 256
REPLAY_REPEATS = 15


def _host() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _best_seconds(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def kernel_rows(machine, words):
    n_symbols = sum(len(w) for w in words)
    rows = {}

    def per_cycle():
        hw = HardwareFSM(machine, trace_max_entries=16)
        for word in words:
            hw.run(word)

    seconds = _best_seconds(per_cycle)
    rows["per_cycle"] = {
        "seconds": seconds, "symbols_per_s": n_symbols / seconds,
    }

    compiled = CompiledFSM.from_fsm(machine)

    def python_kernel():
        state = machine.reset_state
        for word in words:
            state = compiled.run_word(word, start=state).final_state

    seconds = _best_seconds(python_kernel)
    rows["python"] = {
        "seconds": seconds, "symbols_per_s": n_symbols / seconds,
    }

    if numpy_available():

        def numpy_kernel():
            compiled.run_streams(words, kernel="numpy").word_runs()

        seconds = _best_seconds(numpy_kernel)
        rows["numpy"] = {
            "seconds": seconds, "symbols_per_s": n_symbols / seconds,
        }
    return n_symbols, rows


def replay_row() -> dict:
    """Cycles/s of ``IncrementalMigrator.stall`` over the replay chain.

    Each repeat replays every hop on a fresh datapath.  Per hop, the
    migrator's construction (chunk validation, RST-MUX retarget) and
    its stall calls run back to back on separate clocks, so the row
    times the replay alone; construction is recorded beside it as
    ``setup_ms_per_hop``.  Figures are medians over the repeats (after
    one untimed warm-up), on the thread-CPU clock with the wall clock
    beside it.

    ``plan_ms_per_hop`` is the thread-CPU median of one cold
    ``PlanCache.chunks`` call (a fresh cache per repeat, every hop
    timed on its own): the plan each hop's migrator runs, built and
    replay-checked once.  The machines keep their memoised
    fingerprints across repeats, as a fleet's machines do across hops.
    """
    chain = [random_fsm(n_states=12, n_inputs=2, n_outputs=4, seed=7)]
    for hop in range(1, REPLAY_HOPS + 1):
        chain.append(
            mutate_target(chain[-1], REPLAY_DELTAS, seed=100 + hop,
                          name=f"m{hop}")
        )
    pairs = list(zip(chain, chain[1:]))
    cache = PlanCache(opt_level="O2")
    hops = [
        (source, target, cache.chunks(source, target))
        for source, target in pairs
    ]
    plan_ms = []
    for repeat in range(REPLAY_REPEATS + 1):
        cold = PlanCache(opt_level="O2")
        for source, target in pairs:
            started = time.thread_time()
            cold.chunks(source, target)
            if repeat:
                plan_ms.append((time.thread_time() - started) * 1e3)
    cpu_rates, wall_rates, setup_ms = [], [], []
    for repeat in range(REPLAY_REPEATS + 1):
        hw = HardwareFSM(chain[0], trace_max_entries=REPLAY_TRACE_ENTRIES)
        cycles = 0
        cpu = wall = setup = 0.0
        for source, target, chunks in hops:
            setup_started = time.thread_time()
            migrator = IncrementalMigrator(hw, source, target, chunks=chunks)
            setup += time.thread_time() - setup_started
            wall_started = time.perf_counter()
            cpu_started = time.thread_time()
            while not migrator.done:
                cycles += migrator.stall(REPLAY_STALL_BUDGET)
            cpu += time.thread_time() - cpu_started
            wall += time.perf_counter() - wall_started
            if not hw.realises(target):
                raise RuntimeError(f"replay does not realise {target.name}")
        if repeat:
            cpu_rates.append(cycles / cpu)
            wall_rates.append(cycles / wall)
            setup_ms.append(setup * 1e3 / len(hops))
    return {
        "hops": len(hops),
        "cycles_per_pass": cycles,
        "stall_budget": REPLAY_STALL_BUDGET,
        "repeats": REPLAY_REPEATS,
        "cycles_per_s": statistics.median(cpu_rates),
        "wall_cycles_per_s": statistics.median(wall_rates),
        "us_per_cycle": 1e6 / statistics.median(cpu_rates),
        "setup_ms_per_hop": statistics.median(setup_ms),
        "plan_ms_per_hop": statistics.median(plan_ms),
    }


def backend_rows(machine, words):
    """Dispatcher-driven serving throughput, one row per backend (the
    exec layer's view: select → run_batch → commit)."""
    n_symbols = sum(len(w) for w in words)
    rows = {}
    for name in names():
        reason = unavailable_reason(name)
        if reason is not None:
            rows[name] = {"skipped": reason}
            continue

        def serve(mode=name):
            hw = HardwareFSM(machine, trace_max_entries=16)
            dispatcher = Dispatcher(mode)
            for word in words:
                dispatcher.select(hw).backend.run_batch(word)

        seconds = _best_seconds(serve)
        rows[name] = {
            "seconds": seconds, "symbols_per_s": n_symbols / seconds,
        }
    return rows


def _interleaved_medians(fns, repeats: int = STREAM_REPEATS) -> dict:
    """Median ``(wall, thread-CPU)`` seconds per call of each callable
    over ``repeats`` rounds, each round timing :data:`STREAM_CALLS`
    back-to-back calls of every callable in turn (after one untimed
    warm-up round), so a slow phase of the host lands on every side
    alike.  The thread-CPU clock leaves out the time this thread spends
    descheduled, which the wall clock counts on a loaded host."""
    for fn in fns.values():
        fn()
    wall = {name: [] for name in fns}
    cpu = {name: [] for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            wall_started = time.perf_counter()
            cpu_started = time.thread_time()
            for _ in range(STREAM_CALLS):
                fn()
            cpu[name].append(
                (time.thread_time() - cpu_started) / STREAM_CALLS
            )
            wall[name].append(
                (time.perf_counter() - wall_started) / STREAM_CALLS
            )
    return {
        name: (statistics.median(wall[name]), statistics.median(cpu[name]))
        for name in fns
    }


def stream_rows(machine):
    """The multi-stream plane: (n_streams × n_symbols) batches.

    For each lane count, rows over the *same* words, timed as medians
    of interleaved repeats on the wall and thread-CPU clocks (speedups,
    and so the gates, read the thread-CPU medians; the wall-clock
    speedup is recorded beside them): the per-stream baseline (a
    ``run_word`` loop, which eagerly builds per-symbol output lists),
    the stream plane on both kernels from a pre-encoded batch (state
    propagation + final states, the product vectorized consumers like
    the EA's ``match_counts`` scoring read), the numpy plane *with* full
    per-stream ``WordRun`` materialisation, and the numpy plane from
    raw words (encode + kernel + ``word_runs()``: what the fleet pays
    per coalesced run).
    """
    compiled = CompiledFSM.from_fsm(machine)
    rows = []
    for n in STREAM_COUNTS:
        words = traffic_words(machine, n, STREAM_WORD_LEN, seed=1)
        n_symbols = sum(len(w) for w in words)
        batch = compiled.encode_streams(words)
        fns = {
            "per_stream_python": lambda: [
                compiled.run_word(word) for word in words
            ],
            "stream_python": lambda: compiled.run_stream_batch(
                batch, kernel="python"
            ).final_states(),
        }
        if numpy_available():
            # The encoded batch is alphabet-bound, not kernel-bound:
            # the same packed matrix replays on the numpy kernel.
            fns["stream_numpy"] = lambda: compiled.run_stream_batch(
                batch, kernel="numpy"
            ).final_states()
            fns["stream_numpy_materialised"] = (
                lambda: compiled.run_stream_batch(
                    batch, kernel="numpy"
                ).word_runs()
            )
            fns["stream_numpy_raw_words"] = lambda: compiled.run_streams(
                words, kernel="numpy"
            ).word_runs()
        medians = _interleaved_medians(fns)
        row = {"streams": n, "n_symbols": n_symbols}
        base_wall, base_cpu = medians["per_stream_python"]
        for name, (wall, cpu) in medians.items():
            row[name] = {
                "seconds": wall,
                "cpu_seconds": cpu,
                "symbols_per_s": n_symbols / wall,
            }
            if name.startswith("stream_numpy"):
                row[name]["speedup_vs_per_stream"] = base_cpu / cpu
                row[name]["wall_speedup_vs_per_stream"] = base_wall / wall
        if not numpy_available():
            row["stream_numpy"] = {
                "skipped": "numpy unavailable: stream-kernel gates "
                "not applicable",
            }
        rows.append(row)
    return rows


def stream_failures(rows) -> list:
    """Every stream-plane gate the rows miss (none without numpy)."""
    failures = []
    for row in rows:
        for name, lanes, floor in STREAM_GATES:
            gate = row.get(name)
            if row["streams"] not in lanes or not gate or "skipped" in gate:
                continue
            if gate["speedup_vs_per_stream"] < floor:
                failures.append(
                    f"{name} at {row['streams']} streams: "
                    f"{gate['speedup_vs_per_stream']:.2f}x < {floor}x "
                    "over the per-stream python loop (thread-CPU medians)"
                )
    return failures


def ea_rows(machine):
    """EA population scoring, before/after the stream plane.

    *before* — the pre-stream seam: every (candidate, trace) pair is a
    sequential ``run_word`` replay; *after* —
    :func:`repro.core.ea.evaluate_population`, one stream batch per
    candidate over a once-encoded trace set.
    """
    from repro.core.ea import evaluate_population

    words = traffic_words(machine, EA_TRACES, STREAM_WORD_LEN, seed=2)
    traces = [(word, machine.run(word)) for word in words]
    candidates = [machine] * EA_POPULATION
    compiled = [CompiledFSM.from_fsm(c) for c in candidates]

    def before():
        scores = []
        for view in compiled:
            matched = total = 0
            for word, expected in traces:
                outputs = view.run_word(word).outputs
                total += len(expected)
                matched += sum(
                    1 for got, want in zip(outputs, expected)
                    if got == want
                )
            scores.append(matched / total)
        return scores

    seconds_before = _best_seconds(before)
    seconds_after = _best_seconds(
        lambda: evaluate_population(candidates, traces)
    )
    return {
        "population": EA_POPULATION,
        "traces": EA_TRACES,
        "per_trace_python": {"seconds": seconds_before},
        "stream_plane": {
            "seconds": seconds_after,
            "speedup": seconds_before / seconds_after,
        },
    }


def fleet_row(machine, words, n_workers: int, engine: str):
    n_symbols = sum(len(w) for w in words)
    fleet = FSMFleet(
        machine, n_workers=n_workers, queue_depth=len(words) + 1,
        engine=engine, name=f"bench-{engine}-{n_workers}",
    )
    try:
        started = time.perf_counter()
        futures = [
            fleet.submit(key, word) for key, word in enumerate(words)
        ]
        for future in futures:
            future.result(timeout=60)
        seconds = time.perf_counter() - started
        totals = fleet.totals()
        return {
            "workers": n_workers,
            "engine": engine,
            "seconds": seconds,
            "symbols_per_s": n_symbols / seconds,
            "engine_symbols": totals.engine_symbols,
            "engine_fallbacks": totals.engine_fallbacks,
        }
    finally:
        fleet.close()


def main() -> int:
    machine = sequence_detector("1011")
    words = traffic_words(machine, N_WORDS, WORD_LEN, seed=0)
    n_symbols, kernels = kernel_rows(machine, words)
    replay = replay_row()
    backends = backend_rows(machine, words)
    streams = stream_rows(machine)
    ea = ea_rows(machine)

    fleet_words = words[:128]
    fleets = [
        fleet_row(machine, fleet_words, workers, engine)
        for workers in (1, 4)
        for engine in ("off", "auto")
    ]

    per_cycle = kernels["per_cycle"]["symbols_per_s"]
    speedups = {
        name: row["symbols_per_s"] / per_cycle
        for name, row in kernels.items()
        if name != "per_cycle"
    }

    failures = []
    if speedups["python"] < MIN_PY_SPEEDUP:
        failures.append(
            f"pure-Python batch kernel is a pessimisation: "
            f"{speedups['python']:.2f}x < {MIN_PY_SPEEDUP}x per-cycle"
        )
    if "numpy" in speedups and speedups["numpy"] < MIN_NUMPY_SPEEDUP:
        failures.append(
            f"numpy stream kernel (materialised) speedup "
            f"{speedups['numpy']:.2f}x < "
            f"{MIN_NUMPY_SPEEDUP}x per-cycle"
        )
    failures.extend(stream_failures(streams))

    payload = {
        "benchmark": "engine_throughput",
        "workload": machine.name,
        "n_symbols": n_symbols,
        "numpy_available": numpy_available(),
        "host": _host(),
        "kernels": kernels,
        "reconfiguration_replay": replay,
        "backends": backends,
        "speedups_vs_per_cycle": {
            k: round(v, 2) for k, v in speedups.items()
        },
        "multi_stream": streams,
        "ea_evaluate_population": ea,
        "fleet": fleets,
        "criteria": {
            "python_min_speedup": MIN_PY_SPEEDUP,
            "numpy_min_speedup": MIN_NUMPY_SPEEDUP,
            "stream_gates": [
                {"row": name, "streams": list(lanes), "min_speedup": floor}
                for name, lanes, floor in STREAM_GATES
            ],
            "stream_repeats": STREAM_REPEATS,
            "stream_calls_per_sample": STREAM_CALLS,
        },
        "failures": failures,
    }
    out = pathlib.Path(__file__).resolve().parent.parent
    out = out / "BENCH_engine_throughput.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"engine throughput over {n_symbols} symbols ({machine.name}):")
    for name, row in kernels.items():
        speedup = (
            f" ({speedups[name]:.1f}x)" if name in speedups else " (1.0x)"
        )
        print(
            f"  {name:10s}: {row['symbols_per_s']:12,.0f} symbols/s"
            f"{speedup}"
        )
    print(
        f"  replay    : {replay['cycles_per_s']:12,.0f} cycles/s "
        f"({replay['us_per_cycle']:.2f} us/cycle thread-CPU, "
        f"{replay['hops']} hops, plan "
        f"{replay['plan_ms_per_hop']:.2f} ms/hop, setup "
        f"{replay['setup_ms_per_hop']:.2f} ms/hop)"
    )
    for name, row in backends.items():
        if "skipped" in row:
            print(f"  backend {name:12s}: skipped ({row['skipped']})")
        else:
            print(
                f"  backend {name:12s}: {row['symbols_per_s']:12,.0f} "
                f"symbols/s (dispatcher-driven)"
            )
    for row in streams:
        if "skipped" in row["stream_numpy"]:
            numpy_part = f"numpy skipped ({row['stream_numpy']['skipped']})"
        else:
            numpy_part = ", ".join(
                f"{label} {row[name]['speedup_vs_per_stream']:.2f}x "
                f"(wall {row[name]['wall_speedup_vs_per_stream']:.2f}x)"
                for label, name in (
                    ("kernel", "stream_numpy"),
                    ("materialised", "stream_numpy_materialised"),
                    ("raw words", "stream_numpy_raw_words"),
                )
            )
        print(
            f"  streams {row['streams']:4d} (numpy vs per-stream, "
            f"thread-CPU medians): {numpy_part}"
        )
    print(
        f"  ea evaluate_population ({ea['population']} candidates x "
        f"{ea['traces']} traces): "
        f"{ea['stream_plane']['speedup']:.2f}x over per-trace replay"
    )
    for row in fleets:
        print(
            f"  fleet {row['workers']}w engine={row['engine']:4s}: "
            f"{row['symbols_per_s']:12,.0f} symbols/s "
            f"({row['engine_symbols']} via engine)"
        )
    print(f"written: {out}")
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
