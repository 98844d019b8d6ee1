"""Fleet serving throughput and migration-downtime benchmark.

Measures two things and writes ``BENCH_fleet_throughput.json`` at the
repository root:

* **throughput scaling** — steps/sec for 1, 2 and 4 workers serving the
  same synthetic traffic.  One run lasts only milliseconds, so every
  row (and every ``gil_bound_reference`` row) is the median of
  ``TRAFFIC_ROUNDS`` interleaved rounds, with the min and max beside it.  Each worker is the *controller* of one
  hardware shard, so a batch costs a device round-trip
  (``LINK_LATENCY_S``, modelled with a sleep) on top of the Python-side
  table work; scaling comes from workers overlapping their shards'
  round-trips, which is exactly how a real multi-FPGA fleet scales.  A
  ``link_latency_s=0`` column is included for honesty: with the GIL and
  a single CPU the pure-simulation path cannot scale, and the JSON says
  so rather than hiding it.
* **process-mode scaling** — the same traffic through
  ``fleet_mode="process"`` at ``link_latency_s=0``: the configuration
  where threads *cannot* scale (the ``gil_bound_reference`` rows show
  ~1x) is exactly where worker processes with shared-memory tables
  must.  Batches are large (``PROC_BATCH``) so per-request pipe costs
  amortise against worker-side table stepping.  These rows too are
  medians of ``TRAFFIC_ROUNDS`` interleaved rounds; the scaling gate
  (``>= 3.0`` at 4 workers) asserts only when the machine actually has
  4 CPUs to scale onto — on smaller hosts the JSON records the
  measurement and the reason the gate was skipped;
* **migration downtime** — a 4-worker fleet serves traffic while
  rolling migrations move every shard back and forth between the pair;
  the probe-measured service downtime must be zero and every rollout
  hardware-verified.  The row records the rollout wall p50 and the
  table rebuilds per rollout (view compiles; in process mode, segment
  publishes), with the host's CPU count.  The same proof runs once
  more across worker processes.

Run with ``make bench-fleet``.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import threading
import time

from repro import obs
from repro.fleet import FSMFleet, MigrationScheduler
from repro.obs import instruments as _instruments
from repro.workloads.suite import suite_pair, traffic_words

WORKLOAD = "ctrl/pattern-1011-to-0110"
WORKER_COUNTS = (1, 2, 4)
REQUESTS = 240
BATCH = 24
LINK_LATENCY_S = 0.002  # one modelled device round-trip per batch
SEED = 0
#: Rounds of every traffic row, thread and process mode.  Each round
#: runs every configuration of its mode once, in turn, after one untimed
#: warm-up run, so a slow phase of the host lands on every row alike.
TRAFFIC_ROUNDS = 15
#: Rollouts per migration row, alternating target and source, so the
#: row reports a rollout wall p50 rather than one sample.
MIGRATION_ROLLOUTS = 9

#: Process-mode traffic: fewer, much larger batches — the point is
#: worker-side compute (~600ns/symbol of pure-Python table stepping)
#: dominating the ~100-200us of per-request pipe+pickle overhead.
PROC_WORKER_COUNTS = (1, 2, 4)
PROC_REQUESTS = 96
PROC_BATCH = 2048
#: CPUs the scaling gate needs before it may assert: 4 workers cannot
#: run concurrently on fewer cores, so the measurement would gate on
#: the host, not the code.
PROC_GATE_CPUS = 4


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_traffic(n_workers: int, link_latency_s: float) -> tuple:
    """``(seconds, steps/sec)`` of serving the traffic once."""
    source, target = suite_pair(WORKLOAD)
    words = traffic_words(source, REQUESTS, BATCH, seed=SEED)
    fleet = FSMFleet(
        source,
        n_workers=n_workers,
        family=[target],
        queue_depth=max(16, 2 * REQUESTS // n_workers),
        link_latency_s=link_latency_s,
        name=f"bench-{n_workers}w",
    )
    started = time.perf_counter()
    futures = [
        fleet.submit(index, word) for index, word in enumerate(words)
    ]
    for future in futures:
        future.result(timeout=60)
    elapsed = time.perf_counter() - started
    totals = fleet.totals()
    fleet.close()
    assert totals.batches_ok == REQUESTS and totals.incidents == 0
    return elapsed, totals.symbols_served / elapsed


def _interleaved(run, configs) -> dict:
    """``config -> [(seconds, steps/sec), ...]``: :data:`TRAFFIC_ROUNDS`
    rounds of ``run(*config)`` over every config in turn, after one
    untimed warm-up run."""
    run(*configs[0])
    runs = {config: [] for config in configs}
    for _ in range(TRAFFIC_ROUNDS):
        for config in configs:
            runs[config].append(run(*config))
    return runs


def _summary(samples) -> dict:
    """Median elapsed time and rate of the rounds, with the rate's
    min and max."""
    elapsed = [seconds for seconds, _rate in samples]
    rates = [rate for _seconds, rate in samples]
    return {
        "rounds": len(samples),
        "elapsed_s": round(statistics.median(elapsed), 4),
        "steps_per_sec": round(statistics.median(rates), 1),
        "steps_per_sec_min": round(min(rates), 1),
        "steps_per_sec_max": round(max(rates), 1),
    }


def _traffic_rows(configs) -> list:
    """One row per ``(workers, link latency)`` configuration."""
    return [
        {
            "workers": n_workers,
            "requests": REQUESTS,
            "batch": BATCH,
            "link_latency_s": link_latency_s,
            **_summary(samples),
        }
        for (n_workers, link_latency_s), samples in _interleaved(
            _run_traffic, configs
        ).items()
    ]


def _run_proc_traffic(n_workers: int) -> tuple:
    """``(seconds, steps/sec)`` of serving the process-mode traffic
    once, after warming every shard."""
    source, target = suite_pair(WORKLOAD)
    words = traffic_words(source, PROC_REQUESTS, PROC_BATCH, seed=SEED)
    fleet = FSMFleet(
        source,
        n_workers=n_workers,
        family=[target],
        queue_depth=max(16, 2 * PROC_REQUESTS // n_workers),
        link_latency_s=0.0,
        name=f"bench-proc-{n_workers}w",
        fleet_mode="process",
    )
    # Warm every shard (first serve publishes + attaches + compiles).
    for index in range(n_workers * 4):
        fleet.submit(f"warm-{index}", words[0][:8]).result(timeout=60)
    started = time.perf_counter()
    futures = [
        fleet.submit(index, word) for index, word in enumerate(words)
    ]
    for future in futures:
        future.result(timeout=120)
    elapsed = time.perf_counter() - started
    totals = fleet.totals()
    fleet.close()
    assert totals.incidents == 0
    return elapsed, PROC_REQUESTS * PROC_BATCH / elapsed


def _proc_rows() -> list:
    """One process-mode row per worker count."""
    return [
        {
            "workers": n_workers,
            "requests": PROC_REQUESTS,
            "batch": PROC_BATCH,
            "link_latency_s": 0.0,
            **_summary(samples),
        }
        for (n_workers,), samples in _interleaved(
            _run_proc_traffic, [(n,) for n in PROC_WORKER_COUNTS]
        ).items()
    ]


def _run_migration(fleet_mode: str) -> dict:
    """Roll a 4-worker fleet back and forth between the pair under
    traffic: downtime, verification, and per-rollout wall and table
    rebuilds (compiles; process mode: segment publishes)."""
    source, target = suite_pair(WORKLOAD)
    words = traffic_words(
        source,
        REQUESTS,
        BATCH,
        seed=SEED,
        inputs=[i for i in source.inputs if i in set(target.inputs)],
    )
    obs.configure(metrics=True)
    fleet = FSMFleet(
        source, n_workers=4, family=[target], queue_depth=256,
        name=f"bench-{fleet_mode}-migration", fleet_mode=fleet_mode,
    )
    reports = []

    def rollouts() -> None:
        scheduler = MigrationScheduler(fleet, stall_budget=12)
        for hop in range(MIGRATION_ROLLOUTS):
            reports.append(
                scheduler.rollout(source if hop % 2 else target)
            )

    try:
        # The first quarter of the traffic warms every shard (its first
        # compile and publish), so the counters below see the rollouts.
        warm = REQUESTS // 4
        futures = [fleet.submit(i, w) for i, w in enumerate(words[:warm])]
        for future in futures:
            future.result(timeout=60)
        compiles = _instruments.ENGINE_COMPILES.value(origin="hardware")
        publishes = _publishes(fleet)
        thread = threading.Thread(target=rollouts)
        thread.start()
        for index, word in enumerate(words[warm:], warm):
            futures.append(fleet.submit(index, word))
        thread.join()
        for future in futures:
            future.result(timeout=60)
        compiles = (
            _instruments.ENGINE_COMPILES.value(origin="hardware") - compiles
        )
        publishes = _publishes(fleet) - publishes
        pids = (
            set(fleet.worker_pids().values())
            if fleet_mode == "process" else set()
        )
    finally:
        fleet.close()
        obs.configure()
    walls = sorted(report.wall_seconds for report in reports)
    first = reports[0]
    row = {
        "workers": 4,
        "cpus": _cpus(),
        "stall_budget": first.stall_budget,
        "migration_chunks": first.analysis.chunks_total,
        "migration_cycles": first.migration_cycles,
        "rollouts": len(reports),
        "rollout_wall_p50_ms": round(walls[len(walls) // 2] * 1e3, 3),
        "compiles_per_rollout": round(compiles / len(reports), 2),
        "publishes_per_rollout": round(publishes / len(reports), 2),
        "service_downtime_cycles": sum(
            r.service_downtime_cycles for r in reports
        ),
        "zero_downtime": all(r.zero_downtime for r in reports),
        "hardware_verified": all(r.verified for r in reports),
        "batches_served_during_rollout": sum(
            shard.batches_served_during
            for r in reports
            for shard in r.shards
        ),
    }
    if pids:
        row["worker_processes"] = len(pids)
    return row


def _publishes(fleet) -> float:
    """Segments published so far across the fleet's shards."""
    return sum(
        _instruments.PROCFLEET_PUBLISHES.value(shard=shard.label)
        for shard in fleet.shards
    )


def main() -> int:
    rows = _traffic_rows(
        [(n, LINK_LATENCY_S) for n in WORKER_COUNTS] + [(1, 0.0), (4, 0.0)]
    )
    throughput = rows[: len(WORKER_COUNTS)]
    gil_bound = rows[len(WORKER_COUNTS) :]
    migration = _run_migration("thread")

    cpus = _cpus()
    proc_rows = _proc_rows()
    proc_by_workers = {
        row["workers"]: row["steps_per_sec"] for row in proc_rows
    }
    proc_scaling = round(proc_by_workers[4] / proc_by_workers[1], 2)
    proc_gated = cpus >= PROC_GATE_CPUS
    proc_migration = _run_migration("process")

    by_workers = {row["workers"]: row["steps_per_sec"] for row in throughput}
    scaling = round(by_workers[4] / by_workers[1], 2)
    result = {
        "workload": WORKLOAD,
        "throughput": throughput,
        "scaling_1_to_4": scaling,
        "gil_bound_reference": {
            "note": (
                "link_latency_s=0 runs the pure-Python simulation with "
                "no device time to overlap; under the GIL this path "
                "does not scale with threads and is not the serving "
                "scenario the fleet targets"
            ),
            "rows": gil_bound,
        },
        "process_mode": {
            "note": (
                "fleet_mode='process' at link_latency_s=0: the "
                "GIL-bound configuration, served by worker processes "
                "stepping shared-memory tables"
            ),
            "rows": proc_rows,
            "scaling_1_to_4": proc_scaling,
            "cpus": cpus,
            "gate": {
                "target": 3.0,
                "asserted": proc_gated,
                **(
                    {}
                    if proc_gated
                    else {
                        "skip_reason": (
                            f"host exposes {cpus} CPU(s); 4 worker "
                            f"processes need >= {PROC_GATE_CPUS} to "
                            "demonstrate scaling"
                        )
                    }
                ),
            },
            "migration": proc_migration,
        },
        "migration": migration,
    }
    out = pathlib.Path(__file__).resolve().parent.parent / (
        "BENCH_fleet_throughput.json"
    )
    # Read-modify-write: `make bench-aio` and `make bench-replica` keep
    # their own sections in the same document.
    document = json.loads(out.read_text()) if out.exists() else {}
    document.update(result)
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(result, indent=2))

    ok = (
        scaling >= 2.0
        and migration["zero_downtime"]
        and migration["hardware_verified"]
        and proc_migration["zero_downtime"]
        and proc_migration["hardware_verified"]
    )
    if proc_gated:
        ok = ok and proc_scaling >= 3.0
        proc_verdict = f"{proc_scaling}x (target >= 3.0)"
    else:
        proc_verdict = (
            f"{proc_scaling}x (gate skipped: {cpus} CPU(s) < "
            f"{PROC_GATE_CPUS})"
        )
    print(
        f"\nthread scaling 1->4 workers: {scaling}x (target >= 2.0); "
        f"process scaling 1->4 workers: {proc_verdict}; "
        f"migration downtime thread/process "
        f"{migration['service_downtime_cycles']}/"
        f"{proc_migration['service_downtime_cycles']} cycles "
        f"(target 0): {'OK' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
