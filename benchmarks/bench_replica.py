"""Replication overhead and replica-replacement benchmark.

Measures the cost of the replica plane and appends a ``"replication"``
section to ``BENCH_fleet_throughput.json`` (read-modify-write: the
fleet benchmark's sections are preserved):

* **n=1 vs n=3 overhead** — the same traffic served by a process
  fleet with one worker process per shard and with a 3-replica group
  of worker processes per shard, at ``link_latency_s=0`` so the
  group's cost (the per-frame liveness check of every replica) is
  *not* hidden behind modelled device time.  One replica serves every
  frame and the others stand by on the same published table segment,
  so the gate is tight: n=3 must stay within 30% of n=1 throughput.
  One run lasts milliseconds, so each row is the median of
  ``TRAFFIC_ROUNDS`` interleaved rounds (``bench_fleet``'s helpers),
  with the min and max beside it.  The gate only asserts on hosts with
  enough CPUs — below that the measurement is recorded with the reason
  the gate was skipped.
* **replacement under load** — a process-mode fleet keeps serving
  while one replica of a loaded group is torn down and respawned
  (``replace_replica``); the benchmark records the wall-clock time to
  a fully in-sync group and asserts no future was lost.

Run with ``make bench-replica``.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

from bench_fleet import _interleaved, _summary

from repro.fleet import FSMFleet
from repro.replica import ReplicaConfig
from repro.workloads.suite import suite_pair, traffic_words

WORKLOAD = "ctrl/pattern-1011-to-0110"
REQUESTS = 160
BATCH = 64
SEED = 0
#: n=3 may cost at most 30% of n=1 throughput at link_latency_s=0.
OVERHEAD_GATE = 1.30
#: CPUs the overhead gate needs before it may assert.  The standbys
#: take no frames, so two CPUs (one per serving replica) are enough.
GATE_CPUS = 2

#: Pause between warm-up and the timed run (both rows), past the
#: worker's post-frame busy-poll phase (``procfleet.worker``).
SETTLE_S = 0.05

REPLACE_REQUESTS = 48
REPLACE_BATCH = 256


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _warm(fleet, word) -> None:
    for index in range(4):
        fleet.submit(f"warm-{index}", word).result(timeout=60)


def _run_traffic(replicas: int) -> tuple:
    """``(seconds, steps/sec)`` of serving the traffic once from a
    fleet of ``replicas`` worker processes per shard."""
    replication = ReplicaConfig(n=replicas) if replicas > 1 else None
    source, target = suite_pair(WORKLOAD)
    words = traffic_words(source, REQUESTS, BATCH, seed=SEED)
    fleet = FSMFleet(
        source,
        n_workers=2,
        family=[target],
        queue_depth=max(16, REQUESTS),
        link_latency_s=0.0,
        name=f"bench-replica-n{replicas}",
        fleet_mode="process",
        replication=replication,
    )
    # Warm both shards: the first serve compiles and publishes the
    # tables and the serving replica attaches them; the standbys attach
    # through the fingerprint probe that catches a replica up.
    _warm(fleet, words[0][:8])
    swept = fleet.check_divergence(heal=False)
    assert not any(any(shard.values()) for shard in swept.values())
    # A worker busy-polls for ~13 ms after each frame it answers, the
    # probes included: let the standbys fall back asleep, then wake the
    # serving replicas again, so every row starts from the same state.
    time.sleep(SETTLE_S)
    _warm(fleet, words[0][:8])
    started = time.perf_counter()
    futures = [
        fleet.submit(index, word) for index, word in enumerate(words)
    ]
    for future in futures:
        future.result(timeout=60)
    elapsed = time.perf_counter() - started
    totals = fleet.totals()
    groups = fleet.replicas()
    fleet.close()
    assert totals.incidents == 0
    assert all(g.in_sync == g.n == replicas for g in groups.values())
    return elapsed, REQUESTS * BATCH / elapsed


def _traffic_rows() -> list:
    """One row per replica count, n=1 and n=3 interleaved."""
    return [
        {
            "replicas": replicas,
            "requests": REQUESTS,
            "batch": BATCH,
            "link_latency_s": 0.0,
            **_summary(samples),
        }
        for (replicas,), samples in _interleaved(
            _run_traffic, [(1,), (3,)]
        ).items()
    ]


def _run_replacement() -> dict:
    source, target = suite_pair(WORKLOAD)
    words = traffic_words(source, REPLACE_REQUESTS, REPLACE_BATCH, seed=SEED)
    fleet = FSMFleet(
        source,
        n_workers=2,
        family=[target],
        queue_depth=max(16, REPLACE_REQUESTS),
        name="bench-replica-replace",
        fleet_mode="process",
        replication=ReplicaConfig(n=3),
    )
    for index in range(4):
        fleet.submit(f"warm-{index}", words[0][:8]).result(timeout=60)
    futures = [
        fleet.submit(index, word) for index, word in enumerate(words)
    ]
    started = time.perf_counter()
    status = fleet.replace_replica(0, "r1").result(timeout=60)
    replace_s = time.perf_counter() - started
    lost = sum(1 for f in futures if f.exception(timeout=120) is not None)
    totals = fleet.totals()
    fleet.close()
    assert lost == 0, f"{lost} futures lost during replacement"
    assert status.in_sync == status.n == 3
    return {
        "requests_in_flight": REPLACE_REQUESTS,
        "batch": REPLACE_BATCH,
        "replace_s": round(replace_s, 4),
        "group_in_sync_after": status.in_sync,
        "futures_lost": lost,
        "batches_ok": totals.batches_ok,
    }


def main() -> int:
    cpus = _cpus()
    baseline, replicated = _traffic_rows()
    overhead = round(
        baseline["steps_per_sec"] / replicated["steps_per_sec"], 3
    )
    gated = cpus >= GATE_CPUS
    replacement = _run_replacement()

    section = {
        "note": (
            "process-mode n=1 vs n=3 at link_latency_s=0, medians of "
            "interleaved rounds: one replica serves every frame from "
            "the group's published table segment and the others stand "
            "by, so the group costs a liveness check per frame, not a "
            "3x step bill"
        ),
        "workload": WORKLOAD,
        "rows": [baseline, replicated],
        "overhead_n3_vs_n1": overhead,
        "cpus": cpus,
        "gate": {
            "target": OVERHEAD_GATE,
            "asserted": gated,
            **(
                {}
                if gated
                else {
                    "skip_reason": (
                        f"host exposes {cpus} CPU(s); the overhead "
                        f"gate needs >= {GATE_CPUS} to measure the "
                        "group cost instead of scheduler noise"
                    )
                }
            ),
        },
        "replacement_under_load": replacement,
    }

    out = pathlib.Path(__file__).resolve().parent.parent / (
        "BENCH_fleet_throughput.json"
    )
    result = json.loads(out.read_text()) if out.exists() else {}
    result["replication"] = section
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(section, indent=2))

    ok = replacement["futures_lost"] == 0
    if gated:
        ok = ok and overhead <= OVERHEAD_GATE
        verdict = f"{overhead}x (target <= {OVERHEAD_GATE})"
    else:
        verdict = (
            f"{overhead}x (gate skipped: {cpus} CPU(s) < {GATE_CPUS})"
        )
    print(
        f"\nreplication overhead n=1 -> n=3: {verdict}; "
        f"replacement under load: {replacement['replace_s']}s, "
        f"{replacement['futures_lost']} futures lost: "
        f"{'OK' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
