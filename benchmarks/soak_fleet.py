"""Fleet soak smoke: sustained traffic, one rolling migration, no drops.

Runs a 4-worker fleet under continuous synthetic traffic for a wall-time
budget (default 30 s), performs one rolling migration mid-soak, and
asserts at exit:

* **no dropped shards** — every worker thread is alive the whole run and
  still serving at the end (a post-soak batch on every shard succeeds);
* every submitted batch resolved (backpressure rejections are retried,
  so nothing is silently lost);
* the migration hardware-verified on all shards with zero
  probe-measured service downtime.

The soak runs with ``-O2``-optimized migration plans by default, so the
zero-downtime gate covers the pass pipeline's rewritten chunk plans, not
just the textbook ones (use ``--opt-level O0`` to soak the baseline).

Used by the CI ``fleet-soak`` job; run locally with
``python benchmarks/soak_fleet.py --seconds 5``.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from repro.api import ENGINE_MODES
from repro.fleet import FleetOverloaded, FSMFleet, MigrationScheduler
from repro.workloads.suite import suite_pair, traffic_words

WORKLOAD = "ctrl/pattern-1011-to-0110"
WORKERS = 4
BATCH = 16


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--opt-level", default="O2")
    parser.add_argument(
        "--engine", default="auto",
        choices=ENGINE_MODES,
        help="execution backend for the serving hot path (default auto, "
             "so the soak covers coalesced engine serving)",
    )
    args = parser.parse_args(argv)

    source, target = suite_pair(WORKLOAD)
    common = [i for i in source.inputs if i in set(target.inputs)]
    fleet = FSMFleet(
        source, n_workers=WORKERS, family=[target], queue_depth=32,
        opt_level=args.opt_level, engine=args.engine, name="soak",
    )
    scheduler = MigrationScheduler(fleet, stall_budget=12)
    holder: dict = {}

    def rollout() -> None:
        try:
            holder["report"] = scheduler.rollout(target)
        except Exception as exc:  # pragma: no cover - soak diagnostics
            holder["error"] = exc

    thread = threading.Thread(target=rollout, daemon=True)
    deadline = time.monotonic() + args.seconds
    migrate_at = time.monotonic() + args.seconds / 3
    futures = []
    submitted = retries = 0
    words = iter([])
    while time.monotonic() < deadline:
        if not thread.is_alive() and "report" not in holder \
                and "error" not in holder and time.monotonic() >= migrate_at:
            thread.start()
        try:
            word = next(words)
        except StopIteration:
            words = iter(traffic_words(
                source, 512, BATCH, seed=args.seed + submitted,
                inputs=common,
            ))
            word = next(words)
        try:
            futures.append(fleet.submit(submitted, word))
            submitted += 1
        except FleetOverloaded:
            retries += 1
            time.sleep(0.001)

    thread.join(timeout=60)
    fleet.drain()

    failures = []
    if "error" in holder:
        failures.append(f"rollout raised: {holder['error']}")
    report = holder.get("report")
    if report is None:
        failures.append("rollout never completed")
    else:
        if not report.verified:
            failures.append("rollout not hardware-verified on all shards")
        if not report.zero_downtime:
            failures.append(
                f"service downtime {report.service_downtime_cycles} != 0"
            )
    dead = [s.index for s in fleet.shards if not s.is_alive()]
    if dead:
        failures.append(f"dropped shards (threads dead): {dead}")
    unresolved = sum(1 for f in futures if not f.done())
    if unresolved:
        failures.append(f"{unresolved} batches never resolved")
    errored = 0
    for future in futures:
        if future.done() and future.exception() is not None:
            errored += 1
    if errored:
        failures.append(f"{errored} batches errored")
    # every shard still serves after the soak (post-soak liveness probe)
    for shard in fleet.shards:
        probe_word = [common[0]] * 4
        try:
            # craft a key that routes to this specific shard
            key = next(
                k for k in range(10_000)
                if fleet.shard_for(k) == shard.index
            )
            fleet.submit(key, probe_word).result(timeout=10)
        except Exception as exc:
            failures.append(f"shard {shard.index} not serving: {exc}")

    totals = fleet.totals()
    fleet.close()
    print(
        f"soak (-{fleet.plan_cache.opt_level}, engine={fleet.engine}): "
        f"{args.seconds:.0f}s, {submitted} batches "
        f"({totals.symbols_served} symbols), {retries} backpressure "
        f"retries, {totals.incidents} incidents, migration cycles "
        f"{totals.migration_cycles}, service downtime "
        f"{totals.service_downtime_cycles}, engine symbols "
        f"{totals.engine_symbols} ({totals.engine_fallbacks} fallbacks)"
    )
    if failures:
        for failure in failures:
            print(f"SOAK FAILURE: {failure}", file=sys.stderr)
        return 1
    print("soak OK: no dropped shards, rollout verified, zero downtime")
    return 0


if __name__ == "__main__":
    sys.exit(main())
