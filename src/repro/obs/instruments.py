"""Domain metric handles shared by the instrumented layers.

One module owns the metric *names* so synthesisers, the datapath, the
verifier and the CLI all publish into the same families (the catalogue
is documented in ``docs/observability.md``).  Creation is idempotent and
all recording helpers are no-op cheap when the default registry is
disabled, so hot paths call them unconditionally.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .metrics import REGISTRY, SECONDS_BUCKETS

# -- synthesis ---------------------------------------------------------
SYNTH_PROGRAMS = REGISTRY.counter(
    "repro_synthesis_programs_total",
    "Reconfiguration programs synthesised, by method.",
)
SYNTH_SECONDS = REGISTRY.histogram(
    "repro_synthesis_seconds",
    "Wall time of one synthesiser call, by method.",
    buckets=SECONDS_BUCKETS,
)
SYNTH_LENGTH = REGISTRY.histogram(
    "repro_synthesis_program_length",
    "Program length |Z| of synthesised programs, by method.",
)
SYNTH_WRITES = REGISTRY.counter(
    "repro_synthesis_program_writes_total",
    "Table-write cycles across synthesised programs, by method.",
)

# -- evolutionary algorithm -------------------------------------------
EA_GENERATIONS = REGISTRY.counter(
    "repro_ea_generations_total",
    "EA generations executed.",
)
EA_EVALUATIONS = REGISTRY.counter(
    "repro_ea_evaluations_total",
    "Distinct fitness evaluations (decoder runs) across EA calls.",
)
EA_BEST_LENGTH = REGISTRY.gauge(
    "repro_ea_best_length",
    "Best program length of the most recent EA generation.",
)

# -- optimization passes ----------------------------------------------
PASS_RUNS = REGISTRY.counter(
    "repro_pass_runs_total",
    "Optimization pass executions, by pass and outcome "
    "(accepted / noop / rejected).",
)

# -- exact search ------------------------------------------------------
OPTIMAL_EXPANSIONS = REGISTRY.counter(
    "repro_optimal_expansions_total",
    "A* node expansions across optimal_program calls.",
)

# -- conformance testing ----------------------------------------------
VERIFY_WORDS = REGISTRY.counter(
    "repro_verify_words_total",
    "Conformance-suite words executed against a device under test.",
)
VERIFY_SYMBOLS = REGISTRY.counter(
    "repro_verify_symbols_total",
    "Input symbols driven during conformance testing.",
)
VERIFY_FAILURES = REGISTRY.counter(
    "repro_verify_failures_total",
    "Conformance-suite words whose outputs mismatched the reference.",
)

# -- hardware datapath -------------------------------------------------
HW_CYCLES = REGISTRY.counter(
    "repro_hw_cycles_total",
    "Datapath clock cycles, by mode (normal / reconf / reset).",
)
HW_RAM_WRITES = REGISTRY.counter(
    "repro_hw_ram_writes_total",
    "Committed RAM writes, by memory (F-RAM / G-RAM).",
)
HW_UNINITIALISED_READS = REGISTRY.counter(
    "repro_hw_uninitialised_reads_total",
    "F-RAM reads of never-written words (simulation errors).",
)
HW_TRACE_DROPPED = REGISTRY.counter(
    "repro_hw_trace_dropped_total",
    "Trace entries evicted by bounded (ring-buffer) recorders.",
)

# -- fleet serving engine ---------------------------------------------
FLEET_BATCHES = REGISTRY.counter(
    "repro_fleet_batches_total",
    "Batches served by fleet shard workers, by outcome (ok / error).",
)
FLEET_SYMBOLS = REGISTRY.counter(
    "repro_fleet_symbols_total",
    "Input symbols stepped by fleet shard workers.",
)
FLEET_REJECTED = REGISTRY.counter(
    "repro_fleet_rejected_total",
    "Batch submissions rejected by backpressure (full shard queue).",
)
FLEET_INCIDENTS = REGISTRY.counter(
    "repro_fleet_incidents_total",
    "Shard faults that triggered quarantine and re-seed, by error type.",
)
FLEET_SHARD_MIGRATIONS = REGISTRY.counter(
    "repro_fleet_shard_migrations_total",
    "Per-shard gradual migrations completed, by hardware verification.",
)
FLEET_MIGRATION_CYCLES = REGISTRY.counter(
    "repro_fleet_migration_cycles_total",
    "Reconfiguration cycles spent inside rolling fleet migrations.",
)
FLEET_SERVICE_DOWNTIME = REGISTRY.counter(
    "repro_fleet_service_downtime_cycles_total",
    "Reconf/reset cycles observed while a batch was being served "
    "(zero for feasible migration plans).",
)
FLEET_BATCH_SECONDS = REGISTRY.histogram(
    "repro_fleet_batch_seconds",
    "Wall time from batch dequeue to future resolution.",
    buckets=SECONDS_BUCKETS,
)

# -- multi-process fleet (shared-memory tables) ------------------------
PROCFLEET_PUBLISHES = REGISTRY.counter(
    "repro_procfleet_publishes_total",
    "Table segments published to shared memory (epoch bumps), by shard.",
)
PROCFLEET_WORKER_SPAWNS = REGISTRY.counter(
    "repro_procfleet_worker_spawns_total",
    "Worker processes spawned (startup and crash reseed), by shard.",
)
PROCFLEET_WORKER_CRASHES = REGISTRY.counter(
    "repro_procfleet_worker_crashes_total",
    "Worker processes that died or wedged mid-request, by shard and "
    "error type.",
)

# -- replica groups (replicated shard logs) ----------------------------
REPLICA_LOG_APPENDS = REGISTRY.counter(
    "repro_replica_log_appends_total",
    "Command entries appended to replicated shard logs, by shard and "
    "kind (serve / ram_write / erase / retarget / membership).",
)
REPLICA_LOG_COMMITS = REGISTRY.counter(
    "repro_replica_log_commits_total",
    "Log entries committed (applied on a quorum of replicas), by shard.",
)
REPLICA_FAILOVERS = REGISTRY.counter(
    "repro_replica_failovers_total",
    "Serves rerouted from a dead replica to an in-sync peer, by shard.",
)
REPLICA_CATCH_UPS = REGISTRY.counter(
    "repro_replica_catch_ups_total",
    "Replicas caught up from the latest snapshot (fresh spawn, crash "
    "respawn or divergence heal), by shard.",
)
REPLICA_DIVERGENCE = REGISTRY.counter(
    "repro_replica_divergence_total",
    "Replica table fingerprints that disagreed with the group's, by "
    "shard and replica.",
)
REPLICA_MEMBERSHIP_CHANGES = REGISTRY.counter(
    "repro_replica_membership_changes_total",
    "Replica-group membership changes (add / remove / replace), by "
    "shard and kind.",
)

# -- asyncio ingestion plane ------------------------------------------
AIO_FRAMES = REGISTRY.counter(
    "repro_aio_frames_total",
    "Frames served by the asyncio ingestion server, by op.",
)

# -- batch execution engine -------------------------------------------
ENGINE_COMPILES = REGISTRY.counter(
    "repro_engine_compiles_total",
    "CompiledFSM table compilations, by origin (fsm / hardware).",
)
ENGINE_INVALIDATIONS = REGISTRY.counter(
    "repro_engine_invalidations_total",
    "Compiled-view invalidations, by reason "
    "(stale / replaced / store / explicit).",
)
ENGINE_FALLBACKS = REGISTRY.counter(
    "repro_engine_fallbacks_total",
    "Engine runs that fell back to the cycle-accurate datapath, by "
    "reason (unconfigured / unavailable / error) and the "
    "backend that was displaced.",
)
ENGINE_SERVED = REGISTRY.counter(
    "repro_engine_symbols_total",
    "Input symbols executed, by path (compiled / cycle) and backend.",
)
ENGINE_BATCH_SIZE = REGISTRY.histogram(
    "repro_engine_batch_size",
    "Symbols per coalesced engine run on the fleet serving path, "
    "by backend.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
)
ENGINE_NUMPY_AVAILABLE = REGISTRY.gauge(
    "repro_engine_numpy_available",
    "1 when the numpy fast path is importable and enabled, else 0.",
)

# -- execution-backend dispatch ---------------------------------------
EXEC_DECISIONS = REGISTRY.counter(
    "repro_exec_decisions_total",
    "Dispatcher backend decisions, by chosen backend and reason "
    "(policy / cached / compiled / unconfigured / unavailable / "
    "compile-error).",
)
EXEC_STREAM_BATCHES = REGISTRY.counter(
    "repro_exec_stream_batches_total",
    "Multi-stream batches served through the exec stream plane, by "
    "backend and site (fleet.serve / ea.fitness / exec).",
)
EXEC_STREAM_LANES = REGISTRY.counter(
    "repro_exec_stream_lanes_total",
    "Independent streams served inside stream batches, by backend "
    "and site.",
)
EXEC_STREAM_SYMBOLS = REGISTRY.counter(
    "repro_exec_stream_symbols_total",
    "Input symbols served inside stream batches, by backend and site.",
)

# -- observability self-metrics ---------------------------------------
OBS_HTTP_REQUESTS = REGISTRY.counter(
    "repro_obs_http_requests_total",
    "Requests served by the observability HTTP endpoint, by route.",
)
OBS_HEALTH_CHECKS = REGISTRY.counter(
    "repro_obs_health_checks_total",
    "Health assessments computed, by resulting status.",
)

# -- plan cache --------------------------------------------------------
PLAN_CACHE_REQUESTS = REGISTRY.counter(
    "repro_plan_cache_requests_total",
    "Plan-cache lookups, by kind (program / chunks) and result "
    "(hit / miss).",
)

# -- suite and campaigns ----------------------------------------------
SUITE_WORKLOADS = REGISTRY.counter(
    "repro_suite_workloads_total",
    "Suite workloads run, by method and validity.",
)
CAMPAIGN_CELLS = REGISTRY.counter(
    "repro_campaign_cells_total",
    "Campaign design-point measurements executed.",
)
CAMPAIGN_CELL_SECONDS = REGISTRY.histogram(
    "repro_campaign_cell_seconds",
    "Wall time of one campaign measurement cell.",
    buckets=SECONDS_BUCKETS,
)


#: Per-method pre-bound handles for :func:`record_synthesis` — the
#: label set is validated and canonicalised once per method name, not
#: once per synthesised program.
_SYNTH_HANDLES: Dict[str, Tuple[Any, Any, Any, Any]] = {}


#: Per-(method, validity) pre-bound handles for :func:`record_workload`.
_WORKLOAD_HANDLES: Dict[Tuple[str, bool], Any] = {}


def record_workload(method: str, valid: bool) -> None:
    """Count one suite workload, with the label set bound once."""
    if not REGISTRY.enabled:
        return
    key = (method, valid)
    handle = _WORKLOAD_HANDLES.get(key)
    if handle is None:
        handle = _WORKLOAD_HANDLES[key] = SUITE_WORKLOADS.bind(
            method=method, valid=str(valid).lower()
        )
    handle.inc()


def record_synthesis(method: str, program: Any, seconds: float) -> None:
    """Publish the standard per-synthesis metrics for one program."""
    if not REGISTRY.enabled:
        return
    handles = _SYNTH_HANDLES.get(method)
    if handles is None:
        handles = _SYNTH_HANDLES[method] = (
            SYNTH_PROGRAMS.bind(method=method),
            SYNTH_SECONDS.bind(method=method),
            SYNTH_LENGTH.bind(method=method),
            SYNTH_WRITES.bind(method=method),
        )
    programs, seconds_h, length_h, writes = handles
    programs.inc()
    seconds_h.observe(seconds)
    length_h.observe(len(program))
    writes.inc(program.write_count)
