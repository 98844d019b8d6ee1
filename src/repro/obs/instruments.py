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

# -- conformance testing ----------------------------------------------
VERIFY_WORDS = REGISTRY.counter(
    "repro_verify_words_total",
    "Conformance-suite words executed against a device under test.",
)
VERIFY_SYMBOLS = REGISTRY.counter(
    "repro_verify_symbols_total",
    "Input symbols driven during conformance testing.",
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
HW_TRACE_DROPPED = REGISTRY.counter(
    "repro_hw_trace_dropped_total",
    "Trace entries evicted by bounded (ring-buffer) recorders.",
)

# -- fleet serving engine ---------------------------------------------
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

# -- suite workloads --------------------------------------------------
SUITE_WORKLOADS = REGISTRY.counter(
    "repro_suite_workloads_total",
    "Suite workloads run, by method and validity.",
)


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


def record_synthesis(method: str) -> None:
    """Count one synthesised program under its method."""
    SYNTH_PROGRAMS.inc(method=method)
