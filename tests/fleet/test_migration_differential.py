"""Serving through a live migration: one dispatch rule, every engine.

Drives one :class:`~repro.fleet.worker.ShardWorker` on the test thread
(no thread is started) through a seeded interleaving of migration
chunk gaps (``_migration_tick``) and coalesced serves (``_serve_run``
with datapath and session lanes).  Between chunks the blend table is a
well-defined machine, so the table engines recompile their view after
each chunk gap and serve from it (the ``table`` backend, on each stream
kernel in turn); the netlist (engine ``cycle``) steps the live RAMs.
All of them must leave the same machine behind:

* the same outputs for every future, the same datapath ST-REG and the
  same session chains;
* the same reconfiguration cycles, and a datapath that realises the
  target at the end;
* no faults at all: the plan cache orders chunks so that traffic
  between them never reads an unconfigured entry, growth migrations
  included;
* the same cycle and visit probes and no fallback to the netlist on a
  table engine.  The netlist clocks a session lane's pure query on the
  datapath itself, so its probes also count session work; the table
  engines never touch the datapath for a session.  Their probes are
  therefore compared with the netlist's run of the same interleaving
  with the session lanes left out.
"""

import sys
from concurrent.futures import Future
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.plan import plan_supersets
from repro.engine import numpy_available
from repro.engine import streams as _streams
from repro.fleet.plancache import PlanCache
from repro.fleet.worker import MigrationJob, ShardWorker, _Batch
from repro.obs.probes import probe_hardware
from repro.workloads.mutate import grow_target, mutate_target
from repro.workloads.random_fsm import random_fsm

TABLE_KERNELS = ["python"] + (["numpy"] if numpy_available() else [])
SESSIONS = [None, "s1", "s2", "s3"]


@st.composite
def scenarios(draw):
    """A migration pair, its stall budget and an interleaving of chunk
    gaps and serves over the inputs both machines share."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    source = random_fsm(
        n_states=draw(st.integers(min_value=3, max_value=6)),
        n_inputs=2,
        n_outputs=2,
        seed=seed,
    )
    if draw(st.booleans()):
        target = mutate_target(
            source, draw(st.integers(min_value=1, max_value=6)), seed=seed
        )
    else:
        target = grow_target(
            source, draw(st.integers(min_value=1, max_value=2)), seed=seed
        )
    chunks = PlanCache().chunks(source, target)
    largest = max(len(chunk) for chunk in chunks)
    budget = largest + draw(st.integers(min_value=0, max_value=largest))
    common = [i for i in source.inputs if i in set(target.inputs)]
    batch = st.tuples(
        st.sampled_from(SESSIONS),
        st.lists(st.sampled_from(common), min_size=1, max_size=8),
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.just("tick"),
                st.lists(batch, min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=16,
        )
    )
    # One last serve after the commit: every session, fresh tables.
    final = [(session, list(common) * 2) for session in SESSIONS]
    return source, target, chunks, budget, ops, final


def _drive(engine, source, target, chunks, budget, ops, final,
           sessions=True):
    """Run the interleaving on a fresh shard; everything it leaves."""
    superset = plan_supersets([source, target])
    worker = ShardWorker(
        0,
        source,
        extra_inputs=superset.inputs.symbols,
        extra_outputs=superset.outputs.symbols,
        extra_states=superset.states.symbols,
        engine=engine,
    )
    job = worker.begin_migration(
        MigrationJob(target=target, chunks=list(chunks), stall_budget=budget)
    )
    outputs = []

    def serve(lanes):
        batches = [
            _Batch(symbols=tuple(word), future=Future(), session=session)
            for session, word in lanes
            if sessions or session is None
        ]
        if batches:
            worker._serve_run(batches)
            outputs.append([_outcome(batch.future) for batch in batches])

    for op in ops:
        if op == "tick":
            worker._migration_tick()
        else:
            serve(op)
    for _ in range(len(chunks) + 1):
        if job.done.is_set():
            break
        worker._migration_tick()
    serve(final)
    hw = worker.hardware
    probe = probe_hardware(hw)
    return {
        "outputs": outputs,
        "state": hw.state,
        "sessions": dict(worker._sessions),
        "migration_cycles": worker.stats.migration_cycles,
        "verified": job.verified,
        "realises": hw.realises(target),
        "incidents": worker.stats.incidents,
        "probes": (
            probe.cycles_total,
            probe.cycles_normal,
            probe.cycles_reconf,
            probe.cycles_reset,
            probe.state_visits,
        ),
        "fallbacks": worker.stats.engine_fallbacks,
        "table_symbols": worker.stats.engine_symbols,
    }


def _outcome(future):
    """A resolved future's outputs, or its error's type name."""
    error = future.exception()
    return future.result() if error is None else type(error).__name__


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_every_engine_leaves_the_same_machine(scenario):
    netlist = _drive("cycle", *scenario)
    assert netlist["verified"] and netlist["realises"]
    assert netlist["incidents"] == 0
    datapath_only = _drive("cycle", *scenario, sessions=False)
    assert datapath_only["state"] == netlist["state"]
    for engine in TABLE_KERNELS:
        # steer the table backend onto this kernel at every lane count
        threshold = 1 if engine == "numpy" else sys.maxsize
        with mock.patch.object(_streams, "STREAM_THRESHOLD", threshold):
            tables = _drive("table", *scenario)
        for key in (
            "outputs", "state", "sessions", "migration_cycles",
            "verified", "realises", "incidents",
        ):
            assert tables[key] == netlist[key], (engine, key)
        assert tables["probes"] == datapath_only["probes"], engine
        # Every serve, mid-migration ones included, ran on the tables.
        assert tables["fallbacks"] == 0, engine
        assert tables["table_symbols"] == sum(
            len(word)
            for run in [*scenario[4], scenario[5]]
            if run != "tick"
            for _session, word in run
        ), engine
