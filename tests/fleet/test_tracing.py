"""Cross-thread trace propagation through the serving fleet.

The contract under test: a trace context captured at
``FSMFleet.submit()`` is re-activated in the worker thread, so the
client's request span, the shard's ``fleet.serve`` span, the
dispatcher's ``exec.dispatch`` span and the backend's
``engine.run_streams`` (netlist: ``engine.run_batch``) span form ONE
connected tree under one trace id —
and every journal event emitted while serving carries that trace id.
"""

import threading

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.incremental import IncrementalMigrator
from repro.exec import Dispatcher
from repro.fleet import FSMFleet, MigrationScheduler
from repro.hw.machine import HardwareFSM
from repro.obs import journal as jr
from repro.obs.journal import migration_timeline
from repro.obs.tracing import TRACER, span
from repro.workloads.library import (
    fig6_m,
    fig6_m_prime,
    ones_detector,
    sequence_detector,
)
from repro.workloads.suite import traffic_words


def _configure(**kwargs):
    obs.configure(**kwargs)


def _spans_by_name(name):
    return [s for s in TRACER.spans if s.name == name]


def _assert_tree_consistent(spans):
    """Every parented span points at a valid, same-trace, shallower span."""
    for record in spans:
        if record.parent is None:
            continue
        assert 0 <= record.parent < len(spans), record
        parent = spans[record.parent]
        assert parent.trace_id == record.trace_id, (record, parent)
        assert parent.depth == record.depth - 1, (record, parent)


class TestRequestTraceTree:
    def setup_method(self):
        _configure(tracing=True, journal=True)

    def teardown_method(self):
        _configure()

    def test_one_request_yields_one_connected_tree(self):
        machine = ones_detector()
        with FSMFleet(machine, n_workers=1, queue_depth=8) as fleet:
            with span("client.request") as root:
                got = fleet.submit("k", list("0110")).result(timeout=10)
        assert got == machine.run(list("0110"))

        spans = list(TRACER.spans)
        _assert_tree_consistent(spans)
        (client,) = _spans_by_name("client.request")
        assert client.parent is None

        (serve,) = _spans_by_name("fleet.serve")
        assert serve.trace_id == client.trace_id
        assert serve.parent == client.index
        assert serve.thread != client.thread  # crossed into the worker

        (dispatch,) = _spans_by_name("exec.dispatch")
        assert dispatch.trace_id == client.trace_id
        assert dispatch.parent == serve.index

        # The table path serves the datapath word as a 1-lane stream
        # batch; the netlist (REPRO_BACKEND=cycle) as one run_batch.
        runs = _spans_by_name("engine.run_streams") + _spans_by_name(
            "engine.run_batch"
        )
        assert runs, "the backend run must be traced"
        for run in runs:
            assert run.trace_id == client.trace_id
            assert run.parent == serve.index

        # The worker-side journal events joined the same trace.
        decisions = jr.JOURNAL.events(type=jr.DISPATCH_DECISION)
        serves = jr.JOURNAL.events(type=jr.SERVE_BATCH)
        assert decisions and serves
        for event in decisions + serves:
            assert event.trace_id == client.trace_id

    def test_untraced_submit_still_serves(self):
        # No client span, no active context: the worker opens a fresh
        # root trace rather than crashing or inheriting garbage.
        machine = ones_detector()
        with FSMFleet(machine, n_workers=1, queue_depth=8) as fleet:
            fleet.submit("k", list("10")).result(timeout=10)
        (serve,) = _spans_by_name("fleet.serve")
        assert serve.parent is None
        assert serve.trace_id


class TestThreadHammer:
    def setup_method(self):
        _configure(tracing=True, journal=True)

    def teardown_method(self):
        _configure()

    def test_eight_threads_every_span_parents_correctly(self):
        machine = ones_detector()
        n_threads, per_thread = 8, 6
        words = traffic_words(machine, n_threads * per_thread, 6, seed=11)
        errors = []

        with FSMFleet(machine, n_workers=4, queue_depth=64) as fleet:
            def client(tid):
                try:
                    for i in range(per_thread):
                        word = words[tid * per_thread + i]
                        # submit-and-wait: one request in flight per
                        # client, each under its own root span.
                        with span("client.request", client=tid):
                            got = fleet.submit((tid, i), word).result(
                                timeout=10
                            )
                        # Shards are long-lived machines (state carries
                        # across batches) — check shape, not values.
                        assert len(got) == len(word)
                except Exception as exc:  # surfaced after join
                    errors.append((tid, exc))

            threads = [
                threading.Thread(target=client, args=(tid,))
                for tid in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, errors

        spans = list(TRACER.spans)
        _assert_tree_consistent(spans)

        clients = _spans_by_name("client.request")
        assert len(clients) == n_threads * per_thread
        # Every request is its own root with a distinct trace id.
        assert all(c.parent is None for c in clients)
        client_traces = {c.trace_id for c in clients}
        assert len(client_traces) == len(clients)

        serves = _spans_by_name("fleet.serve")
        assert serves
        for serve in serves:
            # Every serve joined some client's trace, across threads.
            assert serve.parent is not None
            parent = spans[serve.parent]
            assert parent.name == "client.request"
            assert serve.trace_id in client_traces
            assert serve.thread != parent.thread

        for name in ("exec.dispatch", "engine.run_batch"):
            for record in _spans_by_name(name):
                assert record.parent is not None
                assert spans[record.parent].name == "fleet.serve"

        # Property (a), end to end: every dispatcher decision recorded
        # while serving carries the trace id of a causing request.
        decisions = jr.JOURNAL.events(type=jr.DISPATCH_DECISION)
        assert decisions
        for event in decisions:
            assert event.trace_id in client_traces


class TestDecisionTraceProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(["select", "chunk", "miss", "invalidate"]),
            min_size=1,
            max_size=12,
        )
    )
    def test_every_decision_event_carries_the_causing_trace(self, ops):
        # Property (a) in isolation: drive the dispatcher directly, one
        # fresh trace context per operation; every journal event the
        # operation emits must carry exactly that trace id.
        _configure(journal=True)
        try:
            source, target = fig6_m(), fig6_m_prime()
            hw = HardwareFSM.for_migration(source, target)
            migrator = IncrementalMigrator(hw, source, target)
            dispatcher = Dispatcher(mode="auto", shard="0")
            for op in ops:
                ctx = obs.new_trace()
                mark = jr.JOURNAL.next_seq
                with obs.context.activate(ctx):
                    if op == "select":
                        dispatcher.select(hw)
                    elif op == "chunk":
                        # mid-migration: one chunk gap, then the same
                        # select (recompiling the now-stale view)
                        if not migrator.done:
                            migrator.stall(migrator.next_chunk_cost())
                        dispatcher.select(hw)
                    elif op == "miss":
                        dispatcher.miss(hw)
                    else:
                        # invalidate journals nothing itself; the select
                        # after it recompiles and records its decision
                        dispatcher.invalidate()
                        dispatcher.select(hw)
                emitted = jr.JOURNAL.events(since_seq=mark)
                assert emitted, op  # every op journals something
                for event in emitted:
                    assert event.trace_id == ctx.trace_id, (op, event)
        finally:
            _configure()


class TestMigrationTimelineProperty:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_live_rollout_reconstructs_zero_downtime(self, seed):
        # Property (c): a rolling migration under live traffic must be
        # reconstructable — from journal events alone — into a per-shard
        # timeline proving the zero-downtime window.
        _configure(journal=True)
        try:
            source = sequence_detector("1011")
            target = sequence_detector("0110")
            fleet = FSMFleet(
                source, n_workers=2, family=[target], queue_depth=256
            )
            try:
                common = [
                    i for i in source.inputs if i in set(target.inputs)
                ]
                words = traffic_words(source, 24, 8, seed=seed,
                                      inputs=common)
                holder = {}

                def rollout():
                    holder["report"] = MigrationScheduler(
                        fleet, stall_budget=12
                    ).rollout(target)

                thread = threading.Thread(target=rollout)
                futures = []
                for index, word in enumerate(words):
                    if index == 6:
                        thread.start()
                    futures.append(fleet.submit(index, word))
                thread.join(timeout=60)
                for future in futures:
                    assert future.result(timeout=10) is not None
                report = holder["report"]
            finally:
                fleet.close()

            timeline = migration_timeline(jr.JOURNAL.events())
            assert timeline.completed
            assert timeline.verified
            assert set(timeline.shards) == {"0", "1"}
            # The journal's reconstruction agrees with the scheduler's
            # own first-hand report.
            assert timeline.zero_downtime == report.zero_downtime
            assert timeline.zero_downtime  # and the rollout WAS clean
            for shard in timeline.shards.values():
                assert shard.migration_cycles > 0
                assert shard.rollbacks == 0
            rendered = timeline.render()
            assert "zero-downtime: True" in rendered
        finally:
            _configure()
