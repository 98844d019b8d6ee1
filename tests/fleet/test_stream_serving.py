"""Fleet sessions and cross-session stream coalescing.

``submit(key, word, session=...)`` names an independent state chain on
the shard; a quiescent queue coalesces *across* sessions into one
multi-stream kernel call.  The pool contract must hold regardless:
per-session trace continuity, per-shard FIFO future order,
backpressure, session pruning at migration commit, symbolic session
state surviving quarantine — in thread AND process fleet modes, with
the engine on and off.
"""

import threading

import pytest

from repro.engine import numpy_available
from repro.fleet import FleetOverloaded, FSMFleet, MigrationScheduler
from repro.workloads.library import ones_detector, sequence_detector
from repro.workloads.suite import traffic_words

MODES = ("thread", "process")

#: Serving legs, as the indirect ``engine`` fixture reads them: ``off``
#: (the netlist), ``auto``, and ``python`` (the ``table`` backend with
#: the pure-Python stream kernel steered).
ENGINE_MODES_HERE = ["off", "python", "auto"]


def make_fleet(mode, machine=None, **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("queue_depth", 256)
    return FSMFleet(machine or ones_detector(), fleet_mode=mode, **kwargs)


@pytest.mark.parametrize("mode", MODES)
class TestSessionChains:
    def test_sessions_are_independent_streams(self, mode):
        machine = ones_detector()
        with make_fleet(mode, machine) as fleet:
            chains = {name: [] for name in ("a", "b", "c")}
            for round_ in range(6):
                for name in chains:
                    word = traffic_words(
                        machine, 1, 7, seed=hash(name) % 1000 + round_
                    )[0]
                    got = fleet.submit(0, word, session=name).result(
                        timeout=10
                    )
                    chains[name].extend(word)
                    # Each session continues its OWN chain, unaffected
                    # by the interleaved batches of the other sessions.
                    assert got == machine.run(chains[name])[-len(word):]

    def test_datapath_lane_unaffected_by_sessions(self, mode):
        machine = ones_detector()
        with make_fleet(mode, machine, n_workers=1) as fleet:
            served = []
            for key, word in enumerate(traffic_words(machine, 8, 6, seed=2)):
                fleet.submit(key, word, session="s").result(timeout=10)
                got = fleet.submit(key, word).result(timeout=10)
                served.extend(word)
                assert got == machine.run(served)[-len(word):]

    def test_fifo_completion_order_with_mixed_sessions(self, mode):
        machine = ones_detector()
        with make_fleet(mode, machine, n_workers=1) as fleet:
            completions = []
            lock = threading.Lock()
            futures = []
            words = traffic_words(machine, 24, 5, seed=4)
            for index, word in enumerate(words):
                session = ("x", "y", None)[index % 3]
                future = fleet.submit(index, word, session=session)

                def on_done(_f, index=index):
                    with lock:
                        completions.append(index)

                future.add_done_callback(on_done)
                futures.append(future)
            for future in futures:
                assert future.result(timeout=10) is not None
            assert completions == sorted(completions)

    def test_backpressure_counts_session_batches(self, mode):
        with make_fleet(mode, n_workers=1, queue_depth=2) as fleet:
            with pytest.raises(FleetOverloaded):
                for i in range(200):
                    fleet.submit(0, ["1"], session=i)


class TestProcessTransport:
    def test_session_submissions_ride_the_ring(self, monkeypatch):
        # Force the ring on whatever the suite's environment (CI also
        # runs this file under REPRO_DISABLE_RING=1, the pipe leg).
        monkeypatch.delenv("REPRO_DISABLE_RING", raising=False)
        machine = ones_detector()
        with make_fleet("process", machine, n_workers=1) as fleet:
            chains = {"a": [], "b": []}
            words = traffic_words(machine, 6, 5, seed=3)
            for index, word in enumerate(words):
                name = ("a", "b")[index % 2]
                got = fleet.submit(0, word, session=name).result(timeout=10)
                chains[name].extend(word)
                assert got == machine.run(chains[name])[-len(word):]
            session = fleet._sessions[0]
            assert session.ring_requests >= len(words)
            assert session.pipe_requests == 0


@pytest.mark.parametrize("engine", ENGINE_MODES_HERE, indirect=True)
class TestSessionsAcrossEngineModes:
    def test_chains_identical_with_engine_on_and_off(self, engine):
        machine = sequence_detector("1011")
        with FSMFleet(
            machine, n_workers=1, queue_depth=256, engine=engine
        ) as fleet:
            chain = []
            for round_ in range(10):
                word = traffic_words(machine, 1, 9, seed=round_)[0]
                got = fleet.submit(0, word, session="s").result(timeout=10)
                chain.extend(word)
                assert got == machine.run(chain)[-len(word):]

    def test_sessions_survive_quarantine(self, engine):
        # Session state is symbolic, so a re-seeded datapath (same
        # machine) picks every chain up exactly where it stopped.
        machine = sequence_detector("1011")
        with FSMFleet(machine, n_workers=1, engine=engine) as fleet:
            chain = list("1011")
            assert fleet.submit("k", chain[:], session="s").result(
                timeout=10
            ) == machine.run(chain)
            fleet.inject_fault(0, kind="erase", seed=1).result(10)
            for key in range(80):
                word = traffic_words(machine, 1, 8, seed=100 + key)[0]
                try:
                    fleet.submit("k", word).result(timeout=10)
                except Exception:
                    break  # the erased entry was hit; shard re-seeded
            word = list("1011")
            got = fleet.submit("k", word, session="s").result(timeout=10)
            chain.extend(word)
            assert got == machine.run(chain)[-len(word):]


class TestSessionsUnderMigration:
    def test_rollout_prunes_vanished_session_states(self):
        source = sequence_detector("1011")
        target = sequence_detector("0110")
        fleet = FSMFleet(
            source, n_workers=2, family=[target], queue_depth=256,
            engine="auto",
        )
        try:
            common = [i for i in source.inputs if i in set(target.inputs)]
            chains = {}
            for name in ("a", "b"):
                word = traffic_words(source, 1, 8, seed=ord(name))[0]
                fleet.submit(0, word, session=name).result(timeout=10)
                chains[name] = list(word)

            holder = {}

            def rollout():
                holder["report"] = MigrationScheduler(
                    fleet, stall_budget=12
                ).rollout(target)

            thread = threading.Thread(target=rollout)
            thread.start()
            # Keep session traffic flowing during the rollout; every
            # batch must come back (zero downtime).
            for index in range(30):
                word = traffic_words(
                    source, 1, 6, seed=index, inputs=common
                )[0]
                name = ("a", "b")[index % 2]
                assert fleet.submit(
                    0, word, session=name
                ).result(timeout=10) is not None
            thread.join(timeout=60)
            report = holder["report"]
            assert report.verified and report.zero_downtime
            assert fleet.machine == target

            # After commit a session whose parked state vanished from
            # the target restarts from the new reset state; one whose
            # state survived would continue.  Either way the chain the
            # fleet serves now is the *target's*.
            word = traffic_words(target, 1, 8, seed=99)[0]
            got = fleet.submit(0, word, session="fresh").result(timeout=10)
            assert got == target.run(word)
        finally:
            fleet.close()


def _blocked_submits(fleet, submissions):
    """Stall the fleet's single worker on a control item, queue every
    ``(word, session)`` submission behind it, then release: the drain
    coalesces whatever queued into as few runs as the policy allows.
    Returns the futures in submission order."""
    from concurrent.futures import Future

    from repro.fleet.worker import _Fault

    gate = threading.Event()
    entered = threading.Event()

    def blocker(_hw):
        entered.set()
        gate.wait(timeout=30)
        return None

    fleet.shards[0].queue.put(_Fault(inject=blocker, future=Future()))
    assert entered.wait(timeout=10)
    futures = [
        fleet.submit(0, word, session=session)
        for word, session in submissions
    ]
    gate.set()
    return futures


def _datapath_outcome(fleet, words):
    """Everything a coalesced datapath-only run leaves behind: outputs,
    ST-REG state, and cycle and visit probes."""
    from repro.obs.probes import probe_hardware

    futures = _blocked_submits(fleet, [(word, None) for word in words])
    outputs = [future.result(timeout=30) for future in futures]
    fleet.drain()
    shard = fleet.shards[0]
    probe = probe_hardware(shard.hardware)
    return {
        "outputs": outputs,
        "state": shard.hardware.state,
        "cycles": (probe.cycles_total, probe.cycles_normal),
        "visits": probe.state_visits,
    }


class TestCoalescingAcrossSessions:
    @pytest.mark.parametrize(
        "mode,replicas", [("thread", 1), ("process", 1), ("process", 3)]
    )
    def test_datapath_only_run_matches_the_cycle_path(self, mode, replicas):
        # A blocked shard's datapath batches drain as one coalesced
        # 1-lane stream run; it must leave exactly what the netlist
        # stepping the same batches one by one leaves.
        from repro import obs
        from repro.obs import journal as _journal
        from repro.replica import ReplicaConfig

        machine = sequence_detector("1011")
        words = traffic_words(machine, 12, 6, seed=8)
        # Pinned, so a forced REPRO_BACKEND leaves the two paths apart
        # (a process shard always serves through table-shm).
        table_engine = "table" if mode == "thread" else "auto"
        # Replication is process-mode only: the process side runs a
        # replica group of ``replicas`` workers.
        replication = ReplicaConfig(n=replicas) if mode == "process" else None
        obs.configure(journal=True)
        try:
            with make_fleet(
                mode, machine, n_workers=1, engine=table_engine,
                replication=replication,
            ) as fleet:
                table = _datapath_outcome(fleet, words)
            # The table path coalesced: one ``serve.batch`` event per
            # committed run, together covering every symbol.
            serves = list(_journal.JOURNAL.events(type=_journal.SERVE_BATCH))
        finally:
            obs.configure()
        assert 0 < len(serves) < len(words)
        assert sum(e.fields["batches"] for e in serves) == len(words)
        assert sum(e.fields["symbols"] for e in serves) == sum(
            map(len, words)
        )
        with make_fleet("thread", machine, n_workers=1, engine="off") as fleet:
            cycle = _datapath_outcome(fleet, words)
        # Every batch extends the one datapath chain.
        chain = machine.run([symbol for word in words for symbol in word])
        assert table["outputs"] == [
            chain[i:i + 6] for i in range(0, len(chain), 6)
        ]
        assert table == cycle

    def test_blocked_worker_coalesces_sessions_into_one_stream_run(self):
        # Stall the single worker so distinct sessions pile up, then
        # release: the drain serves them as one multi-lane stream batch
        # (visible as an ``exec.stream_batch`` journal event with more
        # than one lane) while every future resolves with its session's
        # own outputs.
        from repro import obs
        from repro.obs import journal as _journal

        machine = ones_detector()
        obs.configure(journal=True)
        fleet = FSMFleet(
            machine, n_workers=1, queue_depth=256, engine="table"
        )
        try:
            words = {
                i: traffic_words(machine, 1, 6, seed=i)[0]
                for i in range(12)
            }
            futures = _blocked_submits(
                fleet, [(words[i], i) for i in range(12)]
            )
            for i, future in enumerate(futures):
                assert future.result(timeout=10) == machine.run(words[i])
            assert fleet.shards[0].stats.batches_ok >= 12
            lanes = [
                event.fields["streams"]
                for event in _journal.JOURNAL.events(
                    type=_journal.EXEC_STREAM_BATCH
                )
            ]
            assert lanes and max(lanes) > 1  # sessions shared one run
        finally:
            fleet.close()
            obs.configure()

    @pytest.mark.skipif(
        not numpy_available(),
        reason="numpy unavailable: every lane count runs the python kernel",
    )
    def test_threshold_wide_run_takes_the_numpy_kernel(self, monkeypatch):
        # STREAM_THRESHOLD distinct sessions drain as one run in auto:
        # the engine picks the numpy lane kernel for it.
        from repro.engine.streams import STREAM_THRESHOLD

        assert _auto_coalesced_run(monkeypatch, STREAM_THRESHOLD) == "numpy"

    def test_session_with_two_queued_batches_is_one_ragged_python_lane(
        self, monkeypatch
    ):
        # One lane short of the threshold, session 0 queues two batches
        # behind the blocked worker, so its lane in the drained run is
        # the longest.  The run stays on the pure-Python kernel, and
        # each future still gets its own slice of its session's chain.
        from repro.engine.streams import STREAM_THRESHOLD

        lanes = STREAM_THRESHOLD - 1
        assert _auto_coalesced_run(monkeypatch, lanes) == "python"


def _auto_coalesced_run(monkeypatch, lanes):
    """Drain one coalesced run of 32 batches (the fleet's coalescing
    bound) over ``lanes`` sessions in ``auto`` — session 0 takes every
    batch past one per session — and check it against a dict stepper.

    Returns the kernel the ``engine.run_streams`` span names.
    """
    # ``auto`` as shipped: a REPRO_BACKEND leg must not steer it away.
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    from repro import obs
    from repro.obs import journal as _journal
    from repro.obs.tracing import TRACER
    from repro.workloads.random_fsm import random_fsm

    machine = random_fsm(n_states=16, n_inputs=4, n_outputs=4, seed=5)
    step = {
        (t.source, t.input): (t.target, t.output)
        for t in machine.transitions()
    }
    words = [
        word[: 4 + i % 13]  # ragged lanes
        for i, word in enumerate(traffic_words(machine, 32, 16, seed=3))
    ]
    submissions = [(word, i % lanes) for i, word in enumerate(words)]
    obs.configure(tracing=True, journal=True)
    fleet = FSMFleet(machine, n_workers=1, queue_depth=256, engine="auto")
    try:
        futures = _blocked_submits(fleet, submissions)
        got = [future.result(timeout=10) for future in futures]
        events = [
            event.fields
            for event in _journal.JOURNAL.events(
                type=_journal.EXEC_STREAM_BATCH
            )
        ]
        kernels = [
            record.attrs.get("kernel") for record in TRACER.spans
            if record.name == "engine.run_streams"
        ]
    finally:
        fleet.close()
        obs.configure()
    states = {}
    want = []
    for word, session in submissions:
        state = states.get(session, machine.reset_state)
        outputs = []
        for symbol in word:
            state, output = step[state, symbol]
            outputs.append(output)
        states[session] = state
        want.append(outputs)
    assert got == want
    # The whole drain is one stream batch over ``lanes`` lanes.
    assert len(events) == len(kernels) == 1
    assert {
        "backend": "table", "streams": lanes, "symbols": sum(map(len, words)),
    }.items() <= events[0].items()
    return kernels[0]
