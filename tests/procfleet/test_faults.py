"""Worker-process faults: SIGKILL recovery, epoch skew, segment hygiene.

The invariants under test are the subsystem's two safety promises:

* **no lost futures** — a killed or wedged worker surfaces as a
  :class:`WorkerCrashed` table miss, the in-flight batch replays
  cycle-accurately in the parent, and every submitted future resolves
  (or raises); none ever hangs;
* **no leaked segments** — whatever dies, the parent's owner protocol
  unlinks every ``/dev/shm`` entry it created, because workers never
  own segments in the first place.
"""

import os
import signal
import threading
import time

import pytest

from repro.exec import Dispatcher, TableMiss
from repro.fleet import FSMFleet, MigrationScheduler
from repro.hw.machine import HardwareFSM
from repro.procfleet import (
    ControlBlock,
    ShmTableBackend,
    WorkerCrashed,
    WorkerSession,
)
from repro.workloads.library import ones_detector, sequence_detector
from repro.workloads.suite import traffic_words

shm_fs = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="no /dev/shm to observe segment lifecycle on",
)


def _shm_entries(names):
    return [n for n in names if os.path.exists(f"/dev/shm/{n}")]


@pytest.fixture
def session():
    ctl = ControlBlock.create(1)
    sess = WorkerSession(ctl, slot=0, label="t")
    yield sess
    sess.close()
    ctl.close()


class TestSessionCrashRecovery:
    def test_sigkill_mid_batch_raises_worker_crashed(self, session):
        backend = ShmTableBackend(ones_detector(), session)
        word = list("0110")
        assert backend.run_batch(word).outputs == ones_detector().run(word)
        victim = session.pid
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(WorkerCrashed) as excinfo:
            backend.run_batch(word)
        assert isinstance(excinfo.value, TableMiss)
        assert session.restarts == 1

    def test_session_reseeds_a_fresh_process(self, session):
        from repro.obs import configure
        from repro.obs.journal import (
            JOURNAL,
            PROCFLEET_ATTACH,
            PROCFLEET_WORKER_CRASH,
            PROCFLEET_WORKER_SPAWN,
        )

        configure(journal=True)
        try:
            backend = ShmTableBackend(ones_detector(), session)
            victim = session.pid
            os.kill(victim, signal.SIGKILL)
            with pytest.raises(WorkerCrashed):
                backend.run_batch(["1"])
            assert session.alive()
            assert session.pid != victim
            # The respawned stateless worker serves immediately.
            word = list("1011")
            assert backend.run_batch(
                word, start=backend.compiled.reset_state, commit=False
            ).outputs == ones_detector().run(word)

            def pids(event_type):
                return [
                    e.fields["pid"] for e in JOURNAL.events(type=event_type)
                ]

            assert pids(PROCFLEET_WORKER_CRASH) == [victim]
            assert pids(PROCFLEET_WORKER_SPAWN) == [victim, session.pid]
            # The fresh process attached the segment the parent
            # published, under the epoch that publish returned.
            attach = JOURNAL.events(type=PROCFLEET_ATTACH)[-1]
            assert attach.fields["pid"] == session.pid
            assert attach.fields["epoch"] == backend.epoch
        finally:
            configure()

    def test_wedged_worker_is_killed_not_waited_on(self, session):
        session.request_timeout_s = 0.5
        backend = ShmTableBackend(ones_detector(), session)
        victim = session.pid
        os.kill(victim, signal.SIGSTOP)  # wedged: alive but silent
        started = time.perf_counter()
        with pytest.raises(WorkerCrashed, match="died"):
            backend.run_batch(["1"])
        assert time.perf_counter() - started < 10
        assert session.pid != victim

    def test_closed_session_refuses_requests(self, session):
        ShmTableBackend(ones_detector(), session)
        session.close()
        with pytest.raises(WorkerCrashed, match="closed"):
            session.request(("ping",))


@shm_fs
class TestSegmentHygiene:
    def test_sigkill_leaves_no_shm_leak(self, session):
        backend = ShmTableBackend(ones_detector(), session)
        segment = session.segment
        ctl_name = session.ctl.name
        assert _shm_entries([segment, ctl_name]) == [segment, ctl_name]
        os.kill(session.pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashed):
            backend.run_batch(["1"])
        owned = [session.segment]
        session.close()
        session.ctl.close()
        assert _shm_entries([segment, ctl_name] + owned) == []

    def test_fleet_close_unlinks_everything(self):
        fleet = FSMFleet(ones_detector(), n_workers=2, fleet_mode="process")
        fleet.submit("k", ["1", "0"]).result(timeout=30)
        names = [fleet._ctl.name]
        for sess in fleet._sessions:
            names.extend(sess.owner.owned())
        assert _shm_entries(names) == names  # all live while serving
        fleet.close()
        assert _shm_entries(names) == []

    def test_invalidate_retires_the_published_segment(self, session):
        backend = ShmTableBackend(ones_detector(), session)
        segment = session.segment
        assert _shm_entries([segment]) == [segment]
        backend.invalidate()
        assert session.segment is None
        assert _shm_entries([segment]) == []


class TestEpochSkew:
    def test_shared_slot_contention_self_heals(self, session):
        # Two backends share one slot (the standalone-session shape).
        # Each publish moves the slot's epoch past the other backend's
        # expectation; both must keep serving via republish-and-retry.
        first = ShmTableBackend(ones_detector(), session)
        second = ShmTableBackend(sequence_detector("1011"), session)
        assert second.epoch > first.epoch
        word = list("1011")
        run = first.run_batch(
            word, start=first.compiled.reset_state, commit=False
        )
        assert run.outputs == ones_detector().run(word)
        assert first.epoch > second.epoch  # healed by republishing
        run = second.run_batch(
            word, start=second.compiled.reset_state, commit=False
        )
        assert run.outputs == sequence_detector("1011").run(word)

    def test_skew_is_journaled(self, session):
        from repro.obs import configure
        from repro.obs.journal import JOURNAL, PROCFLEET_EPOCH_SKEW

        configure(journal=True)
        try:
            first = ShmTableBackend(ones_detector(), session)
            ShmTableBackend(sequence_detector("1011"), session)
            first.run_batch(
                ["1"], start=first.compiled.reset_state, commit=False
            )
            skews = [
                e for e in JOURNAL.events()
                if e.type == PROCFLEET_EPOCH_SKEW
            ]
            assert skews
            assert skews[0].fields["expected"] == first.epoch - 2
        finally:
            configure()


class TestFleetCrashRecovery:
    def test_no_lost_futures_when_worker_dies_under_load(self):
        machine = ones_detector()
        fleet = FSMFleet(machine, n_workers=1, queue_depth=256,
                         fleet_mode="process")
        try:
            fleet.submit("warm", ["1"]).result(timeout=30)
            victim = fleet.worker_pids()[0]
            words = traffic_words(machine, 30, 6, seed=7)
            futures = [fleet.submit(i, w) for i, w in enumerate(words)]
            os.kill(victim, signal.SIGKILL)
            # Every future resolves: served by the worker, replayed in
            # the parent on the miss, or served by the reseeded process.
            for future in futures:
                assert future.result(timeout=60) is not None
            # Traffic keeps flowing afterwards.
            assert fleet.submit("post", ["1", "1"]).result(timeout=30)
        finally:
            fleet.close()

    def test_crash_mid_migration_quarantines_and_reseeds(self):
        source, target = (
            sequence_detector("1011"), sequence_detector("0110")
        )
        fleet = FSMFleet(source, n_workers=2, family=[target],
                         queue_depth=256, fleet_mode="process")
        try:
            fleet.submit("warm", list("1011")).result(timeout=30)
            victims = list(fleet.worker_pids().values())
            common = [i for i in source.inputs if i in set(target.inputs)]
            words = traffic_words(source, 30, 8, seed=9, inputs=common)
            holder = {}

            def rollout():
                holder["report"] = MigrationScheduler(
                    fleet, stall_budget=12
                ).rollout(target)

            thread = threading.Thread(target=rollout)
            futures = []
            for index, word in enumerate(words):
                if index == 5:
                    thread.start()
                if index == 10:
                    for victim in victims:
                        os.kill(victim, signal.SIGKILL)
                futures.append(fleet.submit(index, word))
            thread.join(timeout=120)
            assert not thread.is_alive()
            # No future hangs: each resolves or raises, nothing more.
            for future in futures:
                try:
                    future.result(timeout=60)
                except Exception:
                    pass
            report = holder["report"]
            assert report.verified
            assert fleet.machine == target
            # Reseed is lazy (a shard notices the dead process on its
            # next worker-bound serve): one post-cutover batch through
            # every shard, each answering with target behaviour...
            key = 0
            shards_hit = set()
            while len(shards_hit) < fleet.n_workers:
                shard = fleet.shard_for(f"post-{key}")
                if shard not in shards_hit:
                    got = fleet.submit(
                        f"post-{key}", list("0110")
                    ).result(timeout=30)
                    assert got == target.run(list("0110"))
                    shards_hit.add(shard)
                key += 1
            # ...after which every shard runs a fresh worker process.
            fresh = fleet.worker_pids()
            assert None not in fresh.values()
            assert not set(fresh.values()) & set(victims)
        finally:
            fleet.close()


class TestDispatcherFallback:
    def test_crash_replay_matches_reference(self, session):
        # The dispatcher's miss path must yield bit-identical outputs
        # when the worker dies: replay happens on the parent's netlist
        # from the identical architectural state.
        machine = ones_detector()
        hw = HardwareFSM(machine)
        ref = HardwareFSM(machine)
        dispatcher = Dispatcher(
            "table-shm", factory=lambda h: ShmTableBackend(h, session)
        )
        word = list("011010")
        decision = dispatcher.select(hw)
        assert decision.name == "table-shm"
        outputs = decision.backend.run_batch(word).outputs
        assert outputs == [ref.step(s) for s in word]
        os.kill(session.pid, signal.SIGKILL)
        try:
            decision.backend.run_batch(word)
        except TableMiss:
            decision = dispatcher.miss(hw)
        outputs = decision.backend.run_batch(word).outputs
        assert outputs == [ref.step(s) for s in word]
