"""Process-mode replica groups: the acceptance scenarios.

A 3-replica group in process mode serves every frame from one replica
and keeps the others as hot spares: a stopped standby takes no frame,
and a stopped or killed serving replica fails over with zero lost
futures.  The group survives SIGKILL of one replica during a rolling
migration with no quorum loss, ``migration_timeline()`` still
reconstructs zero downtime, and divergence injected into one replica
is detected via fingerprint mismatch and healed by snapshot (segment
republish) catch-up.  Replication is process-mode only: a thread-mode
fleet refuses it before any shard thread starts.
"""

import os
import signal
import threading
import time
from concurrent.futures import Future

import pytest

from repro import api
from repro.cli import main
from repro.fleet import FSMFleet, MigrationScheduler
from repro.fleet.worker import MigrationJob, _Fault
from repro.obs import configure, health
from repro.obs.journal import (
    FLEET_QUARANTINE,
    JOURNAL,
    MIGRATION_SHARD_COMMIT,
    PROCFLEET_WORKER_CRASH,
    REPLICA_CATCH_UP,
    REPLICA_DIVERGED,
    REPLICA_FAILOVER,
    REPLICA_MEMBERSHIP,
    SERVE_BATCH,
    migration_timeline,
)
from repro.replica import MembershipError, ReplicaConfig
from repro.workloads.library import sequence_detector
from repro.workloads.suite import traffic_words

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="no /dev/shm for the process fleet's shared-memory tables",
)


def pattern_pair():
    return sequence_detector("1011"), sequence_detector("0110")


@pytest.fixture
def fleet():
    source, target = pattern_pair()
    pool = FSMFleet(
        source,
        n_workers=2,
        family=[target],
        queue_depth=256,
        fleet_mode="process",
        replication=ReplicaConfig(n=3),
    )
    yield pool
    pool.close()


@pytest.fixture(autouse=True)
def journal_on():
    configure(journal=True)
    yield
    configure()


def _shard0_key(fleet):
    return next(k for k in range(64) if fleet.shard_for(k) == 0)


def _stop(fleet, names, timeout_s=0.5):
    """SIGSTOP the named replicas of shard 0, with a short request
    timeout on their sessions, so a frame routed into one of them costs
    a timeout and a failover; returns their pids."""
    replicas = fleet.shards[0].replica_group._replicas
    pids = []
    for name in names:
        replicas[name].session.request_timeout_s = timeout_s
        pids.append(replicas[name].session.pid)
        os.kill(pids[-1], signal.SIGSTOP)
    return pids


def _resume(fleet, pids):
    """SIGCONT whichever of ``pids`` still serves shard 0 (a respawned
    replica has a fresh pid, and its stopped predecessor is gone)."""
    live = set(fleet.replica_pids()[0].values())
    for pid in pids:
        if pid in live:
            os.kill(pid, signal.SIGCONT)


class TestProcessGroupServing:
    def test_three_replica_processes_per_shard(self, fleet):
        pids = fleet.replica_pids()
        assert set(pids) == {0, 1}
        for shard_pids in pids.values():
            assert set(shard_pids) == {"r0", "r1", "r2"}
            assert len(set(shard_pids.values())) == 3
        # All six replica processes are distinct.
        all_pids = [
            pid for shard in pids.values() for pid in shard.values()
        ]
        assert len(set(all_pids)) == 6

    def test_serving_is_transparent(self, fleet):
        source, _ = pattern_pair()
        words = traffic_words(source, 16, 8, seed=2)
        futures = [fleet.submit(i, w) for i, w in enumerate(words)]
        for future in futures:
            assert len(future.result(timeout=60)) == 8
        for status in fleet.replicas().values():
            assert status.quorum_ok
            assert status.in_sync == 3

    def test_replicas_report_in_sync_and_committed(self, fleet):
        source, _ = pattern_pair()
        for index, word in enumerate(traffic_words(source, 8, 8, seed=3)):
            fleet.submit(index, word).result(timeout=60)
        for status in fleet.replicas().values():
            assert status.n == 3
            assert status.quorum == 2
            assert status.in_sync == 3

    def test_sigkill_one_replica_zero_lost_futures(self, fleet):
        source, _ = pattern_pair()
        victim = fleet.replica_pids()[0]["r1"]
        os.kill(victim, signal.SIGKILL)
        words = traffic_words(source, 24, 8, seed=4)
        futures = [fleet.submit(i, w) for i, w in enumerate(words)]
        lost = sum(
            1 for f in futures if f.exception(timeout=60) is not None
        )
        assert lost == 0
        # The group never lost quorum and journals the failover.
        # Detection is asynchronous: on a loaded host the kernel may
        # reap the killed process *after* the burst resolved (it all
        # coalesces into one frame on a live replica), so poll the
        # status surface — reading it is what notices the death.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = fleet.replicas()[0]
            failovers = list(JOURNAL.events(type=REPLICA_FAILOVER))
            if any(e.fields["replica"] == "r1" for e in failovers):
                break
            time.sleep(0.05)
        assert status.quorum_ok
        assert any(e.fields["replica"] == "r1" for e in failovers)

    def test_killed_replica_catches_up_by_snapshot(self, fleet):
        source, _ = pattern_pair()
        # Publish the tables first: the snapshot the respawn catches up to.
        key = _shard0_key(fleet)
        fleet.submit(key, traffic_words(source, 1, 8)[0]).result(timeout=60)
        victim = fleet.replica_pids()[0]["r1"]
        os.kill(victim, signal.SIGKILL)
        # A frame that finds the standby dead respawns it and probes it
        # against the published snapshot before serving: it rejoins
        # in-sync without ever taking a frame.
        words = traffic_words(source, 24, 8, seed=6)
        for index, word in enumerate(words):
            fleet.submit(index, word).result(timeout=60)
        status = fleet.replicas()[0]
        assert status.in_sync == 3
        catch_ups = list(JOURNAL.events(type=REPLICA_CATCH_UP))
        assert any(
            e.fields["replica"] == "r1"
            and e.fields["via"] == "snapshot"
            for e in catch_ups
        )
        # The respawn is a fresh process.
        assert fleet.replica_pids()[0]["r1"] != victim


    def test_revived_standby_is_counted_as_a_crash(self, fleet):
        group = fleet.shards[0].replica_group
        standby = group._replicas["r1"].session
        old_conn = standby._conn
        victim = standby.pid
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while standby.alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not standby.alive()
        with group._lock:
            group._revive(group._replicas["r1"])
        assert standby.restarts == 1
        crashes = [
            e for e in JOURNAL.events(type=PROCFLEET_WORKER_CRASH)
            if e.shard == standby.label
        ]
        assert len(crashes) == 1
        assert crashes[0].fields["pid"] == victim
        assert old_conn.closed
        assert standby.alive() and standby.pid != victim
        assert group.status().in_sync == 3


class TestHotSpares:
    """One replica serves every frame; the others stand by."""

    def test_stopped_standbys_take_no_frames(self, fleet):
        source, _ = pattern_pair()
        key = _shard0_key(fleet)
        pids = _stop(fleet, ["r1", "r2"])
        try:
            for word in traffic_words(source, 24, 8, seed=21):
                assert len(fleet.submit(key, word).result(timeout=60)) == 8
            assert not list(JOURNAL.events(type=REPLICA_FAILOVER))
            assert fleet.replica_pids()[0]["r1"] == pids[0]
            assert fleet.replica_pids()[0]["r2"] == pids[1]
        finally:
            _resume(fleet, pids)

    def test_stopped_serving_replica_fails_over_once(self, fleet):
        source, _ = pattern_pair()
        key = _shard0_key(fleet)
        # Publish the tables first, so the victim is the serving replica.
        fleet.submit(key, traffic_words(source, 1, 8, seed=22)[0]).result(
            timeout=60
        )
        # The timeout also bounds the respawn's catch-up probe, and a
        # spawn-started worker takes ~0.5 s to boot.
        (victim,) = pids = _stop(fleet, ["r0"], timeout_s=1.5)
        try:
            futures = [
                fleet.submit(key, word)
                for word in traffic_words(source, 24, 8, seed=23)
            ]
            lost = sum(
                1 for f in futures if f.exception(timeout=60) is not None
            )
            assert lost == 0
            failovers = list(JOURNAL.events(type=REPLICA_FAILOVER))
            assert [e.fields["replica"] for e in failovers] == ["r0"]
            assert failovers[0].fields["to"] == "r1"
            assert fleet.replica_pids()[0]["r0"] != victim
            status = fleet.replicas()[0]
            assert status.in_sync == 3
            assert any(
                e.fields["replica"] == "r0" and e.fields["via"] == "snapshot"
                for e in JOURNAL.events(type=REPLICA_CATCH_UP)
            )
        finally:
            _resume(fleet, pids)


class TestSigkillMidMigration:
    def test_rolling_migration_survives_replica_kill(self, fleet):
        source, target = pattern_pair()
        common = [i for i in source.inputs if i in set(target.inputs)]
        words = traffic_words(source, 48, 8, seed=8, inputs=common)
        holder = {}

        def rollout():
            holder["report"] = MigrationScheduler(
                fleet, stall_budget=12
            ).rollout(target)

        thread = threading.Thread(target=rollout)
        futures = []
        for index, word in enumerate(words):
            if index == 8:
                thread.start()
            if index == 16:
                # Mid-rollout: SIGKILL one replica of shard 0.
                os.kill(fleet.replica_pids()[0]["r2"], signal.SIGKILL)
            futures.append(fleet.submit(index, word))
        thread.join(timeout=180)
        assert "report" in holder

        # Zero lost futures.
        lost = sum(
            1 for f in futures if f.exception(timeout=60) is not None
        )
        assert lost == 0
        # Quorum never lost: the rollout verified on every shard and
        # the group still reports quorum.
        report = holder["report"]
        assert report.verified
        for status in fleet.replicas().values():
            assert status.quorum_ok
        # The journal still reconstructs a zero-downtime rollout.
        timeline = migration_timeline(JOURNAL.events())
        assert timeline.zero_downtime
        assert report.zero_downtime

    def test_kill_during_catch_up_is_survivable(self, fleet):
        source, _ = pattern_pair()
        pids = fleet.replica_pids()[0]
        os.kill(pids["r1"], signal.SIGKILL)
        # While r1 is catching up (respawn + segment attach), kill r2:
        # serves fail over to the leader alone, quorum dips but no
        # future is lost, and both replicas eventually rejoin.
        words = traffic_words(source, 8, 8, seed=10)
        futures = [fleet.submit(i, w) for i, w in enumerate(words)]
        os.kill(pids["r2"], signal.SIGKILL)
        more = traffic_words(source, 24, 8, seed=12)
        futures += [fleet.submit(i, w) for i, w in enumerate(more)]
        lost = sum(
            1 for f in futures if f.exception(timeout=60) is not None
        )
        assert lost == 0
        # Sequential serves give every frame's liveness check a chance
        # to find both respawned processes and probe them back against
        # the published snapshot (burst loads coalesce into few frames).
        for index, word in enumerate(traffic_words(source, 12, 8, seed=13)):
            fleet.submit(index, word).result(timeout=60)
        status = fleet.replicas()[0]
        assert status.in_sync == 3
        assert status.quorum_ok


class TestMigrationProc:
    def test_post_migration_divergence_is_clean(self, fleet):
        source, target = pattern_pair()
        common = [i for i in source.inputs if i in set(target.inputs)]
        for index, word in enumerate(
            traffic_words(source, 8, 8, seed=5, inputs=common)
        ):
            fleet.submit(index, word).result(timeout=60)
        report = MigrationScheduler(fleet, stall_budget=12).rollout(target)
        assert report.verified
        for index, word in enumerate(traffic_words(target, 8, 8, seed=7)):
            fleet.submit(index, word).result(timeout=60)
        swept = fleet.check_divergence(heal=False)
        assert swept and not any(
            diverged
            for shard_report in swept.values()
            for diverged in shard_report.values()
        )
        commits = {
            e.shard: e.fields["verified"]
            for e in JOURNAL.events(type=MIGRATION_SHARD_COMMIT)
        }
        assert commits == {"0": True, "1": True}


class TestFaultsProc:
    def test_quarantine_keeps_the_group_in_sync(self, fleet):
        source, _ = pattern_pair()
        upset = fleet.inject_fault(0, kind="erase", seed=7).result(
            timeout=30
        )
        assert upset is not None
        # The erase hits the parent's canonical datapath; serving trips
        # it (the tables miss, the netlist replay raises), the shard
        # quarantines and re-seeds, and the worker processes — which
        # hold no state — stay in sync.
        key = next(k for k in range(64) if fleet.shard_for(k) == 0)
        futures = [
            fleet.submit(key, w)
            for w in traffic_words(source, 10, 8, seed=9)
        ]
        failures = sum(
            1 for f in futures if f.exception(timeout=60) is not None
        )
        assert failures >= 1
        for word in traffic_words(source, 6, 8, seed=13):
            fleet.submit(key, word).result(timeout=60)
        assert fleet.stats()[0].incidents >= 1
        assert fleet.replicas()[0].in_sync == 3
        assert any(
            e.shard == "0" for e in JOURNAL.events(type=FLEET_QUARANTINE)
        )


class TestDivergenceProc:
    def test_desynced_replica_rejoins_quorum_accounting(self, fleet):
        source, _ = pattern_pair()
        for index, word in enumerate(traffic_words(source, 8, 8, seed=15)):
            fleet.submit(index, word).result(timeout=60)
        fleet.shards[0].replica_group.inject_divergence("r1", index=5)
        fleet.check_divergence(heal=False)
        status = fleet.replicas()[0]
        assert status.in_sync == 2
        assert status.quorum_ok  # 2 of 3 still >= quorum 2
        fleet.check_divergence(heal=True)
        assert fleet.replicas()[0].in_sync == 3

    def test_inject_detect_heal_by_republish(self, fleet):
        source, _ = pattern_pair()
        words = traffic_words(source, 8, 8, seed=14)
        for index, word in enumerate(words):
            fleet.submit(index, word).result(timeout=60)

        reply = fleet.shards[0].replica_group.inject_divergence(
            "r2", index=1
        )
        assert reply[0] == "corrupted"

        detected = fleet.check_divergence(heal=False)
        assert detected[0]["r2"]
        assert not detected[0]["r1"]
        diverged = list(JOURNAL.events(type=REPLICA_DIVERGED))
        assert any(e.fields["replica"] == "r2" for e in diverged)
        assert fleet.replicas()[0].in_sync == 2

        healed = fleet.check_divergence(heal=True)
        assert not healed[0]["r2"]
        assert fleet.replicas()[0].in_sync == 3
        catch_ups = [
            e for e in JOURNAL.events(type=REPLICA_CATCH_UP)
            if e.fields["replica"] == "r2"
        ]
        assert any(e.fields["via"] == "republish" for e in catch_ups)

        # The healed group keeps serving correctly.
        for index, word in enumerate(words):
            assert len(fleet.submit(index, word).result(timeout=60)) == 8


class TestMembershipProc:
    def test_replace_replica_under_load(self, fleet):
        source, _ = pattern_pair()
        words = traffic_words(source, 24, 8, seed=16)
        futures = [fleet.submit(i, w) for i, w in enumerate(words)]
        old_pid = fleet.replica_pids()[0]["r1"]
        status = fleet.replace_replica(0, "r1").result(timeout=60)
        assert status.in_sync == 3
        assert status.quorum_ok
        lost = sum(
            1 for f in futures if f.exception(timeout=60) is not None
        )
        assert lost == 0
        assert fleet.replica_pids()[0]["r1"] != old_pid

    def test_replace_is_a_logged_joint_quorum_command(self, fleet):
        status = fleet.replace_replica(0, "r1").result(timeout=60)
        assert status.in_sync == 3
        events = [
            e for e in JOURNAL.events(type=REPLICA_MEMBERSHIP)
            if e.fields["kind"] == "replace"
        ]
        assert len(events) == 1
        assert events[0].shard == "0"
        assert events[0].fields["replica"] == "r1"
        assert events[0].fields["n"] == 3
        assert events[0].fields["quorum"] == 2
        assert events[0].fields["joint_quorum"] == "2->2"

    def test_add_uses_the_spare_slot_then_remove(self, fleet):
        status = fleet.membership(0, "add").result(timeout=60)
        assert status.n == 4
        added = status.replicas[-1].name
        status = fleet.membership(0, "remove", added).result(timeout=60)
        assert status.n == 3
        # The slot is free again: a second add succeeds.
        status = fleet.membership(0, "add").result(timeout=60)
        assert status.n == 4


def _quorum_detector(fleet):
    return next(
        d for d in health.check(fleet).detectors
        if d.name == "replica-quorum"
    )


class TestQuorumHealth:
    def test_replica_quorum_grades_divergence_and_heal(self, fleet):
        source, _ = pattern_pair()
        # Traffic publishes the tables the fingerprints compare against.
        for index, word in enumerate(traffic_words(source, 8, 8, seed=20)):
            fleet.submit(index, word).result(timeout=60)
        assert _quorum_detector(fleet).status == health.STATUS_OK
        fleet.shards[0].replica_group.inject_divergence("r1", index=2)
        assert fleet.check_divergence(heal=False)[0]["r1"]
        # Two of three in sync: quorum (2) still holds, so degraded.
        degraded = _quorum_detector(fleet)
        assert degraded.status == health.STATUS_DEGRADED
        assert degraded.count == 1
        fleet.check_divergence(heal=True)
        assert _quorum_detector(fleet).status == health.STATUS_OK


class TestLogStreamProc:
    def test_one_serve_entry_per_committed_run(self, fleet):
        source, _ = pattern_pair()
        key = next(k for k in range(64) if fleet.shard_for(k) == 0)
        words = traffic_words(source, 6, 8, seed=18)
        # Awaiting each result keeps every batch its own committed run.
        for word in words:
            fleet.submit(key, word).result(timeout=60)
        serves = [
            e for e in JOURNAL.events(type=SERVE_BATCH) if e.shard == "0"
        ]
        assert len(serves) == len(words)
        assert [e.fields["batches"] for e in serves] == [1] * len(words)
        assert [e.fields["symbols"] for e in serves] == [8] * len(words)


class TestMembershipGuards:
    def test_membership_refused_mid_migration(self, fleet):
        source, target = pattern_pair()
        shard = fleet.shards[0]
        gate, entered = threading.Event(), threading.Event()

        def blocker(_hw):
            entered.set()
            gate.wait(timeout=30)

        # Hold the shard thread, hand it a migration job and queue the
        # membership change behind the blocker: the job is in flight
        # when the change is applied, whatever the scheduling.
        shard.queue.put(_Fault(inject=blocker, future=Future()))
        assert entered.wait(timeout=10)
        job = shard.begin_migration(MigrationJob(
            target=target,
            chunks=fleet.plan_cache.chunks(source, target),
            stall_budget=12,
        ))
        refused = fleet.membership(0, "add")
        gate.set()
        with pytest.raises(MembershipError, match="migration"):
            refused.result(timeout=30)
        assert job.done.wait(timeout=60)
        assert job.verified
        # After the commit the same change goes through.
        assert fleet.membership(0, "add").result(timeout=60).n == 4

    def test_fleet_without_replication_refuses_membership(self):
        source, _ = pattern_pair()
        pool = FSMFleet(source, n_workers=1)
        try:
            assert pool.replicas() == {}
            with pytest.raises(RuntimeError, match="no replica group"):
                pool.membership(0, "add").result(timeout=30)
        finally:
            pool.close()


class TestThreadModeRefusesReplication:
    """Followers in the leader's own process share its faults and its
    heals, so thread mode refuses replication before any shard thread
    starts."""

    def test_fsmfleet_raises_before_any_shard_thread(self):
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match='fleet_mode="process"'):
            FSMFleet(
                pattern_pair()[0],
                n_workers=2,
                replication=ReplicaConfig(n=3),
            )
        assert not set(threading.enumerate()) - before

    def test_api_serve_raises_before_any_shard_thread(self):
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match='fleet_mode="process"'):
            api.serve(
                pattern_pair()[0],
                n_workers=2,
                options=api.Options(replicas=3),
            )
        assert not set(threading.enumerate()) - before

    @pytest.mark.parametrize("command", ["fleet", "serve"])
    def test_cli_reports_an_operational_error(self, command, capsys):
        before = set(threading.enumerate())
        assert main([command, "--replicas", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert 'fleet_mode="process"' in err
        assert not set(threading.enumerate()) - before
