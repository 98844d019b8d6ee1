"""Thread-mode replica groups: lockstep followers behind one shard.

One shard = one replica group: the shard's own datapath leads, N-1
follower ``HardwareFSM`` instances apply the same command log in the
same order on the same thread.  These tests pin the group contract —
serving is transparent, every replica converges on the same
architectural state, migration applies the identical chunk sequence to
every replica with zero downtime, membership changes are logged joint-
quorum commands, and fingerprint divergence is detected and healed.
"""

import threading

import pytest

from repro.engine.compiled import CompiledFSM
from repro.fleet import FSMFleet, MigrationScheduler
from repro.obs import configure
from repro.obs.journal import (
    JOURNAL,
    REPLICA_APPEND,
    REPLICA_CATCH_UP,
    REPLICA_DIVERGED,
    REPLICA_MEMBERSHIP,
    migration_timeline,
)
from repro.replica import ReplicaConfig, table_fingerprint
from repro.replica.group import MembershipError
from repro.workloads.library import sequence_detector
from repro.workloads.suite import traffic_words


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
        replication=ReplicaConfig(n=3),
    )
    yield pool
    pool.close()


def serve_traffic(pool, machine, n=20, seed=0):
    words = traffic_words(machine, n, 8, seed=seed)
    futures = [pool.submit(i, w) for i, w in enumerate(words)]
    outs = [f.result(timeout=30) for f in futures]
    for word, out in zip(words, outs):
        assert len(out) == len(word)
    return outs


def fingerprints(shard):
    group = shard.replica_group
    prints = {
        "r0": table_fingerprint(
            CompiledFSM.from_hardware(shard.hardware)
        )
    }
    for name, follower in group._followers.items():
        prints[name] = table_fingerprint(
            CompiledFSM.from_hardware(follower.hardware)
        )
    return prints


class TestServingWithReplication:
    def test_serving_is_transparent(self, fleet):
        source, _ = pattern_pair()
        words = traffic_words(source, 10, 8, seed=1)
        # Single-lane datapath traffic: outputs must equal the bare
        # machine run exactly as without replication.
        state_by_shard = {}
        for index, word in enumerate(words):
            out = fleet.submit(index, word).result(timeout=30)
            shard = fleet.shard_for(index)
            state = state_by_shard.get(shard, source.reset_state)
            expect = []
            for symbol in word:
                state, symbol_out = source.step(symbol, state)
                expect.append(symbol_out)
            state_by_shard[shard] = state
            assert out == expect

    def test_replicas_report_in_sync_and_committed(self, fleet):
        serve_traffic(fleet, pattern_pair()[0])
        for status in fleet.replicas().values():
            assert status.n == 3
            assert status.quorum == 2
            assert status.quorum_ok
            assert status.in_sync == 3
            assert status.commit_index >= 1
            assert status.lag == 0

    def test_all_replicas_share_one_fingerprint(self, fleet):
        serve_traffic(fleet, pattern_pair()[0])
        for shard in fleet.shards:
            prints = fingerprints(shard)
            assert len(set(prints.values())) == 1

    def test_followers_track_the_leader_state(self, fleet):
        serve_traffic(fleet, pattern_pair()[0])
        fleet.drain()
        for shard in fleet.shards:
            for follower in shard.replica_group._followers.values():
                assert follower.hardware.state == shard.hardware.state


class TestMigrationWithReplication:
    def test_rollout_applies_identical_chunks_to_every_replica(self):
        source, target = pattern_pair()
        configure(journal=True)
        try:
            pool = FSMFleet(
                source,
                n_workers=2,
                family=[target],
                queue_depth=256,
                replication=ReplicaConfig(n=3),
            )
            try:
                holder = {}

                def rollout():
                    holder["report"] = MigrationScheduler(
                        pool, stall_budget=12
                    ).rollout(target)

                words = traffic_words(
                    source, 40, 8, seed=3,
                    inputs=[i for i in source.inputs
                            if i in set(target.inputs)],
                )
                thread = threading.Thread(target=rollout)
                futures = []
                for index, word in enumerate(words):
                    if index == 10:
                        thread.start()
                    futures.append(pool.submit(index, word))
                thread.join(timeout=120)
                for future in futures:
                    future.result(timeout=30)

                report = holder["report"]
                assert report.verified
                assert report.zero_downtime
                # Every replica of every shard realises the target.
                for shard in pool.shards:
                    assert shard.hardware.realises(target)
                    group = shard.replica_group
                    for follower in group._followers.values():
                        assert follower.hardware.realises(target)
                    assert len(set(fingerprints(shard).values())) == 1
                    # The log carries the migration as ram_write
                    # entries capped by one retarget commit.
                    kinds = [e.kind for e in group.log.entries()]
                    assert "retarget" in kinds
                # The journal's independent reconstruction agrees.
                timeline = migration_timeline(JOURNAL.events())
                assert timeline.zero_downtime
            finally:
                pool.close()
        finally:
            configure()

    def test_post_migration_divergence_is_clean(self, fleet):
        _, target = pattern_pair()
        MigrationScheduler(fleet, stall_budget=12).rollout(target)
        report = fleet.check_divergence(heal=False)
        assert all(
            not diverged
            for shard_report in report.values()
            for diverged in shard_report.values()
        )


class TestFaultsWithReplication:
    def test_injected_fault_fans_out_to_every_replica(self, fleet):
        serve_traffic(fleet, pattern_pair()[0])
        upset = fleet.inject_fault(0, kind="erase", seed=7).result(
            timeout=30
        )
        assert upset is not None
        fleet.drain()
        # The identically-seeded fault hit every replica: the group
        # still agrees on one (faulted) fingerprint.
        prints = fingerprints(fleet.shards[0])
        assert len(set(prints.values())) == 1

    def test_quarantine_reseeds_the_whole_group(self, fleet):
        source, _ = pattern_pair()
        fleet.inject_fault(0, kind="erase", seed=7).result(timeout=30)
        # Serving traffic trips the detectable erase -> quarantine ->
        # re-seed.  The batch that hits the erased word fails (the
        # pre-replication contract, unchanged); later batches serve
        # from the re-seeded group.
        key = next(
            k for k in range(64) if fleet.shard_for(k) == 0
        )
        words = traffic_words(source, 10, 8, seed=9)
        futures = [fleet.submit(key, w) for w in words]
        failures = sum(
            1 for f in futures if f.exception(timeout=30) is not None
        )
        assert failures >= 1
        serve_traffic(fleet, source, n=6, seed=13)
        fleet.drain()
        assert fleet.stats()[0].incidents >= 1
        status = fleet.replicas()[0]
        assert status.in_sync == 3
        prints = fingerprints(fleet.shards[0])
        assert len(set(prints.values())) == 1


class TestMembership:
    def test_replace_follower_is_a_logged_joint_quorum_command(self, fleet):
        configure(journal=True)
        try:
            serve_traffic(fleet, pattern_pair()[0])
            status = fleet.replace_replica(0, "r1").result(timeout=30)
            assert status.in_sync == 3
            events = [
                e for e in JOURNAL.events(type=REPLICA_MEMBERSHIP)
                if e.fields["kind"] == "replace"
            ]
            assert events
            assert "->" in events[-1].fields["joint_quorum"]
            group = fleet.shards[0].replica_group
            membership = group.log.entries(kind="membership")
            assert membership[-1].payload["op"] == "replace"
        finally:
            configure()

    def test_add_then_remove_adjusts_quorum(self, fleet):
        serve_traffic(fleet, pattern_pair()[0])
        status = fleet.membership(0, "add").result(timeout=30)
        assert status.n == 4
        assert status.in_sync == 4
        added = status.replicas[-1].name
        status = fleet.membership(0, "remove", added).result(timeout=30)
        assert status.n == 3
        assert status.quorum == 2

    def test_leader_cannot_be_removed_or_replaced(self, fleet):
        with pytest.raises(MembershipError):
            fleet.membership(0, "remove", "r0").result(timeout=30)
        with pytest.raises(MembershipError):
            fleet.replace_replica(0, "r0").result(timeout=30)

    def test_membership_refused_mid_migration(self):
        source, target = pattern_pair()
        pool = FSMFleet(
            source,
            n_workers=1,
            family=[target],
            queue_depth=256,
            replication=ReplicaConfig(n=3),
            # Smallest feasible budget: the rollout spans many ticks,
            # so a membership request can land mid-migration.
            stall_budget=6,
        )
        try:
            holder = {}

            def rollout():
                holder["report"] = MigrationScheduler(
                    pool, stall_budget=6
                ).rollout(target)

            thread = threading.Thread(target=rollout)
            thread.start()
            refused = None
            try:
                for _ in range(64):
                    if not thread.is_alive():
                        break
                    try:
                        pool.membership(0, "add").result(timeout=30)
                    except MembershipError as exc:
                        refused = exc
                        break
            finally:
                thread.join(timeout=120)
            assert holder["report"].verified
            if refused is not None:
                assert "migration" in str(refused)
        finally:
            pool.close()

    def test_fleet_without_replication_refuses_membership(self):
        source, _ = pattern_pair()
        pool = FSMFleet(source, n_workers=1)
        try:
            assert pool.replicas() == {}
            with pytest.raises(RuntimeError, match="no replica group"):
                pool.membership(0, "add").result(timeout=30)
        finally:
            pool.close()


class TestDivergence:
    def test_inject_detect_heal(self, fleet):
        source, _ = pattern_pair()
        serve_traffic(fleet, source)
        configure(journal=True)
        try:
            fleet.shards[0].replica_group.inject_divergence("r2", seed=3)
            detected = fleet.check_divergence(heal=False)
            assert detected[0]["r2"]
            assert not detected[0]["r1"]
            assert [
                e.fields["replica"]
                for e in JOURNAL.events(type=REPLICA_DIVERGED)
            ] == ["r2"]

            healed = fleet.check_divergence(heal=True)
            assert not healed[0]["r2"]
            catch_ups = [
                e for e in JOURNAL.events(type=REPLICA_CATCH_UP)
                if e.fields["replica"] == "r2"
            ]
            assert catch_ups and catch_ups[-1].fields["via"] == "rebuild"
        finally:
            configure()
        # The healed replica carries the leader's state and serves.
        prints = fingerprints(fleet.shards[0])
        assert len(set(prints.values())) == 1
        serve_traffic(fleet, source, n=6, seed=11)

    def test_desynced_replica_rejoins_quorum_accounting(self, fleet):
        fleet.shards[0].replica_group.inject_divergence("r1", seed=5)
        fleet.check_divergence(heal=False)
        status = fleet.replicas()[0]
        assert status.in_sync == 2
        assert status.quorum_ok  # 2 of 3 still >= quorum 2
        fleet.check_divergence(heal=True)
        assert fleet.replicas()[0].in_sync == 3


class TestLogStream:
    def test_every_serve_is_an_append(self, fleet):
        configure(journal=True)
        try:
            serve_traffic(fleet, pattern_pair()[0], n=6)
            fleet.drain()
            appends = [
                e for e in JOURNAL.events(type=REPLICA_APPEND)
                if e.fields["kind"] == "serve"
            ]
            assert appends
            group = fleet.shards[0].replica_group
            assert group.log.commit_index >= 1
            assert group.log.commit_index <= group.log.last_index
        finally:
            configure()

    def test_read_rotation_covers_followers(self, fleet):
        group = fleet.shards[0].replica_group
        seen = {id(group.read_hardware()) for _ in range(6)}
        expected = {id(fleet.shards[0].hardware)} | {
            id(f.hardware) for f in group._followers.values()
        }
        assert seen == expected
