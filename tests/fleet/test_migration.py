"""Rolling fleet migration: zero downtime, feasibility, fault recovery."""

import threading

import pytest

from repro.fleet import (
    FSMFleet,
    InfeasiblePlanError,
    MigrationScheduler,
)
from repro.workloads.library import sequence_detector
from repro.workloads.mutate import grow_target
from repro.workloads.random_fsm import random_fsm
from repro.workloads.suite import traffic_words


def pattern_pair():
    return sequence_detector("1011"), sequence_detector("0110")


def growth_pair():
    source = random_fsm(n_states=4, seed=9)
    return source, grow_target(random_fsm(n_states=4, seed=9), 2, seed=9)


class TestRollout:
    def test_zero_downtime_under_traffic(self):
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=4, family=[target],
                         queue_depth=256)
        try:
            common = [i for i in source.inputs if i in set(target.inputs)]
            words = traffic_words(source, 80, 12, seed=5, inputs=common)
            holder = {}

            def rollout():
                holder["report"] = MigrationScheduler(
                    fleet, stall_budget=12
                ).rollout(target)

            thread = threading.Thread(target=rollout)
            futures = []
            for index, word in enumerate(words):
                if index == 20:
                    thread.start()
                futures.append(fleet.submit(index, word))
            thread.join(timeout=60)
            for future in futures:
                assert future.result(timeout=10) is not None

            report = holder["report"]
            assert report.verified
            assert report.zero_downtime
            assert report.service_downtime_cycles == 0
            assert len(report.shards) == 4
            assert report.migration_cycles > 0
            assert fleet.machine == target
            # every shard's RAMs were hardware-checked against the target
            for shard in fleet.shards:
                assert shard.hardware.realises(target)
        finally:
            fleet.close()

    def test_rolling_is_one_shard_at_a_time(self):
        # Per-shard wall time must be disjoint: total >= sum of shards.
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=3, family=[target])
        try:
            report = MigrationScheduler(fleet, stall_budget=12).rollout(
                target
            )
            assert report.wall_seconds >= sum(
                shard.wall_seconds for shard in report.shards
            ) * 0.99
        finally:
            fleet.close()

    def test_traffic_after_rollout_uses_target_behaviour(self):
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=2, family=[target])
        try:
            fleet.migrate(target)
            word = list("011001100110")
            for key in ("a", "b", "c"):
                got = fleet.submit(key, word).result(timeout=10)
                assert got == target.run(word)
        finally:
            fleet.close()

    def test_growth_migration_with_new_states(self):
        source, target = growth_pair()
        assert set(target.states) - set(source.states)  # genuinely grows
        fleet = FSMFleet(source, n_workers=2, family=[target],
                         queue_depth=256)
        try:
            common = [i for i in source.inputs if i in set(target.inputs)]
            words = traffic_words(source, 40, 8, seed=6, inputs=common)
            holder = {}

            def rollout():
                holder["report"] = MigrationScheduler(
                    fleet, stall_budget=12
                ).rollout(target)

            thread = threading.Thread(target=rollout)
            futures = []
            for index, word in enumerate(words):
                if index == 10:
                    thread.start()
                futures.append(fleet.submit(index, word))
            thread.join(timeout=60)
            for future in futures:
                future.result(timeout=10)
            assert holder["report"].verified
            assert holder["report"].zero_downtime
        finally:
            fleet.close()

    def test_migration_completes_while_idle(self):
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=2, family=[target])
        try:
            report = fleet.migrate(target)
            assert report.verified and report.zero_downtime
        finally:
            fleet.close()

    def test_fault_then_rollout_heals_and_verifies(self):
        # Erase the entry traffic reads first (reset state, first
        # symbol): the next batch deterministically faults, the shard
        # quarantines and re-seeds, and the rollout afterwards runs on
        # the healed table and verifies.
        from concurrent.futures import Future

        from repro.fleet.worker import _Fault
        from repro.hw.faults import erase_entry

        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=1, family=[target],
                         queue_depth=64)
        try:
            entry = (source.inputs[0], source.reset_state)
            injected: Future = Future()
            fleet.shards[0].queue.put(
                _Fault(
                    inject=lambda hw: erase_entry(hw, entry=entry),
                    future=injected,
                )
            )
            assert injected.result(timeout=10).bit == -1

            word = [source.inputs[0]] * 4
            with pytest.raises(Exception):
                fleet.submit("k", word).result(timeout=10)
            assert fleet.totals().incidents == 1

            report = fleet.migrate(target)
            assert report.verified
            assert report.zero_downtime
            assert fleet.submit("post", word).result(timeout=10) == (
                target.run(word)
            )
        finally:
            fleet.close()

    def test_quarantine_mid_migration_restarts_from_first_chunk(self):
        # Drive a bare (unstarted) worker synchronously: one chunk in,
        # quarantine, then the migration restarts against the fresh
        # table and still completes verified.
        from repro.core.plan import plan_supersets
        from repro.fleet import PlanCache
        from repro.fleet.worker import MigrationJob, ShardWorker

        source, target = pattern_pair()
        superset = plan_supersets([source, target])
        shard = ShardWorker(
            0,
            source,
            extra_inputs=superset.inputs.symbols,
            extra_outputs=superset.outputs.symbols,
            extra_states=superset.states.symbols,
        )
        chunks = PlanCache().chunks(source, target)
        job = shard.begin_migration(
            MigrationJob(target=target, chunks=list(chunks),
                         stall_budget=6)
        )
        shard._migration_tick()  # at most one 6-cycle chunk
        assert not job.done.is_set()
        shard._quarantine(RuntimeError("injected mid-migration"))
        assert job.restarts == 1
        assert shard.stats.incidents == 1
        for _ in range(10 * len(chunks)):
            if job.done.is_set():
                break
            shard._migration_tick()
        assert job.done.is_set()
        assert job.verified
        assert shard.machine == target
        assert shard.hardware.realises(target)

    def test_fault_no_chunk_touches_reruns_instead_of_committing(self):
        # Erase a target entry that no chunk writes or traverses: every
        # chunk still lands, so only the final hardware check can see
        # it.  The shard must quarantine and re-run the migration, not
        # commit an unverified table.
        from repro.core.plan import plan_supersets
        from repro.fleet import PlanCache
        from repro.fleet.worker import MigrationJob, ShardWorker
        from repro.hw.faults import erase_entry

        source, target = pattern_pair()
        superset = plan_supersets([source, target])
        shard = ShardWorker(
            0,
            source,
            extra_inputs=superset.inputs.symbols,
            extra_outputs=superset.outputs.symbols,
            extra_states=superset.states.symbols,
        )
        chunks = PlanCache().chunks(source, target)
        touched = {
            (step.transition.input, step.transition.source)
            for chunk in chunks
            for step in chunk.steps
            if step.transition is not None
        }
        entry = next(
            (t.input, t.source)
            for t in target.transitions()
            if (t.input, t.source) not in touched
            and t.source in source.states
        )
        job = shard.begin_migration(
            MigrationJob(target=target, chunks=list(chunks),
                         stall_budget=6)
        )
        erase_entry(shard.hardware, entry=entry)
        for _ in range(20 * len(chunks)):
            if job.done.is_set():
                break
            shard._migration_tick()
        assert job.done.is_set()
        assert job.verified
        assert job.restarts == 1
        assert shard.stats.incidents == 1
        assert shard.stats.last_error.startswith("MigrationVerifyError")
        assert shard.machine == target
        assert shard.hardware.realises(target)

    def test_unsound_chunks_cap_restarts_instead_of_hanging(self):
        # A deterministically-broken chunk list (fails validation every
        # attempt) must surface as an unverified job, not spin forever.
        from repro.core.plan import plan_supersets
        from repro.fleet.worker import MigrationJob, ShardWorker

        source, target = pattern_pair()
        superset = plan_supersets([source, target])
        shard = ShardWorker(
            0,
            source,
            extra_inputs=superset.inputs.symbols,
            extra_outputs=superset.outputs.symbols,
            extra_states=superset.states.symbols,
        )
        job = shard.begin_migration(
            MigrationJob(target=target, chunks=[], stall_budget=6)
        )
        for _ in range(50):
            if job.done.is_set():
                break
            shard._migration_tick()
        assert job.done.is_set()
        assert job.verified is False
        assert shard.stats.incidents >= 1


class TestFeasibility:
    def test_budget_below_chunk_size_refused(self):
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=1, family=[target])
        try:
            scheduler = MigrationScheduler(fleet, stall_budget=3)
            analysis = scheduler.analyse(target)
            assert not analysis.feasible
            assert "no progress" in analysis.reason
            with pytest.raises(InfeasiblePlanError):
                scheduler.rollout(target)
        finally:
            fleet.close()

    def test_feasible_analysis(self):
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=1, family=[target])
        try:
            analysis = MigrationScheduler(fleet, stall_budget=12).analyse(
                target
            )
            chunks = fleet.plan_cache.chunks(source, target)
            assert analysis.feasible
            assert analysis.reason is None
            assert analysis.chunks_total == len(chunks)
            assert analysis.max_chunk_cycles <= 6
            assert analysis.total_cycles == sum(len(c) for c in chunks)
            assert analysis.priming_cycles == 0  # reset state not new
        finally:
            fleet.close()

    def test_priming_infeasibility_and_force(self):
        # Rename every target state so the target reset state is brand
        # new: its whole row must go live in one gap.  A budget that
        # fits single chunks but not the priming group is refused —
        # unless forced, in which case (with no traffic to endanger) the
        # rollout still completes and verifies.
        from repro.core.fsm import FSM

        source = sequence_detector("1011")
        base = sequence_detector("0110")
        target = FSM(
            base.inputs,
            base.outputs,
            [f"{s}_v2" for s in base.states],
            f"{base.reset_state}_v2",
            {
                (i, f"{s}_v2"): (f"{n}_v2", o)
                for (i, s), (n, o) in base.table.items()
            },
            name="renamed-0110",
        )
        fleet = FSMFleet(source, n_workers=1, family=[target])
        try:
            scheduler = MigrationScheduler(fleet, stall_budget=6)
            analysis = scheduler.analyse(target)
            assert not analysis.feasible
            assert "priming" in analysis.reason
            assert analysis.priming_cycles > 6
            with pytest.raises(InfeasiblePlanError):
                scheduler.rollout(target)
            report = scheduler.rollout(target, force=True)
            assert report.verified
        finally:
            fleet.close()

    def test_double_migration_refused_per_shard(self):
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=1, family=[target])
        try:
            from repro.fleet.worker import MigrationJob

            chunks = fleet.plan_cache.chunks(source, target)
            shard = fleet.shards[0]
            shard.begin_migration(
                MigrationJob(target=target, chunks=list(chunks),
                             stall_budget=12)
            )
            with pytest.raises(RuntimeError, match="in flight"):
                shard.begin_migration(
                    MigrationJob(target=target, chunks=list(chunks),
                                 stall_budget=12)
                )
        finally:
            fleet.close()
