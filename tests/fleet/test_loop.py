"""The shard loop: driven by work, not by a timer.

Each turn serves at most one coalesced run (or handles one control
item), then runs at most one migration gap; the worker blocks only when
it has neither a batch nor a job.
"""

import threading
import time
from concurrent.futures import Future

from repro.core.plan import plan_supersets
from repro.fleet import FSMFleet, PlanCache
from repro.fleet.worker import (
    _MAX_COALESCE,
    _STOP,
    MigrationJob,
    ShardWorker,
    _Batch,
    _Fault,
)
from repro.workloads.library import sequence_detector

#: One chunk per gap: the most gaps a migration of the pair can take.
BUDGET = 6


def pattern_pair():
    return sequence_detector("1011"), sequence_detector("0110")


def gaps(chunks, budget):
    """Gaps ``IncrementalMigrator.stall`` needs: whole chunks, packed."""
    count, used = 0, budget
    for chunk in chunks:
        if used + len(chunk) > budget:
            count, used = count + 1, 0
        used += len(chunk)
    return count


def new_shard(source, target, **kwargs):
    superset = plan_supersets([source, target])
    return ShardWorker(
        0,
        source,
        extra_inputs=superset.inputs.symbols,
        extra_outputs=superset.outputs.symbols,
        extra_states=superset.states.symbols,
        **kwargs,
    )


def count_calls(shard, name, log, tag):
    """Log ``tag`` on every call of the shard's method ``name``."""
    method = getattr(shard, name)

    def counted(*args):
        log.append(tag)
        return method(*args)

    setattr(shard, name, counted)


def gate(shard):
    """Hold the worker in a control item until the event is set."""
    release = threading.Event()
    shard.queue.put(
        _Fault(inject=lambda hw: release.wait(10), future=Future())
    )
    return release


def joined(fn, timeout=10.0):
    """Run ``fn`` in a thread; whether it returned within ``timeout``."""
    thread = threading.Thread(target=fn, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive()


class TestIdleShard:
    def test_idle_fleet_runs_one_tick_per_gap_and_no_timer(self):
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=1, family=[target],
                         stall_budget=BUDGET)
        try:
            shard = fleet.shards[0]
            ticks = []
            count_calls(shard, "_migration_tick", ticks, "tick")
            time.sleep(0.05)
            assert ticks == []  # an idle worker blocks: no poll timer
            report = fleet.migrate(target)
            assert report.verified and report.zero_downtime
            assert report.shards[0].batches_served_during == 0
            expected = gaps(fleet.plan_cache.chunks(source, target), BUDGET)
            assert expected > 1
            assert len(ticks) == expected
            time.sleep(0.05)
            assert len(ticks) == expected
            # The wake item is accounted: drain() returns.
            assert joined(fleet.drain)
        finally:
            fleet.close()
        assert not shard.is_alive()


class TestBusyShard:
    def test_queue_that_never_empties_runs_one_gap_per_served_run(self):
        source, target = pattern_pair()
        chunks = PlanCache().chunks(source, target)
        n_gaps = gaps(chunks, BUDGET)
        runs = n_gaps + 3
        limit = _MAX_COALESCE
        shard = new_shard(source, target, queue_depth=limit * runs + 2)
        batches = [
            _Batch(symbols=("1", "0"), future=Future())
            for _ in range(limit * runs)
        ]
        for batch in batches:
            shard.queue.put_nowait(batch)
        job = shard.begin_migration(
            MigrationJob(target=target, chunks=list(chunks),
                         stall_budget=BUDGET)
        )
        shard.queue.put_nowait(_STOP)
        log = []
        count_calls(shard, "_serve_run", log, "serve")
        tick = shard._migration_tick
        done_after = []

        def counted_tick():
            log.append("tick")
            tick()
            if job.done.is_set() and not done_after:
                done_after.append(log.count("serve"))

        shard._migration_tick = counted_tick
        shard.run()  # the loop, on this thread; returns after _STOP
        assert job.verified
        # Every served run was followed by exactly one gap, and the job
        # finished while batches were still queued behind it.
        assert log[:2 * runs] == ["serve", "tick"] * runs
        assert done_after == [n_gaps]
        assert all(batch.future.done() for batch in batches)


class TestControl:
    def test_close_with_a_job_in_flight_commits_then_exits(self):
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=1, family=[target])
        shard = fleet.shards[0]
        chunks = fleet.plan_cache.chunks(source, target)
        assert gaps(chunks, BUDGET) > 3  # still in flight after _STOP
        release = gate(shard)
        job = shard.begin_migration(
            MigrationJob(target=target, chunks=list(chunks),
                         stall_budget=BUDGET)
        )
        closer = threading.Thread(
            target=fleet.close, kwargs={"drain": False}
        )
        closer.start()
        deadline = time.monotonic() + 10
        while _STOP not in list(shard.queue.queue):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert not job.done.is_set()
        release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert not shard.is_alive()
        assert job.done.is_set() and job.verified
        assert shard.machine == target
        assert shard.hardware.realises(target)

    def test_begin_migration_on_a_full_queue_returns_at_once(self):
        source, target = pattern_pair()
        shard = new_shard(source, target, queue_depth=1)
        queued = _Batch(symbols=("1",), future=Future())
        shard.queue.put_nowait(queued)
        chunks = PlanCache().chunks(source, target)
        job = MigrationJob(target=target, chunks=list(chunks),
                           stall_budget=BUDGET)
        assert joined(lambda: shard.begin_migration(job), timeout=5)
        assert shard.queue.qsize() == 1
        # The busy worker sees the job anyway: a chunk gap follows every
        # served run, and then the idle queue runs the rest.
        shard.start()
        assert job.done.wait(timeout=10) and job.verified
        assert queued.future.result(timeout=10) is not None
        shard.queue.put(_STOP)
        shard.join(timeout=10)
        assert not shard.is_alive()
