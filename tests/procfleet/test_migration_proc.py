"""Rolling migration across worker *processes*: the zero-downtime proof.

The process fleet reuses the thread fleet's migration machinery — each
shard's chunks replay on the parent's canonical datapath, and traffic
in a chunk gap republishes the blend tables (a fresh epoch) and serves
from them in the worker process — so the journal's
``migration_timeline()`` reconstruction must prove zero downtime exactly
as it does in thread mode, with the added cross-process evidence that
post-cutover serving happened in the worker processes against the *new*
tables (a fresh epoch per shard).
"""

import threading

import pytest

from repro.fleet import FSMFleet, MigrationScheduler
from repro.obs import configure
from repro.obs.journal import (
    JOURNAL,
    PROCFLEET_PUBLISH,
    PROCFLEET_WORKER_BATCH,
    migration_timeline,
)
from repro.workloads.library import sequence_detector
from repro.workloads.suite import traffic_words


def pattern_pair():
    return sequence_detector("1011"), sequence_detector("0110")


@pytest.fixture(autouse=True)
def journal_on():
    configure(journal=True)
    yield
    configure()


class TestProcessRollout:
    def test_zero_downtime_under_traffic(self):
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=2, family=[target],
                         queue_depth=256, fleet_mode="process")
        try:
            common = [i for i in source.inputs if i in set(target.inputs)]
            words = traffic_words(source, 40, 12, seed=5, inputs=common)
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
            thread.join(timeout=120)
            for future in futures:
                assert future.result(timeout=30) is not None

            report = holder["report"]
            assert report.verified
            assert report.zero_downtime
            assert report.service_downtime_cycles == 0
            assert fleet.machine == target
            for shard in fleet.shards:
                assert shard.hardware.realises(target)

            # The journal's independent reconstruction agrees.
            timeline = migration_timeline(JOURNAL.events())
            assert timeline.completed
            assert timeline.verified
            assert timeline.zero_downtime

            # Post-cutover traffic served in the worker processes
            # against the target's tables.  The publish of the
            # migrated tables is lazy, on each shard's next
            # *worker-bound* serve — and a shard whose backlog drained
            # before its last chunk publishes the final tables only
            # now — so drive
            # every shard until the latest publish it journaled
            # carries the migrated hardware's table_version (bounded;
            # each batch must still answer with target behaviour).
            def _published():
                per_shard = {}
                for event in JOURNAL.events():
                    if event.type == PROCFLEET_PUBLISH:
                        per_shard.setdefault(event.shard, []).append(
                            event.fields
                        )
                return per_shard

            def _current(per_shard):
                return set(per_shard) == {"0", "1"} and all(
                    per_shard[str(index)][-1]["table_version"]
                    == shard.hardware.table_version
                    for index, shard in enumerate(fleet.shards)
                )

            session_lanes = {shard: [] for shard in range(fleet.n_workers)}
            for key in range(64):
                if _current(_published()):
                    break
                shard = fleet.shard_for(f"post-{key}")
                lane = session_lanes[shard]
                lane.extend("0110")
                got = fleet.submit(
                    f"post-{key}", list("0110")
                ).result(timeout=30)
                assert got == target.run(lane)[-4:]

            per_shard = _published()
            assert _current(per_shard), per_shard
            for shard, publishes in per_shard.items():
                epochs = [p["epoch"] for p in publishes]
                assert epochs == sorted(epochs)

            pids = {
                e.fields["pid"]
                for e in JOURNAL.events()
                if e.type == PROCFLEET_WORKER_BATCH
            }
            assert pids, "no worker-process batches recorded"
            assert pids.issubset(set(fleet.worker_pids().values()))
        finally:
            fleet.close()

    def test_quiet_rollout_completes_and_verifies(self):
        source, target = pattern_pair()
        fleet = FSMFleet(source, n_workers=2, family=[target],
                         fleet_mode="process")
        try:
            report = MigrationScheduler(fleet, stall_budget=12).rollout(
                target
            )
            assert report.verified
            assert report.zero_downtime
            timeline = migration_timeline(JOURNAL.events())
            assert timeline.completed and timeline.verified
        finally:
            fleet.close()
