"""Health surface: detectors, thresholds, live-fleet vitals."""

import threading
import time
from concurrent.futures import Future

import pytest

from repro import obs
from repro.fleet import FSMFleet
from repro.fleet.worker import _Fault
from repro.obs import health
from repro.obs import journal as jr
from repro.obs.journal import Journal
from repro.workloads.library import ones_detector
from repro.workloads.mutate import mutate_target
from repro.workloads.random_fsm import random_fsm
from repro.workloads.suite import traffic_words


def _journal_with(event_type, count, ts=None):
    j = Journal(capacity=64, enabled=True)
    stamp = time.time() if ts is None else ts
    for _ in range(count):
        event = j.record(event_type)
        object.__setattr__(event, "ts", stamp)
    return j


def _detector(report, name):
    return next(d for d in report.detectors if d.name == name)


class TestDetectors:
    def test_quiet_journal_is_ok(self):
        report = health.check(journal=Journal(capacity=8, enabled=True))
        assert report.status == health.STATUS_OK
        assert report.http_status == 200
        names = {d.name for d in report.detectors}
        assert names == {"fallback-spike", "queue-saturation"}

    @pytest.mark.parametrize(
        "event_type,name,degraded,critical",
        [
            (jr.EXEC_FALLBACK, "fallback-spike", 5, 20),
            (jr.FLEET_SATURATION, "queue-saturation", 1, 10),
        ],
    )
    def test_thresholds_trip(self, event_type, name, degraded, critical):
        below = health.check(journal=_journal_with(event_type, degraded - 1))
        assert _detector(below, name).status == health.STATUS_OK

        warn = health.check(journal=_journal_with(event_type, degraded))
        assert _detector(warn, name).status == health.STATUS_DEGRADED
        assert warn.status == health.STATUS_DEGRADED
        assert warn.http_status == 200

        page = health.check(journal=_journal_with(event_type, critical))
        assert _detector(page, name).status == health.STATUS_CRITICAL
        assert page.status == health.STATUS_CRITICAL
        assert page.http_status == 503

    def test_old_events_age_out_of_the_window(self):
        old = _journal_with(jr.EXEC_FALLBACK, 50, ts=time.time() - 3600)
        report = health.check(journal=old)
        assert _detector(report, "fallback-spike").count == 0
        assert report.status == health.STATUS_OK

    def test_custom_thresholds(self):
        j = _journal_with(jr.EXEC_FALLBACK, 2)
        tight = health.Thresholds(fallback_degraded=1, fallback_critical=2)
        report = health.check(journal=j, thresholds=tight)
        assert report.status == health.STATUS_CRITICAL

    def test_overall_status_is_worst_detector(self):
        j = Journal(capacity=64, enabled=True)
        for _ in range(5):
            object.__setattr__(
                j.record(jr.EXEC_FALLBACK), "ts", time.time()
            )
        for _ in range(10):
            object.__setattr__(
                j.record(jr.FLEET_SATURATION), "ts", time.time()
            )
        report = health.check(journal=j)
        assert _detector(report, "fallback-spike").status == (
            health.STATUS_DEGRADED
        )
        assert _detector(report, "queue-saturation").status == (
            health.STATUS_CRITICAL
        )
        assert report.status == health.STATUS_CRITICAL

    def test_journal_accounting_reported(self):
        j = Journal(capacity=2, enabled=True)
        for _ in range(5):
            j.record(jr.SERVE_BATCH)
        report = health.check(journal=j)
        assert report.journal_len == 2
        assert report.journal_dropped == 3
        assert report.to_dict()["journal"] == {"events": 2, "dropped": 3}


class TestFleetVitals:
    def test_live_fleet_shard_vitals(self):
        j = Journal(capacity=128, enabled=True)
        with FSMFleet(ones_detector(), n_workers=2, queue_depth=8) as fleet:
            futures = [
                fleet.submit(key, word)
                for key, word in enumerate(
                    traffic_words(ones_detector(), 6, 8, seed=1)
                )
            ]
            for future in futures:
                future.result(timeout=5.0)
            fleet.drain()
            report = health.check(fleet=fleet, journal=j)
        assert report.status == health.STATUS_OK
        assert len(report.shards) == 2
        assert {s.shard for s in report.shards} == {"0", "1"}
        served = sum(s.symbols_served for s in report.shards)
        assert served > 0
        for vital in report.shards:
            assert vital.queue_capacity == 8
            assert not vital.migrating
            if vital.batches_ok:
                assert vital.backend is not None
        # The queue-depth detector only appears with a fleet attached.
        assert _detector(report, "queue-depth").status == health.STATUS_OK
        rendered = health.render(report)
        assert "status: ok" in rendered
        assert "shards:" in rendered

    def test_no_fleet_means_no_queue_detector(self):
        report = health.check(journal=Journal(capacity=8, enabled=True))
        assert all(d.name != "queue-depth" for d in report.detectors)
        assert report.shards == []

    def test_render_without_shards(self):
        report = health.check(journal=Journal(capacity=8, enabled=True))
        text = health.render(report)
        assert text.startswith("status: ok")
        assert "journal:" in text


def _burst_behind_each_job(fleet, word, futures, size=4):
    """Make every shard serve in the middle of its migration.

    When a shard is handed its job, a gate item holds the worker while
    a burst of batches is queued behind the gate; the job is posted,
    then the gate opens.  Each turn of the shard loop serves before it
    runs a chunk gap, so with more than one gap per migration the burst
    is served before the job can finish — by construction, not timing.
    """
    keys = {}
    k = 0
    while len(keys) < fleet.n_workers:
        keys.setdefault(fleet.shard_for(f"burst-{k}"), f"burst-{k}")
        k += 1
    for shard in fleet.shards:

        def begin(job, shard=shard, begin=shard.begin_migration):
            gate = threading.Event()
            shard.queue.put(
                _Fault(inject=lambda hw: gate.wait(10), future=Future())
            )
            for _ in range(size):
                futures.append(fleet.submit(keys[shard.index], word))
            try:
                return begin(job)
            finally:
                gate.set()

        shard.begin_migration = begin


class TestRolloutUnderTraffic:
    def test_zero_downtime_rollouts_keep_the_fleet_ok(self):
        # A healthy rollout is not an incident: serving between chunks
        # runs on the (recompiled) tables, so no backend fallback is
        # journaled and the fallback-spike detector stays quiet.
        # Mid-migration serving is made certain by a burst queued behind
        # each shard's job (see _burst_behind_each_job), since an idle
        # shard runs its chunk gaps back to back.
        obs.configure(journal=True)
        try:
            chain = [random_fsm(n_states=12, n_outputs=2, seed=4)]
            for hop in range(4):
                chain.append(mutate_target(chain[-1], 8, seed=hop))
            words = traffic_words(chain[0], 64, 16, seed=2)
            futures = []
            stop = threading.Event()
            with FSMFleet(
                chain[0], n_workers=2, family=chain[1:], queue_depth=256
            ) as fleet:

                def traffic():
                    # ~1000 requests/s, open loop, until the last hop
                    key = 0
                    while not stop.is_set():
                        futures.append(
                            fleet.submit(key, words[key % len(words)])
                        )
                        key += 1
                        time.sleep(0.001)

                _burst_behind_each_job(fleet, words[0], futures)
                sender = threading.Thread(target=traffic)
                sender.start()
                try:
                    time.sleep(0.05)
                    for target in chain[1:]:
                        report = fleet.migrate(target)
                        assert report.verified and report.zero_downtime
                        # More than one chunk gap per shard: the premise
                        # of the burst construction.
                        assert (
                            report.analysis.total_cycles
                            > report.stall_budget
                        )
                        assert report.shards and all(
                            shard.batches_served_during
                            for shard in report.shards
                        )
                finally:
                    stop.set()
                    sender.join(timeout=10)
                for future in futures:
                    assert len(future.result(timeout=10)) == 16
                fleet.drain()
                report = health.check(fleet=fleet)
                fallbacks = fleet.totals().engine_fallbacks
            assert report.status == health.STATUS_OK, health.render(report)
            assert fallbacks == 0
            assert not jr.JOURNAL.events(type=jr.EXEC_FALLBACK)
        finally:
            obs.configure()
