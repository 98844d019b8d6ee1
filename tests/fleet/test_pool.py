"""Unit tests for the fleet pool: serving, ordering, backpressure, faults."""

import math
import threading
import time

import pytest

from repro.fleet import (
    FleetClosed,
    FleetOverloaded,
    FSMFleet,
)
from repro.workloads.library import ones_detector, sequence_detector
from repro.workloads.suite import traffic_words


@pytest.fixture
def detector_fleet():
    fleet = FSMFleet(ones_detector(), n_workers=2, queue_depth=8)
    yield fleet
    fleet.close()


class TestServing:
    def test_outputs_match_reference_run(self, detector_fleet):
        # A shard is a long-lived machine: state carries across batches,
        # so the reference for each batch is the run over everything the
        # shard has served so far.
        machine = ones_detector()
        served = {index: [] for index in range(detector_fleet.n_workers)}
        for key, word in enumerate(traffic_words(machine, 12, 10, seed=3)):
            shard = detector_fleet.shard_for(key)
            got = detector_fleet.submit(key, word).result(timeout=10)
            served[shard].extend(word)
            assert got == machine.run(served[shard])[-len(word):]

    def test_per_key_fifo_ordering(self):
        # All batches with one key land on one shard in submission order:
        # the concatenated outputs equal one long reference run.
        machine = ones_detector()
        words = traffic_words(machine, 20, 5, seed=4)
        with FSMFleet(machine, n_workers=2, queue_depth=64) as fleet:
            futures = [fleet.submit("conn-1", w) for w in words]
            outputs = []
            for future in futures:
                outputs.extend(future.result(timeout=10))
        flat = [symbol for word in words for symbol in word]
        assert outputs == machine.run(flat)

    def test_same_key_same_shard(self, detector_fleet):
        assert detector_fleet.shard_for("k") == detector_fleet.shard_for("k")

    def test_keys_spread_over_shards(self):
        fleet = FSMFleet(ones_detector(), n_workers=4)
        try:
            shards = {fleet.shard_for(k) for k in range(64)}
            assert len(shards) == 4
        finally:
            fleet.close()

    def test_rejects_unknown_symbol(self, detector_fleet):
        with pytest.raises(ValueError, match="not serveable"):
            detector_fleet.submit("k", ["bogus"])

    def test_rejects_empty_batch(self, detector_fleet):
        with pytest.raises(ValueError, match="empty"):
            detector_fleet.submit("k", [])

    def test_totals_aggregate(self, detector_fleet):
        for key in range(6):
            detector_fleet.submit(key, ["1", "0"]).result(timeout=10)
        totals = detector_fleet.totals()
        assert totals.batches_ok == 6
        assert totals.symbols_served == 12

    def test_batch_seconds_samples_one_run_in_eight(self):
        from repro.obs import configure
        from repro.obs.instruments import FLEET_BATCH_SECONDS

        configure(metrics=True)
        try:
            with FSMFleet(ones_detector(), n_workers=1) as fleet:
                # Each batch is awaited before the next is submitted, so
                # every served run is exactly one batch.
                for _ in range(20):
                    fleet.submit("k", ["1", "0"]).result(timeout=10)
                batches = fleet.totals().batches_ok
            count = FLEET_BATCH_SECONDS.count(shard="0")
        finally:
            configure()
        assert batches == 20
        # Runs 0, 8 and 16 are recorded, each with weight 8.
        assert count == 8 * math.ceil(batches / 8) == 24


class TestBackpressure:
    def test_full_queue_rejects_immediately(self):
        fleet = FSMFleet(ones_detector(), n_workers=1, queue_depth=2)
        try:
            # Stall the single worker with a fault item that blocks, then
            # fill the bounded queue behind it.
            gate = threading.Event()
            entered = threading.Event()

            def blocker(_hw):
                entered.set()
                gate.wait(timeout=30)
                return None

            from repro.fleet.worker import _Fault
            from concurrent.futures import Future

            fleet.shards[0].queue.put(_Fault(inject=blocker, future=Future()))
            assert entered.wait(timeout=10)  # worker is now stalled
            accepted = 0
            with pytest.raises(FleetOverloaded) as excinfo:
                for _ in range(10):
                    fleet.submit("k", ["1"])
                    accepted += 1
            assert accepted == 2  # exactly the queue bound
            assert excinfo.value.shard == 0
            assert fleet.shards[0].stats.rejected >= 1
            gate.set()
        finally:
            fleet.close()

    def test_closed_fleet_rejects(self):
        fleet = FSMFleet(ones_detector(), n_workers=1)
        fleet.close()
        with pytest.raises(FleetClosed):
            fleet.submit("k", ["1"])


class TestFaultHandling:
    def test_erase_fault_quarantines_and_reseeds(self):
        from repro.obs import configure
        from repro.obs.journal import FLEET_QUARANTINE, JOURNAL

        configure(journal=True)
        fleet = FSMFleet(sequence_detector("1011"), n_workers=1,
                         queue_depth=64)
        try:
            assert fleet.submit("k", list("1011")).result(timeout=10)
            upset = fleet.inject_fault(0, kind="erase", seed=1).result(10)
            assert upset.ram == "F"
            # Drive traffic until the erased entry is hit; the failing
            # batch gets the exception, later batches are served by the
            # re-seeded shard.
            errors = []
            for key in range(80):
                word = traffic_words(
                    fleet.machine, 1, 8, seed=100 + key
                )[0]
                try:
                    fleet.submit(key, word).result(timeout=10)
                except Exception as exc:
                    errors.append(type(exc).__name__)
            assert errors
            assert fleet.totals().incidents == len(errors)
            assert fleet.shards[0].stats.last_error is not None
            # One quarantine event per failed batch, naming its error.
            assert [
                e.fields["error"]
                for e in JOURNAL.events(type=FLEET_QUARANTINE)
            ] == errors
            # shard serves again after quarantine + re-seed
            assert fleet.submit("post", list("1011")).result(timeout=10)
            assert fleet.shards[0].is_alive()
        finally:
            fleet.close()
            configure()

    def test_unaffected_shards_keep_serving(self):
        fleet = FSMFleet(sequence_detector("1011"), n_workers=2,
                         queue_depth=64)
        try:
            victim = 0
            other = next(
                key for key in range(100)
                if fleet.shard_for(key) != victim
            )
            fleet.inject_fault(victim, kind="erase", seed=1).result(10)
            outputs = fleet.submit(other, list("1011")).result(timeout=10)
            assert len(outputs) == 4
        finally:
            fleet.close()

    def test_unknown_fault_kind(self, detector_fleet):
        with pytest.raises(ValueError, match="unknown fault kind"):
            detector_fleet.inject_fault(0, kind="gamma-ray")


class TestLifecycle:
    def test_close_drains_queued_work(self):
        fleet = FSMFleet(ones_detector(), n_workers=2, queue_depth=64)
        futures = [
            fleet.submit(key, ["1", "1", "0"]) for key in range(20)
        ]
        fleet.close()  # graceful: everything queued is still served
        assert all(f.result(timeout=10) is not None for f in futures)

    def test_close_idempotent(self):
        fleet = FSMFleet(ones_detector(), n_workers=1)
        fleet.close()
        fleet.close()

    def test_context_manager(self):
        with FSMFleet(ones_detector(), n_workers=1) as fleet:
            fleet.submit("k", ["1"]).result(timeout=10)

    def test_validates_config(self):
        with pytest.raises(ValueError):
            FSMFleet(ones_detector(), n_workers=0)
        with pytest.raises(ValueError):
            FSMFleet(ones_detector(), n_workers=1, queue_depth=0)

    def test_link_latency_is_modelled(self):
        fleet = FSMFleet(ones_detector(), n_workers=1,
                         link_latency_s=0.02)
        try:
            started = time.perf_counter()
            fleet.submit("k", ["1"]).result(timeout=10)
            assert time.perf_counter() - started >= 0.02
        finally:
            fleet.close()
