"""Fleet serving through the batch engine: equivalence, order, fallback.

The pool's contract — outputs, per-shard FIFO future-completion order,
backpressure, fault/quarantine semantics, zero-downtime migration — must
be byte-identical with the engine on (coalesced compiled-table runs) and
off (cycle-accurate per-symbol serving).  These tests pin that, plus the
engine-specific behaviour: coalescing statistics and transparent
recompilation after faults and migrations.
"""

import threading

import pytest

from repro.engine import numpy_available
from repro.fleet import FleetOverloaded, FSMFleet, MigrationScheduler
from repro.workloads.library import ones_detector, sequence_detector
from repro.workloads.suite import traffic_words

#: Serving legs, as the indirect ``engine`` fixture reads them: ``off``
#: (the netlist), ``auto``, and ``python`` / ``numpy`` (the ``table``
#: backend with that stream kernel steered).
ENGINE_MODES_HERE = [
    m for m in ("off", "python", "auto", "numpy")
    if m != "numpy" or numpy_available()
]


def pattern_pair():
    return sequence_detector("1011"), sequence_detector("0110")


@pytest.mark.parametrize("engine", ENGINE_MODES_HERE, indirect=True)
class TestEquivalenceAcrossModes:
    def test_outputs_match_reference_run(self, engine):
        machine = ones_detector()
        fleet = FSMFleet(machine, n_workers=2, engine=engine)
        try:
            served = {index: [] for index in range(fleet.n_workers)}
            for key, word in enumerate(traffic_words(machine, 16, 9, seed=3)):
                shard = fleet.shard_for(key)
                got = fleet.submit(key, word).result(timeout=10)
                served[shard].extend(word)
                assert got == machine.run(served[shard])[-len(word):]
        finally:
            fleet.close()

    def test_probe_counters_track_served_symbols(self, engine):
        machine = ones_detector()
        fleet = FSMFleet(machine, n_workers=1, engine=engine)
        try:
            words = traffic_words(machine, 6, 8, seed=1)
            for key, word in enumerate(words):
                fleet.submit(key, word).result(timeout=10)
            n_symbols = sum(len(w) for w in words)
            assert fleet.shards[0].hardware.cycles == n_symbols
            assert fleet.totals().symbols_served == n_symbols
        finally:
            fleet.close()

    def test_backpressure_identical(self, engine):
        fleet = FSMFleet(
            ones_detector(), n_workers=1, queue_depth=2, engine=engine
        )
        try:
            gate = threading.Event()
            entered = threading.Event()

            def blocker(_hw):
                entered.set()
                gate.wait(timeout=30)
                return None

            from concurrent.futures import Future

            from repro.fleet.worker import _Fault

            fleet.shards[0].queue.put(_Fault(inject=blocker, future=Future()))
            assert entered.wait(timeout=10)
            accepted = 0
            with pytest.raises(FleetOverloaded):
                for _ in range(10):
                    fleet.submit("k", ["1"])
                    accepted += 1
            assert accepted == 2  # exactly the queue bound, engine or not
            gate.set()
        finally:
            fleet.close()


class TestEngineStats:
    def test_engine_mode_serves_through_compiled_tables(self):
        machine = ones_detector()
        fleet = FSMFleet(machine, n_workers=1, engine="table")
        try:
            words = traffic_words(machine, 8, 6, seed=2)
            for key, word in enumerate(words):
                fleet.submit(key, word).result(timeout=10)
            totals = fleet.totals()
            assert totals.engine_batches > 0
            assert totals.engine_symbols == sum(len(w) for w in words)
            assert totals.batches_ok == len(words)
        finally:
            fleet.close()

    def test_engine_off_never_touches_the_engine(self):
        machine = ones_detector()
        fleet = FSMFleet(machine, n_workers=1, engine="off")
        try:
            for key, word in enumerate(traffic_words(machine, 4, 6, seed=2)):
                fleet.submit(key, word).result(timeout=10)
            totals = fleet.totals()
            assert totals.engine_batches == 0
            assert totals.engine_symbols == 0
            assert totals.engine_fallbacks == 0
        finally:
            fleet.close()

    def test_coalescing_merges_queued_batches(self):
        # Stall the worker, queue several batches, release: the engine
        # serves them as one coalesced run (fewer runs than batches)
        # while every future still resolves with its own outputs.
        machine = ones_detector()
        fleet = FSMFleet(
            machine, n_workers=1, queue_depth=64, engine="table"
        )
        try:
            gate = threading.Event()
            entered = threading.Event()

            def blocker(_hw):
                entered.set()
                gate.wait(timeout=30)
                return None

            from concurrent.futures import Future

            from repro.fleet.worker import _Fault

            fleet.shards[0].queue.put(_Fault(inject=blocker, future=Future()))
            assert entered.wait(timeout=10)
            words = traffic_words(machine, 10, 5, seed=4)
            futures = [
                fleet.submit("k", word) for word in words
            ]
            gate.set()
            stream = []
            for future, word in zip(futures, words):
                got = future.result(timeout=10)
                stream.extend(word)
                assert got == machine.run(stream)[-len(word):]
            stats = fleet.shards[0].stats
            assert stats.engine_batches == len(words)
            # all ten batches were already queued: one engine run took
            # them all (bounded only by _MAX_COALESCE)
            assert stats.engine_symbols == sum(len(w) for w in words)
        finally:
            fleet.close()


@pytest.mark.parametrize("engine", ["off", "python"], indirect=True)
class TestFaultSemantics:
    def test_erase_fault_quarantines_and_recovers(self, engine):
        fleet = FSMFleet(
            sequence_detector("1011"), n_workers=1, engine=engine
        )
        try:
            assert fleet.submit("k", list("1011")).result(timeout=10)
            upset = fleet.inject_fault(0, kind="erase", seed=1).result(10)
            assert upset.ram == "F"
            failed = 0
            for key in range(80):
                word = traffic_words(fleet.machine, 1, 8, seed=100 + key)[0]
                try:
                    fleet.submit("k", word).result(timeout=10)
                except Exception:
                    failed += 1
            assert failed >= 1  # the erased entry was eventually hit
            assert fleet.shards[0].stats.incidents >= 1
            # the re-seeded shard serves again (engine recompiled if on)
            word = list("1011")
            assert fleet.submit("k", word).result(timeout=10) is not None
        finally:
            fleet.close()


class TestMigrationUnderBatching:
    """Satellite regression: rolling migration with engine batching on.

    Interleaves submits during the rollout and asserts the pool contract
    end to end — per-shard FIFO future-completion order, zero downtime,
    hardware-verified rollout — exactly as with the engine off.
    """

    @pytest.mark.parametrize("engine", ENGINE_MODES_HERE, indirect=True)
    def test_fifo_order_and_zero_downtime_during_rollout(self, engine):
        source, target = pattern_pair()
        fleet = FSMFleet(
            source, n_workers=4, family=[target], queue_depth=256,
            engine=engine,
        )
        try:
            common = [i for i in source.inputs if i in set(target.inputs)]
            words = traffic_words(source, 80, 12, seed=5, inputs=common)
            holder = {}

            def rollout():
                holder["report"] = MigrationScheduler(
                    fleet, stall_budget=12
                ).rollout(target)

            thread = threading.Thread(target=rollout)
            completion_order = {s: [] for s in range(fleet.n_workers)}
            order_lock = threading.Lock()
            futures = []
            for index, word in enumerate(words):
                if index == 20:
                    thread.start()
                shard = fleet.shard_for(index)
                future = fleet.submit(index, word)

                def on_done(_f, shard=shard, index=index):
                    with order_lock:
                        completion_order[shard].append(index)

                future.add_done_callback(on_done)
                futures.append(future)
            thread.join(timeout=60)
            for future in futures:
                assert future.result(timeout=10) is not None

            # per-shard FIFO: futures completed in submission order even
            # though the worker coalesced runs and fell back mid-rollout
            for shard, seen in completion_order.items():
                assert seen == sorted(seen), (
                    f"shard {shard} completed futures out of order"
                )

            report = holder["report"]
            assert report.verified
            assert report.zero_downtime
            assert report.service_downtime_cycles == 0
            assert fleet.machine == target
            for shard in fleet.shards:
                assert shard.hardware.realises(target)
        finally:
            fleet.close()

    def test_traffic_after_rollout_served_by_recompiled_tables(self):
        source, target = pattern_pair()
        fleet = FSMFleet(
            source, n_workers=2, family=[target], engine="table"
        )
        try:
            before = fleet.totals().engine_symbols
            report = MigrationScheduler(fleet, stall_budget=12).rollout(
                target
            )
            assert report.verified
            served = {index: [] for index in range(fleet.n_workers)}
            for key, word in enumerate(
                traffic_words(target, 12, 9, seed=8)
            ):
                shard = fleet.shard_for(key)
                got = fleet.submit(key, word).result(timeout=10)
                served[shard].extend(word)
                assert got == target.run(served[shard])[-len(word):]
            assert fleet.totals().engine_symbols > before
        finally:
            fleet.close()
