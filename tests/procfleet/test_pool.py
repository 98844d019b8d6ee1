"""The process-mode fleet honours the exact FSMFleet caller contract.

Most tests run parametrized over both fleet modes: the assertion that
matters is not just that process mode works, but that its observable
behaviour — outputs, FIFO ordering, backpressure, drain-on-close — is
indistinguishable from thread mode.
"""

import pytest

from repro.engine import EngineError
from repro.exec import BackendUnavailable
from repro.fleet import FleetClosed, FSMFleet
from repro.procfleet import ProcessFleet
from repro.workloads.library import ones_detector
from repro.workloads.suite import traffic_words

MODES = ("thread", "process")


def make_fleet(mode, machine=None, **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("queue_depth", 64)
    return FSMFleet(machine or ones_detector(), fleet_mode=mode, **kwargs)


class TestModeDispatch:
    def test_thread_is_the_default(self):
        with FSMFleet(ones_detector(), n_workers=1) as fleet:
            assert type(fleet) is FSMFleet
            assert fleet.fleet_mode == "thread"

    def test_process_mode_builds_a_process_fleet(self):
        with make_fleet("process") as fleet:
            assert isinstance(fleet, ProcessFleet)
            assert fleet.fleet_mode == "process"
            assert "process" in repr(fleet)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="fleet_mode"):
            FSMFleet(ones_detector(), fleet_mode="fiber")

    def test_process_mode_rejects_foreign_engines(self):
        for engine in ("cycle", "off", "table"):
            with pytest.raises(EngineError, match="table-shm"):
                FSMFleet(ones_detector(), fleet_mode="process", engine=engine)
        # Spellings no backend has are refused in either fleet mode,
        # before any process or thread starts.
        for fleet_mode in ("thread", "process"):
            for engine in ("python", "numpy", "table-py", "table-numpy"):
                with pytest.raises(ValueError, match="'table-shm'"):
                    FSMFleet(
                        ones_detector(), fleet_mode=fleet_mode, engine=engine
                    )

    def test_process_mode_fails_fast_when_shm_disabled(self, monkeypatch):
        # Construction-time resolve: no process or segment is created
        # before the misconfiguration is reported.
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        with pytest.raises(BackendUnavailable, match="REPRO_DISABLE_SHM"):
            FSMFleet(ones_detector(), fleet_mode="process")


class TestServingContract:
    @pytest.mark.parametrize("mode", MODES)
    def test_outputs_match_reference_run(self, mode):
        machine = ones_detector()
        with make_fleet(mode, machine) as fleet:
            served = {index: [] for index in range(fleet.n_workers)}
            for key, word in enumerate(traffic_words(machine, 10, 8, seed=3)):
                shard = fleet.shard_for(key)
                got = fleet.submit(key, word).result(timeout=30)
                served[shard].extend(word)
                assert got == machine.run(served[shard])[-len(word):]

    @pytest.mark.parametrize("mode", MODES)
    def test_per_key_fifo_ordering(self, mode):
        machine = ones_detector()
        words = traffic_words(machine, 16, 5, seed=4)
        with make_fleet(mode, machine) as fleet:
            futures = [fleet.submit("conn-1", w) for w in words]
            outputs = []
            for future in futures:
                outputs.extend(future.result(timeout=30))
        flat = [symbol for word in words for symbol in word]
        assert outputs == machine.run(flat)

    @pytest.mark.parametrize("mode", MODES)
    def test_rejects_unknown_symbol(self, mode):
        with make_fleet(mode) as fleet:
            with pytest.raises(ValueError, match="not serveable"):
                fleet.submit("k", ["bogus"])

    @pytest.mark.parametrize("mode", MODES)
    def test_close_drains_queued_work(self, mode):
        fleet = make_fleet(mode)
        futures = [fleet.submit(key, ["1", "1", "0"]) for key in range(12)]
        fleet.close()
        assert all(f.result(timeout=30) is not None for f in futures)

    @pytest.mark.parametrize("mode", MODES)
    def test_closed_fleet_rejects(self, mode):
        fleet = make_fleet(mode)
        fleet.close()
        fleet.close()  # idempotent
        with pytest.raises(FleetClosed):
            fleet.submit("k", ["1"])


class TestProcessWorkers:
    def test_each_shard_has_its_own_live_process(self):
        import os

        with make_fleet("process", n_workers=2) as fleet:
            fleet.submit("warm", ["1"]).result(timeout=30)
            pids = fleet.worker_pids()
            assert len(pids) == 2
            assert None not in pids.values()
            assert len(set(pids.values())) == 2
            assert os.getpid() not in pids.values()

    def test_serving_runs_in_the_worker_process(self):
        from repro.obs import configure
        from repro.obs.journal import JOURNAL, PROCFLEET_WORKER_BATCH

        configure(journal=True)
        try:
            with make_fleet("process", n_workers=1) as fleet:
                fleet.submit("k", list("0110")).result(timeout=30)
                pid = fleet.worker_pids()[0]
            batches = [
                e for e in JOURNAL.events()
                if e.type == PROCFLEET_WORKER_BATCH
            ]
            assert batches, "no worker-side batch event crossed the pipe"
            assert {e.fields["pid"] for e in batches} == {pid}
        finally:
            configure()

    def test_totals_aggregate_across_processes(self):
        with make_fleet("process", n_workers=2) as fleet:
            for key in range(6):
                fleet.submit(key, ["1", "0"]).result(timeout=30)
            totals = fleet.totals()
            assert totals.batches_ok == 6
            assert totals.symbols_served == 12
