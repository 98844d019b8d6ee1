"""The dispatcher's policy: which backend serves, and why.

Every rule — engine off, stale view (a live migration's chunk gaps
included), table miss, forced backend gone — has a direct test against
:class:`repro.exec.Dispatcher`.
"""

import pytest

from repro.core.incremental import IncrementalMigrator
from repro.engine import numpy_available
from repro.exec import (
    BackendUnavailable,
    CycleBackend,
    Dispatcher,
    TableBackend,
    TableMiss,
)
from repro.hw.faults import erase_entry
from repro.hw.machine import HardwareFSM
from repro.hw.memory import UninitialisedRead
from repro.workloads.library import fig6_m, fig6_m_prime, ones_detector


def _auto_table():
    # auto serves on the in-process tables at every stream width (the
    # engine picks the kernel per call)
    return "table"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_SHM", raising=False)


@pytest.fixture
def hw():
    return HardwareFSM(ones_detector())


class TestConstruction:
    def test_mode_is_canonicalised(self):
        assert Dispatcher("off").mode == "cycle"
        assert Dispatcher("table").mode == "table"
        assert Dispatcher("shm").mode == "table-shm"
        assert Dispatcher().mode == "auto"

    def test_unknown_mode_fails_fast(self):
        for mode in ("cuda", "python", "numpy", "table-py", "table-numpy"):
            with pytest.raises(
                ValueError, match=rf"backend '{mode}'.*'table-shm'"
            ):
                Dispatcher(mode)

    def test_forced_unavailable_fails_fast(self, monkeypatch):
        # A fleet must refuse to start on an impossible request, not
        # discover it batch by batch.
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        with pytest.raises(BackendUnavailable):
            Dispatcher("shm")


class TestSelect:
    def test_cycle_mode_serves_on_the_netlist(self, hw):
        decision = Dispatcher("off").select(hw)
        assert isinstance(decision.backend, CycleBackend)
        assert decision.name == "cycle"
        assert decision.reason == "policy"
        assert not decision.degraded

    def test_auto_mode_compiles_then_caches(self, hw):
        dispatcher = Dispatcher()
        first = dispatcher.select(hw)
        assert isinstance(first.backend, TableBackend)
        assert first.name == _auto_table()
        assert (first.reason, first.degraded) == ("compiled", False)
        second = dispatcher.select(hw)
        assert second.backend is first.backend
        assert second.reason == "cached"

    def test_one_view_serves_every_stream_width(self, hw, stream_kernels):
        # One lane and a wide batch are served by the same table
        # backend over one compiled view per table_version (the engine
        # picks the kernel per call); a RAM write recompiles it once.
        fsm = ones_detector()
        dispatcher = Dispatcher()
        narrow = dispatcher.select(hw, streams=1)
        wide = dispatcher.select(hw, streams=32)
        assert narrow.name == wide.name == "table"
        assert wide.backend is narrow.backend
        view = narrow.backend.compiled
        assert (narrow.reason, wide.reason) == ("compiled", "cached")
        for words in ([["1", "0"]], [["1", "1", "0"], ["0", "1"]] * 16):
            runs = wide.backend.run_streams(words)
            assert [r.outputs for r in runs] == list(map(fsm.run, words))
        assert stream_kernels() == [
            "python", "numpy" if numpy_available() else "python"
        ]

        erase_entry(hw, entry=("0", "S0"))
        wide = dispatcher.select(hw, streams=32)
        narrow = dispatcher.select(hw, streams=1)
        assert view.is_stale()
        assert (wide.reason, narrow.reason) == ("compiled", "cached")
        assert narrow.backend.compiled is wide.backend.compiled
        assert narrow.backend.compiled is not view

    def test_stale_view_recompiles_transparently(self, hw):
        dispatcher = Dispatcher()
        first = dispatcher.select(hw)
        erase_entry(hw, seed=0)
        second = dispatcher.select(hw)
        assert second.reason == "compiled"
        assert second.backend is not first.backend
        assert first.backend.is_stale()  # the old view was invalidated

    def test_hardware_replacement_recompiles(self, hw):
        dispatcher = Dispatcher()
        first = dispatcher.select(hw)
        replacement = HardwareFSM(ones_detector())
        second = dispatcher.select(replacement)
        assert second.reason == "compiled"
        assert second.backend is not first.backend
        assert second.backend.hardware is replacement

    def test_backend_vanishing_mid_serve_degrades(self, hw, monkeypatch):
        dispatcher = Dispatcher("shm")  # available at construction
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")  # ... then gone
        decision = dispatcher.select(hw)
        assert isinstance(decision.backend, CycleBackend)
        assert (decision.reason, decision.degraded) == ("unavailable", True)

    def test_served_outputs_match_across_policies(self, hw):
        # Whatever the policy picks, the words are the same.
        fsm = ones_detector()
        word = ["1", "0", "1", "1"]
        for mode in ("off", "auto"):
            fresh = HardwareFSM(fsm)
            decision = Dispatcher(mode).select(fresh)
            assert decision.backend.run_batch(word).outputs == fsm.run(word)


class TestMiss:
    def test_miss_replays_on_the_netlist(self, hw):
        dispatcher = Dispatcher()
        dispatcher.select(hw)
        decision = dispatcher.miss(hw)
        assert isinstance(decision.backend, CycleBackend)
        assert (decision.reason, decision.degraded) == ("unconfigured", True)

    def test_miss_before_any_table_is_fine(self, hw):
        decision = Dispatcher().miss(hw)
        assert decision.name == "cycle"


class TestInvalidate:
    def test_invalidate_drops_every_cached_backend(self, hw):
        dispatcher = Dispatcher()
        table = dispatcher.select(hw).backend
        cycle = dispatcher.cycle_backend(hw)
        dispatcher.invalidate()
        assert table.is_stale()
        replacement = HardwareFSM(ones_detector())
        assert dispatcher.cycle_backend(replacement) is not cycle
        assert dispatcher.select(replacement).reason == "compiled"

    def test_cycle_backend_rebinds_after_replacement(self, hw):
        dispatcher = Dispatcher("off")
        first = dispatcher.cycle_backend(hw)
        assert dispatcher.cycle_backend(hw) is first  # cached while live
        replacement = HardwareFSM(ones_detector())
        rebound = dispatcher.cycle_backend(replacement)
        assert rebound is not first
        assert rebound.hardware is replacement


class TestMigrationScenario:
    def test_full_lifecycle_serves_correct_words_throughout(self):
        # quiescent → between every two chunks → migrated: one rule
        # (a fresh view, recompiled after each chunk gap) serves tables
        # whose words match the live netlist's at every stage.
        source, target = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(source, target)
        dispatcher = Dispatcher()

        word = ["1", "0", "1"]
        decision = dispatcher.select(hw)
        assert decision.name == _auto_table()
        assert decision.backend.run_batch(
            word, start=source.reset_state, commit=False
        ).outputs == source.run(word)

        migrator = IncrementalMigrator(hw, source, target)
        gaps = 0
        while not migrator.done:
            migrator.stall(migrator.next_chunk_cost())  # one chunk
            gaps += 1
            mid = dispatcher.select(hw)
            assert (mid.name, mid.reason, mid.degraded) == (
                _auto_table(), "compiled", False
            )
            assert dispatcher.select(hw).reason == "cached"
            for start in hw.state_enc.alphabet.symbols:
                assert _outcome(mid.backend, word, start) == _outcome(
                    dispatcher.cycle_backend(hw), word, start
                )
        assert gaps == len(migrator.chunks) > 1
        assert hw.realises(target)

        after = dispatcher.select(hw)
        assert after.reason == "cached"  # the last gap already recompiled
        assert after.backend.run_batch(
            word, start=target.reset_state, commit=False
        ).outputs == target.run(word)


def _outcome(backend, word, start):
    """The outputs of a non-committing run, or ``"unserveable"`` when
    the blend table has no entry on the word's path (a table miss, or
    the netlist's uninitialised read)."""
    try:
        return backend.run_batch(word, start=start, commit=False).outputs
    except (TableMiss, UninitialisedRead):
        return "unserveable"
