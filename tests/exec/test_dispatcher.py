"""The dispatcher's policy: which backend serves, and why.

Every rule that used to live inline in ``fleet/worker.py`` — engine
off, migration in flight, stale view, table miss, forced backend gone —
now has a direct test against :class:`repro.exec.Dispatcher`.
"""

import pytest

from repro.engine import numpy_available
from repro.exec import (
    BackendUnavailable,
    CycleBackend,
    Dispatcher,
    TableBackend,
)
from repro.hw.faults import erase_entry
from repro.hw.machine import HardwareFSM
from repro.workloads.library import fig6_m, fig6_m_prime, ones_detector


def _auto_table():
    # single-stream auto always serves on the pure-Python loop (the
    # numpy kernel only wins when many streams amortize it)
    return "table-py"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)


@pytest.fixture
def hw():
    return HardwareFSM(ones_detector())


class TestConstruction:
    def test_mode_is_canonicalised(self):
        assert Dispatcher("off").mode == "cycle"
        assert Dispatcher("python").mode == "table-py"
        assert Dispatcher().mode == "auto"

    def test_unknown_mode_fails_fast(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            Dispatcher("cuda")

    def test_forced_unavailable_fails_fast(self, monkeypatch):
        # A fleet must refuse to start on an impossible request, not
        # discover it batch by batch.
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        with pytest.raises(BackendUnavailable):
            Dispatcher("numpy")

    def test_pick_reports_the_quiescent_choice(self, monkeypatch):
        assert Dispatcher("off").pick() == "cycle"
        assert Dispatcher().pick() == _auto_table()
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert Dispatcher().pick() == "table-py"


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

    def test_one_view_serves_every_stream_width(self, hw):
        # table-py (one lane) and table-numpy (wide batches) are thin
        # backends over one compiled view per table_version; a RAM
        # write makes both recompile together, once.
        fsm = ones_detector()
        dispatcher = Dispatcher()
        narrow = dispatcher.select(hw, streams=1)
        wide = dispatcher.select(hw, streams=32)
        assert narrow.name == "table-py"
        assert wide.name == (
            "table-numpy" if numpy_available() else "table-py"
        )
        view = narrow.backend.compiled
        assert wide.backend.compiled is view
        assert (narrow.reason, wide.reason) == ("compiled", "cached")
        words = [["1", "1", "0"], ["0", "1"]] * 16
        runs = wide.backend.run_streams(words)
        assert [run.outputs for run in runs] == [fsm.run(w) for w in words]

        erase_entry(hw, entry=("0", "S0"))
        wide = dispatcher.select(hw, streams=32)
        narrow = dispatcher.select(hw, streams=1)
        assert view.is_stale()
        assert (wide.reason, narrow.reason) == ("compiled", "cached")
        assert narrow.backend.compiled is wide.backend.compiled
        assert narrow.backend.compiled is not view

    def test_migration_degrades_to_the_netlist(self, hw):
        dispatcher = Dispatcher()
        decision = dispatcher.select(hw, migrating=True)
        assert isinstance(decision.backend, CycleBackend)
        assert (decision.reason, decision.degraded) == ("migration", True)
        # capability-driven: only a mid-migration-capable backend serves
        assert decision.backend.capabilities.serves_mid_migration

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
        if not numpy_available():
            pytest.skip("needs numpy to vanish")
        dispatcher = Dispatcher("numpy")  # available at construction
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")  # ... then gone
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
        dispatcher.invalidate(reason="replaced")
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
        # quiescent (tables) → migrating (netlist) → migrated (fresh
        # tables): the policy keeps the served words correct at every
        # stage of a live migration.
        source, target = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(source, target)
        dispatcher = Dispatcher()

        word = ["1", "0", "1"]
        decision = dispatcher.select(hw)
        assert decision.name == _auto_table()
        assert decision.backend.run_batch(
            word, start=source.reset_state, commit=False
        ).outputs == source.run(word)

        from repro.core.jsr import jsr_program

        program = jsr_program(source, target)
        mid = dispatcher.select(hw, migrating=True)
        assert mid.name == "cycle"
        hw.run_program(program)
        assert hw.realises(target)

        after = dispatcher.select(hw)
        assert after.reason == "compiled"  # the old view went stale
        assert after.backend.run_batch(
            word, start=target.reset_state, commit=False
        ).outputs == target.run(word)
