"""The built-in backends against the ExecutionBackend contract.

Commit semantics (a committed run fast-forwards the datapath, an
uncommitted one is a pure query) and — the staleness-invalidation paths
the dispatcher relies on — table views dying on ``SyncRAM.erase``,
``faults.erase_entry`` and ``faults.inject_upset``.
"""

import pytest

from repro.engine import CompiledFSM, EngineError, numpy_available
from repro.exec import (
    BackendUnavailable,
    CycleBackend,
    ExecutionBackend,
    TableBackend,
    TableMiss,
    compile_tables,
)
from repro.hw.faults import erase_entry, inject_upset
from repro.hw.machine import HardwareFSM
from repro.hw.memory import UninitialisedRead
from repro.workloads.library import fig6_m, fig6_m_prime, ones_detector
from repro.workloads.suite import traffic_words

#: The one ``table`` backend with its stream kernel steered; the ids
#: keep the names the two kernels had as separate backends before they
#: merged into ``table``.
TABLE_BACKENDS = ["table-py"] + (
    ["table-numpy"] if numpy_available() else []
)

#: Every spelling that names no backend: the kernels are the engine's
#: choice, not a backend's.
REJECTED = ("python", "numpy", "table-py", "table-numpy")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_SHM", raising=False)


@pytest.fixture
def kernel(name, steer_kernel):
    """The kernel the ``name`` leg stands for, steered for the test."""
    kernel = "numpy" if name == "table-numpy" else "python"
    steer_kernel(kernel)
    return kernel


def _all_backends(hw):
    return [CycleBackend(hw), TableBackend.from_hardware(hw)]


class TestProtocolConformance:
    def test_builtins_satisfy_the_protocol(self):
        hw = HardwareFSM(ones_detector())
        for backend in _all_backends(hw):
            assert isinstance(backend, ExecutionBackend)


class TestCycleBackend:
    def test_committed_batch_advances_architectural_state(self):
        fsm = ones_detector()
        hw, ref = HardwareFSM(fsm), HardwareFSM(fsm)
        backend = CycleBackend(hw)
        word = ["1", "0", "1", "1"]
        run = backend.run_batch(word)
        assert run.outputs == ref.run(word)
        assert hw.state == ref.state
        assert hw.cycles == ref.cycles
        assert hw.state_visits == ref.state_visits

    def test_uncommitted_batch_is_a_pure_query(self):
        fsm = ones_detector()
        hw = HardwareFSM(fsm)
        backend = CycleBackend(hw)
        before = hw.state
        run = backend.run_batch(["1", "1"], commit=False)
        assert run.outputs == fsm.run(["1", "1"])
        assert hw.state == before  # architectural state untouched

    def test_uncommitted_batch_restores_even_when_a_symbol_raises(self):
        fsm = ones_detector()
        hw = HardwareFSM(fsm)
        erase_entry(hw, entry=("1", "S1"))
        backend = CycleBackend(hw)
        before = hw.state
        with pytest.raises(UninitialisedRead):
            backend.run_batch(["1", "1", "1"], commit=False)
        assert hw.state == before

    def test_explicit_start_state(self):
        fsm = ones_detector()
        backend = CycleBackend(HardwareFSM(fsm))
        run = backend.run_batch(["1"], start="S1", commit=False)
        assert run.outputs == [fsm.output("1", "S1")]

    def test_faults_raise_out_unwrapped(self):
        # The quarantine path needs the *hardware* error, not a wrapped
        # exec-layer one.
        hw = HardwareFSM(ones_detector())
        erase_entry(hw, entry=("1", "S0"))
        backend = CycleBackend(hw)
        with pytest.raises(UninitialisedRead):
            backend.run_batch(["1"])

    def test_never_stale_against_its_own_hardware(self):
        hw = HardwareFSM(ones_detector())
        backend = CycleBackend(hw)
        erase_entry(hw, seed=0)
        assert not backend.is_stale(hw)        # reads the live tables
        assert backend.is_stale(HardwareFSM(ones_detector()))


@pytest.mark.parametrize("name", TABLE_BACKENDS)
@pytest.mark.usefixtures("kernel")
class TestTableBackend:
    def test_one_name_whichever_kernel_serves(
        self, name, kernel, stream_kernels
    ):
        # One backend name whichever kernel serves; the kernel is
        # picked per stream call and named on its span.
        fsm = ones_detector()
        backend = TableBackend.from_hardware(HardwareFSM(fsm))
        assert backend.name == "table"
        runs = backend.run_streams([["1", "1"], ["0", "1"]])
        assert [run.outputs for run in runs] == [["0", "1"], ["0", "0"]]
        assert stream_kernels() == [kernel]

    def test_committed_batch_fast_forwards_the_datapath(self, name):
        fsm = ones_detector()
        hw, ref = HardwareFSM(fsm), HardwareFSM(fsm)
        backend = TableBackend.from_hardware(hw)
        for word in traffic_words(fsm, 4, 6, seed=2):
            assert backend.run_batch(word).outputs == ref.run(word)
            assert hw.state == ref.state
        assert hw.cycles == ref.cycles
        assert hw.state_visits == ref.state_visits

    def test_uncommitted_batch_leaves_the_datapath_alone(self, name):
        fsm = ones_detector()
        hw = HardwareFSM(fsm)
        backend = TableBackend.from_hardware(hw)
        before = (hw.state, hw.cycles)
        run = backend.run_batch(["1", "1", "0"], commit=False)
        assert run.outputs == fsm.run(["1", "1", "0"])
        assert (hw.state, hw.cycles) == before

    def test_miss_raised_before_the_hardware_is_touched(self, name):
        fsm = ones_detector()
        hw = HardwareFSM(fsm)
        backend = TableBackend.from_hardware(hw)
        before = (hw.state, hw.cycles)
        with pytest.raises(TableMiss):
            backend.run_batch(["1", "no-such-symbol"])
        assert (hw.state, hw.cycles) == before

    def test_miss_is_an_engine_error(self, name):
        hw = HardwareFSM(ones_detector())
        backend = TableBackend.from_hardware(hw)
        with pytest.raises(EngineError):
            backend.run_batch(["bogus"])

    def test_pure_fsm_tables_have_no_architectural_state(self, name):
        fsm = ones_detector()
        backend = TableBackend.from_fsm(fsm)
        # A committed run has nothing to commit to: it is a pure
        # function of (start, symbols).
        for _ in range(2):
            run = backend.run_batch(["1", "1"], start=fsm.reset_state)
            assert run.outputs == fsm.run(["1", "1"])
        assert backend.hardware is None

    def test_run_streams_wraps_engine_errors(self, name):
        fsm = ones_detector()
        backend = TableBackend.from_fsm(fsm)
        words = traffic_words(fsm, 3, 4, seed=1)
        runs = backend.run_streams(words)
        for run, word in zip(runs, words):
            assert run.outputs == fsm.run(word)
        with pytest.raises(TableMiss):
            backend.run_streams([["bogus"]])


@pytest.mark.parametrize("name", TABLE_BACKENDS)
@pytest.mark.usefixtures("kernel")
class TestStalenessInvalidation:
    """Satellite coverage: every table-mutation path kills the view."""

    def test_sync_ram_erase_invalidates(self, name):
        hw = HardwareFSM(ones_detector())
        backend = TableBackend.from_hardware(hw)
        assert not backend.is_stale()
        address = sorted(hw.f_ram.dump())[0]
        assert hw.f_ram.erase(address)
        assert backend.is_stale()
        assert backend.is_stale(hw)

    def test_faults_erase_entry_invalidates(self, name):
        hw = HardwareFSM(ones_detector())
        backend = TableBackend.from_hardware(hw)
        erase_entry(hw, entry=("1", "S1"))
        assert backend.is_stale()

    def test_faults_inject_upset_invalidates(self, name):
        hw = HardwareFSM(ones_detector())
        backend = TableBackend.from_hardware(hw)
        inject_upset(hw, seed=3)
        assert backend.is_stale()

    def test_explicit_invalidate_is_sticky(self, name):
        hw = HardwareFSM(ones_detector())
        backend = TableBackend.from_hardware(hw)
        backend.invalidate()
        # Sticky: nothing un-invalidates a view — even against its own
        # unchanged hardware the dispatcher must recompile.
        assert backend.is_stale()
        assert backend.is_stale(hw)


class TestCompileTables:
    def test_from_behavioural_fsm(self):
        compiled = compile_tables(ones_detector())
        assert isinstance(compiled, CompiledFSM)
        assert compiled.run_word(["1", "1"]).outputs == ["0", "1"]

    def test_from_hardware(self):
        source, target = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(source, target)
        compiled = compile_tables(hw)
        assert compiled.realises(source)

    def test_backend_spellings_and_aliases(self):
        # A view holds tables only: every table spelling compiles the
        # same tables, and the kernel is picked per call.
        for preference in ("auto", "table", "table-shm", "shm"):
            compiled = compile_tables(ones_detector(), preference=preference)
            assert compiled.run_word(["1", "1"]).outputs == ["0", "1"]
        for preference in REJECTED:
            with pytest.raises(ValueError, match="'table', 'table-shm'"):
                compile_tables(ones_detector(), preference=preference)

    def test_forced_unavailable_pin_raises_at_the_boundary(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        with pytest.raises(BackendUnavailable, match="table-shm"):
            compile_tables(ones_detector(), preference="shm")

    def test_rejects_the_cycle_backend(self):
        for preference in ("off", "cycle"):
            with pytest.raises(EngineError, match="engine mode 'off'"):
                compile_tables(ones_detector(), preference=preference)

    def test_rejects_unknown_machines(self):
        with pytest.raises(TypeError, match="expects an FSM"):
            compile_tables(42)
