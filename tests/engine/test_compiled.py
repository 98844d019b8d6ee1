"""Unit tests for the batch execution engine (repro.engine).

Covers lowering (FSM and live-hardware origins), both stream kernels
(each test's ``kernel`` leg runs its words as 1-lane stream batches;
the python kernel is the ``run_word`` loop itself), the datapath-exact
unset/garbage semantics, per-call kernel resolution (including the
``REPRO_DISABLE_NUMPY`` escape hatch), the staleness/invalidation
lifecycle, and the ``commit_engine_run`` fast-forward on the datapath.
"""

import pytest

from repro.core.fsm import FSM
from repro.engine import (
    CompiledFSM,
    EngineError,
    UnconfiguredEntry,
    numpy_available,
    stream_kernel,
)
from repro.engine import streams as streams_module
from repro.hw.faults import erase_entry
from repro.hw.machine import ConcurrentUseError, HardwareFSM
from repro.hw.memory import SyncRAM
from repro.hw.reconfigurator import Reconfigurator
from repro.workloads.library import fig6_m, fig6_m_prime, ones_detector
from repro.workloads.suite import traffic_words

KERNELS_HERE = [
    k for k in ("python", "numpy") if k == "python" or numpy_available()
]


@pytest.fixture(params=KERNELS_HERE)
def kernel(request):
    return request.param


def run_one(compiled, word, kernel, start=None):
    """One word through ``kernel`` as a 1-lane stream batch."""
    return compiled.run_streams(
        [word], starts=start, kernel=kernel
    ).word_runs()[0]


def tri_output_fsm() -> FSM:
    """Two states, three outputs — the output width (2 bits) leaves a
    fourth code the datapath's decoder would refuse, i.e. garbage."""
    return FSM(
        ("a", "b"),
        ("x", "y", "z"),
        ("S0", "S1"),
        "S0",
        {
            ("a", "S0"): ("S1", "x"),
            ("b", "S0"): ("S0", "y"),
            ("a", "S1"): ("S0", "z"),
            ("b", "S1"): ("S1", "x"),
        },
        name="tri",
    )


class TestLowering:
    def test_from_fsm_realises_the_machine(self, kernel):
        fsm = ones_detector()
        compiled = CompiledFSM.from_fsm(fsm)
        assert compiled.realises(fsm)
        assert compiled.reset_state == fsm.reset_state
        assert not hasattr(compiled, "backend")  # tables only
        word = traffic_words(fsm, 1, 6, seed=0)[0]
        assert run_one(compiled, word, kernel).outputs == fsm.run(word)

    def test_run_word_matches_reference_run(self, kernel):
        fsm = ones_detector()
        compiled = CompiledFSM.from_fsm(fsm)
        for word in traffic_words(fsm, 8, 12, seed=5):
            assert compiled.run_word(word).outputs == fsm.run(word)
            assert run_one(compiled, word, kernel).outputs == fsm.run(word)

    def test_from_hardware_matches_the_downloaded_machine(self, kernel):
        source, target = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(source, target)
        compiled = CompiledFSM.from_hardware(hw)
        assert compiled.realises(source)
        for word in traffic_words(source, 6, 10, seed=1):
            assert run_one(compiled, word, kernel).outputs == source.run(word)

    def test_word_run_reports_final_state_and_visits(self, kernel):
        fsm = ones_detector()
        compiled = CompiledFSM.from_fsm(fsm)
        word = traffic_words(fsm, 1, 20, seed=2)[0]
        run = run_one(compiled, word, kernel)
        # replay by hand: visits count post-transition states
        state = fsm.reset_state
        visits = {}
        for symbol in word:
            state, _ = fsm.step(symbol, state)
            visits[state] = visits.get(state, 0) + 1
        assert run.final_state == state
        assert run.visits == visits
        assert len(run) == len(word)


class TestBatchKernels:
    """Many words in one ``run_streams`` call: one step across every
    lane, ragged batches, and python/numpy agreement."""

    def test_step_batch_steps_every_lane(self, kernel):
        fsm = ones_detector()
        compiled = CompiledFSM.from_fsm(fsm)
        lanes = [
            (state, symbol)
            for state in fsm.states
            for symbol in fsm.inputs
        ]
        runs = compiled.run_streams(
            [[symbol] for _, symbol in lanes],
            starts=[state for state, _ in lanes],
            kernel=kernel,
        ).word_runs()
        for run, (state, symbol) in zip(runs, lanes):
            expect_ns, expect_out = fsm.step(symbol, state)
            assert run.final_state == expect_ns
            assert run.outputs == [expect_out]

    def test_step_batch_length_mismatch(self, kernel):
        fsm = ones_detector()
        compiled = CompiledFSM.from_fsm(fsm)
        with pytest.raises(ValueError):
            compiled.run_streams(
                [], starts=[fsm.states[0]], kernel=kernel
            ).word_runs()

    def test_run_words_matches_per_word_runs(self, kernel):
        fsm = fig6_m()
        compiled = CompiledFSM.from_fsm(fsm)
        words = traffic_words(fsm, 10, 7, seed=9)
        words.append([])  # empty word is a valid (trivial) stream
        runs = compiled.run_streams(words, kernel=kernel).word_runs()
        assert len(runs) == len(words)
        for run, word in zip(runs, words):
            solo = compiled.run_word(word)
            assert run.outputs == solo.outputs
            assert run.final_state == solo.final_state
            assert run.visits == solo.visits

    def test_run_words_ragged_lengths(self, kernel):
        fsm = ones_detector()
        compiled = CompiledFSM.from_fsm(fsm)
        words = [
            traffic_words(fsm, 1, length, seed=length)[0]
            for length in (1, 5, 3, 17, 2)
        ]
        runs = compiled.run_streams(words, kernel=kernel).word_runs()
        assert len(runs) == len(words)
        for run, word in zip(runs, words):
            assert run.outputs == fsm.run(word)

    @pytest.mark.skipif(not numpy_available(), reason="numpy absent")
    def test_backends_agree(self):
        fsm = fig6_m_prime()
        compiled = CompiledFSM.from_fsm(fsm)
        words = traffic_words(fsm, 12, 9, seed=4)
        py = compiled.run_streams(words, kernel="python").word_runs()
        np_ = compiled.run_streams(words, kernel="numpy").word_runs()
        assert len(py) == len(np_) == len(words)
        for run_py, run_np in zip(py, np_):
            assert run_py.outputs == run_np.outputs
            assert run_py.final_state == run_np.final_state
            assert run_py.visits == run_np.visits


class TestUnsetAndGarbage:
    def test_unset_f_entry_raises(self, kernel):
        # for_migration sizes the RAMs for the 4-state target; the extra
        # state's rows were never written, so starting there must raise.
        source, target = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(source, target)
        compiled = CompiledFSM.from_hardware(hw)
        extra = next(s for s in target.states if s not in source.states)
        with pytest.raises(UnconfiguredEntry):
            compiled.run_word([source.inputs[0]], start=extra)
        with pytest.raises(UnconfiguredEntry):
            run_one(compiled, [source.inputs[0]], kernel, start=extra)

    def test_unset_f_entry_raises_in_step_batch(self, kernel):
        source, target = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(source, target)
        compiled = CompiledFSM.from_hardware(hw)
        extra = next(s for s in target.states if s not in source.states)
        good = source.states[0]
        with pytest.raises(UnconfiguredEntry):
            compiled.run_streams(
                [[source.inputs[0]], [source.inputs[0]]],
                starts=[good, extra],
                kernel=kernel,
            ).word_runs()

    def test_unset_g_entry_yields_none_output(self, kernel):
        fsm = tri_output_fsm()
        hw = HardwareFSM(fsm)
        addr = hw._address("a", "S0")
        assert hw.g_ram.erase(addr)
        compiled = CompiledFSM.from_hardware(hw)
        run = run_one(compiled, ["a", "a"], kernel)
        # first step: output word unset -> None; transition still taken
        assert run.outputs == [None, "z"]
        assert run.final_state == "S0"

    def test_garbage_g_code_raises(self, kernel):
        fsm = tri_output_fsm()
        hw = HardwareFSM(fsm)
        addr = hw._address("a", "S0")
        garbage = len(fsm.outputs)  # code 3 fits 2 bits, decodes to nothing
        assert garbage < (1 << hw.g_ram.data_width)
        hw.g_ram.load({addr: garbage})
        compiled = CompiledFSM.from_hardware(hw)
        with pytest.raises(UnconfiguredEntry):
            compiled.run_word(["a"])
        with pytest.raises(UnconfiguredEntry):
            run_one(compiled, ["a"], kernel)

    def test_unknown_symbol_raises_engine_error(self, kernel):
        compiled = CompiledFSM.from_fsm(ones_detector())
        with pytest.raises(EngineError):
            compiled.run_word(["no-such-symbol"])
        with pytest.raises(EngineError):
            compiled.run_word([], start="no-such-state")
        with pytest.raises(EngineError):
            run_one(compiled, ["no-such-symbol"], kernel)
        with pytest.raises(EngineError):
            run_one(compiled, [], kernel, start="no-such-state")


class TestBackendResolution:
    """The stream kernel is resolved per call, never at compile time."""

    def test_known_preferences(self):
        compiled = CompiledFSM.from_fsm(ones_detector())
        word = ["1", "1", "0"]
        assert stream_kernel(1) == "python"
        assert stream_kernel(streams_module.STREAM_THRESHOLD) in KERNELS_HERE
        for kernel in (None,) + tuple(KERNELS_HERE):
            run = run_one(compiled, word, kernel)
            assert run.outputs == ones_detector().run(word)

    def test_unknown_preference_raises(self):
        compiled = CompiledFSM.from_fsm(ones_detector())
        with pytest.raises(ValueError, match="unknown stream kernel"):
            compiled.run_streams([["1"]], kernel="cuda")

    def test_disable_numpy_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        assert not numpy_available()
        assert stream_kernel(4096) == "python"
        compiled = CompiledFSM.from_fsm(ones_detector())
        with pytest.raises(EngineError, match="numpy"):
            compiled.run_streams([["1"]], kernel="numpy")

    @pytest.mark.skipif(not numpy_available(), reason="numpy absent")
    def test_auto_prefers_numpy_when_available(self, monkeypatch):
        threshold = streams_module.STREAM_THRESHOLD
        assert stream_kernel(threshold - 1) == "python"
        assert stream_kernel(threshold) == "numpy"
        # The threshold is the one knob: tests retune it in-process.
        monkeypatch.setattr(streams_module, "STREAM_THRESHOLD", 2)
        assert stream_kernel(2) == "numpy"


class TestVersioning:
    def test_sync_ram_version_semantics(self):
        ram = SyncRAM(3, 2, name="test")
        assert ram.version == 0
        ram.load({})                       # empty download: no change
        assert ram.version == 0
        ram.load({0: 1, 1: 2})
        assert ram.version == 1
        assert not ram.erase(5)            # never written: no change
        assert ram.version == 1
        assert ram.erase(0)
        assert ram.version == 2
        ram.clock()                        # no pending write: no change
        assert ram.version == 2
        from repro.hw.signals import BitVector

        ram.write(BitVector(2, 3), BitVector(1, 2))
        assert ram.version == 2            # not yet committed
        ram.clock()
        assert ram.version == 3

    def test_table_version_tracks_ram_and_retargets(self):
        source, target = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(source, target)
        before = hw.table_version
        erase_entry(hw, seed=0)
        assert hw.table_version > before
        before = hw.table_version
        hw.retarget_reset(target.reset_state)
        assert hw.table_version == before + 1

    # Each view first serves through the kernel under test: staleness
    # belongs to the view, whatever per-kernel caches (the numpy
    # kernel's packed stream tables) it has built since.
    def test_is_stale_after_ram_mutation(self, kernel):
        hw = HardwareFSM(ones_detector())
        compiled = CompiledFSM.from_hardware(hw)
        run_one(compiled, ["1"], kernel)
        assert not compiled.is_stale(hw)
        erase_entry(hw, seed=0)
        assert compiled.is_stale(hw)

    def test_is_stale_on_different_hardware(self, kernel):
        hw = HardwareFSM(ones_detector())
        other = HardwareFSM(ones_detector())
        compiled = CompiledFSM.from_hardware(hw)
        run_one(compiled, ["1"], kernel)
        assert compiled.is_stale(other)

    def test_explicit_invalidate_is_sticky(self, kernel):
        hw = HardwareFSM(ones_detector())
        compiled = CompiledFSM.from_hardware(hw)
        run_one(compiled, ["1"], kernel)
        compiled.invalidate()
        assert compiled.is_stale()
        assert compiled.is_stale(hw)

    def test_watch_invalidates_on_store(self, kernel):
        from repro.core.jsr import jsr_program

        source, target = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(source, target)
        compiled = CompiledFSM.from_hardware(hw).watch(
            recon := Reconfigurator()
        )
        run_one(compiled, [source.inputs[0]], kernel)
        assert not compiled.is_stale(hw)
        recon.store("mig", jsr_program(source, target))
        assert compiled.is_stale()


class TestCommitEngineRun:
    def test_fast_forwards_architectural_state(self, kernel):
        fsm = ones_detector()
        hw = HardwareFSM(fsm)
        compiled = CompiledFSM.from_hardware(hw)
        word = traffic_words(fsm, 1, 15, seed=7)[0]
        run = run_one(compiled, word, kernel, start=hw.state)
        cycles_before = hw.cycles
        hw.commit_engine_run(run.final_state, len(word), run.visits)
        assert hw.state == run.final_state
        assert hw.cycles == cycles_before + len(word)
        assert hw.mode_cycles["normal"] >= len(word)

    def test_visits_merge_into_probe_counters(self, kernel):
        fsm = ones_detector()
        # reference: serve the word per-cycle on one datapath ...
        ref = HardwareFSM(fsm)
        word = traffic_words(fsm, 1, 12, seed=8)[0]
        ref.run(word)
        # ... and via engine commit on another; probes must agree
        hw = HardwareFSM(fsm)
        compiled = CompiledFSM.from_hardware(hw)
        run = run_one(compiled, word, kernel, start=hw.state)
        hw.commit_engine_run(run.final_state, len(word), run.visits)
        assert hw.state_visits == ref.state_visits
        assert hw.cycles == ref.cycles
        assert hw.state == ref.state

    def test_negative_cycles_rejected(self):
        hw = HardwareFSM(ones_detector())
        with pytest.raises(ValueError):
            hw.commit_engine_run(hw.state, -1)

    def test_single_driver_guard(self):
        hw = HardwareFSM(ones_detector())
        hw._cycle_guard.acquire()
        try:
            with pytest.raises(ConcurrentUseError):
                hw.commit_engine_run(hw.state, 1)
        finally:
            hw._cycle_guard.release()
