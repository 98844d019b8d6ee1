"""The multi-stream plane: packing, encoding, kernels, scoring.

Unit coverage for ``repro.engine.streams`` — the dtype packer, the
state-major pre-scaled ``StreamTables``, encode-once ``StreamBatch``,
ragged length-sorted execution, sentinel propagation, per-lane starts,
and the vectorised ``ExpectedOutputs`` / ``match_counts`` scoring path.
Bitwise py-vs-numpy equivalence over random machines lives here too;
the cross-backend differential suite (dispatcher-selected, mid-stream
invalidation) is ``tests/exec/test_streams_differential.py``.
"""

import pytest

from repro.core.transform import parallel_compose
from repro.engine import (
    CompiledFSM,
    EngineError,
    ExpectedOutputs,
    StreamBatch,
    StreamRun,
    StreamTables,
    UnconfiguredEntry,
    numpy_available,
    stream_dtype_name,
)
from repro.hw.faults import erase_entry
from repro.hw.machine import HardwareFSM
from repro.workloads.library import (
    fig6_m,
    fig6_m_prime,
    ones_detector,
    parity_checker,
)
from repro.workloads.random_fsm import random_fsm
from repro.workloads.suite import traffic_words

KERNELS_HERE = [
    k for k in ("python", "numpy") if k == "python" or numpy_available()
]

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy unavailable: packed stream tables"
)


def ragged_words(machine, seed=0):
    """A deliberately ragged batch: lengths 0..9, shuffled."""
    words = traffic_words(machine, 10, 9, seed=seed)
    return [word[:n] for n, word in enumerate(words)]


class TestDtypePacking:
    def test_small_geometry_packs_uint8(self):
        # size + n_inputs = 2*4 + 2 = 10 <= 255
        assert stream_dtype_name(2, 4, 2) == "uint8"

    def test_address_space_drives_the_width(self):
        # 2 inputs x 200 states: 400 + 2 > 255 -> uint16
        assert stream_dtype_name(2, 200, 2) == "uint16"
        # 4 inputs x 20_000 states: 80_004 > 65_535 -> int32
        assert stream_dtype_name(4, 20_000, 2) == "int32"

    def test_output_sentinels_drive_the_width_too(self):
        # tiny table, but out_garbage = n_outputs + 1 must fit
        assert stream_dtype_name(1, 2, 255) == "uint16"

    def test_beyond_int32_raises(self):
        with pytest.raises(EngineError, match="int32"):
            stream_dtype_name(1 << 16, 1 << 16, 2)

    @needs_numpy
    def test_tables_report_the_same_dtype_they_pack(self):
        import numpy as np

        compiled = CompiledFSM.from_fsm(ones_detector())
        tables = StreamTables(compiled)
        assert tables.dtype_name == stream_dtype_name(
            compiled.n_inputs, compiled.n_states, len(compiled.outputs)
        )
        assert tables.out_padded.dtype == tables.dtype
        # The kernel's gather table is intp, which take never converts.
        assert tables.next_padded.dtype == np.intp


@needs_numpy
class TestStreamTables:
    def test_next_entries_are_prescaled_state_major(self):
        fsm = ones_detector()
        compiled = CompiledFSM.from_fsm(fsm)
        tables = StreamTables(compiled)
        n_i = compiled.n_inputs
        for trans in fsm.transitions():
            addr = (
                compiled._state_code[trans.source] * n_i
                + compiled._input_code[trans.input]
            )
            want = compiled._state_code[trans.target] * n_i
            assert int(tables.next_padded[addr]) == want

    def test_complete_machine_has_no_holes(self):
        tables = StreamTables(
            CompiledFSM.from_fsm(ones_detector())
        )
        assert tables.complete and not tables.has_garbage

    def test_holes_self_trap(self):
        # An un-programmed migration datapath leaves the new state's
        # rows unset; the packed table parks those lanes at hole_base.
        hw = HardwareFSM.for_migration(fig6_m(), fig6_m_prime())
        tables = StreamTables(CompiledFSM.from_hardware(hw))
        assert not tables.complete
        base = tables.hole_base
        # Every pad row under hole_base loops back to hole_base.
        for offset in range(tables.n_inputs):
            assert int(tables.next_padded[base + offset]) == base
            assert int(tables.out_padded[base + offset]) == tables.out_none


class TestStreamBatch:
    def test_encode_once_counts_and_horizon(self):
        machine = ones_detector()
        words = ragged_words(machine)
        batch = StreamBatch.encode(machine.inputs, words)
        assert batch.n == len(batch) == len(words)
        assert batch.n_symbols == sum(len(w) for w in words)
        assert batch.horizon == max(len(w) for w in words)

    def test_order_is_stable_length_descending(self):
        batch = StreamBatch.encode("01", [["0"], ["1", "1"], ["0"], []])
        lengths = [batch.lengths[i] for i in batch.order]
        assert lengths == sorted(lengths, reverse=True)
        # Equal-length streams keep submission order (stable sort).
        assert batch.order == [1, 0, 2, 3]

    def test_foreign_symbol_raises(self):
        with pytest.raises(EngineError, match="not in the compiled"):
            StreamBatch.encode("01", [["0", "2"]])

    def test_alphabet_mismatch_refused_at_run_time(self):
        compiled = CompiledFSM.from_fsm(ones_detector())
        foreign = StreamBatch.encode(("a", "b"), [["a"]])
        with pytest.raises(EngineError, match="different input"):
            compiled.run_stream_batch(foreign)


@pytest.mark.parametrize("kernel", KERNELS_HERE)
class TestKernelEquivalence:
    def test_matches_run_word_per_stream(self, kernel):
        machine = ones_detector()
        compiled = CompiledFSM.from_fsm(machine)
        words = ragged_words(machine, seed=3)
        runs = compiled.run_streams(words, kernel=kernel).word_runs()
        assert len(runs) == len(words)
        for word, run in zip(words, runs):
            ref = compiled.run_word(word)
            assert run.outputs == ref.outputs
            assert run.final_state == ref.final_state
            assert run.visits == ref.visits

    def test_per_lane_starts_with_none_entries(self, kernel):
        machine = ones_detector()
        compiled = CompiledFSM.from_fsm(machine)
        words = traffic_words(machine, 4, 6, seed=5)
        starts = [machine.states[-1], None, machine.states[0], None]
        runs = compiled.run_streams(
            words, starts=starts, kernel=kernel
        ).word_runs()
        for word, start, run in zip(words, starts, runs):
            ref = compiled.run_word(
                word, start=machine.reset_state if start is None else start
            )
            assert (run.outputs, run.final_state) == (
                ref.outputs,
                ref.final_state,
            )

    @pytest.mark.parametrize("n_lanes", [2, 3])
    def test_tuple_state_is_one_start_for_every_lane(self, kernel, n_lanes):
        # A parallel_compose state is a tuple; as ``starts`` it is the
        # one start of every lane, never a per-lane sequence.
        machine = parallel_compose(ones_detector(), parity_checker())
        compiled = CompiledFSM.from_fsm(machine)
        start = next(s for s in machine.states if s != machine.reset_state)
        words = traffic_words(machine, n_lanes, 6, seed=7)
        runs = compiled.run_streams(
            words, starts=start, kernel=kernel
        ).word_runs()
        assert [run.outputs for run in runs] == [
            machine.run(word, start=start) for word in words
        ]

    def test_wrong_starts_length_raises(self, kernel):
        compiled = CompiledFSM.from_fsm(ones_detector())
        with pytest.raises(ValueError, match="start states"):
            compiled.run_streams(
                [["0"], ["1"]], starts=["off"], kernel=kernel
            )

    def test_unknown_start_state_raises_engine_error(self, kernel):
        machine = ones_detector()
        compiled = CompiledFSM.from_fsm(machine)
        with pytest.raises(EngineError, match="'nope' not in the compiled"):
            compiled.run_streams(
                [["0"], ["1"]],
                starts=[machine.reset_state, "nope"],
                kernel=kernel,
            )

    def test_random_ragged_py_numpy_bitwise_identical(self, kernel):
        if kernel == "python":
            pytest.skip("the cross-kernel property needs both kernels")
        for seed in range(8):
            fsm = random_fsm(
                n_states=3 + seed % 4,
                n_inputs=1 + seed % 3,
                n_outputs=2,
                seed=seed,
            )
            words = ragged_words(fsm, seed=seed)
            compiled = CompiledFSM.from_fsm(fsm)
            batch = StreamBatch.encode(fsm.inputs, words)
            runs_py = compiled.run_stream_batch(
                batch, kernel="python"
            ).word_runs()
            runs_np = compiled.run_stream_batch(
                batch, kernel="numpy"
            ).word_runs()
            for a, b in zip(runs_py, runs_np):
                assert a.outputs == b.outputs
                assert a.final_state == b.final_state
                assert a.visits == b.visits

    def test_hole_raises_unconfigured(self, kernel):
        source, target = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(source, target)
        compiled = CompiledFSM.from_hardware(hw)
        extra = next(s for s in target.states if s not in source.states)
        words = [[source.inputs[0]], [source.inputs[0]]]
        with pytest.raises(UnconfiguredEntry):
            compiled.run_streams(
                words, starts=[source.reset_state, extra], kernel=kernel
            ).word_runs()
        # A hole two steps into one lane of a ragged batch: the lane
        # walks S0 -1-> S1 -1-> (erased F-word); the other lanes alone
        # are served.
        hw = HardwareFSM(ones_detector())
        erase_entry(hw, entry=("1", "S1"))
        compiled = CompiledFSM.from_hardware(hw)
        words = [["0"] * 5, ["1", "1", "0"], ["0"]]
        with pytest.raises(UnconfiguredEntry):
            compiled.run_streams(words, kernel=kernel).word_runs()
        served = compiled.run_streams(
            [words[0], words[2]], kernel=kernel
        ).word_runs()
        assert [run.outputs for run in served] == [["0"] * 5, ["0"]]

    def test_empty_batch_and_empty_words(self, kernel):
        machine = ones_detector()
        compiled = CompiledFSM.from_fsm(machine)
        empty = compiled.run_streams([], kernel=kernel)
        assert empty.final_states() == [] and empty.word_runs() == []
        run = compiled.run_streams([[]], kernel=kernel).word_runs()[0]
        assert run.outputs == [] and run.final_state == machine.reset_state


@pytest.mark.parametrize("kernel", KERNELS_HERE)
class TestStreamRunScoring:
    def _scored(self, kernel):
        machine = ones_detector()
        compiled = CompiledFSM.from_fsm(machine)
        words = ragged_words(machine, seed=7)
        expected_words = [machine.run(w) for w in words]
        # Corrupt a few expectations so counts are non-trivial.
        for word in expected_words[::2]:
            if word:
                word[0] = None
        batch = StreamBatch.encode(machine.inputs, words)
        run = compiled.run_stream_batch(batch, kernel=kernel)
        expected = ExpectedOutputs(compiled.outputs, expected_words)
        return run, expected, words, expected_words, compiled

    def test_match_counts_equals_scalar_zip(self, kernel):
        run, expected, words, expected_words, compiled = self._scored(
            kernel
        )
        counts = run.match_counts(expected)
        fresh = compiled.run_streams(words, kernel=kernel).word_runs()
        want = [
            sum(1 for got, w in zip(r.outputs, word) if got == w)
            for r, word in zip(fresh, expected_words)
        ]
        assert counts == want

    def test_final_states_match_word_runs(self, kernel):
        run, _, _, _, _ = self._scored(kernel)
        assert run.final_states() == [r.final_state for r in run.word_runs()]
        assert isinstance(run, StreamRun) and len(run) == run.n

    def test_lane_count_mismatch_raises(self, kernel):
        run, _, _, _, compiled = self._scored(kernel)
        short = ExpectedOutputs(compiled.outputs, [["1"]])
        with pytest.raises(EngineError):
            run.match_counts(short)
