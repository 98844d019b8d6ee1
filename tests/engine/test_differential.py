"""Differential suite: the batch engine vs the cycle-accurate datapath.

Property-based evidence for the engine's core claim — `CompiledFSM`
is trace-equivalent to clocking the netlist symbol by symbol:

* chained engine runs (state carried across batches, committed back via
  ``commit_engine_run``) produce the same outputs, the same architectural
  state and the same probe counters as a per-cycle reference datapath;
* a mid-stream RAM mutation (a stored program replayed by the
  Reconfigurator, a fault injection) invalidates the compiled view, and
  the recompiled view is again trace-equivalent — the invalidate /
  recompile lifecycle never serves stale words;
* both stream kernels, via the ``kernel`` parametrization: every
  engine run goes through ``run_streams(..., kernel=kernel)`` (single
  words as 1-lane batches), so the numpy leg checks the lane kernel
  itself against the netlist (it skips when numpy is absent, e.g.
  under ``REPRO_DISABLE_NUMPY=1``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.jsr import jsr_program
from repro.engine import CompiledFSM, numpy_available
from repro.hw.faults import erase_entry
from repro.hw.machine import HardwareFSM
from repro.hw.reconfigurator import Reconfigurator
from repro.workloads.library import fig6_m, fig6_m_prime
from repro.workloads.mutate import mutate_target
from repro.workloads.random_fsm import random_fsm
from repro.workloads.suite import traffic_words

KERNELS_HERE = [
    k for k in ("python", "numpy") if k == "python" or numpy_available()
]


def run_one(compiled, word, kernel, start=None):
    """One word through ``kernel`` as a 1-lane stream batch."""
    return compiled.run_streams(
        [word], starts=start, kernel=kernel
    ).word_runs()[0]


@st.composite
def machines(draw):
    return random_fsm(
        n_states=draw(st.integers(2, 6)),
        n_inputs=draw(st.integers(1, 3)),
        n_outputs=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 10_000)),
    )


@pytest.mark.parametrize("kernel", KERNELS_HERE)
class TestTraceEquivalence:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(machines(), st.integers(0, 10_000))
    def test_chained_engine_runs_match_per_cycle_serving(
        self, kernel, fsm, traffic_seed
    ):
        ref = HardwareFSM(fsm)
        hw = HardwareFSM(fsm)
        compiled = CompiledFSM.from_hardware(hw)
        for word in traffic_words(fsm, 6, 9, seed=traffic_seed):
            expect = ref.run(word)
            assert not compiled.is_stale(hw)
            run = run_one(compiled, word, kernel, start=hw.state)
            hw.commit_engine_run(run.final_state, len(word), run.visits)
            assert run.outputs == expect
            assert hw.state == ref.state
        assert hw.cycles == ref.cycles
        assert hw.state_visits == ref.state_visits

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(machines(), st.integers(0, 10_000), st.integers(1, 6))
    def test_run_streams_matches_fsm_reference(
        self, kernel, fsm, traffic_seed, n_deltas
    ):
        # compile the *migrated* hardware: synthesise, replay, snapshot
        capacity = len(fsm.inputs) * len(fsm.states)
        target = mutate_target(
            fsm, min(n_deltas, capacity), seed=traffic_seed
        )
        hw = HardwareFSM.for_migration(fsm, target)
        hw.run_program(jsr_program(fsm, target))
        assert hw.realises(target)
        compiled = CompiledFSM.from_hardware(hw)
        words = traffic_words(target, 8, 7, seed=traffic_seed)
        runs = compiled.run_streams(
            words, starts=target.reset_state, kernel=kernel
        ).word_runs()
        for run, word in zip(runs, words):
            assert run.outputs == target.run(word)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(machines(), st.integers(0, 10_000))
    def test_fault_invalidates_and_recompile_matches(
        self, kernel, fsm, seed
    ):
        hw = HardwareFSM(fsm)
        compiled = CompiledFSM.from_hardware(hw)
        assert not compiled.is_stale(hw)
        erase_entry(hw, seed=seed)
        assert compiled.is_stale(hw)
        # heal (re-download) and recompile: equivalence is restored
        hw2 = HardwareFSM(fsm)
        fresh = CompiledFSM.from_hardware(hw2)
        for word in traffic_words(fsm, 4, 6, seed=seed):
            assert run_one(fresh, word, kernel).outputs == fsm.run(word)


@pytest.mark.parametrize("kernel", KERNELS_HERE)
class TestInvalidationMidStream:
    def test_store_invalidates_and_recompiled_view_serves_target(
        self, kernel
    ):
        source, target = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(source, target)
        recon = Reconfigurator()
        compiled = CompiledFSM.from_hardware(hw)
        compiled.watch(recon)

        # serve a stream of traffic through the compiled view ...
        for word in traffic_words(source, 3, 8, seed=6):
            run = run_one(compiled, word, kernel, start=hw.state)
            hw.commit_engine_run(run.final_state, len(word), run.visits)
        assert not compiled.is_stale(hw)

        # ... then a reconfiguration program lands in the sequence ROM:
        # the view dies immediately, before a single RAM word changes.
        program = jsr_program(source, target)
        recon.store("upgrade", program)
        assert compiled.is_stale()
        assert compiled.is_stale(hw)

        # replay the migration and recompile: the new view serves the
        # target, trace-equivalent to the migrated datapath.
        hw.run_program(program)
        fresh = CompiledFSM.from_hardware(hw)
        assert fresh.realises(target)
        ref = HardwareFSM.for_migration(source, target)
        ref.run_program(program)
        for word in traffic_words(target, 6, 9, seed=13):
            expect = ref.run(word)
            run = run_one(fresh, word, kernel, start=hw.state)
            hw.commit_engine_run(run.final_state, len(word), run.visits)
            assert run.outputs == expect
            assert hw.state == ref.state

    def test_mid_stream_version_bump_detected_between_batches(self, kernel):
        fsm = fig6_m()
        hw = HardwareFSM(fsm)
        compiled = CompiledFSM.from_hardware(hw)
        words = traffic_words(fsm, 4, 6, seed=3)
        run = run_one(compiled, words[0], kernel, start=hw.state)
        hw.commit_engine_run(run.final_state, len(words[0]), run.visits)
        assert not compiled.is_stale(hw)
        erase_entry(hw, seed=1)  # the mutation lands between batches
        assert compiled.is_stale(hw)
