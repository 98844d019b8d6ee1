"""Differential suite across every available execution backend.

The protocol's core promise: for any symbol stream every backend can
serve, outputs, final state and committed architectural side-effects
(cycle counters, state visits) are bit-identical — not for a hand-picked
pair of backends, but for every one available right now, each
selected through the :class:`~repro.exec.Dispatcher` exactly as the
fleet would.  Mid-stream table mutation (a live migration landing
between batches) is part of the property: the dispatcher must notice
the stale view and keep the stream correct.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.jsr import jsr_program
from repro.exec import Dispatcher, names, unavailable_reason
from repro.hw.machine import HardwareFSM
from repro.workloads.mutate import mutate_target
from repro.workloads.random_fsm import random_fsm
from repro.workloads.suite import traffic_words


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)


def _serving_modes():
    """Every backend that is available right now."""
    return [name for name in names() if unavailable_reason(name) is None]


@st.composite
def machines(draw):
    return random_fsm(
        n_states=draw(st.integers(2, 6)),
        n_inputs=draw(st.integers(1, 3)),
        n_outputs=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 10_000)),
    )


def _transcript(mode, fsm, words):
    """Serve ``words`` through the dispatcher on a fresh datapath."""
    hw = HardwareFSM(fsm)
    dispatcher = Dispatcher(mode)
    outputs = []
    for word in words:
        decision = dispatcher.select(hw)
        assert decision.name == mode  # explicit pins are honoured
        outputs.append(decision.backend.run_batch(word).outputs)
    return {
        "outputs": outputs,
        "final_state": hw.state,
        "cycles": hw.cycles,
        "visits": hw.state_visits,
    }


class TestEveryRegisteredBackend:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(machines(), st.integers(0, 10_000))
    def test_transcripts_identical_across_backends(self, fsm, seed):
        words = traffic_words(fsm, 5, 8, seed=seed)
        modes = _serving_modes()
        assert "cycle" in modes and "table" in modes
        transcripts = {mode: _transcript(mode, fsm, words) for mode in modes}
        reference = transcripts["cycle"]
        # ... and the netlist transcript itself matches the behavioural
        # model (state carried across words), so agreement is with the
        # spec, not just mutual.
        state = fsm.reset_state
        for word, outputs in zip(words, reference["outputs"]):
            assert outputs == fsm.run(word, start=state)
            for symbol in word:
                state, _ = fsm.step(symbol, state)
        assert reference["final_state"] == state
        for mode, transcript in transcripts.items():
            assert transcript == reference, mode

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(machines(), st.integers(0, 10_000), st.integers(1, 5))
    def test_mid_stream_migration_keeps_every_backend_correct(
        self, fsm, seed, n_deltas
    ):
        # A reconfiguration program lands between two batches: table
        # views go stale and must be recompiled; the netlist reads the
        # live blend table.  Every backend serves the right words on
        # both sides of the cut.
        capacity = len(fsm.inputs) * len(fsm.states)
        target = mutate_target(fsm, min(n_deltas, capacity), seed=seed)
        program = jsr_program(fsm, target)
        before = traffic_words(fsm, 3, 6, seed=seed)
        after = traffic_words(target, 3, 6, seed=seed + 1)

        transcripts = {}
        for mode in _serving_modes():
            hw = HardwareFSM.for_migration(fsm, target)
            ref = HardwareFSM.for_migration(fsm, target)
            dispatcher = Dispatcher(mode)
            outputs = []
            for word in before:
                decision = dispatcher.select(hw)
                run = decision.backend.run_batch(word)
                outputs.append(run.outputs)
                assert run.outputs == ref.run(word)
                assert hw.state == ref.state
            hw.run_program(program)
            ref.run_program(program)
            assert hw.realises(target)
            for word in after:
                decision = dispatcher.select(hw)
                run = decision.backend.run_batch(word)
                outputs.append(run.outputs)
                assert run.outputs == ref.run(word)
                assert hw.state == ref.state
            assert hw.cycles == ref.cycles
            assert hw.state_visits == ref.state_visits
            transcripts[mode] = (outputs, hw.state, hw.cycles)

        reference = transcripts["cycle"]
        for mode, transcript in transcripts.items():
            assert transcript == reference, mode
