"""Multi-stream differential suite across every available backend.

The stream-plane promise: ``run_streams(words, starts)`` is
bit-identical to a per-stream loop of ``run_batch(word, start,
commit=False)`` — for every backend available right now, each
selected through the :class:`~repro.exec.Dispatcher` exactly
as the fleet would.  Property-based over random machines and ragged
batches, including mid-stream ``table_version`` invalidation (the
tables mutate between two stream calls) and sentinel words (a hole
surfaces as :class:`TableMiss` on table backends, isolated by the
per-stream replay the contract prescribes).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.jsr import jsr_program
from repro.exec import (
    Dispatcher,
    TableMiss,
    names,
    run_streams,
    unavailable_reason,
)
from repro.hw.faults import erase_entry
from repro.hw.machine import HardwareFSM
from repro.workloads.library import fig6_m, fig6_m_prime, ones_detector
from repro.workloads.mutate import mutate_target
from repro.workloads.random_fsm import random_fsm
from repro.workloads.suite import traffic_words


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)


def _serving_modes():
    return [name for name in names() if unavailable_reason(name) is None]


@st.composite
def machines(draw):
    return random_fsm(
        n_states=draw(st.integers(2, 6)),
        n_inputs=draw(st.integers(1, 3)),
        n_outputs=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 10_000)),
    )


def _ragged(machine, seed):
    words = traffic_words(machine, 8, 8, seed=seed)
    return [word[: (i * 3) % 9] for i, word in enumerate(words)]


def _erased(machine, entry):
    hw = HardwareFSM(machine)
    erase_entry(hw, entry=entry)
    return hw


def _flat(runs):
    return [(r.outputs, r.final_state, dict(r.visits)) for r in runs]


class TestEveryRegisteredBackend:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(machines(), st.integers(0, 10_000))
    def test_streams_match_per_stream_run_batch(self, fsm, seed):
        words = _ragged(fsm, seed)
        states = fsm.states
        starts = [
            None if i % 3 == 0 else states[i % len(states)]
            for i in range(len(words))
        ]
        transcripts = {}
        for mode in _serving_modes():
            hw = HardwareFSM(fsm)
            decision = Dispatcher(mode).select(hw, streams=len(words))
            backend = decision.backend
            got = _flat(
                run_streams(backend, words, starts=starts, site="test")
            )
            # The contract: identical to the pure-query per-stream loop.
            want = _flat(
                backend.run_batch(
                    word,
                    start=hw.reset_state if start is None else start,
                    commit=False,
                )
                for word, start in zip(words, starts)
            )
            assert got == want, mode
            # Pure query: nothing committed, datapath still at reset.
            assert hw.state == fsm.reset_state
            transcripts[mode] = got
        reference = transcripts["cycle"]
        for mode, transcript in transcripts.items():
            assert transcript == reference, mode

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(machines(), st.integers(0, 10_000), st.integers(1, 4))
    def test_mid_stream_table_version_invalidation(self, fsm, seed, n_deltas):
        # A migration lands between two stream calls: the compiled
        # view's table_version goes stale and the dispatcher must
        # recompile before the second call — on every backend.
        capacity = len(fsm.inputs) * len(fsm.states)
        target = mutate_target(fsm, min(n_deltas, capacity), seed=seed)
        program = jsr_program(fsm, target)
        before = _ragged(fsm, seed)
        after = _ragged(target, seed + 1)
        transcripts = {}
        for mode in _serving_modes():
            hw = HardwareFSM.for_migration(fsm, target)
            dispatcher = Dispatcher(mode)
            decision = dispatcher.select(hw, streams=len(before))
            got_before = _flat(decision.backend.run_streams(before))
            hw.run_program(program)
            assert hw.realises(target)
            decision = dispatcher.select(hw, streams=len(after))
            got_after = _flat(decision.backend.run_streams(after))
            transcripts[mode] = (got_before, got_after)
        reference = transcripts["cycle"]
        # ... and the cycle transcript itself matches the behavioural
        # models, so agreement is with the spec, not just mutual.
        for word, (outputs, final, _) in zip(before, reference[0]):
            assert outputs == fsm.run(word)
        for word, (outputs, final, _) in zip(after, reference[1]):
            assert outputs == target.run(word)
        for mode, transcript in transcripts.items():
            assert transcript == reference, mode


class TestSentinelStreams:
    def test_hole_raises_table_miss_and_replay_isolates_it(self):
        # One lane starts in a never-written state (or, in a ragged
        # batch, walks into an erased F-word two steps in): the whole
        # stream call misses; the per-stream replay pins that lane.
        source, target = fig6_m(), fig6_m_prime()
        extra = next(s for s in target.states if s not in source.states)
        detector = ones_detector()
        cases = [
            (
                lambda: HardwareFSM.for_migration(source, target),
                [[source.inputs[0]], [source.inputs[0]]],
                [source.reset_state, extra],
            ),
            (
                lambda: _erased(detector, ("1", "S1")),
                [["0"] * 5, ["1", "1", "0"], ["0"]],
                [None, None, None],
            ),
        ]
        for build, words, starts in cases:
            for mode in _serving_modes():
                if mode == "cycle":
                    continue  # the netlist raises its own datapath fault
                hw = build()
                backend = Dispatcher(mode).select(
                    hw, streams=len(words)
                ).backend
                with pytest.raises(TableMiss):
                    backend.run_streams(words, starts=starts)
                failed = []
                for i, (word, start) in enumerate(zip(words, starts)):
                    try:
                        backend.run_batch(
                            word,
                            start=hw.reset_state if start is None else start,
                            commit=False,
                        )
                    except TableMiss:
                        failed.append(i)
                assert failed == [1], mode

    def test_empty_stream_batch_is_served(self):
        fsm = fig6_m()
        for mode in _serving_modes():
            hw = HardwareFSM(fsm)
            backend = Dispatcher(mode).select(hw).backend
            assert list(backend.run_streams([])) == []
            (run,) = backend.run_streams([[]])
            assert run.outputs == [] and run.final_state == fsm.reset_state
