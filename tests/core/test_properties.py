"""Property-based tests (hypothesis) for the core invariants.

The central invariants of the paper, checked on randomly drawn machines
and migrations:

* the JSR program is always valid and exactly ``3·(|Td|+1)`` long
  (Thms. 4.1/4.2) unless the home entry is itself a delta;
* every heuristic's program really migrates M into M' and respects the
  ``|Td|`` lower bound (Thm. 4.3);
* the delta set is exactly the disagreement set of the two tables;
* decoding any permutation of the delta set yields a valid program;
* the length-only decoder the EA scores with agrees with the program
  decoder on every permutation and option.
"""

import random as _random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decode import DecodeError, LengthDecoder, decode_order
from repro.core.delta import delta_count, delta_transitions
from repro.core.ea import EAConfig, evolve_program
from repro.core.fsm import FSM
from repro.core.jsr import jsr_length, jsr_program
from repro.workloads.mutate import grow_target, mutate_target
from repro.workloads.random_fsm import random_fsm


@st.composite
def machines(draw, max_states=8, max_inputs=3, max_outputs=3):
    """A random completely specified deterministic Mealy machine."""
    return random_fsm(
        n_states=draw(st.integers(2, max_states)),
        n_inputs=draw(st.integers(1, max_inputs)),
        n_outputs=draw(st.integers(2, max_outputs)),
        connect=draw(st.booleans()),
        seed=draw(st.integers(0, 10_000)),
    )


@st.composite
def migrations(draw):
    """A (source, target) pair derived by mutation and/or growth."""
    source = draw(machines())
    capacity = len(source.inputs) * len(source.states)
    n_deltas = draw(st.integers(0, min(10, capacity)))
    target = mutate_target(source, n_deltas, seed=draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        target = grow_target(target, draw(st.integers(1, 2)),
                             seed=draw(st.integers(0, 10_000)))
    return source, target


@st.composite
def grown_migrations(draw):
    """A pair that only adds states (or, reversed, only drops them).

    Every delta touches a new state, so without temporary transitions
    many orderings cannot be decoded at all.
    """
    source = draw(machines())
    capacity = len(source.inputs) * len(source.states)
    grown = grow_target(source, draw(st.integers(1, min(3, capacity))),
                        seed=draw(st.integers(0, 10_000)))
    return (grown, source) if draw(st.booleans()) else (source, grown)


@settings(max_examples=60, deadline=None)
@given(migrations())
def test_jsr_is_always_valid(pair):
    source, target = pair
    program = jsr_program(source, target)
    assert program.is_valid()


@settings(max_examples=60, deadline=None)
@given(migrations())
def test_jsr_length_formula(pair):
    source, target = pair
    program = jsr_program(source, target)
    assert len(program) == jsr_length(source, target)
    assert len(program) <= 3 * (delta_count(source, target) + 1)


@settings(max_examples=60, deadline=None)
@given(migrations())
def test_lower_bound_holds_for_all_heuristics(pair):
    source, target = pair
    td = delta_count(source, target)
    assert len(jsr_program(source, target)) >= td
    deltas = delta_transitions(source, target)
    assert len(decode_order(source, target, deltas)) >= td


@settings(max_examples=40, deadline=None)
@given(migrations(), st.integers(0, 1_000_000))
def test_decode_any_permutation_is_valid(pair, shuffle_seed):
    source, target = pair
    deltas = delta_transitions(source, target)
    rng = _random.Random(shuffle_seed)
    rng.shuffle(deltas)
    program = decode_order(source, target, deltas)
    assert program.is_valid()


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(migrations(), grown_migrations(), st.tuples(machines(), machines())),
    st.integers(0, 1_000_000),
)
def test_length_decoder_matches_decode_order(pair, shuffle_seed):
    source, target = pair
    rng = _random.Random(shuffle_seed)
    for i0 in target.inputs:
        for start in (None, source.reset_state, target.reset_state):
            for smart_connect in (False, True):
                for use_temporary in (True, False):
                    options = dict(
                        i0=i0,
                        start=start,
                        smart_connect=smart_connect,
                        use_temporary=use_temporary,
                    )
                    decoder = LengthDecoder(source, target, **options)
                    perm = list(range(len(decoder.deltas)))
                    rng.shuffle(perm)
                    order = [decoder.deltas[k] for k in perm]
                    try:
                        want = len(decode_order(source, target, order, **options))
                    except DecodeError:
                        with pytest.raises(DecodeError):
                            decoder.length(perm)
                        continue
                    assert decoder.length(perm) == want


@settings(max_examples=25, deadline=None)
@given(migrations())
def test_ea_dominates_nothing_but_respects_invariants(pair):
    source, target = pair
    result = evolve_program(
        source, target, config=EAConfig(population_size=10, generations=6, seed=0)
    )
    assert result.program.is_valid()
    assert result.best_length >= delta_count(source, target)
    assert result.best_length <= 3 * (delta_count(source, target) + 1)


@settings(max_examples=60, deadline=None)
@given(machines())
def test_delta_set_of_self_migration_is_empty(machine):
    assert delta_count(machine, machine) == 0


@settings(max_examples=60, deadline=None)
@given(machines(), st.integers(0, 6), st.integers(0, 10_000))
def test_mutation_controls_delta_count_exactly(machine, k, seed):
    capacity = len(machine.inputs) * len(machine.states)
    k = min(k, capacity)
    target = mutate_target(machine, k, seed=seed)
    assert delta_count(machine, target) == k


@settings(max_examples=60, deadline=None)
@given(migrations())
def test_deltas_are_exactly_the_table_disagreements(pair):
    source, target = pair
    deltas = {t.entry for t in delta_transitions(source, target)}
    src_table = source.table
    for trans in target.transitions():
        disagrees = src_table.get(trans.entry) != (trans.target, trans.output)
        assert (trans.entry in deltas) == disagrees


@settings(max_examples=60, deadline=None)
@given(migrations())
def test_replay_reconstructs_target_table(pair):
    source, target = pair
    result = jsr_program(source, target).replay()
    assert result.ok
    for trans in target.transitions():
        assert result.table[trans.entry] == (trans.target, trans.output)


@settings(max_examples=50, deadline=None)
@given(machines(), st.lists(st.integers(0, 5), max_size=30))
def test_run_and_trace_agree(machine, raw_word):
    word = [machine.inputs[v % len(machine.inputs)] for v in raw_word]
    outputs = machine.run(word)
    trace = machine.trace(word)
    assert [t.output for t in trace] == outputs
    position = machine.reset_state
    for t in trace:
        assert t.source == position
        position = t.target
