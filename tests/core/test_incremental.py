"""Unit tests for incremental (bounded-stall) migration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.incremental import (
    Chunk,
    IncrementalMigrator,
    chunks_to_program,
    home_input,
    home_repair,
    incremental_chunks,
    is_blend,
)
from repro.core.jsr import jsr_program
from repro.hw.machine import HardwareFSM
from repro.workloads.library import (
    fig6_m,
    fig6_m_prime,
    ones_detector,
    zeros_detector,
)
from repro.workloads.mutate import grow_target, mutate_target, workload_pair
from repro.workloads.random_fsm import random_fsm


def full_table(hw, target):
    return {
        (i, s): hw.table_entry(i, s)
        for i in target.inputs
        for s in target.states
    }


class TestChunks:
    def test_one_chunk_per_delta(self, fig6_pair):
        m, mp = fig6_pair
        chunks = incremental_chunks(m, mp)
        assert len(chunks) == 4
        assert all(len(c) == 6 for c in chunks)

    def test_home_delta_gets_short_chunk(self):
        src, tgt = ones_detector(), zeros_detector()
        chunks = incremental_chunks(src, tgt, i0="0")
        sizes = sorted(len(c) for c in chunks)
        assert 3 in sizes  # the home entry's own chunk

    def test_concatenation_is_valid_program(self, fig6_pair):
        m, mp = fig6_pair
        chunks = incremental_chunks(m, mp)
        assert chunks_to_program(chunks, m, mp).is_valid()

    def test_trivial_migration_single_chunk(self, detector):
        chunks = incremental_chunks(detector, detector)
        assert len(chunks) == 1
        assert chunks_to_program(chunks, detector, detector).is_valid()

    def test_every_chunk_starts_and_ends_with_reset(self, fig6_pair):
        m, mp = fig6_pair
        for chunk in incremental_chunks(m, mp):
            assert str(chunk.steps[0]) == "rst-transition"
            assert str(chunk.steps[-1]) == "rst-transition"

    def test_rejects_foreign_i0(self, fig6_pair):
        m, mp = fig6_pair
        with pytest.raises(ValueError):
            incremental_chunks(m, mp, i0="zz")

    def test_home_input_avoids_edges_into_new_states(self):
        # Search small grown pairs for one whose first input leads S0
        # into the new state.
        for seed in range(40):
            source = random_fsm(n_states=3, n_inputs=2, n_outputs=2, seed=seed)
            target = grow_target(source, 1, seed=seed)
            s0 = target.reset_state
            first = target.inputs[0]
            if target.next_state(first, s0) in source.states:
                continue
            i0 = home_input(source, target)
            assert target.next_state(i0, s0) in source.states
            assert home_repair(source, target, i0).target == (
                target.next_state(i0, s0)
            )
            return
        pytest.fail("no pair redirects S0's first input into a new state")

    def test_home_input_unchanged_without_growth(self):
        src, tgt = ones_detector(), zeros_detector()
        assert home_input(src, tgt) == tgt.inputs[0]
        source = random_fsm(n_states=6, seed=2)
        target = mutate_target(source, 5, seed=2)
        assert home_input(source, target) == target.inputs[0]

    def test_home_delta_into_a_new_state_runs_last(self):
        # Every input leads S0 into a new state: earlier chunks repair
        # the home entry to its source value; its delta is the last chunk.
        source = random_fsm(n_states=3, n_inputs=2, n_outputs=2, seed=19)
        target = grow_target(source, 2, seed=19)
        s0 = target.reset_state
        new_states = set(target.states) - set(source.states)
        assert all(target.next_state(i, s0) in new_states
                   for i in target.inputs)
        i0 = home_input(source, target)
        repair = home_repair(source, target, i0)
        assert (repair.target, repair.output) == source.table[(i0, s0)]
        chunks = incremental_chunks(source, target)
        assert chunks[-1].delta.entry == (i0, s0)
        for chunk in chunks[:-1]:
            written = [
                step.transition for step in chunk.steps
                if step.transition is not None
                and step.transition.entry == (i0, s0)
                and step.kind.writes
            ]
            assert written[-1] == repair
        assert chunks_to_program(chunks, source, target).is_valid()

    def test_cost_versus_jsr(self, fig6_pair):
        # bounded stalls cost roughly 2x JSR in total cycles
        m, mp = fig6_pair
        total = sum(len(c) for c in incremental_chunks(m, mp))
        assert total <= 2 * len(jsr_program(m, mp))


class TestBlendInvariant:
    def test_holds_between_every_chunk(self, fig6_pair):
        m, mp = fig6_pair
        hw = HardwareFSM.for_migration(m, mp)
        migrator = IncrementalMigrator(hw, m, mp)
        while not migrator.done:
            migrator.stall(6)
            assert is_blend(full_table(hw, mp), m, mp)

    def test_detects_foreign_value(self, fig6_pair):
        m, mp = fig6_pair
        table = dict(m.table)
        table[("1", "S0")] = ("S0", "1")  # in neither machine
        assert not is_blend(table, m, mp)

    def test_traffic_between_chunks_is_well_defined(self, fig6_pair):
        m, mp = fig6_pair
        hw = HardwareFSM.for_migration(m, mp)
        migrator = IncrementalMigrator(hw, m, mp)
        rng = random.Random(0)
        while not migrator.done:
            migrator.stall(6)
            # the machine must process arbitrary traffic without error
            hw.cycle(reset=True)
            hw.run([rng.choice(m.inputs) for _ in range(10)])
        hw.cycle(reset=True)
        assert hw.realises(mp)


class TestIncrementalMigrator:
    def test_budget_below_chunk_makes_no_progress(self, fig6_pair):
        m, mp = fig6_pair
        hw = HardwareFSM.for_migration(m, mp)
        migrator = IncrementalMigrator(hw, m, mp)
        assert migrator.stall(3) == 0
        assert migrator.progress.chunks_done == 0

    def test_large_budget_runs_everything(self, fig6_pair):
        m, mp = fig6_pair
        hw = HardwareFSM.for_migration(m, mp)
        migrator = IncrementalMigrator(hw, m, mp)
        used = migrator.stall(1000)
        assert migrator.done
        assert used == migrator.progress.cycles_spent
        assert hw.realises(mp)

    def test_max_single_stall_bounded(self, fig6_pair):
        m, mp = fig6_pair
        hw = HardwareFSM.for_migration(m, mp)
        migrator = IncrementalMigrator(hw, m, mp)
        while not migrator.done:
            migrator.stall(6)
        assert migrator.progress.max_single_stall <= 6

    def test_next_chunk_cost(self, fig6_pair):
        m, mp = fig6_pair
        hw = HardwareFSM.for_migration(m, mp)
        migrator = IncrementalMigrator(hw, m, mp)
        assert migrator.next_chunk_cost() == 6
        migrator.stall(1000)
        assert migrator.next_chunk_cost() is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 8), st.integers(0, 2000))
def test_property_incremental_equals_monolithic(seed, n_deltas, mut_seed):
    source = random_fsm(n_states=7, seed=seed)
    capacity = len(source.inputs) * len(source.states)
    target = mutate_target(source, min(n_deltas, capacity), seed=mut_seed)
    chunks = incremental_chunks(source, target)
    program = chunks_to_program(chunks, source, target)
    assert program.is_valid()
    hw = HardwareFSM.for_migration(source, target)
    migrator = IncrementalMigrator(hw, source, target)
    while not migrator.done:
        migrator.stall(6)
        assert is_blend(
            {
                (i, s): hw.table_entry(i, s)
                for i in target.inputs
                for s in target.states
            },
            source,
            target,
        )
    assert hw.realises(target)
