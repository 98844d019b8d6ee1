"""Unit tests for repro.core.passes (optimization pass pipeline)."""

import pytest

from repro.core.incremental import chunks_to_program, incremental_chunks, is_blend
from repro.core.jsr import jsr_program
from repro.core.passes import (
    OPT_LEVELS,
    CoalesceRepairs,
    CollapseResets,
    EliminateDeadWrites,
    Pass,
    PassPipeline,
    normalise_level,
    optimise_chunks,
    optimise_program,
)
from repro.core.program import (
    Program,
    StepKind,
    reset_step,
    traverse_step,
    write_step,
)
from repro.fleet.plancache import order_chunks
from repro.obs import configure
from repro.obs.instruments import PASS_RUNS
from repro.workloads.library import fig6_m, fig6_m_prime, sequence_detector
from repro.workloads.suite import migration_suite

GROW = ("ctrl/pattern-grow", "paper/fig6", "paper/table1", "proto/policy-flip")


def _pair(name):
    return migration_suite()[name]()


class TestLevels:
    @pytest.mark.parametrize(
        "spelling,expected",
        [
            ("O2", "O2"), ("-O2", "O2"), ("o2", "O2"), (0, "O0"),
            ("2", "O2"), (None, "O0"), ("-o0", "O0"),
        ],
    )
    def test_normalise_spellings(self, spelling, expected):
        assert normalise_level(spelling) == expected

    @pytest.mark.parametrize(
        "bad", ["O3", "fast", "", "-O9", 7, "O1", "-O1", "o1", "1"]
    )
    def test_bad_levels_raise(self, bad):
        with pytest.raises(ValueError, match="expected one of O0, O2"):
            normalise_level(bad)

    def test_level_pass_sets(self):
        assert OPT_LEVELS == ("O0", "O2")
        assert PassPipeline.for_level("O0").passes == ()
        o2 = PassPipeline.for_level("O2")
        assert [p.name for p in o2.passes] == [
            "dead-writes", "coalesce-repairs", "collapse-resets",
        ]
        assert o2.max_rounds == 4

    def test_o0_is_identity(self):
        source, target = fig6_m(), fig6_m_prime()
        program = jsr_program(source, target)
        optimized, report = optimise_program(program, "O0")
        assert optimized is program
        assert report.steps_before == report.steps_after == len(program)


class TestPassesPreserveValidity:
    @pytest.mark.parametrize("workload", GROW)
    @pytest.mark.parametrize("level", OPT_LEVELS)
    def test_jsr_optimized_stays_valid(self, workload, level):
        source, target = _pair(workload)
        program = jsr_program(source, target)
        optimized, _report = optimise_program(program, level)
        assert optimized.is_valid()
        assert len(optimized) <= len(program)
        assert optimized.write_count <= program.write_count

    @pytest.mark.parametrize("workload", GROW)
    def test_incremental_monolith_shrinks(self, workload):
        source, target = _pair(workload)
        program = chunks_to_program(
            incremental_chunks(source, target), source, target
        )
        optimized, _report = optimise_program(program, "O2")
        assert optimized.is_valid()
        # the chunked form is deliberately redundant; -O2 must reclaim
        # a substantial share of it
        assert len(optimized) < len(program)

    def test_collapse_resets_drops_noop_reset(self):
        source, target = fig6_m(), fig6_m_prime()
        program = jsr_program(source, target)
        steps = list(program.steps)
        # a doubled reset is a guaranteed no-op
        steps.insert(1, reset_step())
        doubled = program.with_steps(steps)
        assert doubled.is_valid()
        collapsed = CollapseResets().run(doubled)
        assert len(collapsed) <= len(program)
        assert collapsed.is_valid()

    def test_leading_reset_is_never_dropped(self):
        source, target = fig6_m(), fig6_m_prime()
        program = jsr_program(source, target)
        assert program.steps[0].kind is StepKind.RESET
        optimized, _ = optimise_program(program, "O2")
        # position independence: a trigger can fire from any state, so
        # the program must keep stepping into the reset state first
        assert optimized.steps[0].kind is StepKind.RESET

    def test_opt_meta_annotation(self):
        source, target = fig6_m(), fig6_m_prime()
        optimized, report = optimise_program(
            jsr_program(source, target), "O2"
        )
        opt = optimized.meta["opt"]
        assert opt["level"] == "O2"
        assert opt["steps_after"] == len(optimized)
        assert opt["steps_before"] == report.steps_before
        assert all("name" in entry for entry in opt["passes"])

    def test_report_renders(self):
        source, target = fig6_m(), fig6_m_prime()
        _optimized, report = optimise_program(jsr_program(source, target), "O2")
        text = report.render()
        assert "-O2" in text and "|Z|" in text
        for result in report.results:
            assert result.name in text


class _LyingPass(Pass):
    """Deliberately broken: drops the final write, corrupting the table."""

    name = "lying"

    def run(self, program: Program) -> Program:
        steps = list(program.steps)
        for idx in range(len(steps) - 1, -1, -1):
            if steps[idx].kind.writes:
                del steps[idx]
                break
        return program.with_steps(steps)


class _CrashingPass(Pass):
    name = "crashing"

    def run(self, program: Program) -> Program:
        raise RuntimeError("optimizer bug")


class _PaddingPass(Pass):
    """Deliberately broken the other way: lengthens the program."""

    name = "padding"

    def run(self, program: Program) -> Program:
        return program.with_steps(list(program.steps) + [reset_step()])


class TestPipelineGate:
    """A buggy pass must degrade to a no-op, never ship a broken program."""

    def _program(self):
        source, target = fig6_m(), fig6_m_prime()
        return jsr_program(source, target)

    def test_invalid_output_is_rejected(self):
        program = self._program()
        pipeline = PassPipeline([_LyingPass()], level="test")
        optimized, report = pipeline.run(program)
        assert optimized == program
        assert optimized.is_valid()
        [result] = report.results
        assert not result.accepted
        assert "replay validation failed" in result.reason

    def test_raising_pass_is_contained(self):
        program = self._program()
        pipeline = PassPipeline([_CrashingPass()], level="test")
        optimized, report = pipeline.run(program)
        assert optimized == program
        [result] = report.results
        assert not result.accepted
        assert "optimizer bug" in result.reason

    def test_lengthening_pass_is_rejected(self):
        program = self._program()
        pipeline = PassPipeline([_PaddingPass()], level="test")
        optimized, report = pipeline.run(program)
        assert optimized == program
        [result] = report.results
        assert not result.accepted
        assert "lengthened" in result.reason

    @pytest.mark.parametrize(
        "bad", [_LyingPass, _CrashingPass, _PaddingPass],
        ids=lambda cls: cls.name,
    )
    def test_refusal_counts_one_rejected_run(self, bad):
        pipeline = PassPipeline([bad()], level="test")
        labels = {"pass": bad.name}
        configure(metrics=True)
        try:
            pipeline.run(self._program())
            assert PASS_RUNS.value(outcome="rejected", **labels) == 1
            assert PASS_RUNS.value(outcome="accepted", **labels) == 0
            assert PASS_RUNS.value(outcome="noop", **labels) == 0
        finally:
            configure(metrics=False)

    def test_good_passes_still_run_after_a_bad_one(self):
        program = self._program()
        pipeline = PassPipeline(
            [_CrashingPass(), EliminateDeadWrites(), CollapseResets()],
            level="test",
        )
        optimized, report = pipeline.run(program)
        assert optimized.is_valid()
        assert len(optimized) <= len(program)
        assert report.rejected and report.rejected[0].name == "crashing"


class TestIndividualPasses:
    def test_dead_write_removed(self):
        source, target = fig6_m(), fig6_m_prime()
        program = jsr_program(source, target)
        # plant a dead self-loop write: it rewrites an entry that the
        # very next step overwrites, and it does not move the machine
        states = [step for step in program.steps]
        first_write = next(
            i for i, s in enumerate(states) if s.kind.writes
        )
        victim_entry = states[first_write].transition
        from repro.core.passes.base import pre_states

        pre = pre_states(program)[first_write]
        from repro.core.fsm import Transition

        planted = write_step(
            Transition(
                victim_entry.input, pre, pre, victim_entry.output
            ),
            StepKind.WRITE_TEMPORARY,
        )
        padded = program.with_steps(
            states[:first_write] + [planted] + states[first_write:]
        )
        assert padded.is_valid()
        cleaned = EliminateDeadWrites().run(padded)
        assert len(cleaned) == len(program)
        assert cleaned.is_valid()

    def test_coalesce_only_touches_repair_and_temporary(self):
        source, target = _pair("ctrl/pattern-grow")
        program = chunks_to_program(
            incremental_chunks(source, target), source, target
        )
        coalesced = CoalesceRepairs().run(program)
        assert coalesced.is_valid()
        deltas = [
            s.transition for s in program.steps
            if s.kind is StepKind.WRITE_DELTA
        ]
        kept = [
            s.transition for s in coalesced.steps
            if s.kind is StepKind.WRITE_DELTA
        ]
        assert deltas == kept  # delta writes are the migration: untouchable


class TestChunkOptimiser:
    def _chunks(self, name="ctrl/pattern-grow"):
        source, target = _pair(name)
        ordered = order_chunks(
            incremental_chunks(source, target), source, target
        )
        return ordered, source, target

    def test_optimised_chunks_still_migrate(self):
        ordered, source, target = self._chunks()
        optimised = optimise_chunks(ordered, source, target)
        assert chunks_to_program(optimised, source, target).is_valid()

    def test_optimised_chunks_cost_less(self):
        ordered, source, target = self._chunks()
        optimised = optimise_chunks(ordered, source, target)
        writes = lambda cs: sum(  # noqa: E731
            1 for c in cs for s in c.steps if s.kind.writes
        )
        cycles = lambda cs: sum(len(c.steps) for c in cs)  # noqa: E731
        assert cycles(optimised) < cycles(ordered)
        assert writes(optimised) < writes(ordered)

    def test_every_prefix_is_a_blend(self):
        ordered, source, target = self._chunks()
        optimised = optimise_chunks(ordered, source, target)
        from repro.core.program import ReplayMachine

        machine = ReplayMachine.for_migration(source, target)
        for chunk in optimised:
            for step in chunk.steps:
                machine.apply(step)
            assert is_blend(machine.table, source, target)
            # parked at the target reset state between chunks, so live
            # traffic resumes from a well-defined place
            assert machine.state == target.reset_state

    def test_chunk_contract_leading_reset_kept(self):
        ordered, source, target = self._chunks()
        for chunk in optimise_chunks(ordered, source, target):
            assert chunk.steps[0].kind is StepKind.RESET

    def test_o0_returns_chunks_unchanged(self):
        ordered, source, target = self._chunks()
        assert optimise_chunks(ordered, source, target, level="O0") == ordered

    def test_gate_falls_back_on_unexpected_shapes(self):
        # chunks from a *different* pair must fail the gate, not crash
        ordered, source, target = self._chunks()
        other_s = sequence_detector("1011")
        other_t = sequence_detector("0110")
        result = optimise_chunks(ordered, other_s, other_t)
        assert result == list(ordered)
