"""The replay-validated pass pipeline and its named opt levels.

``PassPipeline`` runs a sequence of passes over a program, **gating every
transform behind validation**: a candidate is shipped only if it still
replays to an exact migration and is no longer than its input.  A pass
that raises, lengthens a program, or emits an invalid one is recorded as
rejected in the cost report and its output discarded — an optimizer bug
degrades to a missed optimization, never to a broken migration.

Opt levels (mirroring compiler convention):

``-O0``
    No passes; the synthesiser's program ships verbatim.  Thm. 4.2's
    ``3·(|T_d|+1)`` JSR bound is the ``-O0`` baseline the benchmarks
    compare against.
``-O2``
    Dead-write elimination, repair/temporary coalescing and reset
    collapsing, iterated to a fixpoint — each pass exposes victims for
    the others (a coalesced repair leaves a double reset behind), so the
    pipeline loops until a full round changes nothing (at most four
    rounds).  No pass rewrites traverse runs: the Sec. 4.6 decoder joins
    consecutive deltas by a path of at most one transition, or else by
    reset + temporary, so the runs it emits are already shortest.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional, Tuple, Union

from ...obs import instruments as _instruments
from ...obs.tracing import span as _span
from ..program import Program
from .base import OptReport, Pass, PassResult
from .coalesce import CoalesceRepairs
from .dead_writes import EliminateDeadWrites
from .resets import CollapseResets

OptLevel = Union[str, int, None]

#: Canonical names of the supported opt levels.
OPT_LEVELS: Tuple[str, ...] = ("O0", "O2")


def normalise_level(level: OptLevel) -> str:
    """Canonicalise an opt-level spelling: ``-O2``/``o2``/``2`` → ``O2``.

    ``None`` means "no optimization requested" and maps to ``O0``.
    """
    if level is None:
        return "O0"
    text = str(level).strip().lstrip("-")
    if text.upper().startswith("O"):
        text = text[1:]
    if f"O{text}" in OPT_LEVELS:
        return f"O{text}"
    raise ValueError(
        f"unknown opt level {level!r}; expected one of "
        f"{', '.join(OPT_LEVELS)} (any of the spellings -O2 / O2 / 2)"
    )


class PassPipeline:
    """A validated sequence of optimization passes.

    Parameters
    ----------
    passes:
        The passes to run, in order.
    level:
        Label used in reports, metrics and cache keys.
    max_rounds:
        Upper bound on fixpoint iteration; 1 runs each pass once.
    """

    def __init__(
        self,
        passes: Iterable[Pass],
        level: str = "custom",
        max_rounds: int = 1,
    ):
        self.passes: Tuple[Pass, ...] = tuple(passes)
        self.level = level
        self.max_rounds = max(1, max_rounds)

    @classmethod
    def for_level(cls, level: OptLevel) -> "PassPipeline":
        """The standard pipeline for ``-O0`` (no passes) or ``-O2``."""
        name = normalise_level(level)
        if name == "O0":
            return cls((), level=name)
        return cls(
            (EliminateDeadWrites(), CoalesceRepairs(), CollapseResets()),
            level=name,
            max_rounds=4,
        )

    def run(self, program: Program) -> Tuple[Program, OptReport]:
        """Optimize ``program``; returns the result and the cost report.

        The returned program is *always* valid if the input was: every
        pass output is replay-gated, and a rejected pass leaves the
        program untouched.  The result carries its provenance in
        ``meta["opt"]`` (level plus per-pass log), which the program
        serialisation round-trips.
        """
        started = perf_counter()
        report = OptReport(
            level=self.level,
            steps_before=len(program),
            writes_before=program.write_count,
        )
        current = program
        with _span(
            "passes.pipeline", level=self.level, steps=len(program)
        ) as sp:
            for _round in range(self.max_rounds):
                report.rounds += 1
                changed = False
                for pss in self.passes:
                    current, result = self._run_gated(pss, current)
                    report.results.append(result)
                    changed = changed or result.fired
                if not changed:
                    break
            sp.attrs["steps_after"] = len(current)
        report.steps_after = len(current)
        report.writes_after = current.write_count
        report.seconds = perf_counter() - started
        if self.passes:
            current = self._annotate(current, report)
        return current, report

    # ------------------------------------------------------------------
    def _run_gated(
        self, pss: Pass, program: Program
    ) -> Tuple[Program, PassResult]:
        """Run one pass behind the replay-validation gate."""
        pass_started = perf_counter()
        reason: Optional[str] = None
        candidate: Optional[Program] = None
        try:
            candidate = pss.run(program)
        except Exception as exc:  # a buggy pass must never propagate
            reason = f"pass raised {type(exc).__name__}: {exc}"
        if candidate is not None and reason is None:
            if len(candidate) > len(program):
                reason = (
                    f"lengthened program ({len(program)} -> {len(candidate)})"
                )
            elif candidate is not program and not candidate.replay().ok:
                reason = "replay validation failed"
        seconds = perf_counter() - pass_started
        accepted = reason is None
        final = candidate if accepted else program
        result = PassResult(
            name=pss.name,
            steps_before=len(program),
            steps_after=len(final),
            writes_before=program.write_count,
            writes_after=final.write_count,
            seconds=seconds,
            accepted=accepted,
            reason=reason,
        )
        outcome = "rejected" if not accepted else (
            "accepted" if final is not program else "noop"
        )
        _instruments.PASS_RUNS.inc(outcome=outcome, **{"pass": pss.name})
        return final, result

    @staticmethod
    def _annotate(program: Program, report: OptReport) -> Program:
        """Attach the optimization provenance to ``meta["opt"]``."""
        annotated = program.with_steps(program.steps)
        annotated.meta = dict(annotated.meta)
        annotated.meta["opt"] = {
            "level": report.level,
            "steps_before": report.steps_before,
            "steps_after": report.steps_after,
            "passes": [
                {
                    "name": r.name,
                    "steps_before": r.steps_before,
                    "steps_after": r.steps_after,
                    "accepted": r.accepted,
                }
                for r in report.results
            ],
        }
        return annotated


def optimise_program(
    program: Program, level: OptLevel = "O2"
) -> Tuple[Program, OptReport]:
    """One-call convenience: run the standard pipeline for ``level``."""
    return PassPipeline.for_level(level).run(program)
