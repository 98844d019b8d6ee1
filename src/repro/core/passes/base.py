"""Pass protocol and cost reporting for the optimization pipeline.

A *pass* is a correctness-preserving rewrite of a reconfiguration
program: it takes a valid :class:`~repro.core.program.Program` and
returns one that migrates the same pair in no more cycles.  Passes never
self-certify — the :class:`~repro.core.passes.pipeline.PassPipeline`
replays every candidate and rejects any transform that fails validation
or lengthens the program, so a buggy pass degrades to a no-op instead of
shipping a broken migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..fsm import State
from ..program import Program, ReplayMachine


class Pass:
    """Base class for program-optimization passes.

    Subclasses set :attr:`name` and implement :meth:`run`.  ``run`` may
    assume its input replays validly (the pipeline guarantees it) and
    should return either a rewritten program (use
    :meth:`Program.with_steps` to preserve provenance) or the input
    object unchanged when there is nothing to do.
    """

    name: str = "pass"

    def run(self, program: Program) -> Program:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def pre_states(program: Program) -> List[State]:
    """The machine state *before* each step of a valid program.

    The shared simulation helper for passes that need trajectory
    information (which state a step fires from) without re-implementing
    replay.
    """
    machine = ReplayMachine.for_migration(program.source, program.target)
    states: List[State] = []
    for step in program.steps:
        states.append(machine.state)
        machine.apply(step)
    return states


@dataclass(frozen=True)
class PassResult:
    """Cost-report row for one pass execution inside a pipeline run."""

    name: str
    steps_before: int
    steps_after: int
    writes_before: int
    writes_after: int
    seconds: float
    accepted: bool
    reason: Optional[str] = None

    @property
    def eliminated(self) -> int:
        """Steps removed (0 for a no-op or rejected pass)."""
        return self.steps_before - self.steps_after if self.accepted else 0

    @property
    def fired(self) -> bool:
        """Accepted and removed steps or writes: the pipeline's fixpoint
        test, and what ``make bench-passes`` counts per pass."""
        return self.accepted and (
            self.eliminated > 0 or self.writes_after < self.writes_before
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "steps_before": self.steps_before,
            "steps_after": self.steps_after,
            "writes_before": self.writes_before,
            "writes_after": self.writes_after,
            "seconds": self.seconds,
            "accepted": self.accepted,
            "reason": self.reason,
        }


@dataclass
class OptReport:
    """Per-pass cost report of one full pipeline run."""

    level: str
    steps_before: int
    steps_after: int = 0
    writes_before: int = 0
    writes_after: int = 0
    seconds: float = 0.0
    rounds: int = 0
    results: List[PassResult] = field(default_factory=list)

    @property
    def eliminated(self) -> int:
        return self.steps_before - self.steps_after

    @property
    def rejected(self) -> List[PassResult]:
        """Results of passes the validation gate refused to ship."""
        return [r for r in self.results if not r.accepted and r.reason]

    def to_json(self) -> Dict[str, Any]:
        return {
            "level": self.level,
            "steps_before": self.steps_before,
            "steps_after": self.steps_after,
            "writes_before": self.writes_before,
            "writes_after": self.writes_after,
            "seconds": self.seconds,
            "rounds": self.rounds,
            "passes": [r.to_json() for r in self.results],
        }

    def render(self) -> str:
        """Human-readable multi-line cost report."""
        lines = [
            f"pass pipeline -{self.level}: |Z| {self.steps_before} -> "
            f"{self.steps_after} ({self.eliminated} steps eliminated), "
            f"writes {self.writes_before} -> {self.writes_after}, "
            f"{self.rounds} round{'s' if self.rounds != 1 else ''}, "
            f"{self.seconds * 1e3:.2f} ms"
        ]
        for r in self.results:
            verdict = "ok" if r.accepted else f"REJECTED ({r.reason})"
            delta = r.steps_before - r.steps_after
            lines.append(
                f"  {r.name:<20} -{delta:>3} steps  "
                f"({r.steps_before} -> {r.steps_after})  "
                f"{r.seconds * 1e3:8.3f} ms  {verdict}"
            )
        if not self.results:
            lines.append("  (no passes at this level)")
        return "\n".join(lines)
