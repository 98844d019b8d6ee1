"""The JSR (Jump, Set, Return) heuristic (paper Sec. 4.4).

The JSR heuristic constructively proves Theorem 4.1 (any machine ``M`` can
always be reconfigured into any machine ``M'``): from the reset state it
*jumps* to the source state of a delta transition through a temporary
transition, *sets* (rewrites) the delta transition, and *returns* to the
reset state via reset — three cycles per delta transition.  All temporary
transitions reuse the single table entry ``(i_0, S_0')``, so only that one
entry is left dirty, and two final cycles repair it.  The resulting
program length is exactly ``3·(|T_d| + 1)`` (Thm. 4.2) whenever the entry
``(i_0, S_0')`` is not itself a delta transition, and ``3·|T_d|`` when it
is (that delta is then absorbed by the final repair write).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..obs.instruments import record_synthesis
from ..obs.tracing import span as _span
from .builder import ProgramBuilder
from .delta import delta_transitions
from .fsm import FSM, Input, Transition
from .program import Program, StepKind


def jsr_program(
    source: FSM,
    target: FSM,
    i0: Optional[Input] = None,
    order: Optional[Sequence[Transition]] = None,
) -> Program:
    """Synthesise a reconfiguration program with the JSR heuristic.

    Parameters
    ----------
    source, target:
        The migration pair ``M`` → ``M'``.
    i0:
        The constant input condition used for every temporary transition
        (the paper's "any input state i ∈ I' of M'"); defaults to the
        first input symbol of the target machine.
    order:
        Optional explicit ordering of the delta transitions (the JSR
        program length does not depend on it, but traces of specific
        orders — e.g. the Fig. 9 walkthrough — do).

    Returns a :class:`~repro.core.program.Program` that is always valid
    (replays to an exact migration) regardless of the machines' shape —
    the constructive proof of Theorem 4.1.

    >>> from repro.workloads.library import fig6_m, fig6_m_prime
    >>> prog = jsr_program(fig6_m(), fig6_m_prime())
    >>> len(prog)  # 3 * (|Td| + 1) with |Td| = 4
    15
    >>> prog.is_valid()
    True
    """
    with _span(
        "jsr.synthesise", source=source.name, target=target.name
    ) as sp:
        program = _jsr_program(source, target, i0=i0, order=order)
        sp.attrs["length"] = len(program)
    record_synthesis("jsr")
    return program


def _jsr_program(
    source: FSM,
    target: FSM,
    i0: Optional[Input] = None,
    order: Optional[Sequence[Transition]] = None,
) -> Program:
    if i0 is None:
        i0 = target.inputs[0]
    elif i0 not in target.inputs:
        raise ValueError(f"i0 = {i0!r} is not an input symbol of the target")

    s0 = target.reset_state
    deltas = list(order) if order is not None else delta_transitions(source, target)
    if order is not None:
        expected = set(delta_transitions(source, target))
        if set(deltas) != expected or len(deltas) != len(expected):
            raise ValueError("order must be a permutation of the delta set")

    home_entry = (i0, s0)
    builder = ProgramBuilder(source, target, method="jsr")
    builder.reset()
    for td in deltas:
        if td.entry == home_entry:
            # The delta occupying the home entry is written by the final
            # repair; scheduling it here would be undone by the next jump.
            continue
        jump = Transition(i0, s0, td.source, target.output(i0, s0))
        builder.write_temporary(jump)
        builder.write_delta(td)
        builder.reset()
    repair = Transition(i0, s0, target.next_state(i0, s0), target.output(i0, s0))
    builder.write_repair(repair)
    builder.reset()
    return builder.build()


def jsr_length(source: FSM, target: FSM, i0: Optional[Input] = None) -> int:
    """Closed-form JSR program length without building the program.

    ``3·(|T_d| + 1)`` in general; ``3·|T_d|`` when the home entry
    ``(i_0, S_0')`` is itself a delta transition.
    """
    if i0 is None:
        i0 = target.inputs[0]
    deltas = delta_transitions(source, target)
    home = (i0, target.reset_state)
    looped = sum(1 for td in deltas if td.entry != home)
    return 1 + 3 * looped + 2


def jsr_trace(
    source: FSM,
    target: FSM,
    i0: Optional[Input] = None,
    order: Optional[Sequence[Transition]] = None,
) -> List[str]:
    """Readable step-by-step JSR narration (matches the Fig. 9 walkthrough)."""
    program = jsr_program(source, target, i0=i0, order=order)
    lines: List[str] = []
    for idx, step in enumerate(program):
        if step.kind is StepKind.RESET:
            lines.append(f"z{idx}: take reset transition to {target.reset_state}")
        elif step.kind is StepKind.WRITE_TEMPORARY:
            trans = step.transition
            lines.append(
                f"z{idx}: jump via temporary transition {trans} "
                f"(entry ({trans.input}, {trans.source}) becomes a delta)"
            )
        elif step.kind is StepKind.WRITE_REPAIR:
            lines.append(f"z{idx}: repair home entry with {step.transition}")
        else:
            lines.append(f"z{idx}: reconfigure delta transition {step.transition}")
    return lines
