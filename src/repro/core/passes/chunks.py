"""Traffic-safe optimization of incremental (live-migration) chunks.

The monolithic passes cannot be applied to a *chunked* migration
wholesale: between chunks live traffic runs on the blend table, so each
chunk must keep its contract — start with a reset (position
independence), park the machine in the target's reset state, and leave
every table entry at either its source or its target value (the blend
invariant of :mod:`repro.core.incremental`).

Within that contract there is still real slack.  Threading the planned
blend table through the chunks in execution order (traffic only
*traverses* the table between chunks, it never writes, so the planned
table is exact):

* when the current table already offers a path of at most one transition
  from the reset state to the chunk's delta source, the temporary jump is
  unnecessary — and with no temporary written, the home-entry repair and
  its trailing reset are unnecessary too.  The 6-cycle / 3-write chunk
  becomes a 3-4 cycle / 1-write chunk;
* a trailing reset is dropped whenever the preceding write already parks
  the machine in the reset state.

Every rewritten plan is gated exactly like a monolithic pass: the blend
invariant is re-checked at every chunk boundary and the concatenation of
the rewritten chunks must replay to a verified migration, otherwise the
original chunks are returned unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..fsm import FSM, Input, State, Transition
from ..incremental import (
    Chunk,
    chunks_to_program,
    home_input,
    home_repair,
    is_blend,
)
from ..paths import shortest_path
from ..program import Step, StepKind, reset_step, traverse_step, write_step
from .pipeline import OptLevel, normalise_level


def _apply_writes(table: Dict, steps: Sequence[Step]) -> None:
    for step in steps:
        if step.kind.writes:
            trans = step.transition
            table[trans.entry] = (trans.target, trans.output)


def optimise_chunks(
    chunks: Sequence[Chunk],
    source: FSM,
    target: FSM,
    i0: Optional[Input] = None,
    level: OptLevel = "O2",
) -> List[Chunk]:
    """Shorten a traffic-ordered chunk plan without breaking its contract.

    Returns the original list untouched at ``-O0`` or whenever the gated
    validation of the rewritten plan fails.
    """
    if normalise_level(level) == "O0" or not chunks:
        return list(chunks)
    if i0 is None:
        i0 = home_input(source, target)
    s0 = target.reset_state
    home = Transition(i0, s0, target.next_state(i0, s0), target.output(i0, s0))
    repair = home_repair(source, target, i0)

    inputs = list(source.inputs) + [
        i for i in target.inputs if i not in set(source.inputs)
    ]
    states = list(source.states) + [
        s for s in target.states if s not in set(source.states)
    ]
    table: Dict[Tuple[Input, State], Optional[Tuple[State, object]]] = {
        (i, s): None for i in inputs for s in states
    }
    table.update(source.table)

    optimised: List[Chunk] = []
    for chunk in chunks:
        steps = _optimise_chunk(chunk, table, inputs, s0, home, repair)
        _apply_writes(table, steps)
        if not is_blend(table, source, target):
            return list(chunks)  # gate: invariant broken, ship the original
        optimised.append(Chunk(steps=tuple(steps), delta=chunk.delta))

    if not chunks_to_program(optimised, source, target).is_valid():
        return list(chunks)  # gate: rewritten plan does not migrate
    return optimised


def _optimise_chunk(
    chunk: Chunk,
    table: Dict,
    inputs: Sequence[Input],
    s0: State,
    home: Transition,
    repair: Transition,
) -> List[Step]:
    delta = chunk.delta
    if delta is None:
        return list(chunk.steps)
    if delta.entry == home.entry:
        # Home-entry chunk: reset ; delta-write (; reset unless parked).
        steps = [reset_step(), write_step(delta, StepKind.WRITE_DELTA)]
        if delta.target != s0:
            steps.append(reset_step())
        return steps
    path = shortest_path(table, inputs, s0, delta.source)
    if path is not None:
        # Walkable without a temporary: nothing gets dirty, so neither
        # the home repair nor its trailing reset is needed — two writes
        # saved per chunk.  Worth it whenever walking costs no more
        # cycles than the 5-6 cycle temporary form.
        walk_cycles = 2 + len(path) + (1 if delta.target != s0 else 0)
        temp_cycles = 5 + (1 if repair.target != s0 else 0)
        if walk_cycles <= temp_cycles:
            steps = [reset_step()]
            steps += [traverse_step(t) for t in path]
            steps.append(write_step(delta, StepKind.WRITE_DELTA))
            if delta.target != s0:
                steps.append(reset_step())
            return steps
    # Temporary form; the repair is mandatory, but its trailing reset is
    # redundant when the repair itself parks the machine at home.
    steps = [
        reset_step(),
        write_step(
            Transition(home.input, s0, delta.source, home.output),
            StepKind.WRITE_TEMPORARY,
        ),
        write_step(delta, StepKind.WRITE_DELTA),
        reset_step(),
        write_step(repair, StepKind.WRITE_REPAIR),
    ]
    if repair.target != s0:
        steps.append(reset_step())
    return steps
