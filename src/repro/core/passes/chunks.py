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

* when the current table already offers a walk from the reset state to
  the chunk's delta source that costs no more cycles than the temporary
  jump, the jump is unnecessary — and with no temporary written, the
  home-entry repair and its trailing reset are unnecessary too.  The
  6-cycle / 3-write chunk becomes a walk of at most as many cycles and
  one write;
* a trailing reset is dropped whenever the preceding write already parks
  the machine in the reset state.

A rewritten chunk depends only on its delta and on the table the chunks
before it left, so :func:`rewrite_deltas` plans straight from the
phase-ordered delta list (:func:`~repro.core.incremental.live_deltas`)
without building the unoptimised 6-cycle chunks first;
:func:`optimise_chunks` is the same rewrite over an existing chunk list.

Every rewritten plan is gated exactly like a monolithic pass: the blend
invariant is re-checked at every chunk boundary, on the entries that
chunk wrote (no other entry changed), and the concatenation of the
rewritten chunks must replay to a verified migration.  That closing
replay is :func:`~repro.core.incremental.check_plan`, so a plan that
passes comes out as a :class:`~repro.core.incremental.ChunkPlan` checked
for its pair; one that fails is not used (:func:`optimise_chunks` then
returns the original chunks, :func:`rewrite_deltas` returns ``None``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..fsm import FSM, Input, State, Transition
from ..incremental import (
    Chunk,
    ChunkPlan,
    blend_after_writes,
    check_plan,
    home_input,
    home_repair,
)
from ..program import Step, StepKind, reset_step, traverse_step, write_step
from .pipeline import OptLevel, normalise_level


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
    plan = _rewrite(
        ((chunk.delta, chunk.steps) for chunk in chunks), source, target, i0
    )
    return list(chunks) if plan is None else list(plan)


def rewrite_deltas(
    deltas: Sequence[Transition],
    source: FSM,
    target: FSM,
    i0: Optional[Input] = None,
) -> Optional[ChunkPlan]:
    """The ``-O2`` chunk plan migrating ``deltas`` in the order given.

    ``deltas`` is a traffic-ordered delta list
    (:func:`~repro.core.incremental.live_deltas`); the result is
    step-for-step what :func:`optimise_chunks` makes of the incremental
    chunks in that order, as a checked plan, or ``None`` when the gate
    rejects the rewrite.
    """
    if not deltas:
        return None
    return _rewrite(((delta, ()) for delta in deltas), source, target, i0)


def _rewrite(
    items: Iterable[Tuple[Optional[Transition], Tuple[Step, ...]]],
    source: FSM,
    target: FSM,
    i0: Optional[Input],
) -> Optional[ChunkPlan]:
    """Rewrite ``(delta, steps)`` items in order; ``steps`` are kept only
    for an item without a delta.  The checked plan, or ``None``."""
    if i0 is None:
        i0 = home_input(source, target)
    s0 = target.reset_state
    home = Transition(i0, s0, target.next_state(i0, s0), target.output(i0, s0))
    repair = home_repair(source, target, i0)

    source_inputs = set(source.inputs)
    source_states = set(source.states)
    inputs = list(source.inputs) + [
        i for i in target.inputs if i not in source_inputs
    ]
    states = list(source.states) + [
        s for s in target.states if s not in source_states
    ]
    source_table = source.table
    target_table = target.table
    table: Dict[Tuple[Input, State], Optional[Tuple[State, object]]] = {
        (i, s): None for i in inputs for s in states
    }
    table.update(source_table)

    optimised: List[Chunk] = []
    for delta, kept in items:
        if delta is None:
            steps = list(kept)
            writes = [step.transition for step in steps if step.kind.writes]
        else:
            steps, writes = _optimise_chunk(
                delta, table, inputs, s0, home, repair
            )
        for trans in writes:
            table[trans.entry] = (trans.target, trans.output)
        if not blend_after_writes(
            table, (trans.entry for trans in writes), source_table, target_table
        ):
            return None  # gate: invariant broken
        optimised.append(Chunk(steps=tuple(steps), delta=delta))
    return check_plan(optimised, source, target)


def _optimise_chunk(
    delta: Transition,
    table: Dict,
    inputs: Sequence[Input],
    s0: State,
    home: Transition,
    repair: Transition,
) -> Tuple[List[Step], List[Transition]]:
    """One chunk's rewritten steps and, in order, the transitions they
    write."""
    if delta.entry == home.entry:
        # Home-entry chunk: reset ; delta-write (; reset unless parked).
        steps = [reset_step(), write_step(delta, StepKind.WRITE_DELTA)]
        if delta.target != s0:
            steps.append(reset_step())
        return steps, [delta]
    # Walkable without a temporary: nothing gets dirty, so neither the
    # home repair nor its trailing reset is needed — two writes saved
    # per chunk.  Worth it whenever walking (2 + len(path) cycles, plus
    # a parking reset) costs no more than the 5-6 cycle temporary form.
    longest = 3 + (repair.target != s0) - (delta.target != s0)
    path = _walk(table, inputs, s0, delta.source, longest)
    if path is not None:
        steps = [reset_step()]
        steps += [traverse_step(t) for t in path]
        steps.append(write_step(delta, StepKind.WRITE_DELTA))
        if delta.target != s0:
            steps.append(reset_step())
        return steps, [delta]
    # Temporary form; the repair is mandatory, but its trailing reset is
    # redundant when the repair itself parks the machine at home.
    jump = Transition(home.input, s0, delta.source, home.output)
    steps = [
        reset_step(),
        write_step(jump, StepKind.WRITE_TEMPORARY),
        write_step(delta, StepKind.WRITE_DELTA),
        reset_step(),
        write_step(repair, StepKind.WRITE_REPAIR),
    ]
    if repair.target != s0:
        steps.append(reset_step())
    return steps, [jump, delta, repair]


def _walk(
    table: Dict,
    inputs: Sequence[Input],
    start: State,
    goal: State,
    longest: int,
) -> Optional[List[Transition]]:
    """:func:`~repro.core.paths.shortest_path`'s path when it has at most
    ``longest`` transitions, else ``None``.

    The same breadth-first search with the same tie-breaking, stopped at
    depth ``longest`` (a longer walk never beats the temporary form).
    """
    if start == goal:
        return []
    parent: Dict[State, Tuple[Input, State, Tuple]] = {start: None}
    frontier = [start]
    for _ in range(longest):
        reached = []
        for state in frontier:
            for i in inputs:
                entry = table.get((i, state))
                if entry is None or entry[0] in parent:
                    continue
                parent[entry[0]] = (i, state, entry)
                if entry[0] == goal:
                    path = []
                    node = goal
                    while node != start:
                        i, state, (target, output) = parent[node]
                        path.append(Transition(i, state, target, output))
                        node = state
                    path.reverse()
                    return path
                reached.append(entry[0])
        frontier = reached
    return None
