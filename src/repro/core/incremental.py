"""Incremental migration: bounded-stall reconfiguration under live traffic.

A monolithic reconfiguration program stalls the machine for its whole
length.  Short for one migration — but a system that must bound *every*
individual stall (a packet parser with shallow input buffers, a
controller with a deadline) needs the migration split into chunks it can
interleave with normal operation.

Arbitrary splitting is unsafe: the JSR/EA programs route through
*temporary transitions*, so between two arbitrary steps the table may
contain an entry that belongs to neither machine, and traffic crossing
it would be misrouted.  The **safe chunking** here guarantees a *blend
invariant*: between chunks, every table entry equals either the source
machine's value or the target machine's value.  Traffic between chunks
therefore always sees well-defined behaviour — each entry is atomically
either pre- or post-migration (an "eventually consistent" rollout, in
networking terms).

Each chunk handles one delta transition in six cycles::

    reset ; temporary-jump ; delta-write ; reset ; home-write ; reset

The home entry ``(i0, S0')`` is re-written at the end of every chunk,
which restores the invariant the temporary jump broke.  It gets its
*target* value unless that value leads into a state only the target has:
before that state's rows exist, traffic taking the home entry would read
an unconfigured word.  So the default ``i0`` is an input whose target
successor of ``S0'`` already exists in the source, and when every input
leads out of ``S0'`` into a new state the home entry is repaired to its
*source* value and migrated by the last chunk.

The price of bounded stalls is roughly ``6·|T_d|`` cycles
total versus JSR's ``3·(|T_d|+1)`` — quantified by the
``benchmarks/test_incremental.py`` harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .builder import ProgramBuilder
from .delta import delta_transitions
from .fsm import FSM, Input, State, Transition
from .program import Program, Step


@dataclass(frozen=True)
class Chunk:
    """One bounded unit of an incremental migration."""

    steps: Tuple[Step, ...]
    delta: Optional[Transition]

    def __len__(self) -> int:
        return len(self.steps)


def home_input(source: FSM, target: FSM) -> Input:
    """The default home input ``i0``: the first target input whose
    successor of the target reset state is not a target-only state
    (``target.inputs[0]`` when no input qualifies)."""
    new_states = set(target.states) - set(source.states)
    s0 = target.reset_state
    for i in target.inputs:
        if target.next_state(i, s0) not in new_states:
            return i
    return target.inputs[0]


def home_repair(source: FSM, target: FSM, i0: Input) -> Transition:
    """The value every chunk's repair restores the home entry to.

    The target value, unless it leads into a target-only state and the
    source defines the entry: then the source value, and the home
    delta itself runs as the last chunk.
    """
    s0 = target.reset_state
    home = Transition(
        i0, s0, target.next_state(i0, s0), target.output(i0, s0)
    )
    if home.target in source.states or home.entry not in source.table:
        return home
    next_state, output = source.table[home.entry]
    return Transition(i0, s0, next_state, output)


def incremental_chunks(
    source: FSM, target: FSM, i0: Optional[Input] = None
) -> List[Chunk]:
    """Safe chunks whose concatenation migrates ``source`` → ``target``.

    Every chunk starts with a reset (position independence: it can run
    no matter where traffic left the machine) and ends having restored
    the blend invariant.  The home entry ``(i0, S0')`` is repaired to
    :func:`home_repair`'s value: its target value, so a home delta is
    simply migrated early, except when that value leads into a state
    only the target has — then the home delta is the last chunk.
    """
    if i0 is None:
        i0 = home_input(source, target)
    elif i0 not in target.inputs:
        raise ValueError(f"i0 = {i0!r} is not an input symbol of the target")
    s0 = target.reset_state
    home = Transition(
        i0, s0, target.next_state(i0, s0), target.output(i0, s0)
    )
    repair = home_repair(source, target, i0)
    deferred: Optional[Transition] = None

    # One shared builder emits the whole chunk sequence in order — every
    # step is physically validated at emission — and chunk boundaries are
    # cut out of the validated stream afterwards.
    builder = ProgramBuilder(source, target, method="incremental")
    chunks: List[Chunk] = []
    mark = 0

    def cut(delta: Optional[Transition]) -> None:
        nonlocal mark
        chunks.append(Chunk(steps=builder.steps[mark:], delta=delta))
        mark = len(builder)

    def write_home(delta: Transition) -> None:
        # Migrating the home entry is a 3-cycle chunk of its own.
        builder.reset()
        builder.write_delta(home)
        builder.reset()
        cut(delta)

    for delta in delta_transitions(source, target):
        if delta.entry == home.entry:
            if repair != home:
                deferred = delta
            else:
                write_home(delta)
            continue
        jump = Transition(i0, s0, delta.source, target.output(i0, s0))
        builder.reset()
        builder.write_temporary(jump)
        builder.write_delta(delta)
        builder.reset()
        builder.write_repair(repair)
        builder.reset()
        cut(delta)
    if deferred is not None:
        write_home(deferred)
    if not any(c.delta and c.delta.entry == home.entry for c in chunks):
        # The home entry was not a delta, but the repair writes may have
        # pre-dated any chunk; ensure at least one final chunk exists to
        # leave the entry at its (identical) target value.  When there
        # are no deltas at all the migration is a single trivial chunk.
        if not chunks:
            builder.reset()
            builder.write_repair(home)
            builder.reset()
            cut(None)
    return chunks


def chunks_to_program(
    chunks: List[Chunk], source: FSM, target: FSM
) -> Program:
    """Concatenate chunks into one replayable program (for validation)."""
    steps: List[Step] = []
    for chunk in chunks:
        steps.extend(chunk.steps)
    return Program(steps, source, target, method="incremental")


def is_blend(
    table: Dict[Tuple[Input, State], Optional[Tuple[State, object]]],
    source: FSM,
    target: FSM,
) -> bool:
    """The blend invariant: every entry is a source or a target value.

    Entries outside both machines' domains must be unconfigured.
    """
    src_table = source.table
    tgt_table = target.table
    for key, value in table.items():
        allowed = {src_table.get(key), tgt_table.get(key)}
        allowed.discard(None)
        if value is None:
            if allowed and key in tgt_table:
                # an unconfigured target-domain entry is fine only while
                # its row has not been migrated; both source and target
                # values are acceptable, absence is too (pre-write).
                continue
            continue
        if value not in allowed:
            return False
    return True


@dataclass
class MigrationProgress:
    """Progress of an incremental migration on live hardware."""

    chunks_total: int
    chunks_done: int = 0
    cycles_spent: int = 0
    max_single_stall: int = 0

    @property
    def done(self) -> bool:
        return self.chunks_done >= self.chunks_total


class IncrementalMigrator:
    """Drives an incremental migration on a live datapath.

    Call :meth:`stall` whenever the surrounding system can afford a
    bounded pause (an idle gap, a packet boundary); each call executes
    whole chunks until the budget would be exceeded, then returns
    control.  Between calls the datapath is fully operational under the
    blend invariant.
    """

    def __init__(self, hardware, source: FSM, target: FSM,
                 i0: Optional[Input] = None,
                 chunks: Optional[List[Chunk]] = None):
        self.hardware = hardware
        self.source = source
        self.target = target
        # Precomputed chunks (e.g. from a plan cache, possibly reordered
        # for traffic safety) are accepted but still validated below —
        # an unsound reordering or stale cache entry fails fast here.
        self.chunks = (
            list(chunks) if chunks is not None
            else incremental_chunks(source, target, i0=i0)
        )
        self.progress = MigrationProgress(chunks_total=len(self.chunks))
        self._validated = chunks_to_program(self.chunks, source, target)
        if not self._validated.is_valid():
            raise RuntimeError("chunk concatenation failed validation")
        self.hardware.retarget_reset(target.reset_state)

    @property
    def done(self) -> bool:
        return self.progress.done

    def next_chunk_cost(self) -> Optional[int]:
        """Cycles the next chunk needs, or None when finished."""
        if self.done:
            return None
        return len(self.chunks[self.progress.chunks_done])

    def stall(self, budget_cycles: int) -> int:
        """Execute whole chunks within ``budget_cycles``; returns cycles used.

        A chunk is never split; if the budget cannot fit even one chunk,
        nothing happens and 0 is returned (the caller should offer a
        larger window at least once).
        """
        used = 0
        while not self.done:
            cost = self.next_chunk_cost()
            if cost is None or used + cost > budget_cycles:
                break
            chunk = self.chunks[self.progress.chunks_done]
            self.hardware.apply_steps(chunk.steps)
            used += cost
            self.progress.chunks_done += 1
            self.progress.cycles_spent += cost
            self.progress.max_single_stall = max(
                self.progress.max_single_stall, cost
            )
        return used
