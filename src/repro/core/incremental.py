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

A plan is checked by one symbolic replay of its concatenation
(:func:`check_plan`), which seals it as an immutable :class:`ChunkPlan`
for the pair's fingerprints.  :class:`IncrementalMigrator` runs such a
plan without replaying it again when the pair matches its own, and
replays anything else before its first chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

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


def migration_deltas(
    source: FSM, target: FSM, i0: Optional[Input] = None
) -> List[Transition]:
    """The deltas in the order :func:`incremental_chunks` migrates them:
    Def. 4.2's canonical order, except that a home delta the repair
    cannot migrate early (see :func:`home_repair`) moves to the end."""
    if i0 is None:
        i0 = home_input(source, target)
    elif i0 not in target.inputs:
        raise ValueError(f"i0 = {i0!r} is not an input symbol of the target")
    s0 = target.reset_state
    home = Transition(
        i0, s0, target.next_state(i0, s0), target.output(i0, s0)
    )
    deltas = delta_transitions(source, target)
    if home_repair(source, target, i0) != home:
        deltas = [d for d in deltas if d != home] + [
            d for d in deltas if d == home
        ]
    return deltas


def _phase(source: FSM, target: FSM) -> Callable[[Optional[Transition]], int]:
    """The traffic-safety phase of a delta's chunk (see :func:`order_chunks`)."""
    old_states = frozenset(source.states)
    s0 = target.reset_state

    def phase(delta: Optional[Transition]) -> int:
        if delta is None or delta.source in old_states:
            return 2
        return 0 if delta.source == s0 else 1

    return phase


def live_deltas(
    source: FSM, target: FSM, i0: Optional[Input] = None
) -> List[Transition]:
    """The deltas in the order a traffic-ordered live plan migrates them:
    :func:`migration_deltas` in :func:`order_chunks`' phases, the order
    ``order_chunks(incremental_chunks(...))`` runs its chunks in."""
    return sorted(
        migration_deltas(source, target, i0), key=_phase(source, target)
    )


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
    deltas = migration_deltas(source, target, i0)
    if i0 is None:
        i0 = home_input(source, target)
    s0 = target.reset_state
    home = Transition(
        i0, s0, target.next_state(i0, s0), target.output(i0, s0)
    )
    repair = home_repair(source, target, i0)

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

    for delta in deltas:
        if delta.entry == home.entry:
            # Migrating the home entry is a 3-cycle chunk of its own.
            builder.reset()
            builder.write_delta(home)
            builder.reset()
            cut(delta)
            continue
        jump = Transition(i0, s0, delta.source, target.output(i0, s0))
        builder.reset()
        builder.write_temporary(jump)
        builder.write_delta(delta)
        builder.reset()
        builder.write_repair(repair)
        builder.reset()
        cut(delta)
    if not chunks:
        # No deltas at all: the migration is a single trivial chunk that
        # leaves the home entry at its (identical) target value.
        builder.reset()
        builder.write_repair(home)
        builder.reset()
        cut(None)
    return chunks


def order_chunks(chunks: Sequence[Chunk], source: FSM, target: FSM) -> List[Chunk]:
    """Reorder safe chunks so live traffic never strands mid-growth.

    Each chunk is position-independent (it starts with a reset and
    restores the blend invariant), so any permutation still migrates
    correctly.  Order *does* matter for traffic running between chunks:
    a delta edge from an old state into a brand-new state must not go
    live before the new state's own rows exist, or the next symbol reads
    an unconfigured word.  Phase 0 therefore writes every row *of* a
    target-only state; phase 1 writes the rest (including the edges
    *into* new states).  Within phase 0 the target reset state's rows
    come first — every chunk parks the machine there.
    """
    phase = _phase(source, target)
    return sorted(chunks, key=lambda chunk: phase(chunk.delta))


def chunks_to_program(
    chunks: Sequence[Chunk], source: FSM, target: FSM
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


def blend_after_writes(
    table: Dict[Tuple[Input, State], Optional[Tuple[State, object]]],
    written: Iterable[Tuple[Input, State]],
    source_table: Mapping,
    target_table: Mapping,
) -> bool:
    """:func:`is_blend` of ``table``, checked on the ``written`` entries
    only.

    Agrees with :func:`is_blend` whenever ``table`` was a blend before
    those entries were written: no other entry changed.
    ``source_table`` and ``target_table`` are the machines' tables, read
    once per plan (:attr:`FSM.table` copies the dict on every access).
    """
    for key in written:
        value = table[key]
        if value != source_table.get(key) and value != target_table.get(key):
            return False
    return True


class ChunkPlan(tuple):
    """An immutable chunk plan, replay-checked once as a whole migration.

    :attr:`pair` holds the ``(source, target)``
    :func:`~repro.core.plan.fsm_fingerprint` pair the replay ran for;
    only :func:`check_plan` sets it.  A plan built any other way
    (``ChunkPlan(chunks)``, a slice, a list) has no pair, so every
    :class:`IncrementalMigrator` it reaches replays it again.
    """

    pair: Optional[Tuple[str, str]] = None

    def __setattr__(self, name, value):
        raise AttributeError("a chunk plan is immutable")

    def checked_for(self, source: FSM, target: FSM) -> bool:
        """Whether the plan was replay-checked for exactly this pair."""
        from .plan import fsm_fingerprint  # plan -> passes -> this module

        return self.pair is not None and self.pair == (
            fsm_fingerprint(source), fsm_fingerprint(target)
        )


def check_plan(
    chunks: Sequence[Chunk], source: FSM, target: FSM
) -> Optional[ChunkPlan]:
    """Replay ``chunks`` once as one migration ``source`` → ``target``.

    Returns them as a :class:`ChunkPlan` sealed with the pair's
    fingerprints, or ``None`` when the concatenation does not migrate.
    """
    from .plan import fsm_fingerprint  # plan -> passes -> this module

    if not chunks_to_program(chunks, source, target).is_valid():
        return None
    plan = ChunkPlan(chunks)
    object.__setattr__(
        plan, "pair", (fsm_fingerprint(source), fsm_fingerprint(target))
    )
    return plan


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
                 chunks: Optional[Sequence[Chunk]] = None):
        self.hardware = hardware
        self.source = source
        self.target = target
        # Precomputed chunks (e.g. from a plan cache, possibly reordered
        # for traffic safety) are replayed here unless they are a
        # ChunkPlan checked for exactly this pair: an unsound reordering,
        # an edited plan or a stale cache entry fails fast.  Either way
        # the caller still verifies the datapath after the last chunk.
        if chunks is None:
            chunks = incremental_chunks(source, target, i0=i0)
        self.chunks = list(chunks)
        if not (
            isinstance(chunks, ChunkPlan) and chunks.checked_for(source, target)
        ) and not chunks_to_program(self.chunks, source, target).is_valid():
            raise RuntimeError("chunk concatenation failed validation")
        self.progress = MigrationProgress(chunks_total=len(self.chunks))
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
