"""Exact minimum-length reconfiguration programs via A* search.

The paper notes (Sec. 4.6) that optimal (self-)reconfiguration is a
travelling-salesman-like problem, hence NP-hard, and therefore only gives
heuristics.  For *small* instances the optimum is nevertheless computable
and makes a valuable baseline: it calibrates how far JSR and the EA sit
from the true minimum, and it witnesses the tightness of the ``|T_d|``
lower bound (Thm. 4.3) on machines where consecutive delta transitions
chain perfectly.

The search is exact **within the paper's move repertoire**: per cycle the
machine may (a) traverse a configured transition, (b) reset, (c) rewrite
the entry addressed by the current state either to its final target value
or to a temporary jump whose destination is the source state of a
still-incorrect entry.  Exotic programs that plant a temporary shortcut
and traverse it repeatedly before repairing it are outside this
repertoire (as they are outside JSR's and the EA decoder's); we are not
aware of an instance where they win.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..obs.instruments import record_synthesis
from ..obs.tracing import span as _span
from .builder import ProgramBuilder
from .fsm import FSM, Input, Output, State, Transition
from .program import Program, Step, StepKind, reset_step, traverse_step, write_step

Entry = Tuple[Input, State]
Value = Tuple[State, Output]
Overlay = FrozenSet[Tuple[Entry, Value]]


class SearchLimitExceeded(RuntimeError):
    """The A* search exceeded its expansion budget.

    Exact search is exponential in the number of delta transitions; the
    caller should fall back to a heuristic (JSR / EA) for this instance.
    """


def optimal_program(
    source: FSM,
    target: FSM,
    max_expansions: int = 200_000,
) -> Program:
    """Shortest reconfiguration program for ``source`` → ``target``.

    Raises :class:`SearchLimitExceeded` when the instance is too large
    for the expansion budget.  Intended for machines with at most about
    six delta transitions; the benchmark harness uses it to calibrate
    the heuristics.

    >>> from repro.workloads.library import fig7_m, fig7_m_prime
    >>> len(optimal_program(fig7_m(), fig7_m_prime()))
    3
    """
    with _span(
        "optimal.synthesise", source=source.name, target=target.name
    ) as sp:
        program, expansions = _optimal_search(source, target, max_expansions)
        sp.attrs["expansions"] = expansions
        sp.attrs["length"] = len(program)
    record_synthesis("optimal")
    return program


def _optimal_search(
    source: FSM,
    target: FSM,
    max_expansions: int,
) -> Tuple[Program, int]:
    inputs = list(source.inputs) + [
        i for i in target.inputs if i not in set(source.inputs)
    ]
    base: Dict[Entry, Optional[Value]] = {
        (i, s): None
        for i in inputs
        for s in list(source.states)
        + [s for s in target.states if s not in set(source.states)]
    }
    base.update(source.table)

    want: Dict[Entry, Value] = {
        t.entry: (t.target, t.output) for t in target.transitions()
    }
    s0 = target.reset_state

    def current(entry: Entry, overlay: Overlay) -> Optional[Value]:
        for ent, val in overlay:
            if ent == entry:
                return val
        return base.get(entry)

    def incorrect_entries(overlay: Overlay) -> List[Entry]:
        return [e for e, v in want.items() if current(e, overlay) != v]

    def heuristic(state: State, overlay: Overlay) -> int:
        # Each incorrect entry needs at least one write cycle; if the
        # machine is not home afterwards, one more cycle is needed.
        wrong = len(incorrect_entries(overlay))
        return wrong if (wrong or state == s0) else 1

    def with_write(overlay: Overlay, entry: Entry, value: Value) -> Overlay:
        return frozenset(
            {(e, v) for e, v in overlay if e != entry} | {(entry, value)}
        )

    start_state = source.reset_state
    start: Tuple[State, Overlay] = (start_state, frozenset())
    counter = itertools.count()
    open_heap: List[Tuple[int, int, int, Tuple[State, Overlay]]] = [
        (heuristic(*start), 0, next(counter), start)
    ]
    parents: Dict[Tuple[State, Overlay], Tuple[Tuple[State, Overlay], Step]] = {}
    best_g: Dict[Tuple[State, Overlay], int] = {start: 0}
    expansions = 0

    while open_heap:
        f, g, _, node = heapq.heappop(open_heap)
        if g > best_g.get(node, g):
            continue
        state, overlay = node
        wrong = incorrect_entries(overlay)
        if not wrong and state == s0:
            # Emit the unwound search path through the shared IR so the
            # solution is physically validated step by step, exactly like
            # every other synthesiser's output.
            builder = ProgramBuilder(source, target, method="optimal")
            builder.extend(_unwind(parents, node))
            return builder.build(), expansions
        expansions += 1
        if expansions > max_expansions:
            raise SearchLimitExceeded(
                f"exceeded {max_expansions} expansions; instance too large "
                "for exact search"
            )

        def push(nxt: Tuple[State, Overlay], step: Step) -> None:
            new_g = g + 1
            if new_g < best_g.get(nxt, new_g + 1):
                best_g[nxt] = new_g
                parents[nxt] = (node, step)
                heapq.heappush(
                    open_heap,
                    (new_g + heuristic(*nxt), new_g, next(counter), nxt),
                )

        # (a) reset
        push((s0, overlay), reset_step())

        jump_targets = sorted({e[1] for e in wrong}, key=str)
        for i in inputs:
            entry = (i, state)
            if entry not in base:
                continue
            value = current(entry, overlay)
            # (b) traverse the configured entry as-is
            if value is not None:
                trans = Transition(i, state, value[0], value[1])
                push((value[0], overlay), traverse_step(trans))
            # (c) write the entry to its final target value
            if entry in want and value != want[entry]:
                tgt_state, tgt_out = want[entry]
                trans = Transition(i, state, tgt_state, tgt_out)
                push(
                    (tgt_state, with_write(overlay, entry, want[entry])),
                    write_step(trans, StepKind.WRITE_DELTA),
                )
            # (d) temporary jump to the source of a still-incorrect entry
            fill_output = want[entry][1] if entry in want else target.outputs[0]
            for goal in jump_targets:
                tmp_value = (goal, fill_output)
                if value == tmp_value or (entry in want and want[entry] == tmp_value):
                    continue  # identical write or covered by move (c)
                trans = Transition(i, state, goal, fill_output)
                push(
                    (goal, with_write(overlay, entry, tmp_value)),
                    write_step(trans, StepKind.WRITE_TEMPORARY),
                )

    raise RuntimeError("search space exhausted without reaching the goal")


def optimal_length(
    source: FSM, target: FSM, max_expansions: int = 200_000
) -> int:
    """Length of the optimal program (see :func:`optimal_program`)."""
    return len(optimal_program(source, target, max_expansions=max_expansions))


def _unwind(parents, node) -> List[Step]:
    steps: List[Step] = []
    while node in parents:
        node, step = parents[node]
        steps.append(step)
    steps.reverse()
    return steps
