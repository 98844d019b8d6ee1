"""Greedy ordering baselines for the delta-ordering problem.

The paper observes (Sec. 4.6) that without temporary transitions the
program length depends on the *order* in which delta transitions are
reconfigured, and that finding the best order is a travelling-salesman
problem (hence NP-hard, citing Garey & Johnson).  Besides the paper's two
algorithms (JSR and the EA) this module provides the classic TSP
baselines — nearest-neighbour construction and 2-opt improvement — which
the benchmark harness uses to put the EA's results in context.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..obs.instruments import record_synthesis
from ..obs.tracing import span as _span
from .decode import LengthDecoder, decode_order
from .delta import delta_transitions
from .fsm import FSM, Input, State, Transition
from .paths import all_pairs_distances, table_of
from .program import Program


def connection_cost(distance: Optional[int]) -> int:
    """Cycles needed to bridge a shortest-path distance in the decoder.

    ``0``/``1`` transitions are walked directly; anything longer (or
    unreachable, ``None``) costs a reset plus a temporary transition,
    i.e. two cycles (plus amortised repair, which we ignore here — the
    greedy cost model is a heuristic estimate, the decoder is the truth).
    """
    if distance is not None and distance <= 1:
        return distance
    return 2


def nearest_neighbour_order(
    source: FSM,
    target: FSM,
    start: Optional[State] = None,
) -> List[Transition]:
    """Order deltas by greedily hopping to the nearest unvisited one.

    Distances are measured on the *source* machine's table (the live
    table changes during decoding, so this is an estimate; the decoder
    computes the exact cost).  Ties are broken by the canonical delta
    order, keeping the result deterministic.
    """
    deltas = delta_transitions(source, target)
    if not deltas:
        return []
    table = table_of(source)
    endpoints = {t.source for t in deltas} | {t.target for t in deltas}
    endpoints.add(source.reset_state if start is None else start)
    endpoints &= set(source.states)
    dist = all_pairs_distances(table, source.inputs, endpoints)

    def cost(frm: State, to: State) -> int:
        return connection_cost(dist.get((frm, to)))

    position = source.reset_state if start is None else start
    remaining = list(deltas)
    ordered: List[Transition] = []
    while remaining:
        best_idx = min(
            range(len(remaining)),
            key=lambda idx: (
                cost(position, remaining[idx].source)
                if position in set(source.states)
                and remaining[idx].source in set(source.states)
                else 2,
                idx,
            ),
        )
        chosen = remaining.pop(best_idx)
        ordered.append(chosen)
        position = chosen.target
    return ordered


def two_opt_order(
    source: FSM,
    target: FSM,
    order: Optional[Sequence[Transition]] = None,
    max_rounds: int = 20,
    **decode_kwargs,
) -> List[Transition]:
    """Improve an ordering with 2-opt moves under the *exact* decoder cost.

    Each candidate segment reversal is scored by a
    :class:`~repro.core.decode.LengthDecoder` compiled once per call, so
    the objective is the true program length rather than an estimate.
    Stops at a local optimum or after ``max_rounds`` sweeps.
    """
    current = list(
        order if order is not None else nearest_neighbour_order(source, target)
    )
    if len(current) < 3:
        return current
    decoder = LengthDecoder(source, target, **decode_kwargs)
    genome = decoder.indices(current)
    best_len = decoder.length(genome)
    for _ in range(max_rounds):
        improved = False
        for i in range(len(genome) - 1):
            for j in range(i + 1, len(genome)):
                candidate = genome[:i] + genome[i : j + 1][::-1] + genome[j + 1 :]
                cand_len = decoder.length(candidate)
                if cand_len < best_len:
                    genome = candidate
                    best_len = cand_len
                    improved = True
        if not improved:
            break
    return [decoder.deltas[k] for k in genome]


def greedy_program(
    source: FSM,
    target: FSM,
    improve: bool = True,
    i0: Optional[Input] = None,
    **decode_kwargs,
) -> Program:
    """Nearest-neighbour (optionally 2-opt-improved) reconfiguration program.

    >>> from repro.workloads.library import fig6_m, fig6_m_prime
    >>> prog = greedy_program(fig6_m(), fig6_m_prime())
    >>> prog.is_valid()
    True
    """
    method = "greedy+2opt" if improve else "greedy"
    with _span(
        "greedy.synthesise",
        source=source.name,
        target=target.name,
        improve=improve,
    ) as sp:
        order = nearest_neighbour_order(source, target)
        if improve:
            order = two_opt_order(source, target, order, i0=i0, **decode_kwargs)
        program = decode_order(
            source, target, order, i0=i0, method=method, **decode_kwargs
        )
        sp.attrs["length"] = len(program)
    record_synthesis(method)
    return program
