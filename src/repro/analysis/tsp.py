"""The travelling-salesman view of delta ordering (paper Sec. 4.6).

"If we treat each delta transition as a city, and the shortest path from
each target state of a delta transition to each source state of another
delta transition as a road, then finding the shortest path to traverse
every delta transition is comparable to a traveling salesman problem.
Hence, there is no algorithm that finds the optimal solution in
polynomial time."

This module makes the reduction explicit: it builds the inter-delta
distance matrix (on the *source* machine's graph — a static
approximation, since the live table changes during decoding), solves the
resulting asymmetric-TSP *path* problem exactly with Held-Karp dynamic
programming for small instances, and hands the resulting order to the
exact decoder.  The benchmark harness uses it as yet another ordering
strategy between greedy and the EA.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.instruments import record_synthesis
from ..obs.tracing import span as _span
from ..core.decode import decode_order
from ..core.delta import delta_transitions
from ..core.fsm import FSM, State, Transition
from ..core.greedy import connection_cost
from ..core.paths import all_pairs_distances, table_of
from ..core.program import Program


class TSPSizeError(ValueError):
    """Held-Karp is exponential; instances beyond the cap are rejected."""


def delta_distance_matrix(
    source: FSM, target: FSM, start: Optional[State] = None
) -> Tuple[List[Transition], List[List[int]], List[int]]:
    """The cities, road matrix and start costs of the Sec. 4.6 reduction.

    ``matrix[i][j]`` estimates the cycles to travel from delta ``i``'s
    target state to delta ``j``'s source state (0/1 for walkable
    distances, 2 for reset + temporary); ``start_costs[j]`` is the cost
    of reaching delta ``j`` first from the initial state.  Distances are
    measured on the source machine's static graph.
    """
    deltas = delta_transitions(source, target)
    start_state = source.reset_state if start is None else start
    src_states = set(source.states)
    endpoints = {t.source for t in deltas} | {t.target for t in deltas}
    endpoints.add(start_state)
    dist = all_pairs_distances(
        table_of(source), source.inputs, endpoints & src_states
    )

    def road(frm: State, to: State) -> int:
        if frm in src_states and to in src_states:
            return connection_cost(dist.get((frm, to)))
        return connection_cost(None)

    matrix = [
        [road(a.target, b.source) for b in deltas] for a in deltas
    ]
    start_costs = [road(start_state, b.source) for b in deltas]
    return deltas, matrix, start_costs


def held_karp_path(
    matrix: Sequence[Sequence[int]],
    start_costs: Sequence[int],
    max_cities: int = 13,
) -> Tuple[int, List[int]]:
    """Exact minimum-cost Hamiltonian *path* over the city set.

    Standard Held-Karp over subsets: O(n²·2ⁿ) time, O(n·2ⁿ) space.
    Returns ``(cost, order)`` where cost excludes the per-city write
    cycles (constant across orders).

    >>> held_karp_path([[0, 1], [5, 0]], [1, 5])
    (2, [0, 1])
    """
    n = len(matrix)
    if n > max_cities:
        raise TSPSizeError(f"{n} cities exceed the Held-Karp cap {max_cities}")
    if n == 0:
        return 0, []

    best: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for j in range(n):
        best[(1 << j, j)] = (start_costs[j], -1)

    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            mask = 0
            for city in subset:
                mask |= 1 << city
            for j in subset:
                prev_mask = mask ^ (1 << j)
                candidates = [
                    (best[(prev_mask, k)][0] + matrix[k][j], k)
                    for k in subset
                    if k != j and (prev_mask, k) in best
                ]
                if candidates:
                    best[(mask, j)] = min(candidates)

    full = (1 << n) - 1
    cost, last = min(
        (best[(full, j)][0], j) for j in range(n) if (full, j) in best
    )
    order = [last]
    mask = full
    while True:
        _cost, prev = best[(mask, order[-1])]
        if prev == -1:
            break
        mask ^= 1 << order[-1]
        order.append(prev)
    order.reverse()
    return cost, order


def tsp_order(
    source: FSM, target: FSM, max_cities: int = 13
) -> List[Transition]:
    """Delta ordering from the exact Held-Karp solution of the reduction."""
    deltas, matrix, start_costs = delta_distance_matrix(source, target)
    if not deltas:
        return []
    _cost, order = held_karp_path(matrix, start_costs, max_cities=max_cities)
    return [deltas[idx] for idx in order]


def tsp_program(source: FSM, target: FSM, **decode_kwargs) -> Program:
    """Decode the Held-Karp ordering into a reconfiguration program.

    Note the static distance matrix is an approximation of the live
    decoder cost (temporary transitions and freshly written deltas change
    the graph), so this is *near*-optimal, not optimal — the gap is
    measured by the ordering-strategies benchmark.
    """
    with _span(
        "tsp.synthesise", source=source.name, target=target.name
    ) as sp:
        order = tsp_order(source, target)
        program = decode_order(
            source, target, order, method="tsp", **decode_kwargs
        )
        sp.attrs["length"] = len(program)
    record_synthesis("tsp")
    return program
