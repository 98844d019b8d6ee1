"""The live-migration planner against its oracle.

:meth:`PlanCache.chunks` plans ``-O2`` in one pass from the phase-ordered
deltas and checks the blend invariant on the entries each chunk wrote.
The oracle is the composition it replaces,
``optimise_chunks(order_chunks(incremental_chunks(...)))``: every plan
must equal it step for step, on random pairs with new states, new inputs
and a new reset state.  The written-entry blend check must agree with
the full :func:`is_blend` scan after every chunk.  A seeded chain pins
the per-hop cycle counts, so a plan change that would move the
``migrate-live`` cycle figure fails here.
"""

from hypothesis import given, settings, strategies as st

from repro.core.fsm import FSM
from repro.core.incremental import (
    blend_after_writes,
    incremental_chunks,
    is_blend,
)
from repro.core.passes import optimise_chunks
from repro.core.program import ReplayMachine
from repro.fleet.plancache import PlanCache, order_chunks
from repro.workloads.mutate import grow_target, mutate_target
from repro.workloads.random_fsm import random_fsm


@st.composite
def grown_pairs(draw):
    """A source and a target that may add states, inputs and outputs,
    move the reset state, and rewrite any share of the shared entries."""
    source = random_fsm(
        n_states=draw(st.integers(2, 5)),
        n_inputs=draw(st.integers(1, 3)),
        n_outputs=2,
        seed=draw(st.integers(0, 10_000)),
    )
    states = list(source.states) + [
        f"new{k}" for k in range(draw(st.integers(0, 2)))
    ]
    inputs = list(source.inputs) + [
        f"in{k}" for k in range(draw(st.integers(0, 1)))
    ]
    outputs = list(source.outputs) + ["z"]
    reset = draw(st.sampled_from(states))
    table = {}
    for i in inputs:
        for s in states:
            if (i, s) in source.table and draw(st.booleans()):
                table[(i, s)] = source.table[(i, s)]
            else:
                table[(i, s)] = (
                    draw(st.sampled_from(states)),
                    draw(st.sampled_from(outputs)),
                )
    target = FSM(inputs, outputs, states, reset, table, name="target")
    return source, target


def oracle(source, target, i0, level):
    """The composition the one-pass planner replaced."""
    return optimise_chunks(
        order_chunks(incremental_chunks(source, target, i0=i0), source, target),
        source,
        target,
        i0=i0,
        level=level,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grown_pairs(), st.data())
def test_cache_plans_equal_the_composition(pair, data):
    source, target = pair
    i0 = data.draw(st.sampled_from((None,) + target.inputs))
    for level in ("O0", "O2"):
        plan = PlanCache(opt_level=level).chunks(source, target, i0=i0)
        expected = oracle(source, target, i0, level)
        assert [(c.delta, c.steps) for c in plan] == [
            (c.delta, c.steps) for c in expected
        ]
        assert plan.checked_for(source, target)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grown_pairs(), st.data())
def test_written_entry_check_agrees_with_is_blend(pair, data):
    source, target = pair
    source_table, target_table = source.table, target.table

    def agrees(table, written):
        fast = blend_after_writes(table, written, source_table, target_table)
        assert fast == is_blend(table, source, target)
        return fast

    # The -O2 plan's chunks keep the blend at every boundary.
    machine = ReplayMachine.for_migration(source, target)
    for chunk in PlanCache(opt_level="O2").chunks(source, target):
        written = []
        for step in chunk.steps:
            machine.apply(step)
            if step.kind.writes:
                written.append(step.transition.entry)
        assert agrees(machine.table, written)

    # Arbitrary writes: source, target or foreign values, chunk by chunk,
    # up to the first chunk that breaks the blend (after which the
    # written-entry check no longer claims to agree).
    table = ReplayMachine.for_migration(source, target).table
    domain = list(table)
    values = [(s, o) for s in target.states for o in target.outputs]
    for _ in range(data.draw(st.integers(1, 6))):
        written = data.draw(
            st.lists(st.sampled_from(domain), min_size=1, max_size=4)
        )
        for key in written:
            side = data.draw(st.sampled_from((source_table, target_table, {})))
            value = side.get(key)
            table[key] = (
                value if value is not None else data.draw(st.sampled_from(values))
            )
        if not agrees(table, written):
            break


def hop_chain():
    """A seeded 40-hop chain of the ``migrate-live`` shape (12 states x
    2 inputs x 4 outputs, 8 deltas a hop) with one growth hop."""
    chain = [random_fsm(n_states=12, n_inputs=2, n_outputs=4, seed=11,
                        name="h0")]
    for hop in range(1, 41):
        previous = chain[-1]
        if hop == 20:
            chain.append(grow_target(previous, 2, seed=hop, name=f"h{hop}"))
        else:
            chain.append(mutate_target(previous, 8, seed=hop, name=f"h{hop}"))
    return chain


#: Per-hop plan cycles of :func:`hop_chain`, as the two-pass planner
#: (incremental chunks, ordered, then optimised) computed them.
PINNED_CYCLES = {
    "O0": [
        48, 45, 45, 48, 45, 45, 48, 48, 45, 45, 48, 48, 45, 48, 48, 45, 45,
        48, 48, 36, 45, 45, 45, 45, 45, 48, 48, 48, 48, 48, 45, 48, 48, 48,
        48, 45, 48, 48, 48, 48,
    ],
    "O2": [
        43, 44, 38, 40, 43, 39, 40, 42, 42, 42, 39, 38, 42, 45, 44, 42, 42,
        44, 44, 36, 44, 44, 45, 44, 44, 46, 45, 43, 43, 43, 45, 41, 41, 42,
        43, 43, 43, 41, 42, 40,
    ],
}


def test_chain_cycles_are_pinned():
    chain = hop_chain()
    for level, pinned in PINNED_CYCLES.items():
        cache = PlanCache(opt_level=level)
        cycles = [
            sum(len(chunk) for chunk in cache.chunks(source, target))
            for source, target in zip(chain, chain[1:])
        ]
        assert cycles == pinned, level
