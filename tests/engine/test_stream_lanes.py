"""Lane-by-lane equivalence of the two stream kernels.

A hypothesis property over raw compiled tables — holes (unset F-words),
unset G-words (``None`` output) and garbage G-words drawn at will — and
over batches of 1 to 600 ragged lanes with empty words and per-lane
starts that mix states and ``None``.  The numpy kernel's
``word_runs()`` must equal the python kernel's lane by lane (outputs,
final state, visit counts in the same key order), and a batch either
kernel refuses must raise ``UnconfiguredEntry`` on both.  The python
kernel is checked against an independent dict stepper, so the
pure-Python leg (``REPRO_DISABLE_NUMPY=1``) runs the property too; only
the numpy comparison skips there.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    CompiledFSM,
    UnconfiguredEntry,
    numpy_available,
    stream_dtype_name,
)

#: Packed dtype -> (n_inputs, n_states): the uint16 geometry has more
#: than 255 padded addresses (2 * 130 + 2 = 262).
GEOMETRIES = {"uint8": (3, 5), "uint16": (2, 130)}

needs_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="numpy unavailable: only the python kernel can run here",
)


@st.composite
def cases(draw, geometry):
    """``(compiled, words, starts)`` drawn from one seed and a few knobs."""
    n_inputs, n_states = GEOMETRIES[geometry]
    n_outputs = draw(st.integers(1, 4))
    hole_p = draw(st.sampled_from([0.0, 0.0, 0.01, 0.2]))
    unset_p = draw(st.sampled_from([0.0, 0.1]))
    garbage_p = draw(st.sampled_from([0.0, 0.0, 0.02]))
    n_lanes = draw(st.sampled_from([1, 2, 31, 32, 33, 64, 600]))
    max_len = draw(st.integers(0, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    size = n_inputs * n_states
    next_table = [
        -1 if rng.random() < hole_p else rng.randrange(n_states)
        for _ in range(size)
    ]
    out_table = []
    for _ in range(size):
        roll = rng.random()
        if roll < garbage_p:
            out_table.append(-2)
        elif roll < garbage_p + unset_p:
            out_table.append(-1)
        else:
            out_table.append(rng.randrange(n_outputs))
    states = [f"s{k}" for k in range(n_states)]
    inputs = [f"i{k}" for k in range(n_inputs)]
    compiled = CompiledFSM(
        inputs,
        states,
        [f"o{k}" for k in range(n_outputs)],
        next_table,
        out_table,
        states[0],
    )
    # Mostly full-length lanes, some short and some empty: the shape a
    # coalesced fleet run has when a session queued two batches.
    words = []
    for _ in range(n_lanes):
        roll = rng.random()
        length = max_len if roll < 0.6 else rng.randint(0, max_len)
        words.append([rng.choice(inputs) for _ in range(length)])
    starts = draw(st.sampled_from(["reset", "mixed"]))
    if starts == "mixed":
        starts = [
            None if rng.random() < 0.3 else rng.choice(states)
            for _ in range(n_lanes)
        ]
    else:
        starts = None
    return compiled, words, starts


def _lanes(compiled, words, starts, kernel):
    """Per-lane ``(outputs, final, visit items)``, or the exception type
    the whole batch raised."""
    try:
        runs = compiled.run_streams(
            words, starts=starts, kernel=kernel
        ).word_runs()
    except UnconfiguredEntry:
        return UnconfiguredEntry
    return [
        (run.outputs, run.final_state, list(run.visits.items()))
        for run in runs
    ]


def _dict_stepper(compiled, words, starts):
    """The oracle: a plain ``(state, input) -> (next, output)`` walk."""
    table = {}
    for i, sym in enumerate(compiled.inputs):
        for s, state in enumerate(compiled.states):
            addr = i * compiled.n_states + s
            table[state, sym] = (
                compiled.next_table[addr], compiled.out_table[addr]
            )
    if starts is None:
        starts = [None] * len(words)
    lanes = []
    for word, start in zip(words, starts):
        state = compiled.reset_state if start is None else start
        outputs, visits = [], {}
        for sym in word:
            nxt, out = table[state, sym]
            if nxt < 0 or out == -2:
                return UnconfiguredEntry
            outputs.append(compiled.outputs[out] if out >= 0 else None)
            state = compiled.states[nxt]
            visits[state] = visits.get(state, 0) + 1
        ordered = [(s, visits[s]) for s in compiled.states if s in visits]
        lanes.append((outputs, state, ordered))
    return lanes


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
class TestStreamLanes:
    def test_geometry_packs_as_named(self, geometry):
        n_inputs, n_states = GEOMETRIES[geometry]
        assert stream_dtype_name(n_inputs, n_states, 4) == geometry

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_python_kernel_matches_a_dict_stepper(self, geometry, data):
        compiled, words, starts = data.draw(cases(geometry))
        assert _lanes(compiled, words, starts, "python") == _dict_stepper(
            compiled, words, starts
        )

    @needs_numpy
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_numpy_word_runs_match_python_lane_by_lane(self, geometry, data):
        compiled, words, starts = data.draw(cases(geometry))
        want = _lanes(compiled, words, starts, "python")
        got = _lanes(compiled, words, starts, "numpy")
        if want is UnconfiguredEntry or got is UnconfiguredEntry:
            assert got is want
            return
        assert len(got) == len(words)
        for lane, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"lane {lane}"
