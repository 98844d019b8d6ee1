"""Benchmark inputs, generated from the run's seed, plus the reference stepper.

Everything a workload feeds the program is built here from ``--seed``
through the public :class:`repro.FSM` constructor only — never through
``repro.workloads`` — so a change to the program cannot silently change
what the benchmark measures.  :func:`digest` fingerprints the generated
inputs; every run prints it.

:class:`RefStepper` is the benchmark's own oracle: a plain dict
``(state, input) -> (next, output)`` built from the generated transition
list.  It shares no code with ``repro.core`` or ``repro.engine``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Sequence, Tuple

Transition4 = Tuple[str, str, str, str]  # (input, source, target, output)


class Spec:
    """One generated machine as plain data (what the oracle and digest see)."""

    __slots__ = ("name", "inputs", "outputs", "states", "reset", "table")

    def __init__(self, name, inputs, outputs, states, reset, table):
        self.name = name
        self.inputs: Tuple[str, ...] = tuple(inputs)
        self.outputs: Tuple[str, ...] = tuple(outputs)
        self.states: Tuple[str, ...] = tuple(states)
        self.reset: str = reset
        #: ``(input, state) -> (next, output)``, complete and deterministic.
        self.table: Dict[Tuple[str, str], Tuple[str, str]] = dict(table)

    def transitions(self) -> List[Transition4]:
        return [
            (i, s, nxt, out)
            for (i, s), (nxt, out) in sorted(self.table.items())
        ]

    def fsm(self):
        """The machine as a program object, via the public constructor."""
        from repro import FSM

        return FSM(
            self.inputs, self.outputs, self.states, self.reset,
            self.transitions(), name=self.name,
        )

    def canonical(self) -> str:
        rows = ";".join(",".join(t) for t in self.transitions())
        return f"{self.name}|{self.reset}|{rows}"


def random_spec(
    rng: random.Random, n_states: int, n_inputs: int, n_outputs: int,
    name: str,
) -> Spec:
    """A complete deterministic Mealy machine whose states all stay reachable.

    State ``k`` has an edge to ``k+1`` under a random input, so every state
    is reachable from reset and session lanes visit the whole table.
    """
    states = [f"s{k}" for k in range(n_states)]
    inputs = [f"i{k}" for k in range(n_inputs)]
    outputs = [f"o{k}" for k in range(n_outputs)]
    table = {}
    for k, s in enumerate(states):
        ring_input = rng.choice(inputs)
        for i in inputs:
            if i == ring_input:
                nxt = states[(k + 1) % n_states]
            else:
                nxt = rng.choice(states)
            table[(i, s)] = (nxt, rng.choice(outputs))
    return Spec(name, inputs, outputs, states, states[0], table)


def mutate_spec(rng: random.Random, spec: Spec, n_deltas: int, name: str) -> Spec:
    """``spec`` with exactly ``n_deltas`` table entries changed (|Td| exact)."""
    table = dict(spec.table)
    for entry in rng.sample(sorted(table), n_deltas):
        old = table[entry]
        new = old
        while new == old:
            new = (rng.choice(spec.states), rng.choice(spec.outputs))
        table[entry] = new
    return Spec(name, spec.inputs, spec.outputs, spec.states, spec.reset, table)


def words(
    rng: random.Random, alphabet: Sequence[str], length: int, count: int
) -> List[Tuple[str, ...]]:
    return [
        tuple(rng.choice(alphabet) for _ in range(length))
        for _ in range(count)
    ]


class RefStepper:
    """The benchmark's reference Mealy stepper (a dict, nothing else)."""

    __slots__ = ("table", "reset")

    def __init__(self, spec: Spec):
        self.table = dict(spec.table)
        self.reset = spec.reset

    def run(self, state: str, word: Sequence[str]) -> Tuple[str, List[str]]:
        """``(final state, outputs)`` of ``word`` from ``state``."""
        table = self.table
        out = []
        for symbol in word:
            state, o = table[(symbol, state)]
            out.append(o)
        return state, out


def digest(*parts) -> str:
    """Short stable fingerprint of generated inputs (specs, words, numbers)."""
    h = hashlib.sha256()

    def feed(part) -> None:
        if isinstance(part, Spec):
            h.update(part.canonical().encode())
        elif isinstance(part, list):
            for item in part:
                feed(item)
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")

    for part in parts:
        feed(part)
    return h.hexdigest()[:16]
