"""Conformance testing: verify a migration through the machine's ports.

The replay validator (:mod:`repro.core.program`) and
:meth:`~repro.hw.machine.HardwareFSM.realises` check migrations by
*reading the table memories* — possible in simulation, but on a real
device the F-RAM/G-RAM contents are not observable.  What is observable
is input/output behaviour.  This module implements the classic
**W-method** of FSM conformance testing (Chow 1978, Vasilevskii 1973):

* an *access sequence* brings the machine from reset to each state,
* a *characterisation set* ``W`` of input words distinguishes every pair
  of inequivalent states by outputs alone,
* the test suite ``P · I^{≤k} · W`` (transition cover × bounded input
  extensions × W) is exhaustive: a deterministic implementation with at
  most ``k`` extra states passes iff it is behaviourally equivalent to
  the reference.

After a gradual reconfiguration, running the target machine's suite
through the datapath's ports certifies the migration without ever
peeking into the RAMs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..obs import instruments as _instruments
from ..obs.tracing import span as _span
from .fsm import FSM, Input, Output, State
from .minimize import minimize


def access_sequences(machine: FSM) -> Dict[State, List[Input]]:
    """Shortest input word reaching each state from reset (BFS).

    Unreachable states are absent from the result.

    >>> from repro.workloads.library import ones_detector
    >>> access_sequences(ones_detector())["S1"]
    ['1']
    """
    words: Dict[State, List[Input]] = {machine.reset_state: []}
    queue = deque([machine.reset_state])
    while queue:
        state = queue.popleft()
        for i in machine.inputs:
            target = machine.next_state(i, state)
            if target not in words:
                words[target] = words[state] + [i]
                queue.append(target)
    return words


def distinguishing_word(
    machine: FSM, first: State, second: State
) -> Optional[List[Input]]:
    """Shortest input word on which the two states' outputs differ.

    Returns ``None`` for behaviourally equivalent states.
    """
    if first == second:
        return None
    start = (first, second)
    parents: Dict[Tuple[State, State], Tuple[Tuple[State, State], Input]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        a, b = pair
        for i in machine.inputs:
            if machine.output(i, a) != machine.output(i, b):
                word = [i]
                node = pair
                while node != start:
                    node, step = parents[node]
                    word.append(step)
                word.reverse()
                return word
            nxt = (machine.next_state(i, a), machine.next_state(i, b))
            if nxt not in seen and nxt[0] != nxt[1]:
                seen.add(nxt)
                parents[nxt] = (pair, i)
                queue.append(nxt)
    return None


def characterization_set(machine: FSM) -> List[List[Input]]:
    """A set ``W`` of words distinguishing every inequivalent state pair.

    Built pairwise from shortest distinguishing words, deduplicated.
    For a minimal machine, running all of ``W`` from two distinct states
    always produces different output matrices.
    """
    words: List[List[Input]] = []
    states = machine.states
    for idx, a in enumerate(states):
        for b in states[idx + 1 :]:
            word = distinguishing_word(machine, a, b)
            if word is not None and word not in words:
                words.append(word)
    if not words:
        words.append([machine.inputs[0]])
    return words


def transition_cover(machine: FSM) -> List[List[Input]]:
    """The set ``P``: the empty word plus access·input for every transition."""
    access = access_sequences(machine)
    cover: List[List[Input]] = [[]]
    for state, prefix in access.items():
        for i in machine.inputs:
            cover.append(prefix + [i])
    return cover


def w_method_suite(
    machine: FSM, extra_states: int = 0
) -> List[List[Input]]:
    """The W-method test suite ``P · I^{≤ extra_states} · W``.

    ``extra_states`` is the assumed bound on how many more states the
    implementation may have than the (minimised) reference; 0 suffices
    when the implementation's state space is known not to have grown —
    e.g. our datapath, whose ST-REG width is fixed by the superset.
    Duplicate words and words that are prefixes of other suite words are
    pruned (a prefix's outputs are checked by the longer run anyway).
    """
    reference = minimize(machine)
    cover = transition_cover(reference)
    wset = characterization_set(reference)

    middles: List[List[Input]] = [[]]
    frontier: List[List[Input]] = [[]]
    for _ in range(extra_states):
        frontier = [word + [i] for word in frontier for i in reference.inputs]
        middles.extend(frontier)

    suite = []
    seen = set()
    for prefix in cover:
        for middle in middles:
            for suffix in wset:
                word = tuple(prefix + middle + suffix)
                if word and word not in seen:
                    seen.add(word)
                    suite.append(list(word))

    # Prefix pruning: keep only maximal words.
    suite.sort(key=len, reverse=True)
    kept: List[List[Input]] = []
    kept_tuples: List[Tuple] = []
    for word in suite:
        tup = tuple(word)
        if not any(existing[: len(tup)] == tup for existing in kept_tuples):
            kept.append(word)
            kept_tuples.append(tup)
    return kept


def find_counterexample(
    first: FSM, second: FSM
) -> Optional[List[Input]]:
    """Shortest input word on which the two machines' outputs differ.

    ``None`` means behavioural equivalence (product-machine BFS, exact).
    Requires identical input alphabets.

    >>> from repro.workloads.library import ones_detector, zeros_detector
    >>> find_counterexample(ones_detector(), ones_detector()) is None
    True
    >>> word = find_counterexample(ones_detector(), zeros_detector())
    >>> ones_detector().run(word) != zeros_detector().run(word)
    True
    """
    if set(first.inputs) != set(second.inputs):
        raise ValueError("machines must share the input alphabet")
    start = (first.reset_state, second.reset_state)
    parents: Dict[Tuple[State, State], Tuple[Tuple[State, State], Input]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        a, b = pair
        for i in first.inputs:
            if first.output(i, a) != second.output(i, b):
                word = [i]
                node = pair
                while node != start:
                    node, step = parents[node]
                    word.append(step)
                word.reverse()
                return word
            nxt = (first.next_state(i, a), second.next_state(i, b))
            if nxt not in seen:
                seen.add(nxt)
                parents[nxt] = (pair, i)
                queue.append(nxt)
    return None


class Resettable(Protocol):
    """What conformance testing needs from a device under test."""

    def reset(self) -> None: ...

    def step(self, i: Input) -> Output: ...


class _HardwareAdapter:
    """Adapts :class:`~repro.hw.machine.HardwareFSM` to :class:`Resettable`."""

    def __init__(self, hw):
        self.hw = hw

    def reset(self) -> None:
        self.hw.cycle(reset=True)

    def step(self, i: Input) -> Output:
        return self.hw.step(i)


@dataclass
class VerificationResult:
    """Outcome of a conformance run."""

    passed: bool
    words_run: int
    symbols_run: int
    failures: List[Tuple[List[Input], List[Output], List[Output]]] = field(
        default_factory=list
    )

    def __bool__(self) -> bool:
        return self.passed


def run_suite(
    dut: Resettable, reference: FSM, suite: Sequence[Sequence[Input]]
) -> VerificationResult:
    """Run every suite word against the reference, reset between words."""
    with _span(
        "verify.conformance", reference=reference.name, words=len(suite)
    ) as sp:
        failures = []
        symbols = 0
        for word in suite:
            dut.reset()
            expected = reference.run(list(word))
            actual = [dut.step(i) for i in word]
            symbols += len(word)
            if actual != expected:
                failures.append((list(word), expected, actual))
        sp.attrs["symbols"] = symbols
        sp.attrs["failures"] = len(failures)
    _instruments.VERIFY_WORDS.inc(len(suite))
    _instruments.VERIFY_SYMBOLS.inc(symbols)
    return VerificationResult(
        passed=not failures,
        words_run=len(suite),
        symbols_run=symbols,
        failures=failures,
    )


def verify_hardware(
    hw, reference: FSM, extra_states: int = 0
) -> VerificationResult:
    """Certify through I/O only that ``hw`` now implements ``reference``.

    The datapath's reset must already target the reference's reset state
    (run_program does this).  With the correct ``extra_states`` bound the
    verdict is exhaustive, not statistical.
    """
    suite = w_method_suite(reference, extra_states=extra_states)
    return run_suite(_HardwareAdapter(hw), reference, suite)
