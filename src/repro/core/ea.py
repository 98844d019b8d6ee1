"""Evolutionary-algorithm heuristic for short reconfiguration programs
(paper Sec. 4.6).

The paper encodes each individual as a permutation of the order in which
the delta transitions are reconfigured; the decoder
(:func:`repro.core.decode.decode_order`) turns the permutation into a
program, and the fitness of an individual is the length of that program.
Fitness never builds the program: a
:class:`~repro.core.decode.LengthDecoder`, compiled once per run, returns
that length from the int-coded genome directly.  Only the winning genome
is materialised by :func:`~repro.core.decode.decode_order`, so the
returned program is still built and validated step by step.
The EA searches for the permutation with the shortest program — Table 2
shows it beating the JSR heuristic "considerably ... sometimes by more
than 50 %".

The paper does not publish its EA parameters, so this implementation uses
a standard, fully seeded generational GA: tournament selection, order
crossover (OX1), swap + inversion mutation, and elitism.  All free
parameters are exposed through :class:`EAConfig` and swept by the
``benchmarks/test_ablation_ea_params.py`` harness.

The generation loop scores each member once per generation and runs its
tournaments on member indices.  It draws every index at the same point,
and by the same rejection sampling, as ``random.Random.choice`` and
``randrange`` would (``getrandbits`` of the bound's bit length until the
value is below it), so a seed gives the same trajectory and the same
program as the loop spelt with those calls, only faster.

The module also hosts :func:`evaluate_population`, the population-level
*machine* scorer: a whole candidate population is replayed over a trace
set through the execution layer's multi-stream plane
(:func:`repro.exec.run_streams`), one stream batch per candidate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import instruments as _instruments
from ..obs.instruments import record_synthesis
from ..obs.tracing import span as _span
from .decode import LengthDecoder, decode_order
from .fsm import FSM, Input, Transition
from .greedy import nearest_neighbour_order
from .program import Program


@dataclass(frozen=True)
class EAConfig:
    """Tunable parameters of the evolutionary search.

    The defaults are sized for the small-to-medium machines of the
    paper's experiments (tens of delta transitions); they converge well
    within the default generation budget while staying fast enough for
    property-based testing.
    """

    population_size: int = 40
    generations: int = 60
    tournament_size: int = 3
    crossover_rate: float = 0.9
    swap_mutation_rate: float = 0.25
    inversion_mutation_rate: float = 0.15
    elite_count: int = 2
    seed_with_greedy: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population must hold at least two individuals")
        if self.elite_count >= self.population_size:
            raise ValueError("elite_count must be smaller than the population")
        for name in (
            "crossover_rate", "swap_mutation_rate", "inversion_mutation_rate"
        ):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be a probability")
        if self.tournament_size < 1:
            raise ValueError("a tournament needs at least one contender")


@dataclass
class EAResult:
    """Best program found plus convergence telemetry."""

    program: Program
    order: List[Transition]
    best_length: int
    history: List[int] = field(default_factory=list)
    evaluations: int = 0


def evolve_program(
    source: FSM,
    target: FSM,
    config: Optional[EAConfig] = None,
    i0: Optional[Input] = None,
    **decode_kwargs,
) -> EAResult:
    """Run the EA and return the best reconfiguration program found.

    The returned program is always valid; for degenerate migrations
    (zero or one delta transition) the decoder result is returned
    directly without running the evolutionary loop.

    >>> from repro.workloads.library import fig6_m, fig6_m_prime
    >>> result = evolve_program(fig6_m(), fig6_m_prime())
    >>> result.program.is_valid()
    True
    """
    config = config or EAConfig()
    with _span(
        "ea.synthesise", source=source.name, target=target.name
    ) as sp:
        result = _evolve_program(
            source, target, config, i0=i0, **decode_kwargs
        )
        sp.attrs["generations"] = len(result.history)
        sp.attrs["evaluations"] = result.evaluations
        sp.attrs["length"] = result.best_length
    record_synthesis("ea")
    _instruments.EA_EVALUATIONS.inc(result.evaluations)
    generations = len(result.history) - 1
    if generations:
        _instruments.EA_GENERATIONS.inc(generations)
        # The last generation's best; history[-1] scores the final
        # population, which is never ranked.
        _instruments.EA_BEST_LENGTH.set(result.history[-2])
    return result


def _evolve_program(
    source: FSM,
    target: FSM,
    config: EAConfig,
    i0: Optional[Input] = None,
    **decode_kwargs,
) -> EAResult:
    rng = random.Random(config.seed)
    decoder = LengthDecoder(source, target, i0=i0, **decode_kwargs)
    deltas = decoder.deltas

    def decode(indices: Sequence[int]) -> Program:
        order = [deltas[idx] for idx in indices]
        return decode_order(
            source, target, order, i0=i0, method="ea", **decode_kwargs
        )

    if len(deltas) <= 1:
        program = decode(list(range(len(deltas))))
        return EAResult(
            program=program,
            order=list(deltas),
            best_length=len(program),
            history=[len(program)],
            evaluations=1,
        )

    size = len(deltas)
    identity = list(range(size))
    length = decoder.length
    cache: Dict[Tuple[int, ...], int] = {}

    def fitnesses(population: List[List[int]]) -> List[int]:
        fits = []
        for genome in population:
            key = tuple(genome)
            fit = cache.get(key)
            if fit is None:
                fit = cache[key] = length(key)
            fits.append(fit)
        return fits

    population: List[List[int]] = []
    if config.seed_with_greedy:
        greedy = nearest_neighbour_order(source, target)
        population.append(decoder.indices(greedy))
    while len(population) < config.population_size:
        genome = identity[:]
        rng.shuffle(genome)
        population.append(genome)

    # Every index is drawn as ``Random._randbelow`` draws it for
    # ``choice`` and ``randrange`` (CPython 3.9-3.12):
    # ``getrandbits(n.bit_length())`` until the value is below ``n``.
    getrandbits = rng.getrandbits
    chance = rng.random
    pop_size = config.population_size
    pop_bits = pop_size.bit_length()
    size_bits = size.bit_length()
    rivals = range(config.tournament_size - 1)
    elite_count = config.elite_count
    crossover_rate = config.crossover_rate
    swap_rate = config.swap_mutation_rate
    inversion_rate = config.inversion_mutation_rate

    def tournament(fits: List[int]) -> int:
        """Index of the first fittest of ``tournament_size`` draws."""
        winner = getrandbits(pop_bits)
        while winner >= pop_size:
            winner = getrandbits(pop_bits)
        best = fits[winner]
        for _ in rivals:
            k = getrandbits(pop_bits)
            while k >= pop_size:
                k = getrandbits(pop_bits)
            if fits[k] < best:
                winner, best = k, fits[k]
        return winner

    def positions() -> Tuple[int, int]:
        """Two genome positions, drawn as two ``randrange(size)``."""
        a = getrandbits(size_bits)
        while a >= size:
            a = getrandbits(size_bits)
        b = getrandbits(size_bits)
        while b >= size:
            b = getrandbits(size_bits)
        return a, b

    history: List[int] = []
    for _generation in range(config.generations):
        fits = fitnesses(population)
        # A stable sort: ties keep population order, as elites must.
        ranked = sorted(range(pop_size), key=fits.__getitem__)
        history.append(fits[ranked[0]])
        # Members are never changed in place, so elites need no copy.
        next_gen = [population[k] for k in ranked[:elite_count]]
        while len(next_gen) < pop_size:
            parent_a = population[tournament(fits)]
            if chance() < crossover_rate:
                # OX1 order crossover: a slice of A stays in place; B's
                # other genes fill the rest in B's order.
                parent_b = population[tournament(fits)]
                lo, hi = positions()
                if lo > hi:
                    lo, hi = hi, lo
                kept = parent_a[lo : hi + 1]
                taken = set(kept)
                fill = [gene for gene in parent_b if gene not in taken]
                child = fill[:lo] + kept + fill[lo:]
            else:
                child = parent_a[:]
            if chance() < swap_rate:
                # Swap mutation: exchange two positions.
                a, b = positions()
                child[a], child[b] = child[b], child[a]
            if chance() < inversion_rate:
                # Inversion mutation: reverse a slice (the 2-opt move).
                lo, hi = positions()
                if lo > hi:
                    lo, hi = hi, lo
                child[lo : hi + 1] = child[lo : hi + 1][::-1]
            next_gen.append(child)
        population = next_gen

    fits = fitnesses(population)
    history.append(min(fits))
    best = population[fits.index(history[-1])]
    program = decode(best)
    return EAResult(
        program=program,
        order=[deltas[idx] for idx in best],
        best_length=len(program),
        history=history,
        evaluations=len(cache),
    )


def evaluate_population(
    candidates: Sequence[FSM],
    traces: Sequence[Tuple[Sequence[Input], Sequence]],
    backend: str = "auto",
) -> List[float]:
    """Score a population of candidate machines against I/O traces.

    Each candidate is replayed over every trace as one lane of a
    multi-stream batch (the instrumented stream plane of
    :mod:`repro.exec`, site ``"ea.fitness"``): the traces are encoded
    into a :class:`~repro.engine.StreamBatch` *once per distinct input
    alphabet* and replayed against every candidate sharing it, and
    matching is one whole-matrix compare per candidate
    (:meth:`~repro.engine.StreamRun.match_counts`) — so a population
    of N machines costs N kernel calls, not N × traces sequential
    replays with per-symbol Python scoring.

    ``traces`` is a sequence of ``(input_word, expected_outputs)``
    pairs; a candidate's fitness is the fraction of expected output
    symbols it reproduces, pooled over all traces (1.0 = every output
    of every trace matched).  A candidate that cannot serve a trace at
    all — an unconfigured entry, a symbol outside its alphabet — scores
    zero *for that trace* and keeps its matches on the others: the
    whole-batch :class:`~repro.exec.TableMiss` falls back to per-stream
    replay to isolate the failing lanes.

    ``backend`` resolves through the exec resolver and must come
    out as ``"table"``; the engine then picks the python kernel for
    narrow trace sets and the numpy stream kernel once the lanes
    amortize it.  ``"off"``/``"cycle"`` is rejected: a population is
    pure table evaluation, there is no datapath to be cycle-accurate
    against.
    """
    from ..engine.compiled import EngineError
    from ..engine.streams import ExpectedOutputs, StreamBatch
    from ..exec.backends import TableBackend
    from ..exec.batching import run_stream_plane
    from ..exec.protocol import TableMiss
    from ..exec.registry import resolve

    candidates = list(candidates)
    traces = list(traces)
    if not traces:
        raise ValueError("evaluate_population needs at least one trace")
    name = resolve(backend)
    if name != "table":
        raise ValueError(
            f"population scoring needs an in-process table backend, "
            f"not {name!r}: candidates are behavioural machines with "
            "no datapath to serve cycle-accurately"
        )
    words = [tuple(word) for word, _ in traces]
    expected = [tuple(outs) for _, outs in traces]
    total = sum(len(outs) for outs in expected)

    # Encode each distinct input alphabet once (every candidate sharing
    # it replays the same packed symbol matrix), and each distinct
    # output alphabet once (scoring is one whole-matrix compare).
    batches: Dict[Tuple[Input, ...], Optional[StreamBatch]] = {}
    expectations: Dict[Tuple, ExpectedOutputs] = {}

    def batch_for(inputs: Tuple[Input, ...]) -> Optional[StreamBatch]:
        if inputs not in batches:
            try:
                batches[inputs] = StreamBatch.encode(inputs, words)
            except (EngineError, KeyError, ValueError):
                batches[inputs] = None  # some trace symbol is foreign
        return batches[inputs]

    scores: List[float] = []
    with _span(
        "ea.evaluate_population",
        candidates=len(candidates),
        traces=len(traces),
        backend=name,
    ):
        for candidate in candidates:
            table = TableBackend.from_fsm(candidate)
            batch = batch_for(table.compiled.inputs)
            counts: Optional[List[int]] = None
            if batch is not None:
                key = (table.compiled.inputs, table.compiled.outputs)
                if key not in expectations:
                    expectations[key] = ExpectedOutputs(
                        table.compiled.outputs, expected
                    )
                try:
                    run = run_stream_plane(
                        table, batch, site="ea.fitness"
                    )
                    counts = run.match_counts(expectations[key])
                except TableMiss:
                    counts = None
            if counts is None:  # isolate the failing lanes one by one
                counts = []
                for word, outs in zip(words, expected):
                    try:
                        run = table.run_batch(word, commit=False)
                    except (EngineError, KeyError, ValueError):
                        counts.append(0)
                        continue
                    counts.append(
                        sum(
                            1
                            for got, want in zip(run.outputs, outs)
                            if got == want
                        )
                    )
            scores.append(sum(counts) / total if total else 1.0)
    return scores


def ea_program(
    source: FSM,
    target: FSM,
    config: Optional[EAConfig] = None,
    i0: Optional[Input] = None,
    **decode_kwargs,
) -> Program:
    """Convenience wrapper returning only the best program."""
    return evolve_program(source, target, config=config, i0=i0, **decode_kwargs).program
