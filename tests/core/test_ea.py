"""Unit tests for the evolutionary-algorithm heuristic (paper Sec. 4.6)."""

import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decode import LengthDecoder, decode_order
from repro.core.delta import delta_transitions
from repro.core.ea import EAConfig, EAResult, ea_program, evolve_program
from repro.core.greedy import nearest_neighbour_order
from repro.core.jsr import jsr_program
from repro.core.program import Program
from repro.obs import configure
from repro.obs.instruments import EA_BEST_LENGTH, EA_EVALUATIONS, EA_GENERATIONS
from repro.workloads.library import fig6_m, fig6_m_prime
from repro.workloads.mutate import workload_pair

# -- oracle ----------------------------------------------------------------
# The generation loop as written before it drew indices straight from
# ``getrandbits``: operators spelt with ``rng.choice`` / ``rng.randrange``
# and a tuple-keyed fitness lookup per comparison.  Copied verbatim, less
# its two per-generation metric updates; ``evolve_program`` must reproduce
# it draw for draw.


def _order_crossover(
    parent_a: Sequence[int], parent_b: Sequence[int], rng: random.Random
) -> List[int]:
    """OX1 order crossover on index permutations.

    A random slice of parent A is copied verbatim; the remaining
    positions are filled with parent B's genes in B's order.
    """
    size = len(parent_a)
    lo = rng.randrange(size)
    hi = rng.randrange(size)
    if lo > hi:
        lo, hi = hi, lo
    child: List[Optional[int]] = [None] * size
    child[lo : hi + 1] = parent_a[lo : hi + 1]
    taken = set(parent_a[lo : hi + 1])
    fill = [gene for gene in parent_b if gene not in taken]
    idx = 0
    for pos in range(size):
        if child[pos] is None:
            child[pos] = fill[idx]
            idx += 1
    return child  # type: ignore[return-value]


def _swap_mutation(genome: List[int], rng: random.Random) -> None:
    """Exchange two random positions in place."""
    size = len(genome)
    a, b = rng.randrange(size), rng.randrange(size)
    genome[a], genome[b] = genome[b], genome[a]


def _inversion_mutation(genome: List[int], rng: random.Random) -> None:
    """Reverse a random slice in place (the 2-opt move as a mutation)."""
    size = len(genome)
    lo, hi = sorted((rng.randrange(size), rng.randrange(size)))
    genome[lo : hi + 1] = genome[lo : hi + 1][::-1]


def _reference_evolve(source, target, config, i0=None, **decode_kwargs):
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
    fitness_cache: Dict[Tuple[int, ...], int] = {}
    evaluations = 0

    def fitness(genome: Sequence[int]) -> int:
        nonlocal evaluations
        key = tuple(genome)
        if key not in fitness_cache:
            fitness_cache[key] = decoder.length(key)
            evaluations += 1
        return fitness_cache[key]

    population: List[List[int]] = []
    if config.seed_with_greedy:
        greedy = nearest_neighbour_order(source, target)
        population.append(decoder.indices(greedy))
    while len(population) < config.population_size:
        genome = identity[:]
        rng.shuffle(genome)
        population.append(genome)

    def tournament() -> List[int]:
        contenders = [rng.choice(population) for _ in range(config.tournament_size)]
        return min(contenders, key=fitness)

    history: List[int] = []
    for _generation in range(config.generations):
        # Ranking evaluates every member (through the cache), so the
        # tournaments below only ever hit the cache.
        ranked = sorted(population, key=fitness)
        history.append(fitness(ranked[0]))
        next_gen = [genome[:] for genome in ranked[: config.elite_count]]
        while len(next_gen) < config.population_size:
            parent_a = tournament()
            if rng.random() < config.crossover_rate:
                parent_b = tournament()
                child = _order_crossover(parent_a, parent_b, rng)
            else:
                child = parent_a[:]
            if rng.random() < config.swap_mutation_rate:
                _swap_mutation(child, rng)
            if rng.random() < config.inversion_mutation_rate:
                _inversion_mutation(child, rng)
            next_gen.append(child)
        population = next_gen

    best = min(population, key=fitness)
    history.append(fitness(best))
    program = decode(best)
    return EAResult(
        program=program,
        order=[deltas[idx] for idx in best],
        best_length=len(program),
        history=history,
        evaluations=evaluations,
    )


def _trajectory(result):
    """What a run must reproduce: history, evaluations, order, length."""
    return (
        result.history,
        result.evaluations,
        [(t.input, t.source, t.target, t.output) for t in result.order],
        result.best_length,
        len(result.program),
    )


def _assert_matches_oracle(result, source, target, config):
    assert _trajectory(result) == _trajectory(
        _reference_evolve(source, target, config)
    )


class TestEAConfig:
    def test_defaults_valid(self):
        EAConfig()

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            EAConfig(population_size=1)

    def test_rejects_oversized_elite(self):
        with pytest.raises(ValueError):
            EAConfig(population_size=4, elite_count=4)

    def test_rejects_bad_probability(self):
        for name, value in (
            ("crossover_rate", 1.5),
            ("swap_mutation_rate", 2.0),
            ("swap_mutation_rate", -1.0),
            ("inversion_mutation_rate", 1.5),
            ("inversion_mutation_rate", -0.1),
        ):
            with pytest.raises(ValueError, match=name):
                EAConfig(**{name: value})

    def test_rejects_empty_tournament(self):
        with pytest.raises(ValueError):
            EAConfig(tournament_size=0)


def _scored_genomes(monkeypatch, source, target, config):
    """Every distinct genome the loop scores, in order.  The run must
    also match the oracle's."""
    scored = []
    length = LengthDecoder.length

    def recording(self, genome):
        scored.append(list(genome))
        return length(self, genome)

    with monkeypatch.context() as patch:
        patch.setattr(LengthDecoder, "length", recording)
        result = evolve_program(source, target, config=config)
    _assert_matches_oracle(result, source, target, config)
    return scored


def _is_ox1_child(child, parent_a, parent_b):
    """Some slice of ``parent_a`` sits in place in ``child``, and the
    other positions hold ``parent_b``'s remaining genes in its order."""
    size = len(child)
    for lo in range(size):
        for hi in range(lo, size):
            kept = parent_a[lo : hi + 1]
            fill = [gene for gene in parent_b if gene not in set(kept)]
            if child == fill[:lo] + kept + fill[lo:]:
                return True
    return False


class TestOperators:
    """The operators, observed through the generation loop: a config
    that enables one operator only, and every genome the loop scores."""

    ONLY_CROSSOVER = dict(
        crossover_rate=1.0, swap_mutation_rate=0.0, inversion_mutation_rate=0.0
    )

    def test_order_crossover_produces_permutation(self, monkeypatch):
        for seed in range(4):
            src, tgt = workload_pair(8, 6, seed=seed)
            cfg = EAConfig(
                population_size=12, generations=6, seed=seed,
                **self.ONLY_CROSSOVER,
            )
            scored = _scored_genomes(monkeypatch, src, tgt, cfg)
            assert len(scored) > cfg.population_size
            assert all(sorted(g) == list(range(6)) for g in scored)

    def test_order_crossover_inherits_slice_from_a(self, monkeypatch):
        # Two random members, one generation of two children, no elites
        # and one-contender tournaments: every child scored after the two
        # members is an OX1 child of them.
        checked = 0
        for seed in range(12):
            src, tgt = workload_pair(8, 6, seed=seed)
            cfg = EAConfig(
                population_size=2, generations=1, tournament_size=1,
                elite_count=0, seed_with_greedy=False, seed=seed,
                **self.ONLY_CROSSOVER,
            )
            scored = _scored_genomes(monkeypatch, src, tgt, cfg)
            members, children = scored[:2], scored[2:]
            if len(members) < 2 or members[0] == members[1]:
                continue
            for child in children:
                assert _is_ox1_child(child, *members) or _is_ox1_child(
                    child, *members[::-1]
                )
                checked += 1
        assert checked >= 6

    def test_swap_mutation_keeps_permutation(self, monkeypatch):
        src, tgt = workload_pair(10, 8, seed=1)
        cfg = EAConfig(
            population_size=12, generations=6, seed=4, crossover_rate=0.0,
            swap_mutation_rate=1.0, inversion_mutation_rate=0.0,
        )
        scored = _scored_genomes(monkeypatch, src, tgt, cfg)
        assert len(scored) > cfg.population_size
        assert all(sorted(g) == list(range(8)) for g in scored)

    def test_inversion_mutation_keeps_permutation(self, monkeypatch):
        src, tgt = workload_pair(10, 8, seed=2)
        cfg = EAConfig(
            population_size=12, generations=6, seed=5, crossover_rate=0.0,
            swap_mutation_rate=0.0, inversion_mutation_rate=1.0,
        )
        scored = _scored_genomes(monkeypatch, src, tgt, cfg)
        assert len(scored) > cfg.population_size
        assert all(sorted(g) == list(range(8)) for g in scored)


class TestEvolveProgram:
    def test_valid_on_fig6(self, fig6_pair, fast_ea):
        m, mp = fig6_pair
        result = evolve_program(m, mp, config=fast_ea)
        assert result.program.is_valid()
        assert result.best_length == len(result.program)

    def test_considerably_shorter_than_jsr(self, fig6_pair, fast_ea):
        # The paper's Table 2 headline: the EA is considerably shorter,
        # sometimes by more than 50 %.
        m, mp = fig6_pair
        ea_len = len(evolve_program(m, mp, config=fast_ea).program)
        jsr_len = len(jsr_program(m, mp))
        assert ea_len < jsr_len
        assert ea_len <= 0.6 * jsr_len  # ~47 % shorter on Fig. 6 (8 vs 15)

    def test_never_exceeds_jsr_bound(self, fast_ea):
        for seed in range(5):
            src, tgt = workload_pair(8, 6, seed=seed)
            ea_len = len(evolve_program(src, tgt, config=fast_ea).program)
            assert ea_len <= 3 * (6 + 1)

    def test_respects_lower_bound(self, fast_ea):
        for seed in range(5):
            src, tgt = workload_pair(8, 6, seed=seed)
            result = evolve_program(src, tgt, config=fast_ea)
            assert result.best_length >= len(delta_transitions(src, tgt))

    def test_deterministic_for_fixed_seed(self, fig6_pair):
        m, mp = fig6_pair
        cfg = EAConfig(population_size=16, generations=10, seed=7)
        r1 = evolve_program(m, mp, config=cfg)
        r2 = evolve_program(m, mp, config=cfg)
        assert r1.best_length == r2.best_length
        assert [str(t) for t in r1.order] == [str(t) for t in r2.order]

    def test_history_is_monotone_nonincreasing(self, fig6_pair, fast_ea):
        m, mp = fig6_pair
        history = evolve_program(m, mp, config=fast_ea).history
        assert len(history) == fast_ea.generations + 1
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_trivial_migrations_skip_evolution(self, detector, fast_ea):
        result = evolve_program(detector, detector, config=fast_ea)
        assert result.evaluations == 1
        assert result.program.is_valid()

    def test_single_delta_skips_evolution(self, fig7_pair, fast_ea):
        m, mp = fig7_pair
        result = evolve_program(m, mp, config=fast_ea)
        assert result.evaluations == 1
        # leading reset + temporary + delta + home repair
        assert len(result.program) == 4

    def test_order_is_permutation_of_deltas(self, fig6_pair, fast_ea):
        m, mp = fig6_pair
        result = evolve_program(m, mp, config=fast_ea)
        assert sorted(map(str, result.order)) == sorted(
            map(str, delta_transitions(m, mp))
        )

    def test_greedy_seeding_can_be_disabled(self, fig6_pair):
        m, mp = fig6_pair
        cfg = EAConfig(
            population_size=16, generations=10, seed=3, seed_with_greedy=False
        )
        assert evolve_program(m, mp, config=cfg).program.is_valid()

    def test_fitness_cache_limits_evaluations(self, fig6_pair):
        m, mp = fig6_pair
        cfg = EAConfig(population_size=20, generations=30, seed=5)
        result = evolve_program(m, mp, config=cfg)
        # 4 deltas -> at most 4! = 24 distinct permutations to evaluate.
        assert result.evaluations <= 24


class TestMetrics:
    def test_published_once_per_run(self):
        # A run whose final population beats its last generation, so the
        # gauge's "last generation" is told apart from the final best.
        src, tgt = workload_pair(10, 8, seed=2)
        cfg = EAConfig(
            population_size=8, generations=2, seed=2, seed_with_greedy=False
        )
        configure(metrics=True)
        try:
            first = evolve_program(src, tgt, config=cfg)
            assert first.history[-1] < first.history[-2]
            assert EA_GENERATIONS.value() == cfg.generations
            assert EA_EVALUATIONS.value() == first.evaluations
            assert EA_BEST_LENGTH.value() == first.history[-2]
            second = evolve_program(*workload_pair(8, 6, seed=3), config=cfg)
            assert EA_GENERATIONS.value() == 2 * cfg.generations
            assert EA_EVALUATIONS.value() == (
                first.evaluations + second.evaluations
            )
            assert EA_BEST_LENGTH.value() == second.history[-2]
        finally:
            configure()


class TestEAProgramWrapper:
    def test_returns_program_only(self, fig6_pair, fast_ea):
        m, mp = fig6_pair
        program = ea_program(m, mp, config=fast_ea)
        assert program.method == "ea"
        assert program.is_valid()


#: ``evolve_program`` trajectories: (pair, config, history, evaluations,
#: order).  The first three were recorded before fitness moved to the
#: length-only decoder, the default-config one before the loop drew its
#: indices from ``getrandbits``.  Any change to the RNG call sequence or
#: to a fitness value moves them.
PINNED_TRAJECTORIES = [
    (
        lambda: (fig6_m(), fig6_m_prime()),
        EAConfig(population_size=16, generations=10, seed=7),
        [10, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8],
        21,
        [("1", "S2", "S3", "0"), ("1", "S3", "S3", "1"),
         ("0", "S3", "S0", "0"), ("0", "S1", "S0", "0")],
    ),
    (
        lambda: workload_pair(10, 8, seed=2),
        EAConfig(population_size=20, generations=15, seed=3),
        [17, 17, 17, 17, 17, 17, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15],
        107,
        [("a0", "q0", "q3", "y0"), ("a1", "q9", "q4", "y0"),
         ("a0", "q4", "q4", "y0"), ("a1", "q4", "q7", "y0"),
         ("a0", "q7", "q1", "y0"), ("a0", "q6", "q6", "y0"),
         ("a1", "q6", "q5", "y1"), ("a0", "q3", "q2", "y1")],
    ),
    (
        lambda: workload_pair(14, 10, seed=5),
        EAConfig(population_size=24, generations=20, seed=11),
        [25, 23, 23] + [21] * 18,
        163,
        [("a0", "q10", "q3", "y1"), ("a0", "q3", "q11", "y0"),
         ("a0", "q6", "q13", "y1"), ("a0", "q9", "q11", "y1"),
         ("a0", "q11", "q11", "y1"), ("a0", "q1", "q1", "y0"),
         ("a1", "q1", "q0", "y1"), ("a1", "q10", "q7", "y1"),
         ("a0", "q4", "q11", "y0"), ("a0", "q0", "q2", "y1")],
    ),
    (
        # The default configuration on a synth-ea-sized pair.
        lambda: workload_pair(16, 12, seed=4),
        EAConfig(seed=9),
        [28] * 7 + [27] * 13 + [26] * 41,
        725,
        [("a1", "q11", "q4", "y1"), ("a0", "q15", "q1", "y0"),
         ("a0", "q10", "q1", "y0"), ("a1", "q10", "q3", "y0"),
         ("a1", "q2", "q5", "y0"), ("a0", "q5", "q4", "y0"),
         ("a0", "q6", "q0", "y1"), ("a0", "q8", "q3", "y0"),
         ("a0", "q14", "q9", "y1"), ("a1", "q9", "q5", "y1"),
         ("a1", "q5", "q7", "y1"), ("a0", "q0", "q15", "y1")],
    ),
]


class TestPinnedTrajectory:
    @pytest.mark.parametrize(
        "make_pair,config,history,evaluations,order",
        PINNED_TRAJECTORIES,
        ids=["fig6", "pair-10-8-s2", "pair-14-10-s5", "default-16-12-s4"],
    )
    def test_trajectory_unchanged(
        self, make_pair, config, history, evaluations, order
    ):
        source, target = make_pair()
        result = evolve_program(source, target, config=config)
        assert result.history == history
        assert result.evaluations == evaluations
        assert [
            (t.input, t.source, t.target, t.output) for t in result.order
        ] == order
        assert result.best_length == history[-1] == len(result.program)


#: Population sizes at and around powers of two: the rejection sampling
#: of an index draw discards the most values just above one.
POPULATIONS = [2, 3, 8, 16, 31, 32, 33, 40, 64]
#: (states, |Td|) pairs, from a two-gene genome to synth-ea sizes.
SHAPES = [(4, 2), (5, 3), (6, 4), (8, 5), (12, 8), (16, 12)]


@st.composite
def ea_cases(draw):
    population = draw(st.sampled_from(POPULATIONS))
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    config = EAConfig(
        population_size=population,
        generations=draw(st.integers(1, 5)),
        tournament_size=draw(st.integers(1, 5)),
        crossover_rate=draw(rate),
        swap_mutation_rate=draw(rate),
        inversion_mutation_rate=draw(rate),
        elite_count=draw(st.integers(0, population - 1)),
        seed_with_greedy=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    n_states, n_deltas = draw(st.sampled_from(SHAPES))
    pair = workload_pair(n_states, n_deltas, seed=draw(st.integers(0, 30)))
    return pair, config


class TestMatchesReferenceLoop:
    """The loop reproduces the oracle's trajectory for any config."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(ea_cases())
    def test_same_trajectory_as_reference(self, case):
        (source, target), config = case
        result = evolve_program(source, target, config=config)
        _assert_matches_oracle(result, source, target, config)
