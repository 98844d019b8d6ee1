"""Unit tests for the evolutionary-algorithm heuristic (paper Sec. 4.6)."""

import random

import pytest

from repro.core.delta import delta_transitions
from repro.core.ea import (
    EAConfig,
    _inversion_mutation,
    _order_crossover,
    _swap_mutation,
    ea_program,
    evolve_program,
)
from repro.core.jsr import jsr_program
from repro.workloads.library import fig6_m, fig6_m_prime
from repro.workloads.mutate import workload_pair


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
        with pytest.raises(ValueError):
            EAConfig(crossover_rate=1.5)


class TestOperators:
    def test_order_crossover_produces_permutation(self):
        rng = random.Random(0)
        for _ in range(50):
            a = list(range(8))
            b = list(range(8))
            rng.shuffle(a)
            rng.shuffle(b)
            child = _order_crossover(a, b, rng)
            assert sorted(child) == list(range(8))

    def test_order_crossover_inherits_slice_from_a(self):
        rng = random.Random(3)
        a = [0, 1, 2, 3, 4, 5]
        b = [5, 4, 3, 2, 1, 0]
        child = _order_crossover(a, b, rng)
        # every gene of the child appears in a; slice positions match a
        assert sorted(child) == sorted(a)

    def test_swap_mutation_keeps_permutation(self):
        rng = random.Random(1)
        genome = list(range(10))
        _swap_mutation(genome, rng)
        assert sorted(genome) == list(range(10))

    def test_inversion_mutation_keeps_permutation(self):
        rng = random.Random(2)
        genome = list(range(10))
        _inversion_mutation(genome, rng)
        assert sorted(genome) == list(range(10))


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


class TestEAProgramWrapper:
    def test_returns_program_only(self, fig6_pair, fast_ea):
        m, mp = fig6_pair
        program = ea_program(m, mp, config=fast_ea)
        assert program.method == "ea"
        assert program.is_valid()


#: ``evolve_program`` trajectories recorded before fitness moved to the
#: length-only decoder: (pair, config, history, evaluations, order).  Any
#: change to the RNG call sequence or to a fitness value moves them.
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
]


class TestPinnedTrajectory:
    @pytest.mark.parametrize(
        "make_pair,config,history,evaluations,order",
        PINNED_TRAJECTORIES,
        ids=["fig6", "pair-10-8-s2", "pair-14-10-s5"],
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
