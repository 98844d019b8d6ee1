"""Unit tests for the migration planner."""

import pytest

from repro.core.ea import EAConfig
from repro.core.jsr import jsr_program
from repro.core.plan import (
    MEMO_ENTRIES,
    MigrationGraph,
    Route,
    plan_supersets,
)
from repro.hw.machine import HardwareFSM
from repro.workloads.library import (
    fig6_m,
    fig6_m_prime,
    ones_detector,
    table1_target,
    zeros_detector,
)
from repro.workloads.mutate import mutate_target
from repro.workloads.random_fsm import random_fsm

FAST = EAConfig(population_size=16, generations=15, seed=0)


def family():
    return [ones_detector(), zeros_detector(), table1_target()]


class TestMigrationGraph:
    def test_requires_unique_names(self):
        with pytest.raises(ValueError, match="unique"):
            MigrationGraph([ones_detector(), ones_detector()])

    def test_requires_two_machines(self):
        with pytest.raises(ValueError, match="at least two"):
            MigrationGraph([ones_detector()])

    def test_programs_cached(self):
        graph = MigrationGraph(family(), ea_config=FAST)
        first = graph.program("ones_detector", "zeros_detector")
        second = graph.program("ones_detector", "zeros_detector")
        assert first is second

    def test_all_programs_valid(self):
        graph = MigrationGraph(family(), ea_config=FAST)
        for a in graph.names:
            for b in graph.names:
                if a != b:
                    assert graph.program(a, b).is_valid()

    def test_cost_matrix_diagonal_zero(self):
        graph = MigrationGraph(family(), ea_config=FAST)
        matrix = graph.cost_matrix()
        for name in graph.names:
            assert matrix[(name, name)] == 0

    def test_delta_matrix(self):
        graph = MigrationGraph(family(), ea_config=FAST)
        deltas = graph.delta_matrix()
        assert deltas[("ones_detector", "zeros_detector")] == 4
        assert deltas[("ones_detector", "ones_detector")] == 0

    def test_jsr_synthesiser(self):
        graph = MigrationGraph(family(), synthesiser="jsr")
        program = graph.program("ones_detector", "zeros_detector")
        assert program.method == "jsr"

    def test_custom_synthesiser(self):
        graph = MigrationGraph(family(), synthesiser=jsr_program)
        assert graph.program("ones_detector", "table1_target").method == "jsr"

    def test_unknown_synthesiser(self):
        with pytest.raises(ValueError):
            MigrationGraph(family(), synthesiser="magic")

    def test_asymmetry_possible(self):
        # Growing a machine costs more deltas than shrinking back if the
        # shrunken machine simply never addresses the extra state.
        m, mp = fig6_m(), fig6_m_prime()
        graph = MigrationGraph([m, mp], ea_config=FAST)
        deltas = graph.delta_matrix()
        assert deltas[("fig6_m", "fig6_m_prime")] != deltas[
            ("fig6_m_prime", "fig6_m")
        ]


class TestRoute:
    def test_direct_route(self):
        graph = MigrationGraph(family(), ea_config=FAST)
        route = graph.route("ones_detector", "zeros_detector")
        assert route.hops[0] == "ones_detector"
        assert route.hops[-1] == "zeros_detector"
        assert route.total_cycles == sum(len(p) for p in route.programs)

    def test_self_route_is_empty(self):
        graph = MigrationGraph(family(), ea_config=FAST)
        route = graph.route("ones_detector", "ones_detector")
        assert route.hops == ["ones_detector"]
        assert route.total_cycles == 0

    def test_routed_never_worse_than_direct(self):
        graph = MigrationGraph(family(), ea_config=FAST)
        for a in graph.names:
            for b in graph.names:
                if a == b:
                    continue
                assert graph.route(a, b).total_cycles <= len(
                    graph.program(a, b)
                )

    def test_multi_hop_route_composes_on_hardware(self):
        """Replaying route hops in sequence really lands on the target."""
        base = random_fsm(n_states=6, seed=50)
        mid = mutate_target(base, 3, seed=1, name="mid")
        far = mutate_target(mid, 3, seed=2, name="far")
        graph = MigrationGraph([base, mid, far], ea_config=FAST)
        route = graph.route(base.name, "far")
        hw = HardwareFSM(
            base,
            extra_inputs=base.inputs,
            extra_outputs=base.outputs,
            extra_states=base.states,
        )
        for program in route.programs:
            hw.run_program(program)
        assert hw.realises(far)

    def test_routing_gains_consistent(self):
        graph = MigrationGraph(family(), ea_config=FAST)
        for a, b, direct, routed in graph.routing_gains():
            assert routed < direct
            assert graph.route(a, b).total_cycles == routed


class TestSupersetPlan:
    def test_family_union(self):
        plan = plan_supersets([fig6_m(), fig6_m_prime()])
        assert plan.states.symbols == ("S0", "S1", "S2", "S3")
        assert plan.address_bits == 3

    def test_first_machine_codes_stable(self):
        plan = plan_supersets([fig6_m(), fig6_m_prime()])
        assert plan.states.index("S2") == 2

    def test_ram_sizing(self):
        plan = plan_supersets([ones_detector(), zeros_detector()])
        assert plan.f_ram_bits == 4  # 2 addr bits, 1 state bit
        assert plan.g_ram_bits == 4

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            plan_supersets([])


class TestRoutingGainsSynthetic:
    def test_triangle_violation_routes_via_middle(self):
        """With a synthesiser whose costs violate the triangle
        inequality, Floyd-Warshall must find the two-hop route."""
        from repro.core.program import Program, reset_step

        a = ones_detector().renamed({}, name="a")
        b = zeros_detector().renamed({}, name="b")
        c = table1_target().renamed({}, name="c")

        def costly(source, target):
            # direct a->c is artificially expensive: pad with resets
            base = jsr_program(source, target)
            if source.name == "a" and target.name == "c":
                return Program(
                    list(base.steps) + [reset_step()] * 40,
                    source, target, method="padded",
                )
            return base

        graph = MigrationGraph([a, b, c], synthesiser=costly)
        route = graph.route("a", "c")
        assert route.hops == ["a", "b", "c"]
        assert route.total_cycles < len(graph.program("a", "c"))
        gains = graph.routing_gains()
        assert ("a", "c", len(graph.program("a", "c")),
                route.total_cycles) in gains

    def test_multi_hop_route_is_replayable(self):
        """The padded-cost route's hops still compose on hardware."""
        from repro.core.program import Program, reset_step

        a = ones_detector().renamed({}, name="a")
        b = zeros_detector().renamed({}, name="b")
        c = table1_target().renamed({}, name="c")

        def costly(source, target):
            base = jsr_program(source, target)
            if source.name == "a" and target.name == "c":
                return Program(
                    list(base.steps) + [reset_step()] * 40,
                    source, target, method="padded",
                )
            return base

        graph = MigrationGraph([a, b, c], synthesiser=costly)
        route = graph.route("a", "c")
        hw = HardwareFSM.for_migration(a, c)
        for program in route.programs:
            hw.run_program(program)
        assert hw.realises(c)


class TestFingerprint:
    def test_stable_across_calls(self):
        from repro.core.plan import fsm_fingerprint

        assert fsm_fingerprint(ones_detector()) == fsm_fingerprint(
            ones_detector()
        )

    def test_ignores_name(self):
        from repro.core.plan import fsm_fingerprint

        machine = ones_detector()
        assert fsm_fingerprint(machine) == fsm_fingerprint(
            machine.renamed({}, name="other")
        )

    def test_distinguishes_structure(self):
        from repro.core.plan import fsm_fingerprint

        fingerprints = {
            fsm_fingerprint(ones_detector()),
            fsm_fingerprint(zeros_detector()),
            fsm_fingerprint(table1_target()),
            fsm_fingerprint(mutate_target(ones_detector(), 1, seed=1)),
            fsm_fingerprint(random_fsm(n_states=6, seed=7)),
        }
        assert len(fingerprints) == 5

    def test_short_hex(self):
        from repro.core.plan import fsm_fingerprint

        digest = fsm_fingerprint(ones_detector())
        assert len(digest) == 16
        int(digest, 16)  # parses as hex


class TestSynthesisCacheThreading:
    def test_graph_synthesises_once_under_contention(self):
        import threading

        calls = []
        lock = threading.Lock()

        def counting(source, target):
            with lock:
                calls.append((source.name, target.name))
            return jsr_program(source, target)

        graph = MigrationGraph(family(), synthesiser=counting)
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait(timeout=10)
            results.append(
                graph.program("ones_detector", "zeros_detector")
            )

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(calls) == 1
        assert all(p is results[0] for p in results)

    def test_cache_info_counts(self):
        graph = MigrationGraph(family(), synthesiser=jsr_program)
        graph.program("ones_detector", "zeros_detector")
        graph.program("ones_detector", "zeros_detector")
        graph.program("zeros_detector", "ones_detector")
        info = graph.cache_info()
        assert info["misses"] == 2
        assert info["hits"] == 1
        assert info["entries"] == 2

    def test_family_larger_than_the_cache_synthesises_each_pair_once(self):
        # 9 machines = 72 ordered pairs, more than the cache keeps:
        # sweeping the matrix again must not re-synthesise.
        chain = [random_fsm(n_states=4, seed=1, name="m0")]
        for k in range(1, 9):
            chain.append(mutate_target(chain[-1], 2, seed=k, name=f"m{k}"))
        pairs = len(chain) * (len(chain) - 1)
        assert pairs > MEMO_ENTRIES
        calls = []

        def counting(source, target):
            calls.append((source.name, target.name))
            return jsr_program(source, target)

        graph = MigrationGraph(chain, synthesiser=counting)
        graph.cost_matrix()
        graph.routing_gains()
        assert len(calls) == pairs
        assert graph.cache_info()["entries"] == pairs

    def test_fingerprint_accessor(self):
        from repro.core.plan import fsm_fingerprint

        graph = MigrationGraph(family(), synthesiser=jsr_program)
        assert graph.fingerprint("ones_detector") == fsm_fingerprint(
            ones_detector()
        )
