"""PlanCache: fingerprint-keyed memoisation, concurrency, chunk order."""

import threading

import pytest

from repro.core.fsm import FSM
from repro.core.incremental import (
    ChunkPlan,
    IncrementalMigrator,
    chunks_to_program,
    incremental_chunks,
)
from repro.core.jsr import jsr_program
from repro.core.plan import MEMO_ENTRIES, fsm_fingerprint
from repro.core.program import Program, reset_step
from repro.fleet import FSMFleet, PlanCache, order_chunks
from repro.hw.machine import HardwareFSM
from repro.workloads.library import ones_detector, zeros_detector
from repro.workloads.mutate import grow_target, mutate_target
from repro.workloads.random_fsm import random_fsm


def renamed(machine, suffix="_v2"):
    """A structurally-identical machine under a different name."""
    return FSM(
        machine.inputs,
        machine.outputs,
        machine.states,
        machine.reset_state,
        machine.table,
        name=machine.name + suffix,
    )


class CountingSynthesiser:
    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, source, target):
        with self._lock:
            self.calls += 1
        return jsr_program(source, target)


class TestProgramCache:
    def test_concurrent_misses_synthesise_once(self):
        synth = CountingSynthesiser()
        cache = PlanCache(synthesiser=synth)
        source, target = ones_detector(), zeros_detector()
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(timeout=10)
            results.append(cache.program(source, target))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert synth.calls == 1
        assert len(results) == 8
        assert all(p is results[0] for p in results)
        info = cache.cache_info()["programs"]
        assert info["misses"] == 1
        assert info["hits"] == 7

    def test_renamed_machine_shares_entry(self):
        synth = CountingSynthesiser()
        cache = PlanCache(synthesiser=synth)
        source, target = ones_detector(), zeros_detector()
        first = cache.program(source, target)
        second = cache.program(renamed(source), renamed(target))
        assert first is second
        assert synth.calls == 1

    def test_failure_not_cached(self):
        calls = []

        def flaky(source, target):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return jsr_program(source, target)

        cache = PlanCache(synthesiser=flaky)
        source, target = ones_detector(), zeros_detector()
        try:
            cache.program(source, target)
        except RuntimeError:
            pass
        assert cache.program(source, target).is_valid()
        assert len(calls) == 2


class TestChunkCache:
    def test_chunks_memoised(self):
        cache = PlanCache(synthesiser="jsr")
        source, target = ones_detector(), zeros_detector()
        first = cache.chunks(source, target)
        second = cache.chunks(source, target)
        assert first is second
        info = cache.cache_info()["chunks"]
        assert info == {"entries": 1, "hits": 1, "misses": 1}

    def test_concurrent_chunk_requests_compute_once(self):
        cache = PlanCache(synthesiser="jsr")
        source, target = ones_detector(), zeros_detector()
        results = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait(timeout=10)
            results.append(cache.chunks(source, target))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(c is results[0] for c in results)
        assert cache.cache_info()["chunks"]["misses"] == 1

    def test_distinct_i0_distinct_entries(self):
        cache = PlanCache(synthesiser="jsr")
        source, target = ones_detector(), zeros_detector()
        cache.chunks(source, target, i0=target.inputs[0])
        cache.chunks(source, target, i0=target.inputs[1])
        assert cache.cache_info()["chunks"]["entries"] == 2


class TestOrderChunks:
    def test_ordering_preserves_validity(self):
        source = random_fsm(n_states=5, seed=3)
        target = grow_target(source, 2, seed=3)
        ordered = order_chunks(
            incremental_chunks(source, target), source, target
        )
        assert chunks_to_program(ordered, source, target).is_valid()

    def test_new_state_rows_come_first(self):
        source = random_fsm(n_states=5, seed=3)
        target = grow_target(source, 2, seed=3)
        new_states = set(target.states) - set(source.states)
        ordered = order_chunks(
            incremental_chunks(source, target), source, target
        )
        phases = [
            0 if (c.delta is not None and c.delta.source in new_states)
            else 1
            for c in ordered
        ]
        assert phases == sorted(phases)

    def test_no_growth_keeps_order(self):
        source, target = ones_detector(), zeros_detector()
        chunks = incremental_chunks(source, target)
        assert order_chunks(chunks, source, target) == list(chunks)


def first_hole(source, target, chunks):
    """The index of the first chunk after which a state reachable from
    the target reset over the serving inputs (those both machines
    share) has an unconfigured entry, or ``None``."""
    inputs = [i for i in source.inputs if i in set(target.inputs)]
    table = dict(source.table)
    for index, chunk in enumerate(chunks):
        for step in chunk.steps:
            if step.kind.writes:
                trans = step.transition
                table[trans.entry] = (trans.target, trans.output)
        seen, todo = {target.reset_state}, [target.reset_state]
        while todo:
            state = todo.pop()
            for symbol in inputs:
                value = table.get((symbol, state))
                if value is None:
                    return index
                if value[0] not in seen:
                    seen.add(value[0])
                    todo.append(value[0])
    return None


class TestGrowthSafety:
    """Traffic runs between chunks: after every chunk of a plan, every
    state reachable from reset must have a configured row."""

    def test_growth_plans_never_expose_an_unconfigured_row(self):
        holes = []
        for n_states in (3, 4, 6):
            for n_inputs in (2, 3):
                for seed in range(40):
                    source = random_fsm(
                        n_states=n_states, n_inputs=n_inputs,
                        n_outputs=2, seed=seed,
                    )
                    for grow in (1, 2, 3):
                        target = grow_target(source, grow, seed=seed)
                        chunks = PlanCache().chunks(source, target)
                        hole = first_hole(source, target, chunks)
                        if hole is not None:
                            holes.append((n_states, n_inputs, seed, grow))
        assert holes == []

    def test_mutated_plans_never_expose_an_unconfigured_row(self):
        for seed in range(80):
            source = random_fsm(n_states=4, n_outputs=2, seed=seed)
            target = mutate_target(source, 1 + seed % 6, seed=seed)
            chunks = PlanCache().chunks(source, target)
            assert first_hole(source, target, chunks) is None, seed


class TestOptLevelKeying:
    def _pair(self):
        from repro.workloads.library import sequence_detector

        return sequence_detector("101"), sequence_detector("10101")

    def test_levels_are_separate_entries(self):
        source, target = self._pair()
        o0 = PlanCache(synthesiser="jsr", opt_level="O0")
        o2 = PlanCache(synthesiser="jsr", opt_level="O2")
        p0 = o0.program(source, target)
        p2 = o2.program(source, target)
        assert len(p2) <= len(p0)
        assert "opt" not in p0.meta
        assert p2.meta["opt"]["level"] == "O2"

    def test_same_level_hits(self):
        source, target = self._pair()
        cache = PlanCache(synthesiser="jsr", opt_level="O2")
        first = cache.program(source, target)
        second = cache.program(source, target)
        assert first is second
        assert cache.cache_info()["programs"]["hits"] == 1

    def test_chunks_keyed_by_level(self):
        source, target = self._pair()
        o0 = PlanCache(synthesiser="jsr", opt_level="O0")
        o2 = PlanCache(synthesiser="jsr", opt_level="O2")
        c0 = o0.chunks(source, target)
        c2 = o2.chunks(source, target)
        writes = lambda cs: sum(  # noqa: E731
            1 for c in cs for s in c.steps if s.kind.writes
        )
        assert writes(c2) < writes(c0)
        # both plans still migrate
        assert chunks_to_program(c0, source, target).is_valid()
        assert chunks_to_program(c2, source, target).is_valid()

    def test_optimized_chunks_memoised(self):
        source, target = self._pair()
        cache = PlanCache(synthesiser="jsr", opt_level="O2")
        first = cache.chunks(source, target)
        second = cache.chunks(source, target)
        assert first is second
        assert cache.cache_info()["chunks"]["hits"] == 1

    def test_spelled_levels_normalised(self):
        cache = PlanCache(synthesiser="jsr", opt_level="-o2")
        assert cache.opt_level == "O2"


def chain_of(n, seed=3):
    """``n`` machines, each two deltas from the one before."""
    chain = [random_fsm(n_states=4, seed=seed, name="c0")]
    for k in range(1, n):
        chain.append(mutate_target(chain[-1], 2, seed=k, name=f"c{k}"))
    return chain


class TestBound:
    def test_chunk_cache_stays_at_the_bound(self):
        cache = PlanCache()
        chain = chain_of(MEMO_ENTRIES + 12)
        for source, target in zip(chain, chain[1:]):
            cache.chunks(source, target)
        info = cache.cache_info()["chunks"]
        assert info["entries"] == MEMO_ENTRIES
        assert info["misses"] == len(chain) - 1

    def test_program_cache_stays_at_the_bound(self):
        cache = PlanCache(synthesiser="jsr")
        chain = chain_of(MEMO_ENTRIES + 12)
        for source, target in zip(chain, chain[1:]):
            cache.program(source, target)
        assert cache.cache_info()["programs"]["entries"] == MEMO_ENTRIES

    def test_repeated_pair_hits_and_the_least_recent_goes_first(self):
        synth = CountingSynthesiser()
        cache = PlanCache(synthesiser=synth)
        chain = chain_of(MEMO_ENTRIES + 2)
        a, b = chain[0], chain[1]
        cache.chunks(a, b)
        cache.chunks(b, a)
        assert cache.chunks(a, b) == cache.chunks(a, b)  # A→B→A→B hits
        assert cache.cache_info()["chunks"]["hits"] == 2
        cache.program(a, b)
        # Fill the rest of the memo: A→B stays (used most recently of
        # the two), then one more pair pushes B→A out.
        others = list(zip(chain[1:], chain[2:]))
        for source, target in others[:MEMO_ENTRIES - 2]:
            cache.chunks(source, target)
        hits = cache.cache_info()["chunks"]["hits"]
        cache.chunks(a, b)
        assert cache.cache_info()["chunks"]["hits"] == hits + 1
        cache.chunks(*others[MEMO_ENTRIES - 2])
        misses = cache.cache_info()["chunks"]["misses"]
        cache.chunks(b, a)
        assert cache.cache_info()["chunks"]["misses"] == misses + 1
        assert cache.program(a, b) is cache.program(a, b)
        assert synth.calls == 1


class ReplayCounter:
    """Counts :meth:`Program.replay` calls (every plan check is one)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Program.replay

        def replay(program, *args, **kwargs):
            self.calls += 1
            return original(program, *args, **kwargs)

        monkeypatch.setattr(Program, "replay", replay)


def growth_pair():
    source = random_fsm(n_states=5, seed=3)
    return source, grow_target(source, 2, seed=3)


class TestCheckedPlans:
    """The cache replays a plan once; a migrator skips its own replay
    only for a checked plan of exactly its pair."""

    def test_cache_hands_out_an_immutable_checked_plan(self):
        source, target = growth_pair()
        plan = PlanCache(opt_level="O2").chunks(source, target)
        assert isinstance(plan, ChunkPlan)
        assert plan.pair == (fsm_fingerprint(source), fsm_fingerprint(target))
        assert plan.checked_for(renamed(source), renamed(target))
        with pytest.raises(AttributeError):
            plan.pair = ("a", "b")

    @pytest.mark.parametrize("level", ["O0", "O2"])
    def test_one_replay_per_plan(self, monkeypatch, level):
        source, target = growth_pair()
        counter = ReplayCounter(monkeypatch)
        cache = PlanCache(opt_level=level)
        plan = cache.chunks(source, target)
        assert counter.calls == 1
        for _ in range(2):
            hw = HardwareFSM.for_migration(source, target)
            IncrementalMigrator(hw, source, target, chunks=plan)
        assert cache.chunks(source, target) is plan
        assert counter.calls == 1

    def test_plan_for_another_pair_is_replayed_and_rejected(
        self, monkeypatch
    ):
        source, target = growth_pair()
        plan = PlanCache().chunks(source, target)
        other = mutate_target(target, 2, seed=9)
        counter = ReplayCounter(monkeypatch)
        for pair in ((source, other), (other, target)):
            hw = HardwareFSM.for_migration(*pair)
            with pytest.raises(RuntimeError, match="failed validation"):
                IncrementalMigrator(hw, *pair, chunks=plan)
        assert counter.calls == 2

    def test_edited_plan_is_replayed_and_rejected(self, monkeypatch):
        source, target = growth_pair()
        plan = PlanCache().chunks(source, target)
        edited = ChunkPlan(plan[:-1])  # the last delta is never written
        assert not edited.checked_for(source, target)
        counter = ReplayCounter(monkeypatch)
        hw = HardwareFSM.for_migration(source, target)
        with pytest.raises(RuntimeError, match="failed validation"):
            IncrementalMigrator(hw, source, target, chunks=edited)
        assert counter.calls == 1

    def test_plain_list_is_replayed(self, monkeypatch):
        source, target = growth_pair()
        chunks = list(PlanCache().chunks(source, target))
        counter = ReplayCounter(monkeypatch)
        hw = HardwareFSM.for_migration(source, target)
        migrator = IncrementalMigrator(hw, source, target, chunks=chunks)
        assert counter.calls == 1
        while not migrator.done:
            migrator.stall(6)
        assert hw.realises(target)

    def test_gate_rejection_ships_checked_originals(self, monkeypatch):
        from repro.core.passes import chunks as chunk_passes

        source, target = growth_pair()
        # A rewrite that drops every delta write keeps the blend but
        # cannot migrate: the closing replay rejects it.
        monkeypatch.setattr(
            chunk_passes, "_optimise_chunk",
            lambda *args: ([reset_step()], []),
        )
        counter = ReplayCounter(monkeypatch)
        plan = PlanCache(opt_level="O2").chunks(source, target)
        assert counter.calls == 2  # the rejected rewrite, then the originals
        originals = order_chunks(
            incremental_chunks(source, target), source, target
        )
        assert list(plan) == originals
        assert plan.checked_for(source, target)
        hw = HardwareFSM.for_migration(source, target)
        migrator = IncrementalMigrator(hw, source, target, chunks=plan)
        assert counter.calls == 2
        while not migrator.done:
            migrator.stall(6)
        assert hw.realises(target)

    @pytest.mark.parametrize("level", ["O0", "O2"])
    def test_one_replay_per_rollout(self, monkeypatch, level):
        source = random_fsm(n_states=6, seed=5)
        target = mutate_target(source, 4, seed=5)
        fleet = FSMFleet(source, n_workers=2, family=[target],
                         opt_level=level)
        try:
            counter = ReplayCounter(monkeypatch)
            report = fleet.migrate(target)
            assert report.verified and report.zero_downtime
            assert len(report.shards) == 2
            assert counter.calls == 1
        finally:
            fleet.close()
