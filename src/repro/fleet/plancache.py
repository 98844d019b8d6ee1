"""Thread-safe, fingerprint-keyed cache of migration plans.

Every shard of a fleet migrates between the *same* pair of machines, so
without sharing, a four-worker rollout would synthesise the same
reconfiguration program four times (and an EA run is the expensive part
of a migration by orders of magnitude).  :class:`PlanCache` layers on
:class:`repro.core.plan.SynthesisCache` — the same machinery
:class:`~repro.core.plan.MigrationGraph` uses — and adds a second cache
for the *incremental* form of a plan: the safe chunk list
(:func:`repro.core.incremental.incremental_chunks`) reordered so live
traffic never crosses an unconfigured row (see :func:`order_chunks`).

Keys are structural fingerprints (:func:`repro.core.plan.fsm_fingerprint`),
so renamed-but-identical machines share entries, and both caches
deduplicate concurrent misses: the first caller computes, later callers
block on the shared future.  Both keep only the most recently used
:data:`~repro.core.plan.MEMO_ENTRIES` pairs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.ea import EAConfig
from ..core.fsm import FSM, Input
from ..core.incremental import Chunk, incremental_chunks
from ..core.passes import OptLevel, normalise_level, optimise_chunks
from ..core.plan import (
    FutureMemo,
    SynthesisCache,
    fsm_fingerprint,
    make_synthesiser,
)
from ..core.program import Program


def order_chunks(chunks: Sequence[Chunk], source: FSM, target: FSM) -> List[Chunk]:
    """Reorder safe chunks so live traffic never strands mid-growth.

    Each chunk is position-independent (it starts with a reset and
    restores the blend invariant), so any permutation still migrates
    correctly.  Order *does* matter for traffic running between chunks:
    a delta edge from an old state into a brand-new state must not go
    live before the new state's own rows exist, or the next symbol reads
    an unconfigured word.  Phase 0 therefore writes every row *of* a
    target-only state; phase 1 writes the rest (including the edges
    *into* new states).  Within phase 0 the target reset state's rows
    come first — every chunk parks the machine there.
    """
    new_states = set(target.states) - set(source.states)
    s0 = target.reset_state

    def phase(chunk: Chunk) -> int:
        if chunk.delta is None or chunk.delta.source not in new_states:
            return 2
        return 0 if chunk.delta.source == s0 else 1

    return sorted(chunks, key=phase)


class PlanCache:
    """Shared migration-plan cache for a fleet of shard workers.

    Parameters
    ----------
    synthesiser:
        ``"ea"`` (default), ``"jsr"``, or a callable
        ``(source, target) -> Program`` — the same choices
        :class:`~repro.core.plan.MigrationGraph` accepts.
    ea_config:
        Tuning for the default EA synthesiser.
    opt_level:
        Pass-pipeline level applied to every plan the cache hands out:
        monolithic programs run through the standard
        :class:`~repro.core.passes.PassPipeline` and chunk plans through
        the traffic-safe :func:`~repro.core.passes.optimise_chunks`.
        Part of both cache keys, so mixed-level fleets never share a
        plan across levels.
    """

    def __init__(
        self,
        synthesiser: "str | Callable[[FSM, FSM], Program]" = "ea",
        ea_config: Optional[EAConfig] = None,
        opt_level: OptLevel = None,
    ):
        self.opt_level = normalise_level(opt_level)
        self._programs = SynthesisCache(
            make_synthesiser(synthesiser, ea_config), opt_level=opt_level
        )
        self._chunks = FutureMemo()

    # ------------------------------------------------------------------
    def program(self, source: FSM, target: FSM) -> Program:
        """The (cached) monolithic reconfiguration program for one pair."""
        return self._programs.program(source, target)

    def chunks(
        self, source: FSM, target: FSM, i0: Optional[Input] = None
    ) -> List[Chunk]:
        """Safe, traffic-ordered chunks for a gradual (live) migration.

        Memoised per fingerprint pair (and home input ``i0``); chunk
        synthesis is pure table work — cheap next to an EA run, but a
        fleet re-plans the same pair once per shard, so sharing still
        pays, and it keeps every worker on the *identical* plan.
        """
        key = (
            fsm_fingerprint(source),
            fsm_fingerprint(target),
            None if i0 is None else repr(i0),
            self.opt_level,
        )

        def plan() -> List[Chunk]:
            ordered = order_chunks(
                incremental_chunks(source, target, i0=i0), source, target
            )
            # Optimization runs *after* ordering: the chunk optimizer
            # threads the planned blend table through the chunks in
            # execution order, so the order it sees must be the order
            # the workers will run.
            return optimise_chunks(
                ordered, source, target, i0=i0, level=self.opt_level
            )

        return self._chunks.get(key, plan)

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/entry counts for both layers (programs and chunks)."""
        return {
            "programs": self._programs.cache_info(),
            "chunks": self._chunks.cache_info(),
        }
