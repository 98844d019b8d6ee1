"""Thread-safe, fingerprint-keyed cache of migration plans.

Every shard of a fleet migrates between the *same* pair of machines, so
without sharing, a four-worker rollout would synthesise the same
reconfiguration program four times (and an EA run is the expensive part
of a migration by orders of magnitude).  :class:`PlanCache` layers on
:class:`repro.core.plan.SynthesisCache` — the same machinery
:class:`~repro.core.plan.MigrationGraph` uses — and adds a second cache
for the *incremental* form of a plan: the safe chunk list
(:func:`repro.core.incremental.incremental_chunks`) reordered so live
traffic never crosses an unconfigured row (see :func:`order_chunks`),
at ``-O2`` rewritten in one pass from the phase-ordered deltas
(:func:`repro.core.passes.chunks.rewrite_deltas`).  The cache replays
each chunk plan once, where it is built, and hands out an immutable
:class:`~repro.core.incremental.ChunkPlan` sealed with the pair's
fingerprints; shards run it without replaying it again.

Keys are structural fingerprints (:func:`repro.core.plan.fsm_fingerprint`),
so renamed-but-identical machines share entries, and both caches
deduplicate concurrent misses: the first caller computes, later callers
block on the shared future.  Both keep only the most recently used
:data:`~repro.core.plan.MEMO_ENTRIES` pairs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.ea import EAConfig
from ..core.fsm import FSM, Input
from ..core.incremental import (
    ChunkPlan,
    check_plan,
    incremental_chunks,
    live_deltas,
    order_chunks,
)
from ..core.passes import OptLevel, normalise_level, optimise_chunks
from ..core.passes.chunks import rewrite_deltas
from ..core.plan import (
    FutureMemo,
    SynthesisCache,
    fsm_fingerprint,
    make_synthesiser,
)
from ..core.program import Program

# The chunk planners stay importable from here, where profilers wrap them.
__all__ = ["PlanCache", "incremental_chunks", "optimise_chunks", "order_chunks"]


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
        the traffic-safe chunk rewrite of :mod:`repro.core.passes.chunks`.
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
    ) -> ChunkPlan:
        """Safe, traffic-ordered chunks for a gradual (live) migration.

        Memoised per fingerprint pair (and home input ``i0``); chunk
        synthesis is pure table work — cheap next to an EA run, but a
        fleet re-plans the same pair once per shard, so sharing still
        pays, and it keeps every worker on the *identical* plan.

        This is where a live plan is built and replay-checked, once: the
        result is a :class:`~repro.core.incremental.ChunkPlan` sealed
        with the pair's fingerprints, which every shard's
        :class:`~repro.core.incremental.IncrementalMigrator` runs
        without replaying it again.
        """
        key = (
            fsm_fingerprint(source),
            fsm_fingerprint(target),
            None if i0 is None else repr(i0),
            self.opt_level,
        )

        def plan() -> ChunkPlan:
            if self.opt_level == "O2":
                # One pass from the phase-ordered deltas; the rewrite's
                # closing replay is the plan's check.  The rewrite threads
                # the planned blend table through the chunks in execution
                # order, so the order it sees is the order workers run.
                checked = rewrite_deltas(
                    live_deltas(source, target, i0), source, target, i0=i0
                )
                if checked is not None:
                    return checked
            # -O0, or the rewrite's gate refused: the unoptimised chunks,
            # replayed once here.
            ordered = order_chunks(
                incremental_chunks(source, target, i0=i0), source, target
            )
            checked = check_plan(ordered, source, target)
            if checked is None:
                raise RuntimeError("chunk concatenation failed validation")
            return checked

        return self._chunks.get(key, plan)

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/entry counts for both layers (programs and chunks)."""
        return {
            "programs": self._programs.cache_info(),
            "chunks": self._chunks.cache_info(),
        }
