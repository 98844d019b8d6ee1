"""Rolling, zero-downtime migration of a whole fleet.

The scheduler upgrades a fleet one shard at a time.  Each shard executes
its migration as safe incremental chunks in the gaps between batches
(:class:`~repro.core.incremental.IncrementalMigrator`), so the paper's
per-cycle gradual reconfiguration happens *under live traffic*: at no
point is a shard's table anything but a clean old/new blend, and at no
point is more than one shard reconfiguring — the rest of the fleet
serves at full capacity throughout.

**Feasibility** (checked up front, :meth:`MigrationScheduler.analyse`):

* the stall budget must fit the largest single chunk (6 cycles), or the
  migrator can never make progress;
* when the target's reset state is a *new* state, every chunk parks the
  machine there — so all of that state's rows must fit in *one* gap
  (they are ordered first by the plan cache), or traffic between the
  first gaps could read an unconfigured row.

**Downtime** is taken from the existing hardware probes: workers
snapshot the reconf/reset cycle counters around each batch, so a
reconfiguration cycle counts as downtime exactly when it delayed
traffic.  For a feasible plan the rollout asserts this is zero on every
shard; an infeasible plan refuses to start (``force=True`` overrides and
reports the measured, non-zero downtime instead).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, TYPE_CHECKING

from ..core.fsm import FSM
from ..core.incremental import Chunk
from ..obs import journal as _journal
from ..obs.tracing import span as _span
from .pool import FleetError
from .worker import MigrationJob

if TYPE_CHECKING:  # pragma: no cover
    from .pool import FSMFleet


class InfeasiblePlanError(FleetError):
    """The plan cannot run with zero downtime under the stall budget."""


@dataclass(frozen=True)
class PlanAnalysis:
    """Feasibility verdict for one (source, target, budget) triple."""

    chunks_total: int
    total_cycles: int
    max_chunk_cycles: int
    priming_cycles: int
    stall_budget: int

    @property
    def feasible(self) -> bool:
        return (
            self.stall_budget >= self.max_chunk_cycles
            and self.stall_budget >= self.priming_cycles
        )

    @property
    def reason(self) -> Optional[str]:
        if self.stall_budget < self.max_chunk_cycles:
            return (
                f"stall budget {self.stall_budget} < largest chunk "
                f"({self.max_chunk_cycles} cycles): no progress possible"
            )
        if self.stall_budget < self.priming_cycles:
            return (
                f"stall budget {self.stall_budget} < priming group "
                f"({self.priming_cycles} cycles): the new reset state's "
                "rows cannot go live atomically"
            )
        return None


@dataclass
class ShardRollout:
    """One shard's slice of a rollout."""

    shard: int
    migration_cycles: int
    service_downtime_cycles: int
    batches_served_during: int
    verified: bool
    restarts: int
    wall_seconds: float


@dataclass
class RolloutReport:
    """Outcome of one fleet-wide rolling migration."""

    target_name: str
    stall_budget: int
    analysis: PlanAnalysis
    shards: List[ShardRollout] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def verified(self) -> bool:
        """Every shard's RAMs hold the target table (hardware-checked)."""
        return bool(self.shards) and all(s.verified for s in self.shards)

    @property
    def service_downtime_cycles(self) -> int:
        """Probe-measured cycles traffic was delayed by reconfiguration."""
        return sum(s.service_downtime_cycles for s in self.shards)

    @property
    def zero_downtime(self) -> bool:
        return self.service_downtime_cycles == 0

    @property
    def migration_cycles(self) -> int:
        """Total reconfiguration cycles spent (across all shards)."""
        return sum(s.migration_cycles for s in self.shards)


class MigrationScheduler:
    """Rolls a fleet to a new target machine, one shard at a time."""

    def __init__(
        self,
        fleet: "FSMFleet",
        stall_budget: Optional[int] = None,
        shard_timeout_s: float = 60.0,
    ):
        self.fleet = fleet
        self.stall_budget = (
            fleet.stall_budget if stall_budget is None else stall_budget
        )
        self.shard_timeout_s = shard_timeout_s

    # ------------------------------------------------------------------
    def analyse(self, target: FSM) -> PlanAnalysis:
        """Feasibility analysis of migrating the fleet to ``target``."""
        chunks = self.fleet.plan_cache.chunks(self.fleet.machine, target)
        return self._analyse_chunks(chunks, self.fleet.machine, target)

    def _analyse_chunks(
        self, chunks: Sequence[Chunk], source: FSM, target: FSM
    ) -> PlanAnalysis:
        new_states = set(target.states) - set(source.states)
        priming = 0
        if target.reset_state in new_states:
            priming = sum(
                len(chunk)
                for chunk in chunks
                if chunk.delta is not None
                and chunk.delta.source == target.reset_state
            )
        return PlanAnalysis(
            chunks_total=len(chunks),
            total_cycles=sum(len(chunk) for chunk in chunks),
            max_chunk_cycles=max((len(c) for c in chunks), default=0),
            priming_cycles=priming,
            stall_budget=self.stall_budget,
        )

    # ------------------------------------------------------------------
    def rollout(self, target: FSM, force: bool = False) -> RolloutReport:
        """Migrate every shard to ``target``; blocks until complete.

        Raises :class:`InfeasiblePlanError` before touching any shard
        when the plan cannot run with zero downtime (unless ``force``).
        """
        fleet = self.fleet
        source = fleet.machine
        chunks = fleet.plan_cache.chunks(source, target)
        analysis = self._analyse_chunks(chunks, source, target)
        if not analysis.feasible and not force:
            raise InfeasiblePlanError(analysis.reason)

        report = RolloutReport(
            target_name=target.name,
            stall_budget=self.stall_budget,
            analysis=analysis,
        )
        started = time.perf_counter()
        _journal.JOURNAL.record(
            _journal.MIGRATION_ROLLOUT_BEGIN,
            target=target.name,
            shards=fleet.n_workers,
            chunks=analysis.chunks_total,
            stall_budget=self.stall_budget,
        )
        with _span(
            "fleet.rollout",
            fleet=fleet.name,
            target=target.name,
            shards=fleet.n_workers,
            chunks=analysis.chunks_total,
        ) as sp:
            for shard in fleet.shards:
                shard_started = time.perf_counter()
                cycles_before = shard.stats.migration_cycles
                downtime_before = shard.stats.service_downtime_cycles
                batches_before = shard.stats.batches_ok
                job = shard.begin_migration(
                    MigrationJob(
                        target=target,
                        chunks=chunks,
                        stall_budget=self.stall_budget,
                    )
                )
                if not job.done.wait(timeout=self.shard_timeout_s):
                    raise FleetError(
                        f"shard {shard.index} migration timed out after "
                        f"{self.shard_timeout_s}s"
                    )
                report.shards.append(
                    ShardRollout(
                        shard=shard.index,
                        migration_cycles=(
                            shard.stats.migration_cycles - cycles_before
                        ),
                        service_downtime_cycles=(
                            shard.stats.service_downtime_cycles
                            - downtime_before
                        ),
                        batches_served_during=(
                            shard.stats.batches_ok - batches_before
                        ),
                        verified=bool(job.verified),
                        restarts=job.restarts,
                        wall_seconds=time.perf_counter() - shard_started,
                    )
                )
            fleet.machine = target
            report.wall_seconds = time.perf_counter() - started
            sp.attrs["verified"] = report.verified
            sp.attrs["downtime_cycles"] = report.service_downtime_cycles
        _journal.JOURNAL.record(
            _journal.MIGRATION_ROLLOUT_COMMIT,
            target=target.name,
            verified=report.verified,
            downtime_cycles=report.service_downtime_cycles,
        )
        return report
