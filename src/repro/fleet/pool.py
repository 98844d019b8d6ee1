"""The fleet pool: sharded concurrent serving of one logical FSM.

:class:`FSMFleet` runs ``n_workers`` independent replicas (shards) of a
machine, each on its own cycle-accurate datapath behind its own worker
thread — the replication model of Bortnikov et al. applied to the
Köster & Teich datapath.  Clients talk to the pool through one call:

``submit(shard_key, symbols, session=None) -> Future[List[Output]]``

* requests with the same ``shard_key`` land on the same shard, in FIFO
  order (one queue, one thread per shard) — per-key state affinity;
* ``session`` (any hashable) names an independent state chain on the
  shard: session batches extend their own stream beside the shard's
  datapath lane, and a quiescent queue coalesces batches from many
  sessions into *one* multi-stream kernel call (see ``docs/engine.md``);
* every shard queue is bounded; a full queue rejects *immediately* with
  :class:`FleetOverloaded` (explicit backpressure, no hidden buffering);
* a shard whose datapath raises is quarantined and re-seeded from the
  reset state while the rest of the fleet keeps serving;
* ``engine=`` names the one execution backend every shard serves on
  (``auto`` = ``table``, or ``cycle`` / ``table-shm``); which stream
  kernel a ``table`` run takes is the engine's choice per run.

Live migration of the whole fleet to a new machine is the job of
:class:`repro.fleet.migration.MigrationScheduler`, reachable through
:meth:`FSMFleet.migrate`.
"""

from __future__ import annotations

import queue as _queue
import zlib
from concurrent.futures import Future
from typing import Dict, Hashable, List, Optional, Sequence

from ..core.fsm import FSM, Input
from ..core.plan import plan_supersets
from ..hw.faults import Upset, erase_entry, inject_upset
from ..obs import context as _context
from ..obs import journal as _journal
from ..obs.probes import ProbeReport
from .plancache import PlanCache
from .worker import (
    _STOP,
    _Batch,
    _Fault,
    _Membership,
    ShardStats,
    ShardWorker,
)


class FleetError(RuntimeError):
    """Base class for fleet serving errors."""


class FleetOverloaded(FleetError):
    """A shard queue was full; the batch was rejected, not queued.

    Carries ``shard`` so callers can implement per-shard retry policies.
    """

    def __init__(self, shard: int, depth: int):
        super().__init__(
            f"shard {shard} queue full ({depth} batches waiting); "
            "retry later or add workers"
        )
        self.shard = shard
        self.depth = depth


class FleetClosed(FleetError):
    """submit() after close()."""


class FSMFleet:
    """A sharded pool of datapaths serving one logical machine.

    Parameters
    ----------
    machine:
        The machine every shard initially realises.
    n_workers:
        Number of shards (= worker threads = datapath replicas).
    family:
        Additional machines the fleet may ever migrate to; the RAM
        geometry and register widths are sized for the Def. 4.1
        supersets over ``[machine, *family]`` up front, so migrations
        never need a re-synthesis of the hardware.
    queue_depth:
        Bound on each shard's queue; the backpressure threshold.
    stall_budget:
        Default reconfiguration cycles a worker may steal per batch gap.
    link_latency_s:
        Optional modelled device round-trip per batch (the Python thread
        is the *controller* of a hardware shard; while one shard's batch
        is in flight on its device, other workers keep submitting).
    plan_cache:
        Shared :class:`~repro.fleet.plancache.PlanCache`; one is created
        when omitted.
    opt_level:
        Pass-pipeline level for the fleet's migration plans (``"O0"`` /
        ``"O2"``); forwarded to the created
        :class:`~repro.fleet.plancache.PlanCache`.  Ignored when an
        explicit ``plan_cache`` is supplied (the cache owns its level).
    engine:
        Execution backend for the serving hot path: ``"auto"``
        (default; ``REPRO_BACKEND`` if set, else ``"table"``),
        ``"table"`` (compiled tables; the engine picks the stream
        kernel per run from its lane count) or ``"cycle"`` / ``"off"``
        (cycle-accurate per-symbol serving only).  Serving behaviour —
        outputs, FIFO completion order, backpressure, fault semantics —
        is identical in every mode; the backend only changes throughput
        (see ``docs/engine.md``).
    fleet_mode:
        ``"thread"`` (default) serves every shard from a worker thread
        in this process; ``"process"`` returns a
        :class:`repro.procfleet.ProcessFleet` — same contract, but each
        shard's table serving runs in a worker *process* against
        shared-memory tables, so pure-Python throughput scales past the
        GIL (see ``docs/fleet.md``).
    replication:
        A :class:`~repro.replica.ReplicaConfig` turning every shard
        into a replica *group* of N worker processes: one serves every
        frame and the rest stand by for crash failover, with
        membership changes and divergence healing (see
        ``docs/fleet.md`` and :mod:`repro.replica`).  Process mode
        only: thread mode raises ``ValueError``, since followers in
        the leader's own process never fail independently of it.
        ``None`` (default) keeps the classic one-replica shard.
    """

    #: The serving mode this class implements (subclasses override).
    fleet_mode = "thread"

    def __new__(cls, machine=None, *args, **kwargs):
        # `FSMFleet(..., fleet_mode="process")` constructs the process
        # front-end without callers importing repro.procfleet — the
        # seam api.serve and the CLI select the mode through.
        mode = kwargs.get("fleet_mode", "thread")
        if cls is FSMFleet and mode == "process":
            from ..procfleet.pool import ProcessFleet

            return super().__new__(ProcessFleet)
        if mode not in ("thread", "process"):
            raise ValueError(
                f"unknown fleet_mode {mode!r}; expected 'thread' or "
                "'process'"
            )
        return super().__new__(cls)

    def __init__(
        self,
        machine: FSM,
        n_workers: int = 4,
        family: Sequence[FSM] = (),
        queue_depth: int = 64,
        stall_budget: int = 12,
        link_latency_s: float = 0.0,
        trace_max_entries: int = 256,
        plan_cache: Optional[PlanCache] = None,
        name: str = "fleet",
        opt_level: "str | int | None" = None,
        engine: str = "auto",
        fleet_mode: str = "thread",
        replication=None,
    ):
        if replication is not None and self.fleet_mode != "process":
            raise ValueError(
                "replication needs worker processes to fail "
                "independently; build the fleet with "
                'fleet_mode="process"'
            )
        if n_workers < 1:
            raise ValueError("a fleet needs at least one worker")
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        self.name = name
        self.machine = machine
        self.engine = engine
        self.stall_budget = stall_budget
        #: The per-shard replica-group configuration (a
        #: :class:`~repro.replica.ReplicaConfig`), or ``None`` for the
        #: classic one-replica-per-shard fleet.
        self.replication = replication
        self.plan_cache = plan_cache or PlanCache(opt_level=opt_level)
        superset = plan_supersets([machine, *family])
        self.shards: List[ShardWorker] = self._build_shards(
            n_workers,
            dict(
                extra_inputs=superset.inputs.symbols,
                extra_outputs=superset.outputs.symbols,
                extra_states=superset.states.symbols,
                queue_depth=queue_depth,
                link_latency_s=link_latency_s,
                trace_max_entries=trace_max_entries,
                fleet_name=name,
                engine=engine,
            ),
        )
        self._closed = False
        for shard in self.shards:
            shard.start()

    def _build_shards(
        self, n_workers: int, shard_kwargs: Dict
    ) -> List[ShardWorker]:
        """Construct the shard workers (the process fleet overrides
        this to add its control block and worker sessions)."""
        return [
            ShardWorker(index, self.machine, **shard_kwargs)
            for index in range(n_workers)
        ]

    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self.shards)

    def shard_for(self, shard_key: Hashable) -> int:
        """Deterministic key → shard mapping (stable across runs)."""
        digest = zlib.crc32(repr(shard_key).encode("utf-8"))
        return digest % len(self.shards)

    def submit(
        self,
        shard_key: Hashable,
        symbols: Sequence[Input],
        session: Optional[Hashable] = None,
    ) -> "Future[List]":
        """Enqueue one batch; returns a future of the output word.

        ``session=None`` (default) extends the shard's datapath lane —
        the pre-session contract: each batch continues the live
        hardware state.  Any other hashable names an independent
        session: its own state chain on the shard, starting from the
        machine's reset state, served as one lane of a multi-stream
        batch when the queue coalesces.  FIFO order and backpressure
        are identical either way.

        Raises :class:`FleetOverloaded` when the target shard's queue is
        full and ``ValueError`` when a symbol is outside the shard's
        currently-serveable alphabet (during a migration that is the
        intersection of the old and new input sets).
        """
        if self._closed:
            raise FleetClosed(f"{self.name} is closed")
        if not symbols:
            raise ValueError("empty batch")
        shard = self.shards[self.shard_for(shard_key)]
        serveable = shard.serving_inputs
        # Fast path: one C-level superset check instead of a Python
        # loop per symbol; the loop only runs to name the offender.
        if not serveable.issuperset(symbols):
            for symbol in symbols:
                if symbol not in serveable:
                    raise ValueError(
                        f"symbol {symbol!r} not serveable by shard "
                        f"{shard.index} "
                        f"(alphabet {sorted(map(str, serveable))})"
                    )
        future: Future = Future()
        # Capture the caller's trace context onto the batch: the shard
        # worker re-activates it before serving, so the worker-side
        # spans and journal events join the client's request tree.
        batch = _Batch(
            symbols=tuple(symbols),
            future=future,
            ctx=_context.capture(),
            session=session,
        )
        try:
            shard.queue.put_nowait(batch)
        except _queue.Full:
            shard.stats.rejected += 1
            _journal.JOURNAL.record(
                _journal.FLEET_SATURATION,
                shard=shard.label,
                depth=shard.queue.maxsize,
            )
            raise FleetOverloaded(shard.index, shard.queue.maxsize) from None
        return future

    def submit_async(
        self,
        shard_key: Hashable,
        symbols: Sequence[Input],
        session: Optional[Hashable] = None,
        *,
        ingest: str = "wait",
        admission_timeout_s: Optional[float] = None,
    ):
        """Awaitable counterpart of :meth:`submit` (asyncio ingestion).

        Returns a coroutine that resolves to the output word; it must
        be awaited on a running event loop.  Completion crosses from
        the shard worker thread to the loop through a loop-aware
        callback (no thread blocks per request), cancelling the
        awaitable cancels the queued batch (its slot is skipped by the
        worker), and under saturation ``ingest="wait"`` (default)
        *awaits* admission instead of raising
        :class:`FleetOverloaded` — pass ``ingest="reject"`` for the
        sync ``submit`` semantics.  See :mod:`repro.aio`.
        """
        from ..aio.bridge import submit_async as _submit_async

        return _submit_async(
            self,
            shard_key,
            symbols,
            session=session,
            ingest=ingest,
            admission_timeout_s=admission_timeout_s,
        )

    # ------------------------------------------------------------------
    def migrate(self, target: FSM, stall_budget: Optional[int] = None):
        """Roll the fleet to ``target`` (see ``MigrationScheduler``)."""
        from .migration import MigrationScheduler

        return MigrationScheduler(
            self, stall_budget=stall_budget
        ).rollout(target)

    def inject_fault(
        self, shard: int, kind: str = "erase", seed: int = 0
    ) -> "Future[Upset]":
        """Schedule a fault on one shard's datapath (between batches).

        ``kind`` is ``"erase"`` (guaranteed-detectable word erasure) or
        ``"upset"`` (a single seeded SEU bit-flip, which may or may not
        be observable).  The fault is applied by the shard's own thread,
        as a radiation event between clock edges would be; the returned
        future resolves with the :class:`~repro.hw.faults.Upset` record.
        """
        if kind == "erase":
            inject = lambda hw: erase_entry(hw, seed=seed)  # noqa: E731
        elif kind == "upset":
            inject = lambda hw: inject_upset(hw, seed=seed)  # noqa: E731
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
        future: Future = Future()
        self.shards[shard].queue.put(_Fault(inject=inject, future=future))
        return future

    # -- replica groups -------------------------------------------------
    def replicas(self) -> Dict[int, object]:
        """Per-shard replica-group status (empty without replication).

        Reads the groups directly — no queue round-trip — so health
        checks and dashboards can poll from any thread.
        """
        out: Dict[int, object] = {}
        for shard in self.shards:
            group = shard.replica_group
            if group is not None:
                out[shard.index] = group.status()
        return out

    def membership(
        self, shard: int, op: str, replica: Optional[str] = None
    ) -> Future:
        """Schedule a membership change on one shard's replica group.

        ``op`` is ``"add"`` / ``"remove"`` / ``"replace"``.  The change
        is applied by the shard's own thread between batches, so no
        future is ever in flight on a replica being swapped.  The
        returned future resolves with the group's post-change status.
        """
        if self._closed:
            raise FleetClosed(f"{self.name} is closed")
        future: Future = Future()
        self.shards[shard].queue.put(
            _Membership(op=op, replica=replica, future=future)
        )
        return future

    def replace_replica(
        self, shard: int, replica: str
    ) -> Future:
        """Replace one named replica of a shard's group (a fresh
        replica takes the slot and catches up from the latest
        snapshot).  Sugar over :meth:`membership`."""
        return self.membership(shard, "replace", replica)

    def check_divergence(
        self, heal: bool = True
    ) -> Dict[int, Dict[str, bool]]:
        """Fingerprint-sweep every replica group (and heal by default).

        Returns ``{shard: {replica: diverged}}``; empty without
        replication.
        """
        out: Dict[int, Dict[str, bool]] = {}
        for shard in self.shards:
            group = shard.replica_group
            if group is not None:
                out[shard.index] = group.check_divergence(heal=heal)
        return out

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Block until every queued batch has been served."""
        for shard in self.shards:
            shard.queue.join()

    def close(self, drain: bool = True) -> None:
        """Stop accepting work and shut the workers down.

        With ``drain`` (default) every already-queued batch is still
        served — and an in-flight migration completes — before the
        threads exit.
        """
        if self._closed:
            return
        self._closed = True
        if drain:
            self.drain()
        for shard in self.shards:
            shard.queue.put(_STOP)
        for shard in self.shards:
            shard.join(timeout=30.0)
        for shard in self.shards:
            shard.shutdown()

    def __enter__(self) -> "FSMFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[int, ShardStats]:
        """Per-shard serving statistics."""
        return {shard.index: shard.stats for shard in self.shards}

    def totals(self) -> ShardStats:
        """Fleet-wide aggregate of the per-shard statistics."""
        total = ShardStats()
        for shard in self.shards:
            stats = shard.stats
            total.batches_ok += stats.batches_ok
            total.batches_failed += stats.batches_failed
            total.symbols_served += stats.symbols_served
            total.rejected += stats.rejected
            total.cancelled += stats.cancelled
            total.incidents += stats.incidents
            total.migrations_done += stats.migrations_done
            total.migration_cycles += stats.migration_cycles
            total.service_downtime_cycles += stats.service_downtime_cycles
            total.engine_batches += stats.engine_batches
            total.engine_symbols += stats.engine_symbols
            total.engine_fallbacks += stats.engine_fallbacks
        return total

    def probes(self) -> Dict[int, ProbeReport]:
        """Probe snapshot of every shard's datapath."""
        return {shard.index: shard.probe() for shard in self.shards}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"machine={self.machine.name!r}, workers={self.n_workers}, "
            f"engine={self.engine!r}, mode={self.fleet_mode!r})"
        )
