"""One fleet shard: a datapath, a bounded FIFO queue, a worker thread.

A shard owns exactly one :class:`~repro.hw.machine.HardwareFSM` (sized
for the fleet's whole machine family, Def. 4.1 supersets) and is the
*only* thread that ever clocks it — the pool's concurrency story is
"share nothing", which is also what the single-driver guard on the
datapath enforces.  The worker loop interleaves three duties:

* **serving** — pop a batch, run its symbols, resolve its future.  The
  worker never picks an execution backend itself: it asks its
  :class:`~repro.exec.Dispatcher` (which owns every staleness and
  availability rule, before, during and after a migration) and then
  drives whatever backend comes back through the
  :class:`~repro.exec.ExecutionBackend` protocol.  A table backend
  serves a coalesced run of queued batches as one stream batch in one
  call — a lane per session, the shard's own datapath word being the
  lane keyed ``None`` — and the
  datapath lane's architectural state commits back once every lane
  has succeeded; a :class:`~repro.exec.TableMiss` replays the same
  batches through the cycle-accurate backend from the exact same
  state, so behaviour (including fault semantics and quarantine) is
  identical whichever backend serves;
* **migrating** — after each served run, and back to back while the
  queue is empty, run one gap of whole safe chunks of the pending
  gradual migration, never exceeding the stall budget per gap, exactly
  the paper's one-entry-per-cycle rollout;
* **healing** — a batch that raises (e.g. an injected SRAM fault)
  quarantines the shard: the future gets the error, the datapath is
  re-seeded from the reset state of the committed machine, an active
  migration restarts from its first chunk, and the incident is counted.
  A migration whose last chunk leaves the RAMs short of the target (a
  fault on an entry no later chunk rewrote) quarantines the same way
  instead of committing a corrupted table.

Downtime is measured with the existing observability probes: the
reconf/reset cycle counters are snapshotted around the serving section,
so any reconfiguration cycle that delays a batch shows up in
``service_downtime_cycles``.  A feasible plan keeps that at zero.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.fsm import FSM, Input, State
from ..core.incremental import Chunk, IncrementalMigrator
from ..exec import CycleBackend, Dispatcher, TableMiss
from ..exec import batching as _batching
from ..hw.machine import HardwareFSM
from ..obs import context as _context
from ..obs import instruments as _instruments
from ..obs import journal as _journal
from ..obs.probes import ProbeReport, probe_hardware
from ..obs.tracing import span as _span
from ..replica.status import MembershipError

#: Queue sentinels: exit (after any migration in flight), and wake an
#: idle worker for a new migration job.
_STOP = object()
_WAKE = object()

#: Upper bound on batches coalesced into one backend run (handed to the
#: dispatcher, which owns the coalescing policy).
_MAX_COALESCE = 32


@dataclass
class ShardStats:
    """Monotonic per-shard counters (read from any thread)."""

    batches_ok: int = 0
    batches_failed: int = 0
    symbols_served: int = 0
    rejected: int = 0
    cancelled: int = 0
    incidents: int = 0
    migrations_done: int = 0
    migration_cycles: int = 0
    service_downtime_cycles: int = 0
    engine_batches: int = 0
    engine_symbols: int = 0
    engine_fallbacks: int = 0
    last_error: Optional[str] = None


@dataclass
class _Batch:
    symbols: Tuple[Input, ...]
    future: Future
    #: The submitting thread's trace context, captured at submit() and
    #: re-activated by the worker so the serve joins the client's tree.
    ctx: Optional[_context.TraceContext] = None
    #: Which state chain this batch extends.  ``None`` is the shard's
    #: datapath lane (the pre-session contract: runs from the live
    #: ST-REG state and commits back).  Any other hashable names an
    #: independent *session*: its own state chain beside the datapath,
    #: starting from the committed machine's reset state.  Batches from
    #: different sessions are independent streams, which is what lets a
    #: quiescent queue coalesce *across* sessions into one stream batch.
    session: Optional[Hashable] = None


@dataclass
class _Fault:
    """Control item: apply a fault injector to the shard's datapath."""

    inject: Callable[[HardwareFSM], object]
    future: Future


@dataclass
class _Membership:
    """Control item: change the shard's replica-group membership.

    Applied by the shard's own thread between batches, so a membership
    change serialises with serving and no future is ever in flight on a
    replica being swapped out.
    """

    op: str
    replica: Optional[str]
    future: Future


@dataclass
class MigrationJob:
    """One shard's share of a rolling migration."""

    target: FSM
    #: The shard's chunk plan: the plan cache's checked
    #: :class:`~repro.core.incremental.ChunkPlan`, shared by every
    #: shard and run without a second replay, or any chunk list, which
    #: the shard's migrator replays before its first chunk.
    chunks: Sequence[Chunk]
    stall_budget: int
    done: threading.Event = field(default_factory=threading.Event)
    verified: Optional[bool] = None
    restarts: int = 0
    _migrator: Optional[IncrementalMigrator] = None


class MigrationVerifyError(RuntimeError):
    """The last chunk landed but the datapath does not realise the
    target (a fault hit an entry no later chunk rewrote)."""


class ShardWorker(threading.Thread):
    """The serving thread of one shard (see module docstring)."""

    def __init__(
        self,
        index: int,
        machine: FSM,
        extra_inputs: Sequence[Input] = (),
        extra_outputs: Sequence = (),
        extra_states: Sequence = (),
        queue_depth: int = 64,
        link_latency_s: float = 0.0,
        trace_max_entries: int = 256,
        fleet_name: str = "fleet",
        engine: str = "auto",
    ):
        super().__init__(name=f"{fleet_name}-shard-{index}", daemon=True)
        # Validates the mode and fails fast on an impossible request
        # (e.g. a forced table-shm backend with REPRO_DISABLE_SHM set).
        self.dispatcher = self._make_dispatcher(engine, index)
        self.engine_mode = engine
        self.index = index
        self.machine = machine
        self._extras = (
            tuple(extra_inputs), tuple(extra_outputs), tuple(extra_states)
        )
        self._trace_max = trace_max_entries
        self._fleet_name = fleet_name
        self.queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self.link_latency_s = link_latency_s
        self.stats = ShardStats()
        self.serving_inputs = frozenset(machine.inputs)
        self.hardware = self._build_hardware(machine)
        #: The shard's replica group: a process shard's
        #: :class:`~repro.replica.procgroup.ProcReplicaGroup`, or None
        #: (the single-replica shard).
        self.replica_group = None
        #: Per-session state chains (session key -> current state).
        #: Only the worker thread touches this.  Session states are
        #: symbolic, so they survive quarantine (the rebuilt datapath
        #: serves the same machine); a migration commit prunes sessions
        #: whose state does not exist in the new machine — those
        #: restart from the new reset state on their next batch.
        self._sessions: Dict[Hashable, State] = {}
        self._job: Optional[MigrationJob] = None
        # The serving-latency histogram, bound once and sampled 1-in-8
        # (recorded with weight 8, still unbiased): a duration
        # distribution needs far fewer points than a counter needs counts.
        self._m_batch_seconds = _instruments.FLEET_BATCH_SECONDS.bind(
            sample_shift=3, shard=str(index)
        )

    # ------------------------------------------------------------------
    def _make_dispatcher(self, engine: str, index: int) -> Dispatcher:
        """The shard's dispatcher; the process-mode shard overrides this
        to pin ``table-shm`` and bind its worker session."""
        return Dispatcher(
            engine, coalesce_limit=_MAX_COALESCE, shard=str(index)
        )

    def shutdown(self) -> None:
        """Release per-shard resources after the thread has exited
        (no-op in thread mode; process shards close their session)."""

    def _build_hardware(self, machine: FSM) -> HardwareFSM:
        extra_i, extra_o, extra_s = self._extras
        return HardwareFSM(
            machine,
            extra_inputs=extra_i,
            extra_outputs=extra_o,
            extra_states=extra_s,
            name=f"{self._fleet_name}-shard{self.index}_{machine.name}",
            trace_max_entries=self._trace_max,
        )

    def _downtime(self) -> int:
        """Reconfiguration-downtime cycles of the current datapath (the
        probe report's ``downtime_cycles``, read without building one)."""
        mode_cycles = self.hardware.mode_cycles
        return mode_cycles["reconf"] + mode_cycles["reset"]

    def probe(self) -> ProbeReport:
        """Probe snapshot of the shard's datapath (racy but read-only)."""
        return probe_hardware(self.hardware)

    @property
    def label(self) -> str:
        return str(self.index)

    # -- migration -----------------------------------------------------
    def begin_migration(self, job: MigrationJob) -> MigrationJob:
        """Hand the shard its migration job and wake the worker (never
        blocks: a full queue means a busy worker, which ticks anyway)."""
        if self._job is not None and not self._job.done.is_set():
            raise RuntimeError(
                f"shard {self.index} already has a migration in flight"
            )
        self._job = job
        try:
            self.queue.put_nowait(_WAKE)
        except queue.Full:
            pass
        return job

    def _migrating(self) -> bool:
        """Whether a migration job is in flight (health vitals, replica
        membership)."""
        job = self._job
        return job is not None and not job.done.is_set()

    def _migration_tick(self) -> None:
        job = self._job
        if job is None or job.done.is_set():
            return
        try:
            self._migration_step(job)
        except Exception as exc:
            # A fault mid-reconfiguration must not kill the worker: the
            # shard quarantines (re-seed + restart the migration) like a
            # serving fault would.  Deterministic failures (an unsound
            # chunk list) would retry forever, so restarts are capped and
            # the job is surfaced as unverified instead of hanging the
            # rollout.
            self._quarantine(exc)
            if job.restarts > 5 and not job.done.is_set():
                job.verified = False
                job.done.set()

    def _migration_step(self, job: MigrationJob) -> None:
        if job._migrator is None:
            # Restrict traffic to the inputs both machines understand:
            # rows for target-only inputs go live chunk by chunk, and old
            # clients keep old symbols during an upgrade anyway.
            self.serving_inputs = frozenset(
                i for i in self.machine.inputs if i in set(job.target.inputs)
            )
            job._migrator = IncrementalMigrator(
                self.hardware, self.machine, job.target, chunks=job.chunks
            )
            _journal.JOURNAL.record(
                _journal.MIGRATION_SHARD_BEGIN,
                shard=self.label,
                target=job.target.name,
                chunks=len(job.chunks),
            )
        migrator = job._migrator
        if not migrator.done:
            used = migrator.stall(job.stall_budget)
            self.stats.migration_cycles += used
            _journal.JOURNAL.record(
                _journal.MIGRATION_CHUNK, shard=self.label, cycles=used
            )
        if migrator.done:
            if not self.hardware.realises(job.target):
                # Never commit a corrupted table: the raise quarantines
                # the shard and the migration re-runs from the fresh
                # source table (restarts are capped as for any fault).
                raise MigrationVerifyError(
                    f"shard {self.index} does not realise "
                    f"{job.target.name} after its last chunk"
                )
            job.verified = True
            self.machine = job.target
            self.serving_inputs = frozenset(job.target.inputs)
            if self._sessions:
                # Sessions parked on a state the new machine kept go on
                # seamlessly; ones whose state vanished restart from the
                # new reset state on their next batch.
                valid = frozenset(job.target.states)
                self._sessions = {
                    key: state
                    for key, state in self._sessions.items()
                    if state in valid
                }
            self.stats.migrations_done += 1
            _journal.JOURNAL.record(
                _journal.MIGRATION_SHARD_COMMIT,
                shard=self.label,
                target=job.target.name,
                verified=True,
            )
            job.done.set()

    # -- failure handling ----------------------------------------------
    def _quarantine(self, exc: BaseException) -> None:
        """Re-seed the shard from the reset state of its committed machine.

        The corrupted datapath is replaced wholesale (the simulation
        equivalent of a full re-download plus reset); a migration in
        flight restarts from its first chunk against the fresh source
        table, which is sound because chunks assume nothing beyond the
        blend invariant the fresh table trivially satisfies.
        """
        self.stats.incidents += 1
        self.stats.last_error = f"{type(exc).__name__}: {exc}"
        _journal.JOURNAL.record(
            _journal.FLEET_QUARANTINE,
            shard=self.label,
            error=type(exc).__name__,
        )
        self.hardware = self._build_hardware(self.machine)
        self.dispatcher.invalidate()
        job = self._job
        if job is not None and not job.done.is_set():
            job._migrator = None
            job.restarts += 1
            _journal.JOURNAL.record(
                _journal.MIGRATION_ROLLBACK,
                shard=self.label,
                restarts=job.restarts,
            )

    # -- serving -------------------------------------------------------
    def _coalesce(self, first: _Batch):
        """Drain immediately-available batches behind ``first``.

        Stops at the first control item (_STOP / _Fault) so queue order
        is preserved: everything drained was submitted before it.
        Returns ``(batches, control_or_None)``.
        """
        batches = [first]
        control = None
        while len(batches) < self.dispatcher.coalesce_limit:
            try:
                item = self.queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, _Batch):
                batches.append(item)
            else:
                control = item
                break
        return batches, control

    def _serve_run(self, batches: List[_Batch]) -> None:
        """Serve a coalesced run of batches through the dispatched backend.

        Futures resolve in submission order (per-shard FIFO is part of
        the pool's contract).  Which backend serves — and whether that
        is a degradation worth counting — is entirely the dispatcher's
        decision; the worker only drives the protocol.  A table miss
        (an entry the tables cannot serve, an out-of-alphabet symbol)
        replays the batches per-symbol from the exact same state, so
        fault behaviour and quarantine semantics are unchanged.
        """
        # Lock every batch into RUNNING before any symbol steps: a
        # future cancelled while queued is skipped here (its queue slot
        # is freed, nothing executes, no output is lost — the caller
        # asked for exactly that), and from this point on cancel()
        # returns False so a late cancellation can never race the
        # worker's set_result.
        batches = self._admit_running(batches)
        if not batches:
            return
        # Re-activate the submitting thread's trace context (the first
        # batch's — one coalesced run is one serve) so the serve span
        # and every journal event join the client's request tree.
        token = _context.attach(batches[0].ctx) if batches[0].ctx else None
        try:
            with _span(
                "fleet.serve", shard=self.label, batches=len(batches)
            ) as sp:
                self._serve_run_traced(batches, sp)
        finally:
            if token is not None:
                _context.detach(token)

    def _admit_running(self, batches: List[_Batch]) -> List[_Batch]:
        """Transition each batch's future to RUNNING; drop cancelled ones."""
        live = [
            b for b in batches if b.future.set_running_or_notify_cancel()
        ]
        skipped = len(batches) - len(live)
        if skipped:
            self.stats.cancelled += skipped
        return live

    def _serve_run_traced(self, batches: List[_Batch], sp) -> None:
        # One lane per distinct session in this coalesced run (the
        # datapath lane None included); the lane count is what the
        # dispatcher's stream-aware auto resolution keys off.
        lanes: "Dict[Optional[Hashable], List[_Batch]]" = {}
        for batch in batches:
            lanes.setdefault(batch.session, []).append(batch)
        decision = self.dispatcher.select(self.hardware, streams=len(lanes))
        if decision.degraded:
            self.stats.engine_fallbacks += len(batches)
        backend = decision.backend
        sp.attrs["backend"] = backend.name
        if isinstance(backend, CycleBackend):
            self._serve_cycle(batches)
        else:
            self._serve_stream_run(batches, lanes, backend)

    def _serve_stream_run(
        self,
        batches: List[_Batch],
        lanes: "Dict[Optional[Hashable], List[_Batch]]",
        backend,
    ) -> None:
        """Serve a coalesced run as one stream batch, one lane per session.

        Each lane concatenates one session's queued batches (FIFO
        within the lane): the datapath lane (key ``None``) from the live
        ST-REG state, a session lane from its own chain.  The whole run
        is one ``run_streams`` call on the dispatched backend — a run of
        datapath batches alone is simply its 1-lane case.  Nothing
        commits until *every* lane has succeeded — a :class:`TableMiss`
        therefore replays from the exact pre-run states, and a partial
        success can never double-commit the datapath lane.
        """
        hw = self.hardware
        started = time.perf_counter()
        downtime_before = self._downtime()
        keys = list(lanes)
        words: List[List[Input]] = []
        starts: List[State] = []
        for key in keys:
            word: List[Input] = []
            for batch in lanes[key]:
                word.extend(batch.symbols)
            words.append(word)
            starts.append(
                hw.state if key is None
                else self._sessions.get(key, hw.reset_state)
            )
        try:
            runs = _batching.run_streams(
                backend, words, starts=starts, site="fleet.serve"
            )
        except TableMiss:
            self.dispatcher.miss(hw)
            self.stats.engine_fallbacks += len(batches)
            self._serve_cycle(batches)
            return
        # Every lane succeeded: fast-forward the datapath lane's
        # architectural state (ST-REG, cycle and visit counters) and
        # advance the session chains.
        for key, run in zip(keys, runs):
            if key is None:
                hw.commit_engine_run(run.final_state, len(run), run.visits)
            else:
                self._sessions[key] = run.final_state
        self._count_served(
            backend, "compiled", len(batches), sum(map(len, words)),
            downtime_before, started, streams=len(keys),
        )
        run_of = dict(zip(keys, runs))
        cursors = dict.fromkeys(keys, 0)
        for batch in batches:
            # Original submission order across lanes: per-shard FIFO is
            # part of the pool's contract, sessions or not.
            cursor = cursors[batch.session]
            size = len(batch.symbols)
            batch.future.set_result(
                run_of[batch.session].outputs[cursor:cursor + size]
            )
            cursors[batch.session] = cursor + size

    def _serve_cycle(self, batches: List[_Batch]) -> None:
        """Serve batches one by one on the cycle-accurate netlist (the
        ``cycle`` backend's path, and the replay path of a table miss)."""
        for batch in batches:
            self._serve_cycle_lane(batch)

    def _serve_cycle_lane(self, batch: _Batch) -> None:
        """Serve one batch through ``CycleBackend.run_batch``.

        The datapath lane (``session=None``) runs from the live ST-REG
        state and commits.  A session lane replays its word from the
        session's state as a pure query (``commit=False`` restores the
        datapath lane's state afterwards), so the datapath lane's chain,
        its probes and an in-flight migration are undisturbed — while
        the replay still clocks the real netlist, so an injected fault
        raises out and quarantines exactly as on the datapath lane.  The
        netlist backend is looked up per batch, so a quarantine (which
        replaces the datapath wholesale) re-binds before the next one.
        """
        session = batch.session
        hw = self.hardware
        backend = self.dispatcher.cycle_backend(hw)
        started = time.perf_counter()
        downtime_before = self._downtime()
        try:
            run = backend.run_batch(
                batch.symbols,
                start=(
                    None if session is None
                    else self._sessions.get(session, hw.reset_state)
                ),
                commit=session is None,
            )
        except Exception as exc:
            self.stats.batches_failed += 1
            batch.future.set_exception(exc)
            self._quarantine(exc)
            return
        if session is not None:
            self._sessions[session] = run.final_state
        self._count_served(
            backend, "cycle", 1, len(run), downtime_before, started,
            streams=1,
        )
        batch.future.set_result(run.outputs)

    def _count_served(
        self,
        backend,
        path: str,
        n_batches: int,
        n_symbols: int,
        downtime_before: int,
        started: float,
        streams: int,
    ) -> None:
        """Link latency, stats, the latency histogram and the
        ``serve.batch`` journal record for one served run (``path`` is
        ``"compiled"`` or ``"cycle"``), before its futures resolve."""
        if self.link_latency_s:
            # One device round-trip per served run — for a coalesced
            # run, the latency amortisation batching exists for.
            time.sleep(self.link_latency_s)
        downtime_delta = self._downtime() - downtime_before
        stats = self.stats
        stats.service_downtime_cycles += downtime_delta
        stats.batches_ok += n_batches
        stats.symbols_served += n_symbols
        if path == "compiled":
            stats.engine_batches += n_batches
            stats.engine_symbols += n_symbols
        self._m_batch_seconds.observe(time.perf_counter() - started)
        journal = _journal.JOURNAL
        if journal.enabled:
            journal.record(
                _journal.SERVE_BATCH,
                shard=self.label,
                backend=backend.name,
                path=path,
                batches=n_batches,
                symbols=n_symbols,
                downtime_delta=downtime_delta,
                streams=streams,
            )

    # -- main loop -----------------------------------------------------
    def _handle_control(self, item) -> None:
        if isinstance(item, _Fault):
            try:
                result = item.inject(self.hardware)
            except Exception as exc:
                item.future.set_exception(exc)
                return
            item.future.set_result(result)
        elif isinstance(item, _Membership):
            if self.replica_group is None:
                item.future.set_exception(RuntimeError(
                    f"shard {self.index} has no replica group "
                    f"(fleet built without replication)"
                ))
                return
            if self._migrating():
                # A membership change waits out the migration's
                # RAM-write stream: retry after the rollout commits.
                item.future.set_exception(MembershipError(
                    "membership change refused while a migration is in "
                    "flight; retry after the rollout commits"
                ))
                return
            try:
                item.future.set_result(
                    self.replica_group.membership(item.op, item.replica)
                )
            except Exception as exc:
                item.future.set_exception(exc)

    def _next_item(self):
        """The next queue item; ``None`` when a job is in flight and the
        queue is empty.  Blocks only with neither work nor a job."""
        if self._migrating():
            time.sleep(0)  # yield the GIL between back-to-back gaps
            try:
                return self.queue.get_nowait()
            except queue.Empty:
                return None
        return self.queue.get()

    def run(self) -> None:  # pragma: no cover - exercised via the pool
        # A turn serves at most one run, then runs at most one gap.
        stopping = False
        while True:
            item = self._next_item()
            if isinstance(item, _Batch):
                # Coalesce whatever is already waiting behind this batch
                # (up to the next control item, which arrived after them
                # and is handled after them) into one backend run.
                batches, item = self._coalesce(item)
                try:
                    self._serve_run(batches)
                finally:
                    for _ in batches:
                        self.queue.task_done()
            if item is not None:
                try:
                    if item is _STOP:
                        stopping = True
                    elif item is not _WAKE:
                        self._handle_control(item)
                finally:
                    self.queue.task_done()
            self._migration_tick()
            if stopping and not self._migrating():
                return
