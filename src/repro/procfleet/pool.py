"""The process-mode fleet front-end: same contract, no GIL.

:class:`ProcessFleet` is :class:`~repro.fleet.FSMFleet` with each
shard's table serving moved into a worker *process*:

* the shard thread remains — it owns the canonical datapath, the FIFO
  queue, coalescing, migration ticks and quarantine exactly as in
  thread mode — but its dispatcher pins the ``table-shm`` backend, so
  every table-served run is one round-trip into the shard's worker
  process while the pure-Python kernel loop runs *there*, outside the
  parent's GIL;
* each shard gets its own :class:`~repro.procfleet.session.WorkerSession`
  and control-block slot; rolling migration needs no new machinery:
  after each chunk gap the dispatcher sees the bumped
  ``table_version`` and builds a fresh ``table-shm`` backend, and that
  *is* the publish-new-segment + epoch-bump cutover — at most one
  publish per chunk gap that sees traffic, the last one after the
  final chunk;
* a dead worker process surfaces as a
  :class:`~repro.procfleet.session.WorkerCrashed` table miss: the batch
  replays in the parent, the session respawns a fresh process, and the
  shard's incident counters record the reseed — no future is lost.

Select it with ``FSMFleet(machine, fleet_mode="process")`` (or
``api.serve(..., fleet_mode="process")`` / ``repro fleet --mode
process``); everything else about the caller contract is identical to
thread mode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.fsm import FSM
from ..exec import Dispatcher
from ..exec.registry import canonical, resolve
from ..fleet.pool import FSMFleet
from ..fleet.worker import _MAX_COALESCE, ShardWorker
from ..hw.machine import HardwareFSM
from .backend import ShmTableBackend
from .segments import ControlBlock
from .session import WorkerSession

__all__ = ["ProcShardWorker", "ProcessFleet"]

#: Backends a process fleet accepts (canonical names): the serving
#: substrate is the shm worker pool, so only "auto" (mapped to
#: table-shm) and table-shm itself (alias "shm") make sense.
_PROC_ENGINES = ("auto", "table-shm")


class ProcShardWorker(ShardWorker):
    """A shard whose table serving runs in a worker process.

    Subclasses the thread-mode shard: the only differences are the
    dispatcher (pinned to ``table-shm``, built through a factory that
    binds this shard's session), the replica group (a replicated
    shard's session *is* its :class:`ProcReplicaGroup`) and the
    teardown hook that closes the session after the thread exits.
    """

    def __init__(self, index: int, machine: FSM, *, session: WorkerSession,
                 **kwargs):
        self._session = session
        kwargs["engine"] = "table-shm"
        super().__init__(index, machine, **kwargs)
        session.on_incident = self._worker_incident
        from ..replica.procgroup import ProcReplicaGroup

        if isinstance(session, ProcReplicaGroup):
            self.replica_group = session

    def _make_dispatcher(self, engine: str, index: int) -> Dispatcher:
        return Dispatcher(
            engine,
            coalesce_limit=_MAX_COALESCE,
            shard=str(index),
            factory=self._build_backend,
        )

    def _build_backend(self, hw: HardwareFSM) -> ShmTableBackend:
        return ShmTableBackend(hw, self._session)

    def _worker_incident(self, exc: BaseException) -> None:
        """A dead/wedged worker process counts as a shard incident; the
        session already respawned (reseeded) a fresh process."""
        self.stats.incidents += 1
        self.stats.last_error = f"{type(exc).__name__}: {exc}"

    @property
    def worker_pid(self) -> Optional[int]:
        return self._session.pid

    def shutdown(self) -> None:
        self._session.close()


class ProcessFleet(FSMFleet):
    """An :class:`FSMFleet` whose shards serve through worker processes.

    Accepts every :class:`FSMFleet` keyword; ``engine`` must be
    ``"auto"`` (the process fleet always serves through ``table-shm``).
    ``start_method`` picks the multiprocessing start method (default:
    ``fork`` where available, else ``spawn``).
    """

    fleet_mode = "process"

    def __init__(
        self,
        machine: FSM,
        n_workers: int = 4,
        family: Sequence[FSM] = (),
        *,
        engine: str = "auto",
        start_method: Optional[str] = None,
        **kwargs,
    ):
        # canonical: ValueError on a spelling no backend has
        if canonical(engine) not in _PROC_ENGINES:
            from ..engine.compiled import EngineError

            raise EngineError(
                f"fleet_mode='process' serves through the table-shm "
                f"backend; engine must be 'auto', 'table-shm' or "
                f"'shm', not {engine!r}"
            )
        # Fail fast (BackendUnavailable) before any process or segment
        # exists — e.g. REPRO_DISABLE_SHM, or a platform without shm.
        resolve("table-shm")
        self._start_method = start_method
        self._ctl: Optional[ControlBlock] = None
        self._sessions: List[WorkerSession] = []
        kwargs.pop("fleet_mode", None)
        super().__init__(
            machine,
            n_workers=n_workers,
            family=family,
            engine="table-shm",
            fleet_mode="process",
            **kwargs,
        )

    def _build_shards(
        self, n_workers: int, shard_kwargs: Dict
    ) -> List[ShardWorker]:
        replication = self.replication
        if replication is not None:
            from ..replica.procgroup import ProcReplicaGroup

            # One spare slot per group so membership("add") has a slot
            # to land on (the block is immutable after creation).
            slots_per = replication.n + 1
            self._ctl = ControlBlock.create(n_workers * slots_per)
        else:
            slots_per = 1
            self._ctl = ControlBlock.create(n_workers)
        shards: List[ShardWorker] = []
        try:
            for index in range(n_workers):
                if replication is not None:
                    session = ProcReplicaGroup(
                        self._ctl,
                        range(index * slots_per, (index + 1) * slots_per),
                        str(index),
                        replication,
                        start_method=self._start_method,
                    )
                else:
                    session = WorkerSession(
                        self._ctl,
                        slot=index,
                        label=str(index),
                        start_method=self._start_method,
                    )
                self._sessions.append(session)
                session.start()
                shards.append(
                    ProcShardWorker(
                        index,
                        self.machine,
                        session=session,
                        **shard_kwargs,
                    )
                )
        except BaseException:
            for session in self._sessions:
                session.close()
            self._ctl.close()
            raise
        return shards

    def close(self, drain: bool = True) -> None:
        already_closed = self._closed
        super().close(drain)  # joins threads, then shutdown()s sessions
        if not already_closed and self._ctl is not None:
            self._ctl.close()

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """Live worker-process pid per shard (observability surface)."""
        return {
            shard.index: shard.worker_pid
            for shard in self.shards
            if isinstance(shard, ProcShardWorker)
        }

    def replica_pids(self) -> Dict[int, Dict[str, Optional[int]]]:
        """Live pid per replica per shard (empty without replication)."""
        return {
            shard.index: shard.replica_group.replica_pids()
            for shard in self.shards
            if shard.replica_group is not None
        }
