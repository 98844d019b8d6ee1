"""Process-mode replica groups: N worker processes, one published table.

Process-fleet workers are *stateless appliers*: the start state travels
in every frame and the parent commits results to its canonical
datapath.  Replicating a shard therefore means replicating
**availability and table integrity**, not architectural state:

* one :class:`ProcReplicaGroup` owns N :class:`WorkerSession` replicas
  on N control-block slots and **one shared table segment** — a publish
  writes the same ``(epoch, segment)`` to every slot, so all replicas
  of a group serve the identical snapshot at the identical epoch;
* serves rotate over in-sync replicas; a replica that dies mid-request
  raises :class:`WorkerCrashed` *inside the group*, which fails the
  frame over to the next in-sync replica — the caller never sees the
  crash and **no future is lost** (the session has already respawned
  the dead process underneath; it rejoins the rotation and catches up
  by re-attaching the published segment on its next frame, which is the
  snapshot/`table_version` catch-up contract the exec layer already
  enforces);
* only when *every* replica fails does the group re-raise
  ``WorkerCrashed`` — a :class:`~repro.exec.TableMiss` — and the parent
  replays the batch cycle-accurately, the same zero-loss path a
  single-replica shard always had;
* divergence is detected by **fingerprint probes**: each worker answers
  a ``fingerprint`` frame with a CRC over its locally decoded tables;
  a mismatch against the group's expected fingerprint marks the
  replica out of sync and is healed by republishing the segment (an
  epoch bump every worker must re-attach through).

The group duck-types the :class:`WorkerSession` surface that
:class:`~repro.procfleet.backend.ShmTableBackend` consumes
(``start`` / ``publish`` / ``request`` / ``segment`` / ``retire`` /
``close`` / ``pid``), so the backend — and therefore the whole exec
protocol — is replication-agnostic.  The shard thread adds one call:
:meth:`ProcReplicaGroup.record` logs each command it applied (a
committed serve, a chunk gap, a migration commit, a fault).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..obs import instruments as _instruments
from ..obs import journal as _journal
from ..procfleet.segments import ControlBlock, SegmentOwner, encode_segment
from ..procfleet.session import (
    REQUEST_TIMEOUT_S,
    WorkerCrashed,
    WorkerSession,
)
from .fingerprint import table_fingerprint
from .log import (
    LogEntry,
    MembershipError,
    ReplicaConfig,
    ReplicaGroupStatus,
    ReplicaStatus,
    ShardLog,
)

__all__ = ["ProcReplicaGroup"]


@dataclass
class _ProcReplica:
    """One replica process of a group (session + sync flag)."""

    name: str
    session: WorkerSession
    slot: int
    in_sync: bool = True


class ProcReplicaGroup:
    """N worker processes serving one shard from one shared segment."""

    def __init__(
        self,
        ctl: ControlBlock,
        slots: Sequence[int],
        shard: str,
        config: ReplicaConfig,
        start_method: Optional[str] = None,
        request_timeout_s: float = REQUEST_TIMEOUT_S,
    ):
        if len(slots) < config.n:
            raise ValueError(
                f"replica group needs {config.n} control-block slots, "
                f"got {len(slots)}"
            )
        self.ctl = ctl
        self.shard = shard
        self.config = config
        self.quorum = min(config.resolved_quorum(), config.n)
        self.log = ShardLog(shard)
        self.owner = SegmentOwner()
        #: Incident callback the owning shard wires up (one crash on
        #: any replica counts as one shard incident, failover or not).
        self.on_incident = None
        self._start_method = start_method
        self._timeout = request_timeout_s
        self._lock = threading.RLock()
        self._segment: Optional[str] = None
        self._epoch = 0
        self._compiled = None
        self._fingerprint: Optional[int] = None
        self._rotation = 0
        self._closed = False
        self._next_replica = 0
        self._free_slots: List[int] = list(slots[config.n:])
        self._replicas: "OrderedDict[str, _ProcReplica]" = OrderedDict()
        for slot in slots[: config.n]:
            self._add_replica(slot)

    # -- construction internals ----------------------------------------
    def _add_replica(self, slot: int) -> _ProcReplica:
        name = f"r{self._next_replica}"
        self._next_replica += 1
        session = WorkerSession(
            self.ctl,
            slot=slot,
            label=f"{self.shard}:{name}",
            start_method=self._start_method,
            on_incident=self._incident,
            request_timeout_s=self._timeout,
        )
        replica = _ProcReplica(name=name, session=session, slot=slot)
        self._replicas[name] = replica
        return replica

    def _incident(self, exc: BaseException) -> None:
        handler = self.on_incident
        if handler is not None:
            handler(exc)

    # -- WorkerSession surface (what ShmTableBackend consumes) ---------
    @property
    def pid(self) -> Optional[int]:
        for replica in self._replicas.values():
            return replica.session.pid
        return None

    @property
    def restarts(self) -> int:
        return sum(
            r.session.restarts for r in self._replicas.values()
        )

    @property
    def segment(self) -> Optional[str]:
        return self._segment

    def start(self) -> None:
        """(Re)start every replica process, *detecting* silent deaths.

        The dispatcher re-enters here on every backend build, so a
        replica whose process was killed between serves is noticed now:
        the failover is journaled and the replica drops out of sync
        until a successful serve proves it re-attached the published
        snapshot — a respawn is never a silent resurrection.
        """
        for replica in list(self._replicas.values()):
            self._note_death(replica)
            replica.session.start()

    def _note_death(self, replica: _ProcReplica) -> bool:
        """Notice a replica whose process died since we last looked:
        journal the failover and drop it out of sync (a later
        successful serve records the segment-attach catch-up)."""
        session = replica.session
        if not (
            replica.in_sync
            and session.pid is not None
            and not session.alive()
        ):
            return False
        replica.in_sync = False
        _journal.JOURNAL.record(
            _journal.REPLICA_FAILOVER,
            shard=self.shard,
            replica=replica.name,
            to=None,
            error="worker process died between serves (respawning)",
        )
        return True

    def publish(self, compiled) -> int:
        """Install one segment on every replica slot (one epoch bump).

        The shared segment *is* the group's snapshot: a fresh or healed
        replica catches up by attaching it, and ``table_version`` rides
        inside so the exec layer's staleness contract keeps holding
        across every replica at once.
        """
        payload = encode_segment(compiled)
        with self._lock:
            epoch = (
                max(
                    self.ctl.read_slot(r.slot)[0]
                    for r in self._replicas.values()
                )
                + 1
            )
            name = self.owner.create(payload)
            for replica in self._replicas.values():
                self.ctl.write_slot(replica.slot, epoch, name)
            previous, self._segment = self._segment, name
            self.owner.retire(previous)
            self._epoch = epoch
            self._compiled = compiled
            self._fingerprint = table_fingerprint(compiled)
        version = getattr(compiled, "source_version", None)
        _journal.JOURNAL.record(
            _journal.PROCFLEET_PUBLISH,
            shard=self.shard,
            segment=name,
            epoch=epoch,
            table_version=version,
        )
        _instruments.PROCFLEET_PUBLISHES.inc(shard=self.shard)
        self.log.append(
            "ram_write", op="publish", epoch=epoch, table_version=version
        )
        return epoch

    def retire(self) -> None:
        with self._lock:
            previous, self._segment = self._segment, None
            self.owner.retire(previous)

    def request(self, frame: tuple):
        """Serve one frame from any in-sync replica, failing over past
        crashed ones; raises :class:`WorkerCrashed` only when *no*
        replica can serve (the parent then cycle-replays — the same
        zero-loss contract as a single-replica shard)."""
        with self._lock:
            order = list(self._replicas.values())
            turn = self._rotation
            self._rotation = turn + 1
        if not order:
            raise WorkerCrashed(f"shard {self.shard}: no replicas left")
        last_exc: Optional[WorkerCrashed] = None
        for k in range(len(order)):
            replica = order[(turn + k) % len(order)]
            if self._note_death(replica):
                # Respawn now rather than round-tripping into a dead
                # pipe/ring (the worst case there is the full request
                # timeout); the fresh stateless process serves the
                # published snapshot immediately.
                replica.session.start()
            try:
                reply = replica.session.request(frame)
            except WorkerCrashed as exc:
                last_exc = exc
                replica.in_sync = False
                succ = order[(turn + k + 1) % len(order)]
                _journal.JOURNAL.record(
                    _journal.REPLICA_FAILOVER,
                    shard=self.shard,
                    replica=replica.name,
                    to=succ.name if succ is not replica else None,
                    error=str(exc),
                )
                continue
            if not replica.in_sync:
                # The respawned process just proved itself by serving
                # from the published snapshot: caught up.
                replica.in_sync = True
                _journal.JOURNAL.record(
                    _journal.REPLICA_CATCH_UP,
                    shard=self.shard,
                    replica=replica.name,
                    via="segment-attach",
                    epoch=self._epoch,
                    table_version=getattr(
                        self._compiled, "source_version", None
                    ),
                )
            return reply
        raise last_exc  # every replica crashed mid-request

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for replica in list(self._replicas.values()):
            replica.session.close()
        self.owner.close()

    # -- group surface -------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._replicas)

    def in_sync_count(self) -> int:
        return sum(
            1
            for r in self._replicas.values()
            if r.in_sync and r.session.alive()
        )

    def record(self, kind: str, **payload: Any) -> LogEntry:
        """Log one command the shard thread applied; it commits while
        a quorum of replicas is in sync (the workers hold no state of
        their own, so there is nothing further to fan out)."""
        entry = self.log.append(kind, **payload)
        if self.in_sync_count() >= self.quorum:
            self.log.commit(entry.index)
        return entry

    def _recompute_quorum(self) -> int:
        majority = self.n // 2 + 1
        if self.config.quorum is not None:
            return min(self.config.quorum, self.n)
        return majority

    def status(self) -> ReplicaGroupStatus:
        commit = self.log.commit_index
        with self._lock:
            items = list(self._replicas.values())
        replicas = []
        for r in items:
            # Observing the group is enough to surface a silent death:
            # the failover is journaled here, not only when a serve
            # happens to route into the dead process.
            self._note_death(r)
            in_sync = r.in_sync and r.session.alive()
            replicas.append(
                ReplicaStatus(
                    name=r.name,
                    applied_index=commit if in_sync else 0,
                    in_sync=in_sync,
                    restarts=r.session.restarts,
                    pid=r.session.pid,
                )
            )
        return ReplicaGroupStatus(
            shard=self.shard,
            n=len(replicas),
            quorum=self.quorum,
            commit_index=commit,
            replicas=replicas,
        )

    # -- membership ----------------------------------------------------
    def membership(
        self, op: str, replica: Optional[str] = None
    ) -> ReplicaGroupStatus:
        """Add / remove / replace one replica process as a logged
        command under a joint quorum."""
        with self._lock:
            old_quorum = self.quorum
            if op == "add":
                if not self._free_slots:
                    raise MembershipError(
                        "no free control-block slots (the block is "
                        "sized at fleet construction; remove or "
                        "replace instead)"
                    )
                fresh = self._add_replica(self._free_slots.pop(0))
                replica = fresh.name
                fresh.session.start()
                if self._segment is not None:
                    self.ctl.write_slot(
                        fresh.slot, self._epoch, self._segment
                    )
                    self._catch_up(fresh)
            elif op == "remove":
                record = self._replicas.get(replica or "")
                if record is None:
                    raise MembershipError(
                        f"no replica named {replica!r}"
                    )
                if len(self._replicas) == 1:
                    raise MembershipError(
                        "cannot remove the last replica of a group"
                    )
                del self._replicas[record.name]
                record.session.close()
                self._free_slots.append(record.slot)
            elif op == "replace":
                record = self._replicas.get(replica or "")
                if record is None:
                    raise MembershipError(
                        f"no replica named {replica!r}"
                    )
                record.session.close()
                record.session = WorkerSession(
                    self.ctl,
                    slot=record.slot,
                    label=f"{self.shard}:{record.name}",
                    start_method=self._start_method,
                    on_incident=self._incident,
                    request_timeout_s=self._timeout,
                )
                record.session.start()
                record.in_sync = True
                if self._segment is not None:
                    self._catch_up(record)
            else:
                raise ValueError(
                    f"unknown membership op {op!r}; expected add / "
                    f"remove / replace"
                )
            self.quorum = self._recompute_quorum()
        self.record(
            "membership",
            op=op,
            replica=replica,
            n=self.n,
            quorum=self.quorum,
            joint_quorum=(old_quorum, self.quorum),
        )
        _journal.JOURNAL.record(
            _journal.REPLICA_MEMBERSHIP,
            shard=self.shard,
            kind=op,
            replica=replica,
            n=self.n,
            quorum=self.quorum,
            joint_quorum=f"{old_quorum}->{self.quorum}",
        )
        return self.status()

    def _catch_up(self, replica: _ProcReplica) -> None:
        """Force a fresh replica through snapshot catch-up now (probe
        its fingerprint, which attaches the published segment)."""
        fp = self._probe(replica)
        if fp is None:
            return
        _journal.JOURNAL.record(
            _journal.REPLICA_CATCH_UP,
            shard=self.shard,
            replica=replica.name,
            via="snapshot",
            epoch=self._epoch,
            table_version=getattr(self._compiled, "source_version", None),
        )

    # -- divergence ----------------------------------------------------
    def _probe(self, replica: _ProcReplica) -> Optional[int]:
        """The replica's local table fingerprint (None: unreachable or
        nothing attached)."""
        try:
            reply = replica.session.request(("fingerprint",))
        except WorkerCrashed:
            return None
        if not reply or reply[0] != "fingerprint":
            return None
        return reply[1]

    def inject_divergence(self, replica: str, index: int = 0):
        """Test hook: corrupt one replica's *local* decoded tables (the
        shared segment stays pristine — exactly the single-copy upset
        the fingerprint sweep exists to catch)."""
        record = self._replicas.get(replica)
        if record is None:
            raise MembershipError(f"no replica named {replica!r}")
        return record.session.request(("corrupt", index))

    def check_divergence(self, heal: bool = True) -> Dict[str, bool]:
        """Fingerprint every replica against the published tables;
        optionally heal mismatches by republishing (an epoch bump every
        worker must re-attach through).  Returns ``{replica: diverged}``
        (post-heal when healing)."""
        expected = self._fingerprint
        if expected is None:
            return {}
        report: Dict[str, bool] = {}
        diverged: List[_ProcReplica] = []
        for record in list(self._replicas.values()):
            actual = self._probe(record)
            mismatch = actual is not None and actual != expected
            report[record.name] = mismatch
            if not mismatch:
                continue
            diverged.append(record)
            record.in_sync = False
            _journal.JOURNAL.record(
                _journal.REPLICA_DIVERGED,
                shard=self.shard,
                replica=record.name,
                expected=expected,
                actual=actual,
            )
        if heal and diverged and self._compiled is not None:
            self.publish(self._compiled)
            for record in diverged:
                if self._probe(record) == self._fingerprint:
                    record.in_sync = True
                    report[record.name] = False
                    _journal.JOURNAL.record(
                        _journal.REPLICA_CATCH_UP,
                        shard=self.shard,
                        replica=record.name,
                        via="republish",
                        epoch=self._epoch,
                        table_version=getattr(
                            self._compiled, "source_version", None
                        ),
                    )
        return report

    def replica_pids(self) -> Dict[str, Optional[int]]:
        return {
            r.name: r.session.pid for r in self._replicas.values()
        }

    def __repr__(self) -> str:
        return (
            f"ProcReplicaGroup(shard={self.shard!r}, n={self.n}, "
            f"quorum={self.quorum}, epoch={self._epoch})"
        )
