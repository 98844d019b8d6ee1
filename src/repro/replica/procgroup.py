"""Process-mode replica groups: N worker processes, one published table.

Process-fleet workers are *stateless appliers*: the start state travels
in every frame and the parent commits results to its canonical
datapath.  Replicating a shard therefore means replicating
**availability and table integrity**, not architectural state:

* one :class:`ProcReplicaGroup` owns N :class:`WorkerSession` replicas
  on N control-block slots and **one shared table segment** — a publish
  writes the same ``(epoch, segment)`` to every slot, so all replicas
  of a group serve the identical snapshot at the identical epoch;
* every frame goes to one replica, the first in-sync one, and the
  others are hot spares.  A serving replica that dies or wedges
  mid-request raises :class:`WorkerCrashed` *inside the group*, which
  fails the frame over to the next in-sync replica — the caller never
  sees the crash and **no future is lost**;
* a replica is in sync only once a fingerprint probe of its tables
  matches the published ones (the probe attaches the segment, so it is
  also the catch-up).  The session respawns a crashed serving replica
  at once and the group probes it back; a standby whose process died is
  found by the liveness check every frame makes, and is respawned and
  probed on the shard thread before that frame is served;
* only when *every* in-sync replica fails does the group re-raise
  ``WorkerCrashed`` — a :class:`~repro.exec.TableMiss` — and the parent
  replays the batch cycle-accurately, the same zero-loss path a
  single-replica shard always had;
* divergence is detected by **fingerprint probes**: each worker answers
  a ``fingerprint`` frame with a CRC over its locally decoded tables;
  a mismatch against the group's expected fingerprint takes the
  replica out of sync (it serves no frame) until a republish of the
  segment (an epoch bump every worker must re-attach through) heals it.

The group duck-types the :class:`WorkerSession` surface that
:class:`~repro.procfleet.backend.ShmTableBackend` consumes
(``start`` / ``publish`` / ``request`` / ``segment`` / ``retire`` /
``close`` / ``pid``), so the backend — and therefore the whole exec
protocol — is replication-agnostic.  Every session round-trip runs
under the group lock, so a probe never interleaves with a frame.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..obs import instruments as _instruments
from ..obs import journal as _journal
from ..procfleet.segments import ControlBlock, SegmentOwner, encode_segment
from ..procfleet.session import (
    REQUEST_TIMEOUT_S,
    WorkerCrashed,
    WorkerSession,
)
from .fingerprint import table_fingerprint
from .status import (
    MembershipError,
    ReplicaConfig,
    ReplicaGroupStatus,
    ReplicaStatus,
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
        self._closed = False
        self._next_replica = 0
        self._free_slots: List[int] = list(slots[config.n:])
        self._replicas: "OrderedDict[str, _ProcReplica]" = OrderedDict()
        for slot in slots[: config.n]:
            self._add_replica(slot)

    # -- construction internals ----------------------------------------
    def _new_session(self, slot: int, name: str) -> WorkerSession:
        return WorkerSession(
            self.ctl,
            slot=slot,
            label=f"{self.shard}:{name}",
            start_method=self._start_method,
            on_incident=self._incident,
            request_timeout_s=self._timeout,
        )

    def _add_replica(self, slot: int) -> _ProcReplica:
        name = f"r{self._next_replica}"
        self._next_replica += 1
        replica = _ProcReplica(
            name=name, session=self._new_session(slot, name), slot=slot
        )
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
        """(Re)start every replica process.

        The dispatcher re-enters here on every backend build, so a
        replica whose process died between serves is respawned and
        probed back now (:meth:`_revive`) — a respawn is never a silent
        resurrection.
        """
        with self._lock:
            for replica in self._replicas.values():
                self._revive(replica)
                replica.session.start()

    def _note_death(self, replica: _ProcReplica) -> None:
        """Notice a replica whose process died since we last looked:
        journal the failover and drop it out of sync."""
        session = replica.session
        if not (
            replica.in_sync
            and session.pid is not None
            and not session.alive()
        ):
            return
        replica.in_sync = False
        _journal.JOURNAL.record(
            _journal.REPLICA_FAILOVER,
            shard=self.shard,
            replica=replica.name,
            to=None,
            error="worker process died between serves (respawning)",
        )

    def _revive(self, replica: _ProcReplica) -> None:
        """Respawn a replica whose process died and probe it back in."""
        session = replica.session
        if session.pid is None or session.alive():
            return
        self._note_death(replica)
        session.start()
        self._catch_up(replica)

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
        _journal.JOURNAL.record(
            _journal.PROCFLEET_PUBLISH,
            shard=self.shard,
            segment=name,
            epoch=epoch,
            table_version=getattr(compiled, "source_version", None),
        )
        _instruments.PROCFLEET_PUBLISHES.inc(shard=self.shard)
        return epoch

    def retire(self) -> None:
        with self._lock:
            previous, self._segment = self._segment, None
            self.owner.retire(previous)

    def request(self, frame: tuple):
        """Serve one frame from the serving replica (the first in-sync
        one), failing over past one that crashes or wedges; raises
        :class:`WorkerCrashed` only when *no* in-sync replica can serve
        (the parent then cycle-replays — the same zero-loss contract as
        a single-replica shard).  Dead standbys are respawned and
        probed first, so none waits for traffic to find it."""
        with self._lock:
            replicas = list(self._replicas.values())
            for replica in replicas:
                self._revive(replica)
            crash: Optional[WorkerCrashed] = None
            for k, replica in enumerate(replicas):
                if not replica.in_sync:
                    continue
                try:
                    return replica.session.request(frame)
                except WorkerCrashed as exc:
                    crash = exc
                replica.in_sync = False
                successor = next(
                    (r for r in replicas[k + 1:] if r.in_sync), None
                )
                _journal.JOURNAL.record(
                    _journal.REPLICA_FAILOVER,
                    shard=self.shard,
                    replica=replica.name,
                    to=successor.name if successor is not None else None,
                    error=str(crash),
                )
                # The session has already respawned the process.
                self._catch_up(replica)
            raise crash or WorkerCrashed(
                f"shard {self.shard}: no in-sync replica"
            )

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for replica in self._replicas.values():
                replica.session.close()
            self.owner.close()

    # -- group surface -------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._replicas)

    @property
    def quorum(self) -> int:
        """The majority of the group's current size."""
        return self.n // 2 + 1

    def status(self) -> ReplicaGroupStatus:
        # Observing the group is enough to surface a silent death.  With
        # no frame in flight the dead replica is revived here; otherwise
        # its failover is journaled and the next frame revives it (a
        # wedged frame holds the lock until its timeout, and health
        # checks must answer meanwhile).
        if self._lock.acquire(blocking=False):
            try:
                for r in list(self._replicas.values()):
                    self._revive(r)
            finally:
                self._lock.release()
        replicas = []
        for r in list(self._replicas.values()):
            self._note_death(r)
            replicas.append(
                ReplicaStatus(
                    name=r.name,
                    in_sync=r.in_sync and r.session.alive(),
                    restarts=r.session.restarts,
                    pid=r.session.pid,
                )
            )
        return ReplicaGroupStatus(
            shard=self.shard,
            n=len(replicas),
            quorum=self.quorum,
            replicas=replicas,
        )

    # -- membership ----------------------------------------------------
    def membership(
        self, op: str, replica: Optional[str] = None
    ) -> ReplicaGroupStatus:
        """Add / remove / replace one replica process under a joint
        quorum (the old and the new majority, journaled together)."""
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
                record.session = self._new_session(record.slot, record.name)
                record.session.start()
                self._catch_up(record)
            else:
                raise ValueError(
                    f"unknown membership op {op!r}; expected add / "
                    f"remove / replace"
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

    def _catch_up(self, replica: _ProcReplica, via: str = "snapshot") -> None:
        """Probe a fresh or healed replica against the published tables
        (the probe attaches the segment): in sync only on a match."""
        if self._segment is None:
            replica.in_sync = True  # nothing published to lag behind
            return
        replica.in_sync = self._probe(replica) == self._fingerprint
        if replica.in_sync:
            _journal.JOURNAL.record(
                _journal.REPLICA_CATCH_UP,
                shard=self.shard,
                replica=replica.name,
                via=via,
                epoch=self._epoch,
                table_version=getattr(
                    self._compiled, "source_version", None
                ),
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
        with self._lock:
            return record.session.request(("corrupt", index))

    def check_divergence(self, heal: bool = True) -> Dict[str, bool]:
        """Fingerprint every replica against the published tables;
        optionally heal mismatches by republishing (an epoch bump every
        worker must re-attach through).  Returns ``{replica: diverged}``
        (post-heal when healing)."""
        with self._lock:
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
                    self._catch_up(record, via="republish")
                    report[record.name] = not record.in_sync
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
