"""Thread-mode replica groups: N lockstep ``HardwareFSM`` replicas.

The shard's worker thread stays the *single driver* — replication adds
no locking to the hot path.  The leader replica is the shard's own
datapath (the one the dispatcher compiles backends against); followers
are additional :class:`~repro.hw.machine.HardwareFSM` instances the
same thread drives by applying each committed log entry in order:

* a committed **serve** fast-forwards each follower through
  ``commit_engine_run`` — the identical architectural outcome the
  leader committed, not a re-execution of the symbols (which keeps the
  n=3 overhead a bounded counter update per follower, not 3x serving);
* a **ram_write** entry replays the same migration chunks in the same
  traffic gap, through a per-follower
  :class:`~repro.core.incremental.IncrementalMigrator` over the *same*
  chunk list — every replica performs the identical
  one-write-per-cycle sequence the paper's reconfiguration discipline
  prescribes;
* an **erase** entry applies the identically-seeded fault injector;
* a **retarget** entry drains the follower migrators and verifies each
  follower realises the target;
* **membership** entries add/remove/replace followers under a joint
  quorum (old and new quorum both recorded on the entry).

Reads (session-stateful serves, which never commit) rotate over the
in-sync replicas, so followers carry real traffic, not just writes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..core.incremental import IncrementalMigrator
from ..engine.compiled import CompiledFSM
from ..hw.faults import erase_entry
from ..hw.machine import HardwareFSM
from ..obs import instruments as _instruments
from ..obs import journal as _journal
from .fingerprint import table_fingerprint
from .log import ReplicaConfig, ReplicaGroupStatus, ReplicaStatus, ShardLog

__all__ = ["MembershipError", "ReplicaGroup"]


class MembershipError(RuntimeError):
    """A membership change was refused (invariant would break)."""


@dataclass
class _Follower:
    """One follower replica's live state (owned by the shard thread)."""

    name: str
    hardware: HardwareFSM
    applied_index: int = 0
    in_sync: bool = True
    restarts: int = 0
    migrator: Optional[IncrementalMigrator] = None


class ReplicaGroup:
    """N replicas of one shard's state machine, driven in lockstep.

    All ``on_*`` hooks run on the shard's worker thread; ``status()``
    and ``read_hardware()`` may be called from any thread (the small
    lock guards only membership mutation, never the apply path).
    """

    #: The leader replica's fixed name (the shard's own datapath).
    LEADER = "r0"

    def __init__(self, worker, config: ReplicaConfig):
        self.worker = worker
        self.config = config.effective()
        self.quorum = min(self.config.resolved_quorum(), self.config.n)
        self.log = ShardLog(worker.label)
        self._lock = threading.Lock()
        self._followers: "OrderedDict[str, _Follower]" = OrderedDict()
        self._next_replica = 1
        self._read_rotation = 0
        self._lag_gauge = _instruments.REPLICA_LAG
        for _ in range(self.config.n - 1):
            self._spawn_follower(catch_up=False)

    # -- membership internals ------------------------------------------
    @property
    def n(self) -> int:
        return 1 + len(self._followers)

    def _spawn_follower(self, catch_up: bool) -> _Follower:
        name = f"r{self._next_replica}"
        self._next_replica += 1
        hardware = self.worker._build_hardware(self.worker.machine)
        follower = _Follower(
            name=name,
            hardware=hardware,
            applied_index=self.log.commit_index,
        )
        if catch_up:
            hardware.restore_state(self.worker.hardware.state)
            _journal.JOURNAL.record(
                _journal.REPLICA_CATCH_UP,
                shard=self.log.shard,
                replica=name,
                via="state-copy",
                epoch=None,
                table_version=hardware.table_version,
            )
            _instruments.REPLICA_CATCH_UPS.inc(shard=self.log.shard)
        with self._lock:
            self._followers[name] = follower
        return follower

    def _recompute_quorum(self) -> int:
        """Quorum after a membership change: the configured quorum when
        it still fits, else the new majority."""
        majority = self.n // 2 + 1
        if self.config.quorum is not None:
            return min(self.config.quorum, self.n)
        return majority

    def _desync(self, follower: _Follower, reason: str) -> None:
        if not follower.in_sync:
            return
        follower.in_sync = False
        _journal.JOURNAL.record(
            _journal.REPLICA_DIVERGED,
            shard=self.log.shard,
            replica=follower.name,
            expected="applied",
            actual=reason,
        )
        _instruments.REPLICA_DIVERGENCE.inc(
            shard=self.log.shard, replica=follower.name
        )

    def _commit(self, entry, applied: int) -> None:
        if applied >= self.quorum:
            self.log.commit(entry.index, entry.kind, self.quorum)
        self._update_lag()

    def _update_lag(self) -> None:
        commit = self.log.commit_index
        applied = [
            f.applied_index
            for f in self._followers.values()
            if f.in_sync
        ]
        lag = max(0, commit - min(applied)) if applied else 0
        self._lag_gauge.set(lag, shard=self.log.shard)

    def _fan_out(
        self, entry, apply: Callable[[_Follower], None]
    ) -> int:
        """Apply one entry to every in-sync follower; the leader has
        already applied it (count = leader + successful followers)."""
        applied = 1
        for follower in list(self._followers.values()):
            if not follower.in_sync:
                continue
            try:
                apply(follower)
                follower.applied_index = entry.index
                applied += 1
            except Exception as exc:  # noqa: BLE001 - replica isolation
                self._desync(
                    follower, f"error:{type(exc).__name__}"
                )
        self._commit(entry, applied)
        return applied

    # -- shard-thread hooks --------------------------------------------
    def on_serve(self, final_state, n_cycles: int, visits) -> None:
        """A committed engine run: fast-forward every follower."""
        entry = self.log.append(
            "serve", final_state=final_state, cycles=n_cycles
        )
        self._fan_out(
            entry,
            lambda f: f.hardware.commit_engine_run(
                final_state, n_cycles, visits
            ),
        )

    def on_chunk(self, job, used: int) -> None:
        """The leader spent a traffic gap on migration chunks: replay
        the identical chunks (same list, same budget) per follower."""
        entry = self.log.append(
            "ram_write", cycles=used, target=job.target.name
        )

        def apply(follower: _Follower) -> None:
            if follower.migrator is None:
                follower.migrator = IncrementalMigrator(
                    follower.hardware,
                    self.worker.machine,
                    job.target,
                    chunks=job.chunks,
                )
            follower.migrator.stall(job.stall_budget)

        self._fan_out(entry, apply)

    def on_commit(self, job, leader_verified: bool) -> bool:
        """The leader finished migrating: drain the follower migrators
        and verify each follower realises the target.

        Called *before* the worker swaps ``self.machine`` to the
        target, so a follower that never saw a chunk gap still builds
        its migrator against the correct source machine.  Returns the
        group verdict (leader and every in-sync follower verified).
        """
        entry = self.log.append(
            "retarget",
            target=job.target.name,
            verified=leader_verified,
        )
        applied = 1
        all_verified = leader_verified
        for follower in list(self._followers.values()):
            if not follower.in_sync:
                continue
            try:
                if follower.migrator is None:
                    follower.migrator = IncrementalMigrator(
                        follower.hardware,
                        self.worker.machine,
                        job.target,
                        chunks=job.chunks,
                    )
                migrator = follower.migrator
                while not migrator.done:
                    cost = migrator.next_chunk_cost()
                    if cost is None or migrator.stall(cost) == 0:
                        break
                follower.migrator = None
                if follower.hardware.realises(job.target):
                    follower.applied_index = entry.index
                    applied += 1
                else:
                    all_verified = False
                    self._desync(follower, "target-not-realised")
            except Exception as exc:  # noqa: BLE001 - replica isolation
                all_verified = False
                self._desync(
                    follower, f"error:{type(exc).__name__}"
                )
        self._commit(entry, applied)
        return all_verified

    def on_fault(self, inject: Callable) -> None:
        """Replay the identically-seeded fault on every follower."""
        entry = self.log.append("erase")
        self._fan_out(entry, lambda f: inject(f.hardware))

    def on_reseed(self, machine) -> None:
        """Quarantine rebuilt the leader: rebuild every follower from
        the same reset state (the whole group re-seeds together)."""
        entry = self.log.append(
            "retarget", target=machine.name, reason="reseed"
        )
        for follower in list(self._followers.values()):
            follower.hardware = self.worker._build_hardware(machine)
            follower.migrator = None
            follower.applied_index = entry.index
            follower.in_sync = True
            follower.restarts += 1
        self._commit(entry, self.n)

    # -- reads ---------------------------------------------------------
    def read_hardware(self) -> HardwareFSM:
        """The next replica to serve a non-committing read (rotating
        over the leader and every in-sync follower)."""
        with self._lock:
            pool = [
                f.hardware
                for f in self._followers.values()
                if f.in_sync
            ]
            turn = self._read_rotation
            self._read_rotation = turn + 1
        choices = [self.worker.hardware] + pool
        return choices[turn % len(choices)]

    # -- membership ----------------------------------------------------
    def membership(
        self, op: str, replica: Optional[str] = None
    ) -> ReplicaGroupStatus:
        """Add / remove / replace one replica as a logged command.

        Refused while a migration is in flight: membership entries must
        serialise against the RAM-write stream, and a follower built
        mid-blend could not be caught up from the source machine alone.
        """
        if self.worker._migrating():
            raise MembershipError(
                "membership change refused while a migration is in "
                "flight; retry after the rollout commits"
            )
        old_quorum = self.quorum
        if op == "add":
            follower = self._spawn_follower(catch_up=True)
            replica = follower.name
        elif op == "remove":
            self._pop_follower(replica)
        elif op == "replace":
            if replica is None or replica == self.LEADER:
                raise MembershipError(
                    "replace needs a follower name (the leader is the "
                    "shard's own datapath; quarantine re-seeds it)"
                )
            with self._lock:
                follower = self._followers.get(replica)
            if follower is None:
                raise MembershipError(f"no replica named {replica!r}")
            follower.hardware = self.worker._build_hardware(
                self.worker.machine
            )
            follower.hardware.restore_state(self.worker.hardware.state)
            follower.migrator = None
            follower.applied_index = self.log.commit_index
            follower.in_sync = True
            follower.restarts += 1
            _journal.JOURNAL.record(
                _journal.REPLICA_CATCH_UP,
                shard=self.log.shard,
                replica=replica,
                via="state-copy",
                epoch=None,
                table_version=follower.hardware.table_version,
            )
            _instruments.REPLICA_CATCH_UPS.inc(shard=self.log.shard)
        else:
            raise ValueError(
                f"unknown membership op {op!r}; expected add / remove "
                f"/ replace"
            )
        self.quorum = self._recompute_quorum()
        entry = self.log.append(
            "membership",
            op=op,
            replica=replica,
            n=self.n,
            quorum=self.quorum,
            joint_quorum=(old_quorum, self.quorum),
        )
        _journal.JOURNAL.record(
            _journal.REPLICA_MEMBERSHIP,
            shard=self.log.shard,
            kind=op,
            replica=replica,
            n=self.n,
            quorum=self.quorum,
            joint_quorum=f"{old_quorum}->{self.quorum}",
        )
        _instruments.REPLICA_MEMBERSHIP_CHANGES.inc(
            shard=self.log.shard, kind=op
        )
        self._commit(entry, self.n)
        return self.status()

    def _pop_follower(self, replica: Optional[str]) -> None:
        if replica is None or replica == self.LEADER:
            raise MembershipError(
                "remove needs a follower name (the leader cannot leave "
                "its own group)"
            )
        with self._lock:
            if replica not in self._followers:
                raise MembershipError(f"no replica named {replica!r}")
            del self._followers[replica]

    # -- divergence ----------------------------------------------------
    def inject_divergence(self, replica: str, seed: int = 0):
        """Test hook: corrupt one follower's tables (a seeded erase on
        that replica alone — an SEU that missed the others)."""
        with self._lock:
            follower = self._followers.get(replica)
        if follower is None:
            raise MembershipError(f"no replica named {replica!r}")
        return erase_entry(follower.hardware, seed=seed)

    def check_divergence(self, heal: bool = True) -> Dict[str, bool]:
        """Fingerprint every replica against the leader; optionally
        heal mismatches by snapshot catch-up (rebuild + state copy).

        Returns ``{replica: diverged}``.  Healing is deferred while a
        migration is in flight (the leader's tables are mid-blend).
        """
        expected = table_fingerprint(
            CompiledFSM.from_hardware(self.worker.hardware)
        )
        migrating = self.worker._migrating()
        report: Dict[str, bool] = {}
        for follower in list(self._followers.values()):
            actual = table_fingerprint(
                CompiledFSM.from_hardware(follower.hardware)
            )
            diverged = actual != expected
            report[follower.name] = diverged
            if not diverged:
                continue
            _journal.JOURNAL.record(
                _journal.REPLICA_DIVERGED,
                shard=self.log.shard,
                replica=follower.name,
                expected=expected,
                actual=actual,
            )
            _instruments.REPLICA_DIVERGENCE.inc(
                shard=self.log.shard, replica=follower.name
            )
            follower.in_sync = False
            if heal and not migrating:
                self._heal(follower)
                report[follower.name] = False
        self._update_lag()
        return report

    def _heal(self, follower: _Follower) -> None:
        """Snapshot catch-up: rebuild the follower from the group's
        machine and copy the leader's architectural state."""
        follower.hardware = self.worker._build_hardware(
            self.worker.machine
        )
        follower.hardware.restore_state(self.worker.hardware.state)
        follower.migrator = None
        follower.applied_index = self.log.commit_index
        follower.in_sync = True
        follower.restarts += 1
        _journal.JOURNAL.record(
            _journal.REPLICA_CATCH_UP,
            shard=self.log.shard,
            replica=follower.name,
            via="rebuild",
            epoch=None,
            table_version=follower.hardware.table_version,
        )
        _instruments.REPLICA_CATCH_UPS.inc(shard=self.log.shard)

    # -- status --------------------------------------------------------
    def status(self) -> ReplicaGroupStatus:
        stats = getattr(self.worker, "stats", None)
        leader = ReplicaStatus(
            name=self.LEADER,
            applied_index=self.log.last_index,
            in_sync=True,
            restarts=getattr(stats, "incidents", 0),
        )
        with self._lock:
            followers = [
                ReplicaStatus(
                    name=f.name,
                    applied_index=f.applied_index,
                    in_sync=f.in_sync,
                    restarts=f.restarts,
                )
                for f in self._followers.values()
            ]
        return ReplicaGroupStatus(
            shard=self.log.shard,
            n=1 + len(followers),
            quorum=self.quorum,
            commit_index=self.log.commit_index,
            replicas=[leader] + followers,
        )

    def close(self) -> None:
        with self._lock:
            self._followers.clear()

    def __repr__(self) -> str:
        return (
            f"ReplicaGroup(shard={self.log.shard!r}, n={self.n}, "
            f"quorum={self.quorum}, commit={self.log.commit_index})"
        )
