"""The replicated shard log: ordered commands, quorum, group status.

Everything a shard does to its architectural state is one of five
command kinds, and all five were already serialised through the shard's
single driver before replication existed:

* ``serve``     — a committed engine run (its cycle count);
* ``ram_write`` — one migration chunk gap's worth of one-write-per-cycle
  RAM writes, or one table segment publish;
* ``erase``     — an injected fault (erase/upset);
* ``retarget``  — a migration commit: the shard now realises a new
  target machine (RST-MUX retargeted, blend invariant restored);
* ``membership`` — the group itself changed (add/remove/replace a
  replica) under a joint quorum.

A :class:`ShardLog` assigns each command a monotonic index at append
time and tracks the *commit index* — the highest entry recorded while
a quorum of replicas was in sync.  Entries are retained in a bounded
ring for inspection; replicas never replay it.  A replica that falls
out of sync catches up from the group's published table segment, which
is exactly the ``table_version`` staleness contract the exec layer
already enforces.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple


__all__ = [
    "ENTRY_KINDS",
    "LogEntry",
    "MembershipError",
    "ReplicaConfig",
    "ReplicaGroupStatus",
    "ReplicaStatus",
    "ShardLog",
]

#: The closed vocabulary of replicated commands.
ENTRY_KINDS = frozenset(
    {"serve", "ram_write", "erase", "retarget", "membership"}
)

#: Entries the log retains (older ones are dropped from the ring).
DEFAULT_RETENTION = 1024


class MembershipError(RuntimeError):
    """A membership change was refused (invariant would break)."""


@dataclass(frozen=True)
class ReplicaConfig:
    """How many replicas a shard runs and how many must agree.

    ``quorum=None`` means majority (``n // 2 + 1``).
    """

    n: int = 3
    quorum: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"replica count must be >= 1, got {self.n}")
        if self.quorum is not None and not (
            1 <= self.quorum <= self.n
        ):
            raise ValueError(
                f"quorum must be in [1, {self.n}], got {self.quorum}"
            )

    @property
    def majority(self) -> int:
        return self.n // 2 + 1

    def resolved_quorum(self) -> int:
        """The configured quorum, defaulting to majority."""
        return self.majority if self.quorum is None else self.quorum


@dataclass(frozen=True)
class LogEntry:
    """One replicated command (immutable once appended)."""

    index: int
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "payload": dict(self.payload),
        }


class ShardLog:
    """Ordered, bounded command log for one replica group.

    Appends are thread-safe (the shard thread appends; status readers
    may race harmlessly).  The retained entries are the record of the
    command stream every replica applied.
    """

    def __init__(
        self,
        shard: str,
        retention: int = DEFAULT_RETENTION,
    ):
        self.shard = shard
        self.retention = retention
        self._lock = threading.Lock()
        self._entries: List[LogEntry] = []
        self._next_index = 1
        self._commit_index = 0
        self._dropped = 0

    # -- write side ----------------------------------------------------
    def append(self, kind: str, **payload: Any) -> LogEntry:
        """Assign the next index to one command and retain it."""
        if kind not in ENTRY_KINDS:
            raise ValueError(
                f"unknown log entry kind {kind!r}; expected one of "
                f"{tuple(sorted(ENTRY_KINDS))}"
            )
        with self._lock:
            entry = LogEntry(self._next_index, kind, payload)
            self._next_index += 1
            self._entries.append(entry)
            overflow = len(self._entries) - self.retention
            if overflow > 0:
                del self._entries[:overflow]
                self._dropped += overflow
        return entry

    def commit(self, index: int) -> int:
        """Advance the commit index (monotonic) to ``index``."""
        with self._lock:
            if index <= self._commit_index:
                return self._commit_index
            self._commit_index = index
        return index

    # -- read side -----------------------------------------------------
    @property
    def commit_index(self) -> int:
        return self._commit_index

    @property
    def next_index(self) -> int:
        return self._next_index

    @property
    def last_index(self) -> int:
        return self._next_index - 1

    @property
    def dropped(self) -> int:
        """Entries evicted from the ring (replay no longer possible)."""
        return self._dropped

    @property
    def oldest_index(self) -> int:
        """The oldest replayable index (0 when the log is empty)."""
        with self._lock:
            return self._entries[0].index if self._entries else 0

    def entries(
        self, since_index: int = 0, kind: Optional[str] = None
    ) -> Tuple[LogEntry, ...]:
        """Retained entries with ``index > since_index`` in order."""
        with self._lock:
            snapshot = tuple(self._entries)
        return tuple(
            e
            for e in snapshot
            if e.index > since_index and (kind is None or e.kind == kind)
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ShardLog(shard={self.shard!r}, next={self._next_index}, "
            f"commit={self._commit_index}, retained={len(self)})"
        )


@dataclass
class ReplicaStatus:
    """One replica's view as the group reports it."""

    name: str
    applied_index: int
    in_sync: bool
    restarts: int = 0
    pid: Optional[int] = None
    fingerprint: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "applied_index": self.applied_index,
            "in_sync": self.in_sync,
            "restarts": self.restarts,
            "pid": self.pid,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ReplicaGroupStatus:
    """A point-in-time summary of one shard's replica group."""

    shard: str
    n: int
    quorum: int
    commit_index: int
    replicas: List[ReplicaStatus]

    @property
    def in_sync(self) -> int:
        return sum(1 for r in self.replicas if r.in_sync)

    @property
    def quorum_ok(self) -> bool:
        return self.in_sync >= self.quorum

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "n": self.n,
            "quorum": self.quorum,
            "commit_index": self.commit_index,
            "in_sync": self.in_sync,
            "quorum_ok": self.quorum_ok,
            "replicas": [r.to_dict() for r in self.replicas],
        }
