"""Replica-group configuration and status: size, majority, sync.

A group's quorum is always the majority of its current size; a
membership change moves it under a joint quorum (old and new majority
both recorded in the ``replica.membership`` journal event).  The
journal is the group's record of what changed: publishes, failovers,
catch-ups, divergence and membership are all ``procfleet.*`` /
``replica.*`` events, and committed serves are ``serve.batch`` events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional


__all__ = [
    "MembershipError",
    "ReplicaConfig",
    "ReplicaGroupStatus",
    "ReplicaStatus",
]


class MembershipError(RuntimeError):
    """A membership change was refused (invariant would break)."""


@dataclass(frozen=True)
class ReplicaConfig:
    """How many replicas a shard runs (its quorum is their majority)."""

    n: int = 3

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"replica count must be >= 1, got {self.n}")

    @property
    def majority(self) -> int:
        return self.n // 2 + 1


@dataclass
class ReplicaStatus:
    """One replica's view as the group reports it."""

    name: str
    in_sync: bool
    restarts: int = 0
    pid: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "in_sync": self.in_sync,
            "restarts": self.restarts,
            "pid": self.pid,
        }


@dataclass
class ReplicaGroupStatus:
    """A point-in-time summary of one shard's replica group."""

    shard: str
    n: int
    quorum: int
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
            "in_sync": self.in_sync,
            "quorum_ok": self.quorum_ok,
            "replicas": [r.to_dict() for r in self.replicas],
        }
