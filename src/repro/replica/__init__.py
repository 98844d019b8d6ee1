"""Replica-group serving plane: replicated shards behind one log.

Replication is a process-mode feature (``FSMFleet(...,
fleet_mode="process", replication=ReplicaConfig(n=3))``): one shard
becomes one *replica group* of N worker processes that serve the
shard's single published table segment.  Worker processes are the only
building blocks here that fail independently — a thread-mode follower
shares its process, its faults and its heals with the leader — so they
are the only ones worth replicating.  Every state-changing command the
shard applies — a committed serve, one migration chunk gap of RAM
writes, an injected erase/upset, a migration commit, a membership
change — becomes an ordered entry in a :class:`ShardLog`.  The paper's
one-write-per-cycle reconfiguration discipline is what makes this
work: because *every* table mutation is already a serialised RAM
write, the write stream **is** the replication log.

Layout:

* :mod:`~repro.replica.log` — :class:`ReplicaConfig` (n, quorum),
  :class:`LogEntry`, the thread-safe :class:`ShardLog` and
  :class:`MembershipError`;
* :mod:`~repro.replica.fingerprint` — stdlib table fingerprints for
  divergence detection (parent and worker compute the same number);
* :mod:`~repro.replica.procgroup` — :class:`ProcReplicaGroup`: N worker
  processes sharing one published table segment, crash failover with
  zero lost futures, snapshot catch-up by segment re-attach,
  fingerprint divergence heal.
"""

from .fingerprint import fingerprint_tables, table_fingerprint
from .log import (
    ENTRY_KINDS,
    LogEntry,
    MembershipError,
    ReplicaConfig,
    ReplicaGroupStatus,
    ReplicaStatus,
    ShardLog,
)

__all__ = [
    "ENTRY_KINDS",
    "LogEntry",
    "MembershipError",
    "ReplicaConfig",
    "ReplicaGroupStatus",
    "ReplicaStatus",
    "ShardLog",
    "fingerprint_tables",
    "table_fingerprint",
]
