"""Replica-group serving plane: one serving replica, hot spares.

Replication is a process-mode feature (``FSMFleet(...,
fleet_mode="process", replication=ReplicaConfig(n=3))``): one shard
becomes one *replica group* of N worker processes that serve the
shard's single published table segment.  Worker processes are the only
building blocks here that fail independently — a thread-mode follower
shares its process, its faults and its heals with the leader — so they
are the only ones worth replicating.  The shard's architectural state
is the parent's canonical datapath and the workers are stateless table
appliers, so a group buys availability: one in-sync replica serves
every frame and the others stand by, ready to take over on a crash or
a divergence.  What changed and when is in the journal (publishes,
failovers, catch-ups, divergence, membership, served batches).

Layout:

* :mod:`~repro.replica.status` — :class:`ReplicaConfig` (n, majority),
  the group and replica statuses and :class:`MembershipError`;
* :mod:`~repro.replica.fingerprint` — stdlib table fingerprints for
  divergence detection (parent and worker compute the same number);
* :mod:`~repro.replica.procgroup` — :class:`ProcReplicaGroup`: N worker
  processes sharing one published table segment, crash failover with
  zero lost futures, catch-up by a fingerprint probe of the published
  snapshot, fingerprint divergence heal.
"""

from .fingerprint import fingerprint_tables, table_fingerprint
from .status import (
    MembershipError,
    ReplicaConfig,
    ReplicaGroupStatus,
    ReplicaStatus,
)

__all__ = [
    "MembershipError",
    "ReplicaConfig",
    "ReplicaGroupStatus",
    "ReplicaStatus",
    "fingerprint_tables",
    "table_fingerprint",
]
