"""The flight recorder: a bounded journal of typed structured events.

Aggregate counters answer "how many fallbacks happened today"; they
cannot answer "what did shard 2 decide in the 40 ms around that
quarantine".  The journal records the *decisions themselves* — every
dispatcher verdict, backend fallback, stale-snapshot hit, migration
chunk, quarantine and queue-saturation incident — as typed events in a
lock-cheap bounded ring buffer, so the last N events are always
available for post-mortem without unbounded memory.

Design points:

* **monotonic sequence numbers** — ``seq`` increments for every
  recorded event; within the retained window numbers are gap-free, and
  the ring's eviction count is explicit (``dropped``), so a reader can
  prove whether it saw everything (``events[0].seq == dropped``);
* **trace correlation** — every event captures the active
  :class:`~repro.obs.context.TraceContext`'s trace id, so journal lines
  join against the span tree of the request that caused them;
* **cheap when disabled** — ``record()`` is one attribute load and one
  branch when the journal is off (the shipped default);
* **JSONL in, JSONL out** — :meth:`Journal.export` streams one event
  per line; :func:`load_jsonl` reads them back, so timelines reconstruct
  from a file as well as from a live buffer.

:func:`migration_timeline` is the reconstruction half: it folds a
stream of events into a per-shard rolling-migration timeline and proves
— from events alone, no probe access — where the zero-downtime window
actually was (``serve.batch`` events carry the probe-measured downtime
delta of the batch they describe; a feasible migration shows traffic
flowing through every chunk gap with every delta at zero).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    TextIO,
    Union,
)

from . import context as _context

__all__ = [
    "EVENT_TYPES",
    "Event",
    "JOURNAL",
    "Journal",
    "MigrationTimeline",
    "ShardTimeline",
    "load_jsonl",
    "migration_timeline",
    "record",
]

# -- event taxonomy ----------------------------------------------------
# One constant per event type; EVENT_TYPES documents the fields each
# carries (docs/observability.md renders this table).

DISPATCH_DECISION = "dispatch.decision"
EXEC_STREAM_BATCH = "exec.stream_batch"
EXEC_FALLBACK = "exec.fallback"
SERVE_BATCH = "serve.batch"
FLEET_SATURATION = "fleet.saturation"
FLEET_QUARANTINE = "fleet.quarantine"
MIGRATION_ROLLOUT_BEGIN = "migration.rollout.begin"
MIGRATION_ROLLOUT_COMMIT = "migration.rollout.commit"
MIGRATION_SHARD_BEGIN = "migration.shard.begin"
MIGRATION_CHUNK = "migration.chunk"
MIGRATION_SHARD_COMMIT = "migration.shard.commit"
MIGRATION_ROLLBACK = "migration.rollback"
PROCFLEET_PUBLISH = "procfleet.publish"
PROCFLEET_ATTACH = "procfleet.attach"
PROCFLEET_WORKER_BATCH = "procfleet.worker.batch"
PROCFLEET_EPOCH_SKEW = "procfleet.epoch_skew"
PROCFLEET_WORKER_CRASH = "procfleet.worker.crash"
PROCFLEET_WORKER_SPAWN = "procfleet.worker.spawn"
REPLICA_CATCH_UP = "replica.catch_up"
REPLICA_DIVERGED = "replica.diverged"
REPLICA_FAILOVER = "replica.failover"
REPLICA_MEMBERSHIP = "replica.membership"

#: type -> (description, field names) — the journal's whole vocabulary.
EVENT_TYPES: Dict[str, Any] = {
    DISPATCH_DECISION: (
        "dispatcher picked a backend for one serving run",
        ("backend", "reason", "degraded", "streams"),
    ),
    EXEC_STREAM_BATCH: (
        "one multi-stream batch was served through the stream plane",
        ("backend", "site", "streams", "symbols"),
    ),
    EXEC_FALLBACK: (
        "policy displaced the preferred backend",
        ("backend", "reason"),
    ),
    SERVE_BATCH: (
        "one coalesced batch run completed",
        ("backend", "path", "batches", "symbols", "downtime_delta",
         "streams"),
    ),
    FLEET_SATURATION: (
        "a submission was rejected by backpressure (queue full)",
        ("depth",),
    ),
    FLEET_QUARANTINE: (
        "a shard fault triggered quarantine",
        ("error",),
    ),
    MIGRATION_ROLLOUT_BEGIN: (
        "a fleet-wide rolling migration started",
        ("target", "shards", "chunks", "stall_budget"),
    ),
    MIGRATION_ROLLOUT_COMMIT: (
        "a fleet-wide rolling migration completed",
        ("target", "verified", "downtime_cycles"),
    ),
    MIGRATION_SHARD_BEGIN: (
        "one shard began applying its migration chunks",
        ("target", "chunks"),
    ),
    MIGRATION_CHUNK: (
        "one shard spent reconfiguration cycles in a batch gap",
        ("cycles",),
    ),
    MIGRATION_SHARD_COMMIT: (
        "one shard finished its migration",
        ("target", "verified"),
    ),
    MIGRATION_ROLLBACK: (
        "a shard's in-flight migration restarted after a fault",
        ("restarts",),
    ),
    PROCFLEET_PUBLISH: (
        "new table segment published to shared memory (epoch bump)",
        ("segment", "epoch", "table_version"),
    ),
    PROCFLEET_ATTACH: (
        "a worker process (re-)attached a published table segment",
        ("segment", "epoch", "pid"),
    ),
    PROCFLEET_WORKER_BATCH: (
        "a worker process served one batch from shared-memory tables",
        ("pid", "epoch", "symbols", "streams"),
    ),
    PROCFLEET_EPOCH_SKEW: (
        "a worker refused an epoch-skewed request (parent republishes)",
        ("expected", "published", "pid"),
    ),
    PROCFLEET_WORKER_CRASH: (
        "a worker process died or wedged mid-request",
        ("pid", "error"),
    ),
    PROCFLEET_WORKER_SPAWN: (
        "a worker process was spawned (startup or reseed)",
        ("pid", "start_method"),
    ),
    REPLICA_CATCH_UP: (
        "a lagging or fresh replica caught up from the latest snapshot",
        ("replica", "via", "epoch", "table_version"),
    ),
    REPLICA_DIVERGED: (
        "a replica's table fingerprint disagreed with the group's",
        ("replica", "expected", "actual"),
    ),
    REPLICA_FAILOVER: (
        "a replica died or wedged and left the in-sync set",
        ("replica", "to", "error"),
    ),
    REPLICA_MEMBERSHIP: (
        "a replica group changed membership under a joint quorum",
        ("kind", "replica", "n", "quorum", "joint_quorum"),
    ),
}


@dataclass(frozen=True)
class Event:
    """One journal entry (immutable once recorded)."""

    seq: int
    ts: float
    type: str
    shard: Optional[str] = None
    trace_id: Optional[str] = None
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "type": self.type,
            "shard": self.shard,
            "trace_id": self.trace_id,
            "fields": {k: _json_safe(v) for k, v in self.fields.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Event":
        return cls(
            seq=data["seq"],
            ts=data.get("ts", 0.0),
            type=data["type"],
            shard=data.get("shard"),
            trace_id=data.get("trace_id"),
            fields=dict(data.get("fields", {})),
        )


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Journal:
    """A bounded, sequenced event recorder (see module docstring)."""

    def __init__(self, capacity: int = 4096, enabled: bool = False):
        if capacity < 1:
            raise ValueError("journal capacity must be positive")
        self.enabled = enabled
        self.capacity = capacity
        self._buf: "deque[Event]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._dropped = 0

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop buffered events and reset sequencing and drop counts."""
        with self._lock:
            self._buf.clear()
            self._seq = 0
            self._dropped = 0

    # -- recording ------------------------------------------------------
    def record(
        self, type: str, shard: Optional[Any] = None, **fields: Any
    ) -> Optional[Event]:
        """Append one event; returns it (``None`` when disabled).

        The active trace context's id is captured automatically, so a
        dispatcher decision made while serving a request carries that
        request's trace id without the call site threading it through.
        """
        if not self.enabled:
            return None
        ctx = _context.current()
        trace_id = ctx.trace_id if ctx is not None else None
        shard_label = None if shard is None else str(shard)
        ts = time.time()
        with self._lock:
            seq = self._seq
            self._seq = seq + 1
            buf = self._buf
            if len(buf) == self.capacity:
                self._dropped += 1
            event = Event(
                seq=seq,
                ts=ts,
                type=type,
                shard=shard_label,
                trace_id=trace_id,
                fields=fields,
            )
            buf.append(event)
        return event

    def absorb(
        self, events: Iterable[Mapping[str, Any]]
    ) -> List["Event"]:
        """Merge events recorded in *another process* into this journal.

        Each dict (the ``to_dict`` form shipped across the IPC
        boundary) keeps its type, shard, trace id, timestamp and fields
        — so a worker-side event still correlates with the submitting
        request's trace — but is re-sequenced locally: ``seq`` is this
        journal's ordering, and foreign sequence numbers are never
        trusted as local indexes.
        """
        recorded: List[Event] = []
        if not self.enabled:
            return recorded
        with self._lock:
            for data in events:
                if len(self._buf) == self.capacity:
                    self._dropped += 1
                event = Event(
                    seq=self._seq,
                    ts=float(data.get("ts", 0.0)),
                    type=data["type"],
                    shard=data.get("shard"),
                    trace_id=data.get("trace_id"),
                    fields=dict(data.get("fields", {})),
                )
                self._seq += 1
                self._buf.append(event)
                recorded.append(event)
        return recorded

    # -- reading --------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted from the ring so far (explicit drop count)."""
        with self._lock:
            return self._dropped

    @property
    def next_seq(self) -> int:
        """The sequence number the next recorded event will get."""
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)

    def events(
        self,
        type: Optional[str] = None,
        shard: Optional[Any] = None,
        since_seq: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Event]:
        """A filtered snapshot of the buffer, oldest first.

        ``limit`` keeps the *newest* N of the filtered result (the
        useful tail for a health endpoint).
        """
        with self._lock:
            snapshot = list(self._buf)
        shard_label = None if shard is None else str(shard)
        out = [
            e
            for e in snapshot
            if (type is None or e.type == type)
            and (shard_label is None or e.shard == shard_label)
            and (since_seq is None or e.seq >= since_seq)
        ]
        if limit is not None and len(out) > limit:
            out = out[-limit:]
        return out

    # -- export ---------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per line, in sequence order."""
        return "".join(
            json.dumps(e.to_dict(), sort_keys=True) + "\n"
            for e in self.events()
        )

    def export(self, target: Union[str, TextIO]) -> None:
        """Write the buffered events as JSONL to a path or stream."""
        text = self.to_jsonl()
        if isinstance(target, str):
            with open(target, "w") as handle:
                handle.write(text)
        else:
            target.write(text)


def load_jsonl(source: Union[str, TextIO, Iterable[str]]) -> List[Event]:
    """Read events back from a JSONL path, stream, or line iterable."""
    if isinstance(source, str):
        with open(source) as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    return [
        Event.from_dict(json.loads(line)) for line in lines if line.strip()
    ]


# -- timeline reconstruction -------------------------------------------


@dataclass
class ShardTimeline:
    """One shard's rolling-migration story, folded from its events."""

    shard: str
    begin_seq: Optional[int] = None
    commit_seq: Optional[int] = None
    begin_ts: Optional[float] = None
    commit_ts: Optional[float] = None
    chunks: int = 0
    migration_cycles: int = 0
    batches_during: int = 0
    symbols_during: int = 0
    downtime_cycles: int = 0
    rollbacks: int = 0
    verified: Optional[bool] = None

    @property
    def completed(self) -> bool:
        return self.begin_seq is not None and self.commit_seq is not None

    @property
    def zero_downtime(self) -> bool:
        """No serve event inside the window carried a downtime delta."""
        return self.downtime_cycles == 0

    @property
    def served_live(self) -> bool:
        """Traffic actually flowed while this shard was migrating."""
        return self.batches_during > 0

    def row(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "chunks": self.chunks,
            "migration cycles": self.migration_cycles,
            "batches during": self.batches_during,
            "symbols during": self.symbols_during,
            "downtime cycles": self.downtime_cycles,
            "rollbacks": self.rollbacks,
            "verified": self.verified,
            "window": (
                f"seq {self.begin_seq}..{self.commit_seq}"
                if self.completed
                else "(incomplete)"
            ),
        }


@dataclass
class MigrationTimeline:
    """Per-shard migration timelines reconstructed from events alone."""

    shards: Dict[str, ShardTimeline] = field(default_factory=dict)
    target: Optional[str] = None
    rollout_begin_seq: Optional[int] = None
    rollout_commit_seq: Optional[int] = None

    @property
    def completed(self) -> bool:
        return bool(self.shards) and all(
            t.completed for t in self.shards.values()
        )

    @property
    def zero_downtime(self) -> bool:
        """Every shard migrated without delaying a single batch."""
        return self.completed and all(
            t.zero_downtime for t in self.shards.values()
        )

    @property
    def verified(self) -> bool:
        return self.completed and all(
            bool(t.verified) for t in self.shards.values()
        )

    def render(self) -> str:
        """Readable per-shard timeline table plus the verdict line."""
        from ..analysis.tables import format_table

        if not self.shards:
            return "(no migration events in the journal)"
        rows = [
            self.shards[key].row()
            for key in sorted(self.shards, key=lambda s: (len(s), s))
        ]
        title = "migration timeline"
        if self.target:
            title += f" -> {self.target}"
        table = format_table(rows, title=title)
        verdict = (
            f"zero-downtime: {self.zero_downtime}  "
            f"verified: {self.verified}  "
            f"completed: {self.completed}"
        )
        return table + "\n\n" + verdict


def migration_timeline(
    events: Iterable[Event],
) -> MigrationTimeline:
    """Fold an event stream into a per-shard migration timeline.

    Only events between a shard's ``migration.shard.begin`` and its
    ``migration.shard.commit`` count toward that shard's window; the
    downtime proof is the sum of the ``downtime_delta`` fields of the
    ``serve.batch`` events inside the window.
    """
    timeline = MigrationTimeline()
    open_shards: Dict[str, ShardTimeline] = {}
    for event in sorted(events, key=lambda e: e.seq):
        shard = event.shard
        if event.type == MIGRATION_ROLLOUT_BEGIN:
            timeline.rollout_begin_seq = event.seq
            timeline.target = event.fields.get("target", timeline.target)
        elif event.type == MIGRATION_ROLLOUT_COMMIT:
            timeline.rollout_commit_seq = event.seq
        elif event.type == MIGRATION_SHARD_BEGIN and shard is not None:
            entry = ShardTimeline(
                shard=shard, begin_seq=event.seq, begin_ts=event.ts
            )
            open_shards[shard] = entry
            timeline.shards[shard] = entry
            timeline.target = event.fields.get("target", timeline.target)
            entry.chunks = 0
        elif shard is not None and shard in open_shards:
            entry = open_shards[shard]
            if event.type == MIGRATION_CHUNK:
                entry.chunks += 1
                entry.migration_cycles += int(
                    event.fields.get("cycles", 0)
                )
            elif event.type == SERVE_BATCH:
                entry.batches_during += int(event.fields.get("batches", 1))
                entry.symbols_during += int(event.fields.get("symbols", 0))
                entry.downtime_cycles += int(
                    event.fields.get("downtime_delta", 0)
                )
            elif event.type == MIGRATION_ROLLBACK:
                entry.rollbacks += 1
            elif event.type == MIGRATION_SHARD_COMMIT:
                entry.commit_seq = event.seq
                entry.commit_ts = event.ts
                entry.verified = bool(event.fields.get("verified"))
                del open_shards[shard]
    return timeline


#: The process-wide default journal (disabled until configured).
JOURNAL = Journal()


def record(
    type: str, shard: Optional[Any] = None, **fields: Any
) -> Optional[Event]:
    """Record one event on the default journal."""
    return JOURNAL.record(type, shard=shard, **fields)


def enable() -> None:
    """Turn on event recording on the default journal."""
    JOURNAL.enable()


def disable() -> None:
    """Turn off event recording on the default journal."""
    JOURNAL.disable()
