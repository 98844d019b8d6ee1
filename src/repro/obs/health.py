"""Live health assessment: detectors over the fleet, journal and metrics.

A serving fleet fails in patterns, not in single counters: a *fallback
spike* (the dispatcher abandoning the preferred backend across the
fleet), *queue saturation* (backpressure rejecting work faster than
shards drain it).  This module
turns those patterns into explicit :class:`Detector` verdicts with
thresholds, and folds them plus per-shard vitals into one
:class:`HealthReport` that ``/healthz`` and ``repro health`` serve.

Severity model: each detector reports ``ok`` / ``degraded`` /
``critical``; the report's overall status is the worst detector's.
``critical`` maps to HTTP 503 at the endpoint, so a load balancer can
act on it without parsing the body.

Detectors read the *journal* (recent typed events) rather than raw
counters where possible — a spike is a rate over a recent window, and
the ring buffer *is* the recent window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import journal as _journal
from .journal import Journal

__all__ = [
    "Detector",
    "HealthReport",
    "ShardHealth",
    "Thresholds",
    "check",
    "render",
]

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_CRITICAL = "critical"

_SEVERITY = {STATUS_OK: 0, STATUS_DEGRADED: 1, STATUS_CRITICAL: 2}


@dataclass(frozen=True)
class Thresholds:
    """Tunable trip points for the detectors.

    ``*_window_s`` bounds how far back in the journal a detector looks;
    the ``degraded`` count trips the warning, the ``critical`` count the
    page.  Queue saturation is a ratio of depth to capacity.
    """

    fallback_window_s: float = 30.0
    fallback_degraded: int = 5
    fallback_critical: int = 20
    saturation_window_s: float = 30.0
    saturation_degraded: int = 1
    saturation_critical: int = 10
    queue_degraded_ratio: float = 0.5
    queue_critical_ratio: float = 0.9


@dataclass
class Detector:
    """One named verdict with the evidence that produced it."""

    name: str
    status: str
    detail: str
    count: int = 0
    window_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "count": self.count,
            "window_s": self.window_s,
        }


@dataclass
class ShardHealth:
    """Per-shard vitals sampled from the live fleet."""

    shard: str
    queue_depth: int
    queue_capacity: int
    backend: Optional[str]
    batches_ok: int
    symbols_served: int
    rejected: int
    incidents: int
    migrating: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "backend": self.backend,
            "batches_ok": self.batches_ok,
            "symbols_served": self.symbols_served,
            "rejected": self.rejected,
            "incidents": self.incidents,
            "migrating": self.migrating,
        }


@dataclass
class HealthReport:
    """The whole assessment: overall status, detectors, shard vitals."""

    status: str = STATUS_OK
    detectors: List[Detector] = field(default_factory=list)
    shards: List[ShardHealth] = field(default_factory=list)
    journal_len: int = 0
    journal_dropped: int = 0
    generated_at: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "detectors": [d.to_dict() for d in self.detectors],
            "shards": [s.to_dict() for s in self.shards],
            "journal": {
                "events": self.journal_len,
                "dropped": self.journal_dropped,
            },
            "generated_at": self.generated_at,
        }

    @property
    def http_status(self) -> int:
        """503 when critical, 200 otherwise (degraded still serves)."""
        return 503 if self.status == STATUS_CRITICAL else 200


def _worst(statuses: List[str]) -> str:
    return max(statuses, key=_SEVERITY.__getitem__, default=STATUS_OK)


def _grade(count: int, degraded: int, critical: int) -> str:
    if count >= critical:
        return STATUS_CRITICAL
    if count >= degraded:
        return STATUS_DEGRADED
    return STATUS_OK


def _window_count(
    journal: Journal, event_type: str, window_s: float, now: float
) -> int:
    cutoff = now - window_s
    return sum(
        1 for e in journal.events(type=event_type) if e.ts >= cutoff
    )


def _windowed_detector(
    journal: Journal,
    name: str,
    event_type: str,
    window_s: float,
    degraded: int,
    critical: int,
    what: str,
    now: float,
) -> Detector:
    count = _window_count(journal, event_type, window_s, now)
    status = _grade(count, degraded, critical)
    return Detector(
        name=name,
        status=status,
        detail=f"{count} {what} in the last {window_s:.0f}s "
        f"(degraded>={degraded}, critical>={critical})",
        count=count,
        window_s=window_s,
    )


def _shard_vitals(fleet: Any) -> List[ShardHealth]:
    """Sample per-shard vitals; tolerant of partially built fleets."""
    vitals: List[ShardHealth] = []
    shards = getattr(fleet, "shards", None)
    if shards is None:
        return vitals
    for shard in shards:
        stats = getattr(shard, "stats", None)
        queue = getattr(shard, "queue", None)
        try:
            depth = queue.qsize() if queue is not None else 0
        except NotImplementedError:  # some platforms lack qsize
            depth = 0
        capacity = getattr(queue, "maxsize", 0) or 0
        dispatcher = getattr(shard, "dispatcher", None)
        decision = getattr(dispatcher, "last_decision", None)
        backend = getattr(
            getattr(decision, "backend", None), "name", None
        )
        migrating_fn = getattr(shard, "_migrating", None)
        vitals.append(
            ShardHealth(
                shard=str(getattr(shard, "label", len(vitals))),
                queue_depth=depth,
                queue_capacity=capacity,
                backend=backend,
                batches_ok=getattr(stats, "batches_ok", 0),
                symbols_served=getattr(stats, "symbols_served", 0),
                rejected=getattr(stats, "rejected", 0),
                incidents=getattr(stats, "incidents", 0),
                migrating=bool(migrating_fn()) if migrating_fn else False,
            )
        )
    return vitals


def _replica_detectors(fleet: Any) -> List[Detector]:
    """The quorum-at-risk verdict over the fleet's replica groups.
    Status reads are queue-free, so this is safe from any thread;
    fleets without replication contribute no detector."""
    replicas_fn = getattr(fleet, "replicas", None)
    if replicas_fn is None:
        return []
    try:
        statuses = replicas_fn()
    except Exception:  # noqa: BLE001 - health must not throw
        return []
    if not statuses:
        return []
    at_risk: List[str] = []
    lost: List[str] = []
    for status in statuses.values():
        if not status.quorum_ok:
            lost.append(status.shard)
        elif status.in_sync < status.n:
            at_risk.append(status.shard)
    if lost:
        quorum_status, what = STATUS_CRITICAL, f"quorum lost on {lost}"
    elif at_risk:
        quorum_status = STATUS_DEGRADED
        what = f"out-of-sync replicas on {at_risk} (quorum still held)"
    else:
        quorum_status, what = STATUS_OK, "all replicas in sync"
    return [
        Detector(
            name="replica-quorum",
            status=quorum_status,
            detail=f"{what} across {len(statuses)} replica groups",
            count=len(lost) + len(at_risk),
        )
    ]


def check(
    fleet: Any = None,
    journal: Optional[Journal] = None,
    thresholds: Optional[Thresholds] = None,
) -> HealthReport:
    """Assess health from the journal plus (optionally) a live fleet.

    ``fleet`` may be ``None`` — the journal-driven detectors still run,
    so the endpoint is useful even before a fleet exists in-process.
    """
    journal = journal if journal is not None else _journal.JOURNAL
    thresholds = thresholds or Thresholds()
    now = time.time()

    detectors = [
        _windowed_detector(
            journal,
            "fallback-spike",
            _journal.EXEC_FALLBACK,
            thresholds.fallback_window_s,
            thresholds.fallback_degraded,
            thresholds.fallback_critical,
            "backend fallbacks",
            now,
        ),
        _windowed_detector(
            journal,
            "queue-saturation",
            _journal.FLEET_SATURATION,
            thresholds.saturation_window_s,
            thresholds.saturation_degraded,
            thresholds.saturation_critical,
            "backpressure rejections",
            now,
        ),
    ]

    if fleet is not None:
        detectors.extend(_replica_detectors(fleet))

    shards = _shard_vitals(fleet) if fleet is not None else []
    if shards:
        worst_ratio = 0.0
        for vital in shards:
            if vital.queue_capacity:
                worst_ratio = max(
                    worst_ratio, vital.queue_depth / vital.queue_capacity
                )
        if worst_ratio >= thresholds.queue_critical_ratio:
            status = STATUS_CRITICAL
        elif worst_ratio >= thresholds.queue_degraded_ratio:
            status = STATUS_DEGRADED
        else:
            status = STATUS_OK
        detectors.append(
            Detector(
                name="queue-depth",
                status=status,
                detail=(
                    f"worst shard queue at {worst_ratio:.0%} of capacity "
                    f"(degraded>={thresholds.queue_degraded_ratio:.0%}, "
                    f"critical>={thresholds.queue_critical_ratio:.0%})"
                ),
                count=max(v.queue_depth for v in shards),
            )
        )

    return HealthReport(
        status=_worst([d.status for d in detectors]),
        detectors=detectors,
        shards=shards,
        journal_len=len(journal),
        journal_dropped=journal.dropped,
        generated_at=now,
    )


def render(report: HealthReport) -> str:
    """Readable multi-line rendering for the CLI."""
    lines = [f"status: {report.status}"]
    for det in report.detectors:
        lines.append(f"  [{det.status:>8}] {det.name}: {det.detail}")
    if report.shards:
        lines.append("shards:")
        for vital in report.shards:
            lines.append(
                f"  {vital.shard}: queue {vital.queue_depth}/"
                f"{vital.queue_capacity or '-'} backend={vital.backend} "
                f"batches={vital.batches_ok} symbols={vital.symbols_served} "
                f"rejected={vital.rejected} incidents={vital.incidents}"
                + (" migrating" if vital.migrating else "")
            )
    lines.append(
        f"journal: {report.journal_len} events buffered, "
        f"{report.journal_dropped} dropped"
    )
    return "\n".join(lines)
