"""Unified observability layer: metrics, tracing, journal, health.

Five pillars, one switchboard:

* :mod:`repro.obs.metrics` — a process-wide registry of labelled
  counters, gauges and histograms, exportable as a JSON snapshot or
  Prometheus text exposition;
* :mod:`repro.obs.tracing` — nested wall-time spans with a JSONL
  exporter and **cross-thread trace propagation** (one connected tree
  per fleet request, client thread → worker → dispatcher → engine);
* :mod:`repro.obs.journal` — the flight recorder: a bounded ring of
  typed structured events (dispatcher decisions, fallbacks, migration
  chunks, quarantines ...) with gap-free sequence numbers and a
  migration-timeline reconstructor;
* :mod:`repro.obs.health` / :mod:`repro.obs.server` — live detectors
  (fallback spike, queue saturation, queue depth) behind a stdlib
  HTTP endpoint serving ``/metrics``, ``/healthz`` and ``/journal``;
* :mod:`repro.obs.probes` — per-run statistics derived from the
  cycle-accurate datapath (mode occupancy, RAM writes, state-visit
  histograms, downtime).

Everything is **off by default** and no-op cheap when off; the CLI's
``--metrics {json,prom,off}`` / ``--trace-out FILE`` / ``--journal``
flags (or :func:`configure` from Python) turn recording on.  Metric
names, the span naming convention and the journal event taxonomy are
catalogued in ``docs/observability.md``.
"""

from __future__ import annotations

from . import context, instruments
from .context import TraceContext, new_trace
from .health import HealthReport, Thresholds
from .health import check as health_check
from .journal import JOURNAL, Event, Journal, migration_timeline
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    gauge,
    histogram,
)
from .probes import ProbeReport, probe_hardware, publish
from .server import ObsServer
from .tracing import (
    SpanRecord,
    TRACER,
    Tracer,
    load_jsonl,
    render_tree,
    span,
)


def configure(
    metrics: bool = False,
    tracing: bool = False,
    journal: bool = False,
    reset: bool = True,
) -> None:
    """Switch the default registry, tracer and journal on or off.

    ``reset`` clears previously recorded values first, so repeated
    program runs in one process (tests, notebooks) start clean.
    """
    if reset:
        REGISTRY.reset()
        TRACER.clear()
        JOURNAL.clear()
    REGISTRY.enabled = metrics
    TRACER.enabled = tracing
    JOURNAL.enabled = journal


__all__ = [
    "Counter",
    "Event",
    "Gauge",
    "HealthReport",
    "Histogram",
    "JOURNAL",
    "Journal",
    "MetricsRegistry",
    "ObsServer",
    "ProbeReport",
    "REGISTRY",
    "SpanRecord",
    "TRACER",
    "Thresholds",
    "TraceContext",
    "Tracer",
    "configure",
    "context",
    "counter",
    "gauge",
    "health_check",
    "histogram",
    "instruments",
    "load_jsonl",
    "migration_timeline",
    "new_trace",
    "probe_hardware",
    "publish",
    "render_tree",
    "span",
]
