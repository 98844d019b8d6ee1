"""Hardware probes: derive per-run statistics from a live datapath.

:class:`~repro.hw.machine.HardwareFSM` counts what the real Fig. 5
implementation could count with a handful of extra registers — cycles
per mode, committed RAM writes, state-register occupancy — and its
:class:`~repro.hw.trace.TraceRecorder` holds the full waveform.  A probe
turns those raw counters into one :class:`ProbeReport`:

* **mode occupancy** — cycles spent in normal / reconfiguration / reset
  mode (the paper's downtime argument: reconfiguration steals cycles
  from the application);
* **RAM writes** — committed F-RAM/G-RAM write cycles (write cycles ≈
  ``|Z|`` writes for a gradual migration, the Thm. 4.3 bound);
* **state-visit histogram** — how often the ST-REG held each state;
* **uninitialised-read incidents** — reads of never-written RAM words;
* **reconfiguration downtime** — cycles the machine was unavailable to
  external traffic (reconf + reset).

:func:`probe_hardware` reads a datapath; :func:`publish` pushes the
report into the metrics registry with caller-chosen labels (e.g. one
label set per suite workload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from . import instruments
from .metrics import REGISTRY


@dataclass
class ProbeReport:
    """Per-run hardware statistics (see module docstring)."""

    name: str
    cycles_total: int = 0
    cycles_normal: int = 0
    cycles_reconf: int = 0
    cycles_reset: int = 0
    ram_writes_f: int = 0
    ram_writes_g: int = 0
    state_visits: Dict[Any, int] = field(default_factory=dict)
    uninitialised_reads: int = 0
    trace_entries: int = 0
    trace_dropped: int = 0

    @property
    def ram_writes(self) -> int:
        """Total committed RAM writes (F-RAM + G-RAM)."""
        return self.ram_writes_f + self.ram_writes_g

    @property
    def downtime_cycles(self) -> int:
        """Cycles unavailable to external traffic (reconf + reset)."""
        return self.cycles_reconf + self.cycles_reset

    @property
    def availability(self) -> float:
        """Fraction of cycles serving external traffic (1.0 when idle)."""
        if self.cycles_total == 0:
            return 1.0
        return self.cycles_normal / self.cycles_total

    def rows(self) -> List[Dict[str, Any]]:
        """Table rows for :func:`repro.analysis.tables.format_table`."""
        rows = [
            {"probe": "cycles total", "value": self.cycles_total},
            {"probe": "cycles normal", "value": self.cycles_normal},
            {"probe": "cycles reconf", "value": self.cycles_reconf},
            {"probe": "cycles reset", "value": self.cycles_reset},
            {"probe": "reconfiguration downtime",
             "value": self.downtime_cycles},
            {"probe": "availability",
             "value": round(self.availability, 4)},
            {"probe": "RAM writes (F)", "value": self.ram_writes_f},
            {"probe": "RAM writes (G)", "value": self.ram_writes_g},
            {"probe": "uninitialised reads",
             "value": self.uninitialised_reads},
            {"probe": "trace entries", "value": self.trace_entries},
            {"probe": "trace entries dropped", "value": self.trace_dropped},
        ]
        return rows

    def render(self) -> str:
        """Readable multi-section report (mode occupancy + state visits)."""
        from ..analysis.tables import format_table

        sections = [
            format_table(self.rows(), title=f"hardware probes — {self.name}")
        ]
        if self.state_visits:
            visit_rows = [
                {"state": str(state), "visits": count}
                for state, count in sorted(
                    self.state_visits.items(),
                    key=lambda item: (-item[1], str(item[0])),
                )
            ]
            sections.append(
                format_table(visit_rows, title="state-visit histogram")
            )
        return "\n\n".join(sections)


def probe_hardware(hw) -> ProbeReport:
    """Snapshot the probe statistics of a :class:`HardwareFSM`."""
    trace = hw.trace
    return ProbeReport(
        name=hw.name,
        cycles_total=hw.cycles,
        cycles_normal=hw.mode_cycles.get("normal", 0),
        cycles_reconf=hw.mode_cycles.get("reconf", 0),
        cycles_reset=hw.mode_cycles.get("reset", 0),
        ram_writes_f=hw.f_ram.write_count,
        ram_writes_g=hw.g_ram.write_count,
        state_visits=dict(hw.state_visits),
        uninitialised_reads=hw.uninitialised_reads,
        trace_entries=len(trace),
        trace_dropped=getattr(trace, "dropped", 0),
    )


#: Pre-bound handle bundles for :func:`publish`, keyed by label set —
#: serving loops publish the same few label sets thousands of times.
_PUBLISH_HANDLES: Dict[Any, Dict[str, Any]] = {}


def _publish_handles(labels: Dict[str, Any]) -> Dict[str, Any]:
    key = tuple(sorted((k, str(v)) for k, v in labels.items()))
    handles = _PUBLISH_HANDLES.get(key)
    if handles is None:
        handles = _PUBLISH_HANDLES[key] = {
            "normal": instruments.HW_CYCLES.bind(mode="normal", **labels),
            "reconf": instruments.HW_CYCLES.bind(mode="reconf", **labels),
            "reset": instruments.HW_CYCLES.bind(mode="reset", **labels),
            "ram_f": instruments.HW_RAM_WRITES.bind(ram="f", **labels),
            "ram_g": instruments.HW_RAM_WRITES.bind(ram="g", **labels),
        }
    return handles


def publish(report: ProbeReport, **labels: Any) -> None:
    """Push a probe report into the default metrics registry.

    ``labels`` tag every series (e.g. ``workload="paper/fig6"``); a
    disabled registry makes this a cheap no-op.
    """
    if not REGISTRY.enabled:
        return
    handles = _publish_handles(labels)
    for mode, cycles in (
        ("normal", report.cycles_normal),
        ("reconf", report.cycles_reconf),
        ("reset", report.cycles_reset),
    ):
        if cycles:
            handles[mode].inc(cycles)
    if report.ram_writes_f:
        handles["ram_f"].inc(report.ram_writes_f)
    if report.ram_writes_g:
        handles["ram_g"].inc(report.ram_writes_g)
    # trace_dropped is NOT re-published: TraceRecorder increments the
    # (process-wide) repro_hw_trace_dropped_total counter live.
