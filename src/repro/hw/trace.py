"""Cycle-by-cycle trace recording and ASCII waveform rendering.

The hardware simulation records one row per clock cycle, read back as
:class:`TraceEntry` objects; :func:`render_waveform` turns a trace into
a compact textual waveform (one row per signal, one column per cycle)
for the examples and for eyeballing reconfiguration sequences the way
Fig. 4 draws them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Any, Deque, List, Optional, Sequence, Union

from ..obs import instruments as _instruments


@dataclass(frozen=True)
class TraceEntry:
    """One clock cycle of the Fig. 5 datapath.

    ``mode`` is ``"normal"``, ``"reconf"`` or ``"reset"``; the symbol
    fields hold *decoded* values (``None`` when a signal was garbage or
    don't-care that cycle).
    """

    cycle: int
    mode: str
    external_input: Optional[Any]
    internal_input: Optional[Any]
    state_before: Any
    state_after: Any
    output: Optional[Any]
    write: bool
    address: Optional[int] = None


_FIELDS = tuple(f.name for f in fields(TraceEntry))


class TraceRecorder:
    """Accumulates one row per clock cycle during simulation.

    A row is a plain tuple in :class:`TraceEntry` field order
    (:meth:`record_row`, the path the datapath clocks); :class:`TraceEntry`
    objects are built only when something reads :attr:`entries`,
    :meth:`column` or the iterator, and are cached until the next record.

    ``max_entries`` switches the recorder into ring-buffer mode: only
    the most recent ``max_entries`` rows are kept and ``dropped`` counts
    the evicted ones (also published to the metrics registry when it is
    enabled).  The default stays unbounded for waveform fidelity; bound
    it for long soak simulations so memory does not grow without limit.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self._rows: Union[List[tuple], Deque[tuple]] = (
            [] if max_entries is None else deque(maxlen=max_entries)
        )
        self._entries: Optional[List[TraceEntry]] = None
        self.dropped = 0

    def record(self, entry: TraceEntry) -> None:
        self.record_row(tuple(getattr(entry, name) for name in _FIELDS))

    def record_row(self, row: tuple) -> None:
        """Record one cycle given as a tuple in :class:`TraceEntry`
        field order."""
        rows = self._rows
        if len(rows) == self.max_entries:
            # The bounded deque evicts the oldest row on append.
            self.dropped += 1
            _instruments.HW_TRACE_DROPPED.inc()
        rows.append(row)
        self._entries = None

    @property
    def entries(self) -> List[TraceEntry]:
        """The recorded cycles, oldest first (a cached list: read it,
        do not mutate it)."""
        if self._entries is None:
            self._entries = [TraceEntry(*row) for row in self._rows]
        return self._entries

    def clear(self) -> None:
        self._rows.clear()
        self._entries = None
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self.entries)

    def column(self, signal: str) -> List[Any]:
        """All values of one signal, in cycle order."""
        return [getattr(entry, signal) for entry in self.entries]


DEFAULT_SIGNALS = (
    "mode",
    "external_input",
    "internal_input",
    "state_before",
    "state_after",
    "output",
    "write",
)


def render_waveform(
    trace: TraceRecorder,
    signals: Sequence[str] = DEFAULT_SIGNALS,
    max_cycles: Optional[int] = None,
) -> str:
    """Render a trace as an aligned textual waveform.

    Each signal becomes one row; cells are padded to the widest value in
    their column.  ``None`` renders as ``-`` (don't care / garbage).

    >>> rec = TraceRecorder()
    >>> rec.record(TraceEntry(0, "normal", "1", "1", "S0", "S1", "0", False))
    >>> print(render_waveform(rec, signals=("mode", "output")))
    cycle  | 0
    mode   | normal
    output | 0
    """
    entries = trace.entries[:max_cycles] if max_cycles else trace.entries
    if not entries:
        return "(empty trace)"

    def cell(value: Any) -> str:
        if value is None:
            return "-"
        if value is True:
            return "W"
        if value is False:
            return "."
        return str(value)

    header = ["cycle"] + [str(e.cycle) for e in entries]
    rows: List[List[str]] = [header]
    for signal in signals:
        rows.append([signal] + [cell(getattr(e, signal)) for e in entries])

    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = []
    for row in rows:
        label = row[0].ljust(widths[0])
        cells = " ".join(
            row[col].ljust(widths[col]) for col in range(1, len(row))
        )
        lines.append(f"{label} | {cells}".rstrip())
    return "\n".join(lines)
