"""Experiment campaign runner: factor sweeps, collection, CSV export.

The benchmark harness regenerates the paper's artifacts; research use of
the library wants *new* sweeps — "program length over |S| × |Td| ×
heuristic, 5 repeats, to CSV".  :class:`Campaign` runs the full
factorial of declared factors through a measurement function and
collects flat result rows; :class:`Results` exports CSV (stdlib only)
and computes grouped summaries.
"""

from __future__ import annotations

import csv
import io
import itertools
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from ..obs.tracing import span as _span


@dataclass(frozen=True)
class Factor:
    """One experimental factor and its levels."""

    name: str
    levels: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError(f"factor {self.name!r} needs at least one level")


Measurement = Callable[..., Dict[str, Any]]


class Campaign:
    """A full-factorial experiment over declared factors.

    ``measure`` receives one keyword argument per factor plus ``repeat``
    (the repetition index, also usable as a seed) and returns a dict of
    measured values.  Rows combine factor settings and measurements.

    >>> campaign = Campaign(
    ...     "demo",
    ...     [Factor("x", (1, 2))],
    ...     measure=lambda x, repeat: {"y": x * 10 + repeat},
    ...     repeats=2,
    ... )
    >>> results = campaign.run()
    >>> len(results.rows)
    4
    >>> results.rows[0]["y"]
    10
    """

    def __init__(
        self,
        name: str,
        factors: Sequence[Factor],
        measure: Measurement,
        repeats: int = 1,
    ):
        if repeats < 1:
            raise ValueError("repeats must be positive")
        names = [f.name for f in factors]
        if len(set(names)) != len(names):
            raise ValueError("factor names must be unique")
        self.name = name
        self.factors = list(factors)
        self.measure = measure
        self.repeats = repeats

    def design_points(self) -> List[Dict[str, Any]]:
        """The factorial design: one dict of factor settings per point."""
        if not self.factors:
            return [{}]
        return [
            dict(zip((f.name for f in self.factors), combo))
            for combo in itertools.product(*(f.levels for f in self.factors))
        ]

    def run(self) -> "Results":
        """Execute every design point ``repeats`` times.

        Each measurement cell runs inside a ``campaign.cell`` span that
        carries the factor settings.
        """
        rows: List[Dict[str, Any]] = []
        with _span("campaign.run", campaign=self.name):
            for point in self.design_points():
                for repeat in range(self.repeats):
                    point_attrs = {
                        f"factor_{k}": str(v) for k, v in point.items()
                    }
                    with _span(
                        "campaign.cell",
                        campaign=self.name,
                        repeat=repeat,
                        **point_attrs,
                    ):
                        measured = self.measure(**point, repeat=repeat)
                    row = dict(point)
                    row["repeat"] = repeat
                    overlap = set(row) & set(measured)
                    if overlap:
                        raise ValueError(
                            f"measurement keys {sorted(overlap)} collide "
                            "with factor names"
                        )
                    row.update(measured)
                    rows.append(row)
        return Results(campaign=self.name, rows=rows)


@dataclass
class Results:
    """Collected campaign rows with export and summary helpers."""

    campaign: str
    rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def columns(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def to_csv(self, stream: Union[TextIO, str, None] = None) -> Optional[str]:
        """Write CSV to a path/stream, or return it as a string."""
        if isinstance(stream, str):
            with open(stream, "w", newline="") as handle:
                self._write_csv(handle)
            return None
        if stream is None:
            buffer = io.StringIO()
            self._write_csv(buffer)
            return buffer.getvalue()
        self._write_csv(stream)
        return None

    def _write_csv(self, handle: TextIO) -> None:
        writer = csv.DictWriter(handle, fieldnames=self.columns)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)

    @classmethod
    def from_csv(cls, stream: Union[TextIO, str], campaign: str = "loaded"
                 ) -> "Results":
        """Load rows back (values come back as strings, numerics parsed)."""

        def parse(value: str) -> Any:
            for cast in (int, float):
                try:
                    return cast(value)
                except ValueError:
                    continue
            return value

        if isinstance(stream, str):
            with open(stream, newline="") as handle:
                reader = list(csv.DictReader(handle))
        else:
            reader = list(csv.DictReader(stream))
        rows = [
            {key: parse(value) for key, value in row.items()} for row in reader
        ]
        return cls(campaign=campaign, rows=rows)

    def summary(
        self, by: Sequence[str], value: str, agg: str = "mean"
    ) -> List[Dict[str, Any]]:
        """Aggregate ``value`` grouped by the ``by`` columns.

        ``agg`` ∈ {"mean", "median", "min", "max", "count"}.
        """
        functions = {
            "mean": statistics.fmean,
            "median": statistics.median,
            "min": min,
            "max": max,
            "count": len,
        }
        if agg not in functions:
            raise ValueError(f"unknown aggregation {agg!r}")
        groups: Dict[Tuple, List[Any]] = {}
        for row in self.rows:
            key = tuple(row[col] for col in by)
            groups.setdefault(key, []).append(row[value])
        result = []
        for key in sorted(groups, key=str):
            entry = dict(zip(by, key))
            entry[f"{agg}({value})"] = functions[agg](groups[key])
            result.append(entry)
        return result

    def filter(self, **conditions) -> "Results":
        """Rows matching all equality conditions."""
        rows = [
            row
            for row in self.rows
            if all(row.get(col) == val for col, val in conditions.items())
        ]
        return Results(campaign=self.campaign, rows=rows)

    def __len__(self) -> int:
        return len(self.rows)
