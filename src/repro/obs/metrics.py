"""Process-wide metrics registry: counters, gauges and histograms.

The paper's evaluation revolves around a handful of counted quantities —
program length ``|Z|``, delta-transition count ``|T_d|``, RAM write
cycles, cycles spent in reconfiguration versus normal mode (Sec. 4,
Table 2).  Historically each benchmark and CLI command recomputed and
printed them ad hoc; this module gives them one home.

Design constraints, in order:

* **no-op cheap when disabled** — every hot path in the simulator and
  the synthesisers calls ``metric.inc(...)`` unconditionally, so a
  disabled registry must cost one attribute load and one branch;
* **thread-safe** — campaign sweeps may fan out over threads; a single
  registry lock guards all value mutation;
* **exportable** — :meth:`MetricsRegistry.snapshot` returns plain JSON
  data, :meth:`MetricsRegistry.render_prometheus` the standard text
  exposition format, so the CLI can serve either.

The module-level :data:`REGISTRY` is the process default (disabled until
:func:`enable` or ``repro --metrics ...`` turns it on); libraries create
their metric handles at import time via :func:`counter` /
:func:`gauge` / :func:`histogram` — creation is idempotent, so several
modules may name the same metric.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named family of labelled time series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._registry = registry
        self._values: Dict[LabelKey, Any] = {}

    def _check_labels(self, labels: Dict[str, Any]) -> LabelKey:
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        return _label_key(labels)

    def clear(self) -> None:
        """Drop all recorded values (the family itself stays registered)."""
        with self._registry._lock:
            self._values.clear()

    def labelled(self) -> List[Dict[str, str]]:
        """The label sets observed so far, as plain dicts."""
        with self._registry._lock:
            return [dict(key) for key in self._values]


class BoundCounter:
    """A counter pre-bound to one label set (hot-path handle).

    Label validation and key canonicalisation happen once, at
    :meth:`Counter.bind` time; each :meth:`inc` is one enabled-branch,
    one lock, one dict update.  Handles survive
    :meth:`MetricsRegistry.reset` (values clear, the handle stays
    bound to the same series key).
    """

    __slots__ = ("_registry", "_values", "_key")

    def __init__(self, metric: "Counter", key: LabelKey):
        self._registry = metric._registry
        self._values = metric._values
        self._key = key

    def inc(self, amount: float = 1) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            self._values[self._key] = self._values.get(self._key, 0) + amount


class Counter(Metric):
    """Monotonically increasing count (e.g. RAM writes, cycles)."""

    kind = "counter"

    def bind(self, **labels: Any) -> BoundCounter:
        """A pre-bound handle for one label set (see the handle docs)."""
        return BoundCounter(self, self._check_labels(labels))

    def inc(self, amount: float = 1, **labels: Any) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._check_labels(labels)
        with registry._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        """Current count for one label set (0 when never incremented)."""
        with self._registry._lock:
            return self._values.get(_label_key(labels), 0)


class BoundGauge:
    """A gauge pre-bound to one label set (hot-path handle)."""

    __slots__ = ("_registry", "_values", "_key")

    def __init__(self, metric: "Gauge", key: LabelKey):
        self._registry = metric._registry
        self._values = metric._values
        self._key = key

    def set(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            self._values[self._key] = value

    def inc(self, amount: float = 1) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            self._values[self._key] = self._values.get(self._key, 0) + amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)


class Gauge(Metric):
    """A value that can go up and down (e.g. best length so far)."""

    kind = "gauge"

    def bind(self, **labels: Any) -> BoundGauge:
        """A pre-bound handle for one label set."""
        return BoundGauge(self, self._check_labels(labels))

    def set(self, value: float, **labels: Any) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        key = self._check_labels(labels)
        with registry._lock:
            self._values[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        key = self._check_labels(labels)
        with registry._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> Optional[float]:
        """Current value, or ``None`` when never set."""
        with self._registry._lock:
            return self._values.get(_label_key(labels))


#: Generic count-style default buckets (program lengths, cycle counts).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, math.inf,
)

#: Wall-time buckets in seconds (fleet serving-run durations).
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, math.inf,
)


class Histogram(Metric):
    """Bucketed distribution with count / sum / min / max per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        registry: "MetricsRegistry",
        buckets: Optional[Iterable[float]] = None,
    ):
        super().__init__(name, help, registry)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        key = self._check_labels(labels)
        with registry._lock:
            self._observe_key(key, value, 1)

    def bind(
        self, *, sample_shift: int = 0, **labels: Any
    ) -> "BoundHistogram":
        """A pre-bound handle for one label set.

        ``sample_shift`` turns on power-of-two sampled recording: only
        every ``2**sample_shift``-th observation is recorded, with
        weight ``2**sample_shift``, so ``count`` / ``sum`` / bucket
        occupancy stay unbiased estimates while the hot path skips the
        lock on the other ``2**sample_shift - 1`` calls.  ``min`` /
        ``max`` cover the sampled observations only.
        """
        if sample_shift < 0:
            raise ValueError("sample_shift must be non-negative")
        return BoundHistogram(
            self, self._check_labels(labels), sample_shift=sample_shift
        )

    def _observe_key(self, key: LabelKey, value: float, weight: int) -> None:
        """Record ``value`` with ``weight`` under the registry lock
        (callers hold ``registry._lock``)."""
        series = self._values.get(key)
        if series is None:
            series = {
                "count": 0,
                "sum": 0.0,
                "min": math.inf,
                "max": -math.inf,
                "bucket_counts": [0] * len(self.buckets),
            }
            self._values[key] = series
        series["count"] += weight
        series["sum"] += value * weight
        series["min"] = min(series["min"], value)
        series["max"] = max(series["max"], value)
        for idx, bound in enumerate(self.buckets):
            if value <= bound:
                series["bucket_counts"][idx] += weight
                break

    def count(self, **labels: Any) -> int:
        with self._registry._lock:
            series = self._values.get(_label_key(labels))
            return series["count"] if series else 0

    def series(self, **labels: Any) -> Optional[Dict[str, Any]]:
        """A copy of one label set's series dict (``None`` if absent)."""
        with self._registry._lock:
            series = self._values.get(_label_key(labels))
            if series is None:
                return None
            out = dict(series)
            out["bucket_counts"] = list(series["bucket_counts"])
            return out

    def sum(self, **labels: Any) -> float:
        with self._registry._lock:
            series = self._values.get(_label_key(labels))
            return series["sum"] if series else 0.0


class BoundHistogram:
    """A histogram handle pre-bound to one label set, optionally sampled.

    With ``sample_shift=0`` every :meth:`observe` records (weight 1).
    With ``sample_shift=k`` a power-of-two sampling counter admits one
    observation in ``2**k``, recorded with weight ``2**k``.  The
    sampling tick is a plain int increment — no lock, GIL-atomic
    enough; a rare lost tick under free-threading merely shifts which
    observation is sampled.
    """

    __slots__ = ("_registry", "_metric", "_key", "_mask", "_weight", "_tick")

    def __init__(
        self, metric: "Histogram", key: LabelKey, sample_shift: int = 0
    ):
        self._registry = metric._registry
        self._metric = metric
        self._key = key
        self._mask = (1 << sample_shift) - 1
        self._weight = 1 << sample_shift
        self._tick = 0

    @property
    def sample_rate(self) -> int:
        """Observations per recorded sample (1 = record everything)."""
        return self._weight

    def observe(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        tick = self._tick
        self._tick = tick + 1
        if tick & self._mask:
            return
        with registry._lock:
            self._metric._observe_key(self._key, value, self._weight)


class MetricsRegistry:
    """Holds metric families and exports them.

    ``enabled`` gates all writes; reads (values, snapshots, rendering)
    always work so tests and reports can inspect whatever was recorded.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Clear every family's values (families stay registered)."""
        for metric in list(self._metrics.values()):
            metric.clear()

    # -- registration ---------------------------------------------------
    def _register(self, cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help, self, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter family."""
        return self._register(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge family."""
        return self._register(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """Get or create a histogram family."""
        return self._register(  # type: ignore[return-value]
            Histogram, name, help, buckets=buckets
        )

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __iter__(self):
        return iter(self._metrics.values())

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe snapshot of every family with recorded values."""
        out: Dict[str, Any] = {}
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                if not metric._values:
                    continue
                entry: Dict[str, Any] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "values": [],
                }
                for key, value in sorted(metric._values.items()):
                    point: Dict[str, Any] = {"labels": dict(key)}
                    if metric.kind == "histogram":
                        buckets = {
                            ("+Inf" if math.isinf(b) else _num(b)): c
                            for b, c in zip(
                                metric.buckets, value["bucket_counts"]
                            )
                        }
                        point.update(
                            count=value["count"],
                            sum=value["sum"],
                            min=value["min"],
                            max=value["max"],
                            buckets=buckets,
                        )
                    else:
                        point["value"] = value
                    entry["values"].append(point)
                out[name] = entry
        return out

    def to_json(self, indent: int = 2) -> str:
        """The snapshot serialised as JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        lines: List[str] = []
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                if not metric._values:
                    continue
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for key, value in sorted(metric._values.items()):
                    if metric.kind == "histogram":
                        cumulative = 0
                        for bound, count in zip(
                            metric.buckets, value["bucket_counts"]
                        ):
                            cumulative += count
                            le = "+Inf" if math.isinf(bound) else _num(bound)
                            lines.append(
                                f"{name}_bucket"
                                f"{_render_labels(key, extra=('le', le))} "
                                f"{cumulative}"
                            )
                        lines.append(
                            f"{name}_sum{_render_labels(key)} "
                            f"{_num(value['sum'])}"
                        )
                        lines.append(
                            f"{name}_count{_render_labels(key)} "
                            f"{value['count']}"
                        )
                    else:
                        lines.append(
                            f"{name}{_render_labels(key)} {_num(value)}"
                        )
        return "\n".join(lines) + ("\n" if lines else "")


def _num(value: float) -> str:
    """Render a number the way Prometheus likes it (ints without .0)."""
    if isinstance(value, float) and value.is_integer() and not math.isinf(value):
        return str(int(value))
    return str(value)


def _render_labels(
    key: LabelKey, extra: Optional[Tuple[str, str]] = None
) -> str:
    pairs = list(key)
    if extra is not None:
        pairs = pairs + [extra]
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


#: The process-wide default registry (disabled until configured).
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "") -> Counter:
    """Get or create a counter on the default registry."""
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """Get or create a gauge on the default registry."""
    return REGISTRY.gauge(name, help)


def histogram(
    name: str, help: str = "", buckets: Optional[Iterable[float]] = None
) -> Histogram:
    """Get or create a histogram on the default registry."""
    return REGISTRY.histogram(name, help, buckets=buckets)


def enable() -> None:
    """Turn on value recording on the default registry."""
    REGISTRY.enable()


def disable() -> None:
    """Turn off value recording on the default registry."""
    REGISTRY.disable()
