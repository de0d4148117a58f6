"""Process-wide metrics: labelled counters, gauges, and histograms.

The registry is the single source of truth for operational counters across
the stack (program/kernel builds, cache hits, serve queue depth, task
retries).  Design constraints, in order:

* **Thread-safe** — serve's asyncio loop, the kernel thread pool, and the
  resilience pool's collector thread all touch the registry concurrently.
  Each metric guards its value table with its own lock; the registry lock
  only covers registration.
* **Near-zero cost when disabled** — ``set_metrics_enabled(False)`` turns
  every non-essential update into a single attribute check and return.
  Metrics marked ``essential=True`` (the build counters that back-compat
  module attributes and ``serve`` stats read) keep counting regardless,
  because tests and the coalescing server depend on them.
* **Cross-process mergeable** — counters snapshot to plain dicts so
  forkserver shard workers can ship *deltas* back in their result
  envelopes (see :mod:`repro.resilience.runner`); deltas, not absolutes,
  so warm reused workers never double-count.

Rendering follows the Prometheus text exposition format (0.0.4) so the
serve HTTP frontend can answer ``GET /metrics`` for any scraper.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
]

LabelKey = Tuple[Tuple[str, str], ...]

# Serve job latencies sit in the 10ms..10s range; coalesce group sizes in
# 1..64.  One generic bucket ladder covers both without per-metric tuning.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, math.inf,
)


class MetricError(ValueError):
    """Invalid metric usage: bad name, kind clash, or negative increment."""


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = ['%s="%s"' % (k, _escape_label(v)) for k, v in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{%s}" % ",".join(parts)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared plumbing: name/help, per-metric lock, labelled value table."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str = "", essential: bool = False) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.essential = essential
        self._lock = threading.Lock()
        self._values: Dict[LabelKey, object] = {}

    def _recording(self) -> bool:
        return self._registry.enabled or self.essential

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    def label_keys(self) -> List[LabelKey]:
        with self._lock:
            return sorted(self._values)

    def render(self) -> List[str]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise MetricError(
                "counter %s cannot decrease (inc %r)" % (self.name, amount))
        if not self._recording():
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount  # type: ignore[operator]

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._values.get(_label_key(labels), 0.0))  # type: ignore[arg-type]

    def total(self) -> float:
        """Sum across every label combination (back-compat aliases use this)."""
        with self._lock:
            return float(sum(self._values.values()))  # type: ignore[arg-type]

    def snapshot(self) -> Dict[LabelKey, float]:
        with self._lock:
            return {k: float(v) for k, v in self._values.items()}  # type: ignore[arg-type]

    def merge_delta(self, key: LabelKey, amount: float) -> None:
        if amount <= 0:
            return
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount  # type: ignore[operator]

    def render(self) -> List[str]:
        lines = [
            "# HELP %s %s" % (self.name, self.help or self.name),
            "# TYPE %s counter" % self.name,
        ]
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            items = [((), 0.0)]
        for key, value in items:
            lines.append("%s%s %s" % (
                self.name, _render_labels(key), _format_value(float(value))))  # type: ignore[arg-type]
        return lines


class Gauge(_Metric):
    """A value that can go up and down (queue depth, pool size)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        if not self._recording():
            return
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._recording():
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = float(self._values.get(key, 0.0)) + amount  # type: ignore[arg-type]

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._values.get(_label_key(labels), 0.0))  # type: ignore[arg-type]

    def render(self) -> List[str]:
        lines = [
            "# HELP %s %s" % (self.name, self.help or self.name),
            "# TYPE %s gauge" % self.name,
        ]
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            items = [((), 0.0)]
        for key, value in items:
            lines.append("%s%s %s" % (
                self.name, _render_labels(key), _format_value(float(value))))  # type: ignore[arg-type]
        return lines


class _HistogramState:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Distribution with cumulative buckets (latencies, group sizes)."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "",
                 essential: bool = False,
                 buckets: Optional[Iterable[float]] = None) -> None:
        super().__init__(registry, name, help, essential)
        bounds = tuple(sorted(set(buckets))) if buckets else DEFAULT_BUCKETS
        if not bounds or bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        self.observe_many((value,), **labels)

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        """Observe each value in order under one lock and one label key:
        the same buckets, sum and count as one :meth:`observe` per value."""
        if not self._recording():
            return
        key = _label_key(labels)
        with self._lock:
            state = self._values.get(key)
            if state is None:
                state = self._values[key] = _HistogramState(len(self.buckets))
            assert isinstance(state, _HistogramState)
            for value in values:
                for i, bound in enumerate(self.buckets):
                    if value <= bound:
                        state.bucket_counts[i] += 1
                        break
                state.sum += value
                state.count += 1

    def count(self, **labels: object) -> int:
        with self._lock:
            state = self._values.get(_label_key(labels))
            return state.count if isinstance(state, _HistogramState) else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            state = self._values.get(_label_key(labels))
            return state.sum if isinstance(state, _HistogramState) else 0.0

    def render(self) -> List[str]:
        lines = [
            "# HELP %s %s" % (self.name, self.help or self.name),
            "# TYPE %s histogram" % self.name,
        ]
        with self._lock:
            items = sorted(
                (k, (list(s.bucket_counts), s.sum, s.count))  # type: ignore[union-attr]
                for k, s in self._values.items())
        for key, (bucket_counts, total, count) in items:
            cumulative = 0
            for bound, n in zip(self.buckets, bucket_counts):
                cumulative += n
                le = 'le="%s"' % _format_value(bound)
                lines.append("%s_bucket%s %d" % (
                    self.name, _render_labels(key, le), cumulative))
            lines.append("%s_sum%s %s" % (
                self.name, _render_labels(key), _format_value(total)))
            lines.append("%s_count%s %d" % (
                self.name, _render_labels(key), count))
        return lines


class MetricsRegistry:
    """Name → metric table with get-or-create semantics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self.enabled = True

    # -------------------------------------------------------- registration

    def _get_or_create(self, cls, name: str, help: str, essential: bool,
                       **kwargs) -> _Metric:
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise MetricError("invalid metric name %r" % (name,))
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(self, name, help, essential, **kwargs)
                self._metrics[name] = metric
            elif type(metric) is not cls:
                raise MetricError(
                    "metric %s already registered as %s, requested %s"
                    % (name, metric.kind, cls.kind))
            return metric

    def counter(self, name: str, help: str = "",
                essential: bool = False) -> Counter:
        return self._get_or_create(Counter, name, help, essential)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              essential: bool = False) -> Gauge:
        return self._get_or_create(Gauge, name, help, essential)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "", essential: bool = False,
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, essential, buckets=buckets)  # type: ignore[return-value]

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # ------------------------------------------------------------- control

    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def reset(self) -> None:
        """Zero every value; registrations (and cached handles) survive."""
        for metric in self.metrics():
            metric.clear()

    # -------------------------------------------------- cross-process sync

    def counters_snapshot(self) -> Dict[str, Dict[LabelKey, float]]:
        return {
            m.name: m.snapshot()
            for m in self.metrics() if isinstance(m, Counter)
        }

    def counter_deltas(
        self, baseline: Mapping[str, Mapping[LabelKey, float]],
    ) -> Dict[str, Dict[LabelKey, float]]:
        """Per-label counter growth since ``baseline`` (a prior snapshot)."""
        deltas: Dict[str, Dict[LabelKey, float]] = {}
        for name, values in self.counters_snapshot().items():
            before = baseline.get(name, {})
            grown = {
                key: value - before.get(key, 0.0)
                for key, value in values.items()
                if value > before.get(key, 0.0)
            }
            if grown:
                deltas[name] = grown
        return deltas

    def merge_counter_deltas(
        self, deltas: Mapping[str, Mapping[LabelKey, float]],
    ) -> None:
        for name, values in deltas.items():
            metric = self.get(name)
            if metric is None:
                metric = self.counter(name)
            if not isinstance(metric, Counter):
                continue
            for key, amount in values.items():
                metric.merge_delta(tuple(tuple(pair) for pair in key), amount)

    # ----------------------------------------------------------- rendering

    def render_prometheus(self) -> str:
        lines: List[str] = []
        for metric in self.metrics():
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""
