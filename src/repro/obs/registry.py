"""The metrics registry: named instruments for simulation telemetry.

Four instrument kinds cover what the Gamma model needs to explain its
own behavior:

* :class:`Counter` -- a monotonically increasing total (disk reads,
  messages sent);
* :class:`Gauge` -- a point-in-time level (queue length, in-flight
  queries);
* :class:`Histogram` -- a distribution of observations with fixed
  bucket bounds (disk queue waits, span durations);
* :class:`Timeline` -- a bounded series of ``(time, value)`` samples,
  the substrate of per-resource utilization timelines.

Instruments live in a :class:`MetricsRegistry` under hierarchical
dot-separated names (``node.3.disk.reads``); fetching an existing name
returns the same instrument.  A run without telemetry has no registry at
all: the instruments are updated by the telemetry's lifecycle hooks
(:mod:`repro.gamma.probes`), which such a run never subscribes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timeline",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds, log-spaced): 10 us .. 10 s.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** e for e in (-5, -4.5, -4, -3.5, -3, -2.5, -2, -1.5, -1, -0.5,
                        0, 0.5, 1))


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def as_dict(self) -> Dict:
        return {"name": self.name, "type": self.kind, "value": self.value}


class Gauge:
    """A point-in-time level."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0

    def as_dict(self) -> Dict:
        return {"name": self.name, "type": self.kind, "value": self.value}


class Histogram:
    """A distribution over fixed bucket bounds (cumulative, Prometheus-style).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; an implicit
    ``+Inf`` bucket equals :attr:`count`.
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty ascending")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * len(self.bounds)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.bucket_counts = [0] * len(self.bounds)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def as_dict(self) -> Dict:
        return {"name": self.name, "type": self.kind, "count": self.count,
                "sum": self.total, "mean": self.mean,
                "min": self.minimum if self.count else None,
                "max": self.maximum if self.count else None,
                "buckets": [{"le": le, "count": c}
                            for le, c in zip(self.bounds, self.bucket_counts)]}


class Timeline:
    """A bounded series of timestamped samples.

    Keeps at most *capacity* points; older samples are dropped (and
    counted in :attr:`dropped`) so a long run cannot exhaust memory.
    """

    kind = "timeline"
    __slots__ = ("name", "capacity", "points", "dropped")

    def __init__(self, name: str, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("timeline capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.points: List[Tuple[float, float]] = []
        self.dropped = 0

    def sample(self, time: float, value: float) -> None:
        if len(self.points) >= self.capacity:
            del self.points[0]
            self.dropped += 1
        self.points.append((time, value))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    def mean(self) -> float:
        if not self.points:
            return 0.0
        return sum(v for _, v in self.points) / len(self.points)

    def reset(self) -> None:
        self.points.clear()
        self.dropped = 0

    def as_dict(self) -> Dict:
        return {"name": self.name, "type": self.kind,
                "samples": len(self.points), "dropped": self.dropped,
                "mean": self.mean(),
                "points": [[t, v] for t, v in self.points]}


class MetricsRegistry:
    """Instruments addressed by hierarchical dot-separated names."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, bounds)

    def timeline(self, name: str, capacity: int = 100_000) -> Timeline:
        return self._get(name, Timeline, capacity)

    def get(self, name: str):
        """The instrument registered under *name*, or None."""
        return self._metrics.get(name)

    def __iter__(self) -> Iterator:
        """All instruments, sorted by name."""
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every instrument (start of the measurement window)."""
        for metric in self._metrics.values():
            metric.reset()
