"""Run-level measurement for the Gamma machine.

The paper's evaluation criterion is *throughput* (queries per second) as
a function of the multiprogramming level, measured in steady state.  We
additionally collect per-query-type response times and resource
utilizations, which §7 uses to explain each result.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..des import Environment, Event, TallyMonitor
from .probes import NO_PROBES, Probes

__all__ = ["RunMetrics", "RunResult", "NodeUsageView"]


class NodeUsageView:
    """Array-backed accessors over a node list's cumulative counters.

    At P=1024 sites, per-node telemetry (one sampler closure and one
    ``resource_usage()`` dict entry per counter per node per tick) costs
    thousands of Python-level reads per sample.  This view gathers each
    counter family into one NumPy array per call, so aggregate consumers
    (imbalance spread probes, mean-utilization rates, usage totals) pay
    a single probe regardless of machine size.  The reads are the same
    cumulative counters the per-node probes use; nothing about the
    simulation is touched.
    """

    __slots__ = ("_nodes", "_buffered")

    def __init__(self, nodes):
        self._nodes = list(nodes)
        self._buffered = [n for n in self._nodes
                          if n.buffer_pool is not None]

    def __len__(self) -> int:
        return len(self._nodes)

    def cpu_busy(self) -> np.ndarray:
        """Per-node cumulative CPU busy-seconds."""
        nodes = self._nodes
        return np.fromiter((n.cpu.busy_seconds for n in nodes),
                           dtype=np.float64, count=len(nodes))

    def disk_busy(self) -> np.ndarray:
        """Per-node cumulative disk busy-seconds."""
        nodes = self._nodes
        return np.fromiter((n.disk.busy_seconds for n in nodes),
                           dtype=np.float64, count=len(nodes))

    def disk_queue(self) -> np.ndarray:
        """Per-node instantaneous disk queue length."""
        nodes = self._nodes
        return np.fromiter((n.disk.queue_length for n in nodes),
                           dtype=np.float64, count=len(nodes))

    def buffer_hits_total(self) -> float:
        """Machine-wide cumulative buffer-pool hits."""
        return float(sum(n.buffer_pool.hits for n in self._buffered))

    def buffer_accesses_total(self) -> float:
        """Machine-wide cumulative buffer-pool hits + misses."""
        return float(sum(n.buffer_pool.hits + n.buffer_pool.misses
                         for n in self._buffered))


class RunMetrics:
    """Online statistics during a simulation run."""

    def __init__(self, env: Environment, probes: Probes = NO_PROBES):
        self.env = env
        self.completed_total = 0
        self.completed_window = 0
        self.window_start = env.now
        self.response_times: Dict[str, TallyMonitor] = {}
        self._watchers: List[Tuple[int, Event]] = []
        self._completion_times: List[float] = []
        self._completed = probes.on_query_completed

    def record_completion(self, query_type: str, response_time: float) -> None:
        """Record one finished query."""
        self.completed_total += 1
        self.completed_window += 1
        self._completion_times.append(self.env.now)
        monitor = self.response_times.get(query_type)
        if monitor is None:
            monitor = TallyMonitor(query_type)
            self.response_times[query_type] = monitor
        monitor.record(response_time)
        for hook in self._completed:
            hook(query_type, response_time)
        for count, event in list(self._watchers):
            if self.completed_total >= count and not event.triggered:
                event.succeed(self.completed_total)
                self._watchers.remove((count, event))

    def throughput_confidence(self, batches: int = 10,
                              confidence: float = 0.95) -> float:
        """Half-width of a batch-means confidence interval on throughput.

        Splits the measurement window into equal-duration batches,
        treats per-batch throughputs as (approximately) independent
        samples, and returns ``t * s / sqrt(n)``.  Returns ``math.nan``
        when the window is too short to form batches -- a 0.0 here would
        be indistinguishable from a perfectly tight interval.
        """
        if batches < 2:
            raise ValueError("need at least 2 batches")
        times = [t for t in self._completion_times if t >= self.window_start]
        span = self.env.now - self.window_start
        if span <= 0 or len(times) < batches:
            return math.nan
        width = span / batches
        counts = [0] * batches
        for t in times:
            index = min(int((t - self.window_start) / width), batches - 1)
            counts[index] += 1
        rates = [c / width for c in counts]
        mean = sum(rates) / batches
        var = sum((r - mean) ** 2 for r in rates) / (batches - 1)
        try:
            from scipy import stats
            t_value = float(stats.t.ppf(0.5 + confidence / 2, batches - 1))
        except ImportError:  # pragma: no cover - scipy is a test dep
            t_value = 2.262  # t(0.975, 9)
        return t_value * (var ** 0.5) / (batches ** 0.5)

    def on_completion_count(self, count: int) -> Event:
        """Event fired when total completions reach *count*."""
        event = Event(self.env)
        if self.completed_total >= count:
            event.succeed(self.completed_total)
        else:
            self._watchers.append((count, event))
        return event

    def reset_window(self) -> None:
        """Start the measurement window (end of warm-up)."""
        self.completed_window = 0
        self.window_start = self.env.now
        self._completion_times.clear()
        for monitor in self.response_times.values():
            monitor.reset()

    def throughput(self) -> float:
        """Queries per second over the current window."""
        elapsed = self.env.now - self.window_start
        if elapsed <= 0:
            return 0.0
        return self.completed_window / elapsed

    def mean_response_time(self, query_type: Optional[str] = None) -> float:
        """Mean response time of one type, or overall when None."""
        if query_type is not None:
            monitor = self.response_times.get(query_type)
            return monitor.mean if monitor else 0.0
        total = sum(m.total for m in self.response_times.values())
        count = sum(m.count for m in self.response_times.values())
        return total / count if count else 0.0


@dataclass(frozen=True)
class RunResult:
    """Summary of one (strategy, mix, correlation, MPL) simulation run."""

    multiprogramming_level: int
    throughput: float
    completed: int
    elapsed_seconds: float
    response_time_mean: float
    response_time_by_type: Dict[str, float] = field(default_factory=dict)
    cpu_utilization: float = 0.0
    disk_utilization: float = 0.0
    scheduler_cpu_utilization: float = 0.0
    messages_sent: int = 0
    #: 95% batch-means confidence half-width on the throughput.
    throughput_ci: float = 0.0

    def to_json_dict(self) -> Dict:
        """A JSON-serializable dictionary that round-trips losslessly.

        Results cross process boundaries (parallel executors pickle
        them) and session boundaries (the result cache and saved figure
        artifacts store them as JSON); both transports must reproduce
        the dataclass exactly, NaN confidence intervals included.
        """
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "RunResult":
        """Rebuild a result from :meth:`to_json_dict` output."""
        return cls(**payload)

    def __str__(self) -> str:
        by_type = ", ".join(f"{k}={v * 1000:.1f}ms"
                            for k, v in sorted(self.response_time_by_type.items()))
        return (f"MPL={self.multiprogramming_level:3d} "
                f"throughput={self.throughput:7.2f} q/s "
                f"rt={self.response_time_mean * 1000:7.1f}ms ({by_type}) "
                f"cpu={self.cpu_utilization:.2f} disk={self.disk_utilization:.2f}")
