"""The telemetry bundle of one simulation run.

One :class:`Telemetry` object per :class:`~repro.gamma.machine.
GammaMachine` bundles the collection surfaces -- metrics registry, span
log, utilization timeline sampler, latency sketches.  It is a subscriber
of the machine's :class:`~repro.gamma.probes.Probes` list: the
``on_*`` methods below are the lifecycle moments it watches, and a
machine built without telemetry pays nothing for any of them.

Construction is two-phase because a telemetry object is usually created
by the CLI before any simulation environment exists: ``Telemetry()``
carries configuration; the machine's ``attach`` moment calls
:meth:`attach`, which binds the environment (materializing the span log
and sampler) and wires the registry instruments and sampler probes to
the built machine.  A telemetry object binds to exactly one environment
(one run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..des.environment import Environment
from ..gamma.machine import PER_NODE_TELEMETRY_LIMIT
from .registry import MetricsRegistry
from .sampler import TimelineSampler
from .sketch import LatencyRecorder
from .spans import QueryTrace, SpanLog

__all__ = ["Telemetry", "TelemetrySpec"]

#: Attributes that reference the live simulation; a detached or pickled
#: telemetry drops them.
_LIVE_ATTRS = ("env", "sampler", "_machine", "_disk_metrics")


@dataclass(frozen=True)
class TelemetrySpec:
    """A picklable recipe for constructing one run's :class:`Telemetry`.

    Live telemetry objects are bound to a simulation environment and
    cannot cross process boundaries; parallel executors instead ship
    this spec to each worker, which calls :meth:`build` locally and
    returns a :meth:`Telemetry.detach`-ed snapshot.  The spec mirrors
    the ``Telemetry()`` constructor arguments exactly.
    """

    trace: bool = True
    timeline_interval: float = 0.5
    span_capacity: int = 200_000
    latency: bool = False
    latency_accuracy: float = 0.02

    def build(self) -> "Telemetry":
        return Telemetry(trace=self.trace,
                         timeline_interval=self.timeline_interval,
                         span_capacity=self.span_capacity,
                         latency=self.latency,
                         latency_accuracy=self.latency_accuracy)


class Telemetry:
    """Live telemetry for one simulation run."""

    def __init__(self, trace: bool = True, timeline_interval: float = 0.5,
                 span_capacity: int = 200_000, latency: bool = False,
                 latency_accuracy: float = 0.02):
        self.registry = MetricsRegistry()
        self.timeline_interval = timeline_interval
        self.span_capacity = span_capacity
        self._trace_spans = trace
        self.spans: Optional[SpanLog] = None
        self.sampler: Optional[TimelineSampler] = None
        self.env: Optional[Environment] = None
        # The watched machine and the instruments the hot-path moments
        # update, resolved by attach().
        self._machine = self._disk_metrics = self._served = None
        self._messages = self._bytes = self._completed = None
        # The latency recorder needs no environment: it is fed absolute
        # response times by the query-completed moment, so it exists
        # from construction and survives detach()/pickling as data.
        self.latency: Optional[LatencyRecorder] = (
            LatencyRecorder(relative_accuracy=latency_accuracy)
            if latency else None)

    # -- lifecycle -----------------------------------------------------------

    def bind(self, env: Environment) -> "Telemetry":
        """Attach to a simulation environment (once)."""
        if self.env is not None:
            if self.env is env:
                return self
            raise RuntimeError(
                "telemetry already bound to a different environment; "
                "create one Telemetry per machine")
        self.env = env
        if self._trace_spans:
            self.spans = SpanLog(env, capacity=self.span_capacity)
        if self.timeline_interval:
            self.sampler = TimelineSampler(env, self.registry,
                                           self.timeline_interval)
        return self

    def attach(self, machine) -> None:
        """Bind to *machine*'s environment and wire its instruments.

        Every registry series the moments update is registered up
        front, so a run exports the same names whether or not a moment
        fired; a sampling telemetry also gets its utilization probes.
        """
        self.bind(machine.env)
        self._machine = machine
        registry = self.registry
        self._disk_metrics, self._served = {}, {}
        for node in machine.nodes:
            prefix = f"node.{node.node_id}"
            self._disk_metrics[node.disk] = (
                registry.counter(f"{prefix}.disk.reads"),
                registry.counter(f"{prefix}.disk.writes"),
                registry.counter(f"{prefix}.disk.pages"),
                registry.histogram(f"{prefix}.disk.wait_seconds"))
            for kind in ("select", "probe"):
                self._served[node.node_id, kind] = registry.counter(
                    f"{prefix}.ops.{kind}s")
        self._messages = registry.counter("net.messages")
        self._bytes = registry.counter("net.bytes")
        self._completed = registry.counter("sched.queries.completed")
        if self.sampler is not None:
            self._register_probes(machine)

    def detach(self) -> "Telemetry":
        """Freeze this telemetry into an environment-free snapshot.

        Collected data (registry instruments, timelines, finished
        spans, aggregates) is kept; the references into the simulation
        -- environment, machine, sampler closures -- are dropped, making
        the object picklable.  A detached telemetry is read-only: call
        it only after the run it instrumented has finished.
        """
        for name in _LIVE_ATTRS:
            setattr(self, name, None)
        if self.spans is not None:
            self.spans.detach()
        return self

    def __getstate__(self):
        """Pickle as a detached snapshot (the sampler holds closures
        over live machine resources and never crosses processes)."""
        state = self.__dict__.copy()
        state.update(dict.fromkeys(_LIVE_ATTRS))
        return state

    # -- lifecycle moments (see repro.gamma.probes) --------------------------

    def on_window_open(self, now: float) -> None:
        """Start of the measurement window: drop warm-up telemetry.

        Registry instruments and finished spans are cleared (the run's
        artifacts should describe steady state, like every other
        statistic), and the utilization sampler starts ticking.
        """
        self.registry.reset()
        if self.spans is not None:
            self.spans.reset()
        if self.latency is not None:
            self.latency.reset()
        if self.sampler is not None:
            self.sampler.resync()
            self.sampler.start()

    def on_window_close(self, now: float) -> None:
        """End of the run: close in-flight spans, record load balance.

        Without the flush, queries interrupted by the end of the
        measurement window would leave leaf spans whose root was never
        emitted, breaking the exported trees' replay validation.  The
        sampler also takes one final partial-interval sample so a window
        shorter than the sampling interval still exports non-empty
        timelines.
        """
        if self.spans is not None:
            self.spans.flush()
        if self.sampler is not None and self.sampler.started:
            self.sampler.final_sample()
        self._record_load_balance()

    def on_query_issued(self, query_id: int, query_type: str,
                        now: float) -> None:
        self.begin_query(query_id, query_type)

    def on_query_terminated(self, query_id: int, now: float) -> None:
        self._completed.inc()
        self.end_query(query_id)

    def on_query_completed(self, query_type: str,
                           response_time: float) -> None:
        if self.latency is not None:
            self.latency.record(query_type, response_time)

    def on_message_sent(self, src: int, dst: int, num_bytes: int) -> None:
        self._messages.inc()
        self._bytes.inc(num_bytes)

    def on_request_served(self, node_id: int, kind: str) -> None:
        self._served[node_id, kind].inc()

    def on_disk_submit(self, disk, num_pages: int, is_write: bool) -> None:
        reads, writes, pages, _ = self._disk_metrics[disk]
        (writes if is_write else reads).inc()
        pages.inc(num_pages)

    def on_disk_start(self, disk, queue_wait: float) -> None:
        self._disk_metrics[disk][3].observe(queue_wait)

    # -- query traces --------------------------------------------------------

    @property
    def tracing(self) -> bool:
        return self.spans is not None

    def begin_query(self, query_id: int,
                    query_type: str) -> Optional[QueryTrace]:
        if self.spans is None:
            return None
        return self.spans.begin(query_id, query_type)

    def lookup(self, query_id: int) -> Optional[QueryTrace]:
        if self.spans is None:
            return None
        return self.spans.active.get(query_id)

    def end_query(self, query_id: int) -> None:
        if self.spans is not None and query_id in self.spans.active:
            self.spans.end(query_id)

    # -- machine-derived series --------------------------------------------

    def _register_probes(self, machine) -> None:
        """Wire per-resource utilization timelines onto the sampler.

        Per-node probes only up to :data:`~repro.gamma.machine.
        PER_NODE_TELEMETRY_LIMIT` nodes; beyond that, machine-wide
        aggregates (mean CPU/disk utilization, total disk queue,
        overall buffer hit rate) over the array-backed usage view, so a
        P=1024 run samples a handful of probes per tick, not ~4,000.
        """
        sampler = self.sampler
        view = machine.usage_view
        sampler.add_rate_probe(
            "sched.cpu.utilization",
            lambda: machine.scheduler_cpu.busy_seconds)
        sampler.add_array_spread_probe("nodes.cpu.imbalance", view.cpu_busy)
        sampler.add_rate_probe(
            "net.link.bytes_per_second",
            lambda: float(machine.network.bytes_sent))
        sampler.add_level_probe(
            "sched.queries.in_flight", lambda: machine.scheduler.in_flight)
        if len(machine.nodes) > PER_NODE_TELEMETRY_LIMIT:
            num_nodes = len(machine.nodes)
            sampler.add_rate_probe(
                "nodes.cpu.utilization.mean",
                lambda: float(view.cpu_busy().sum()) / num_nodes)
            sampler.add_rate_probe(
                "nodes.disk.utilization.mean",
                lambda: float(view.disk_busy().sum()) / num_nodes)
            sampler.add_level_probe(
                "nodes.disk.queue.total",
                lambda: float(view.disk_queue().sum()))
            sampler.add_ratio_probe(
                "nodes.buffer.hit_rate",
                view.buffer_hits_total, view.buffer_accesses_total)
            return
        for node in machine.nodes:
            prefix = f"node.{node.node_id}"
            cpu, disk = node.cpu, node.disk
            sampler.add_rate_probe(
                f"{prefix}.cpu.utilization",
                lambda cpu=cpu: cpu.busy_seconds)
            sampler.add_rate_probe(
                f"{prefix}.disk.utilization",
                lambda disk=disk: disk.busy_seconds)
            sampler.add_level_probe(
                f"{prefix}.disk.queue", lambda disk=disk: disk.queue_length)
            if node.buffer_pool is not None:
                pool = node.buffer_pool
                sampler.add_ratio_probe(
                    f"{prefix}.buffer.hit_rate",
                    lambda pool=pool: float(pool.hits),
                    lambda pool=pool: float(pool.hits + pool.misses))

    def _record_load_balance(self) -> None:
        """Per-node measurement-window shares of node-CPU busy time, plus
        the max/mean ratio the audit layer reports as load imbalance."""
        registry = self.registry
        nodes = self._machine.nodes
        busy = [node.cpu.busy_seconds for node in nodes]
        total = sum(busy)
        if len(nodes) <= PER_NODE_TELEMETRY_LIMIT:
            for node, seconds in zip(nodes, busy):
                registry.gauge(f"node.{node.node_id}.cpu.busy_share").set(
                    seconds / total if total else 0.0)
        mean = total / len(busy) if busy else 0.0
        registry.gauge("nodes.cpu.busy_share.max_over_mean").set(
            max(busy) / mean if mean else 0.0)
