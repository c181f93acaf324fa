"""Per-query trace spans.

Every traced query carries a :class:`QueryTrace`: a tree of
:class:`Span` intervals opened and closed as the query flows terminal ->
scheduler -> operator sites -> per-node CPU / disk / network.  Resource
acquisitions are recorded as *leaf* spans carrying a queue-wait /
service-time split, which is what the paper's §7 commentary is built
from (e.g. MAGIC's scheduler-CPU saturation at high multiprogramming
levels).

The storage backend is the existing bounded
:class:`repro.des.trace.Tracer`: every span is appended as one
``TraceEntry`` of kind ``"span"`` the moment it closes, so memory stays
bounded on long runs (eviction is counted) and the usual ``query()``
filtering works on spans too.  :class:`SpanLog` additionally keeps an
O(query types x resources) running aggregate so the summary table
survives tracer eviction.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..des.environment import Environment
from ..des.trace import TraceEntry, Tracer

__all__ = ["Span", "QueryTrace", "SpanLog", "SPAN_KIND",
           "UnknownQueryError"]

#: The Tracer entry kind under which closed spans are stored.
SPAN_KIND = "span"


class UnknownQueryError(KeyError):
    """Raised when ending a query whose trace was never begun.

    Subclasses :class:`KeyError` so callers that guarded the old bare
    ``active.pop`` failure keep working; the message names the query
    and the log's state instead of a bare id.
    """

    def __init__(self, query_id: int, active_traces: int):
        self.query_id = query_id
        self.active_traces = active_traces
        super().__init__(query_id)

    def __str__(self) -> str:
        return (f"cannot end query {self.query_id}: no active trace for "
                f"it ({self.active_traces} trace(s) currently active; "
                f"was begin() called, or was the trace already ended?)")


class Span:
    """One open interval in a query's trace tree."""

    __slots__ = ("trace", "span_id", "parent_id", "name", "start", "attrs")

    def __init__(self, trace: "QueryTrace", span_id: int,
                 parent_id: Optional[int], name: str,
                 start: float, attrs: Dict[str, Any]):
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs

    def booking(self, resource: str) -> Callable[[float, float], None]:
        """A resource hold's ``on_done``: book it as a leaf of this span.

        The returned callable takes ``(wait, service)`` and records them
        through :meth:`QueryTrace.resource` under *resource*.
        """
        return partial(self.trace.resource, self, resource)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.name!r} id={self.span_id} "
                f"trace={self.trace.query_id} start={self.start:.6f}>")


class QueryTrace:
    """The span tree of one in-flight query.

    Spans are emitted to the backing :class:`SpanLog` when finished;
    the trace object itself only tracks open spans, so a finished query
    leaves nothing behind but log entries.
    """

    __slots__ = ("log", "query_id", "query_type", "root", "_next_span_id",
                 "_open")

    def __init__(self, log: "SpanLog", query_id: int, query_type: str):
        self.log = log
        self.query_id = query_id
        self.query_type = query_type
        self._next_span_id = 0
        self._open: Dict[int, Span] = {}
        self.root = self.start("query", parent=None)

    def start(self, name: str, parent: Optional[Span] = ...,
              **attrs: Any) -> Span:
        """Open a child span (default parent: the root span)."""
        if parent is ...:
            parent = self.root
        parent_id = parent.span_id if parent is not None else None
        span = Span(self, self._next_span_id, parent_id, name,
                    self.log.env.now, attrs)
        self._next_span_id += 1
        self._open[span.span_id] = span
        return span

    def finish(self, span: Span, **attrs: Any) -> None:
        """Close *span* at the current simulation time and emit it."""
        if attrs:
            span.attrs.update(attrs)
        self._open.pop(span.span_id, None)
        self.log._emit(self, span, span.start, self.log.env.now)

    def resource(self, parent: Optional[Span], resource: str,
                 wait: float, service: float, **attrs: Any) -> None:
        """Record one resource acquisition as a closed leaf span.

        ``wait`` is the time queued before the grant, ``service`` the
        time holding the resource; the leaf's interval is
        ``[now - wait - service, now]``.
        """
        now = self.log.env.now
        span = Span(self, self._next_span_id,
                    parent.span_id if parent is not None else None,
                    resource, now - wait - service,
                    dict(attrs, resource=resource, wait=wait,
                         service=service))
        self._next_span_id += 1
        self.log._emit(self, span, span.start, now)
        self.log._aggregate(self.query_type, resource, wait, service)

    @property
    def open_spans(self) -> int:
        return len(self._open)


class SpanLog:
    """Collects the spans of every traced query of one simulation run."""

    def __init__(self, env: Environment, capacity: int = 200_000,
                 tracer: Optional[Tracer] = None):
        self.env = env
        self.tracer = tracer if tracer is not None else Tracer(
            env, capacity=capacity)
        self.active: Dict[int, QueryTrace] = {}
        self.finished = 0
        #: Traces force-closed by :meth:`flush` at the end of a run.
        self.truncated = 0
        #: query type -> resource -> [wait_seconds, service_seconds, count]
        self.resource_totals: Dict[str, Dict[str, List[float]]] = {}

    # -- trace lifecycle ---------------------------------------------------

    def begin(self, query_id: int, query_type: str) -> QueryTrace:
        """Open the trace (and root span) of one submitted query."""
        if query_id in self.active:
            raise ValueError(f"query {query_id} already being traced")
        trace = QueryTrace(self, query_id, query_type)
        self.active[query_id] = trace
        return trace

    def lookup(self, query_id: int) -> Optional[QueryTrace]:
        """The active trace of *query_id*, or None."""
        return self.active.get(query_id)

    def end(self, query_id: int) -> None:
        """Close the root span and retire the trace.

        Raises :class:`UnknownQueryError` if *query_id* has no active
        trace (never begun, or already ended).
        """
        trace = self.active.pop(query_id, None)
        if trace is None:
            raise UnknownQueryError(query_id, len(self.active))
        trace.finish(trace.root)
        self.finished += 1

    def flush(self) -> int:
        """Close every span of every still-active trace (end of run).

        Queries in flight when the simulation stops would otherwise
        leave dangling leaves whose root was never emitted.  All their
        open spans are closed at the current time with a
        ``truncated=True`` attribute (children before the root, so the
        exported tree stays well-nested), and the number of truncated
        traces is returned.
        """
        flushed = 0
        for trace in list(self.active.values()):
            # Higher span ids opened later; closing them first keeps
            # emit order child-before-parent, with the root (id 0) last.
            for span in sorted(trace._open.values(),
                               key=lambda s: -s.span_id):
                trace.finish(span, truncated=True)
            flushed += 1
        self.active.clear()
        self.truncated += flushed
        return flushed

    # -- snapshotting ------------------------------------------------------

    def detach(self) -> "SpanLog":
        """Drop environment references (picklable, read-only snapshot).

        Finished spans, aggregates and counters survive; traces still
        active (there should be none after :meth:`flush`) are dropped,
        as their open spans reference the live environment.
        """
        self.env = None
        self.active.clear()
        self.tracer.detach()
        return self

    def __getstate__(self):
        state = self.__dict__.copy()
        state["env"] = None
        state["active"] = {}
        return state

    # -- storage ---------------------------------------------------------

    def _emit(self, trace: QueryTrace, span: Span, start: float,
              end: float) -> None:
        self.tracer.record(
            SPAN_KIND, trace=trace.query_id, qtype=trace.query_type,
            span=span.span_id, parent=span.parent_id, name=span.name,
            start=start, end=end, **span.attrs)

    def _aggregate(self, query_type: str, resource: str,
                   wait: float, service: float) -> None:
        by_resource = self.resource_totals.setdefault(query_type, {})
        totals = by_resource.get(resource)
        if totals is None:
            by_resource[resource] = [wait, service, 1]
        else:
            totals[0] += wait
            totals[1] += service
            totals[2] += 1

    def entries(self) -> Iterator[TraceEntry]:
        """All retained span entries, oldest first."""
        return self.tracer.query(kind=SPAN_KIND)

    def span_count(self) -> int:
        """Spans emitted so far (including any evicted from the tracer)."""
        return self.tracer.count(SPAN_KIND)

    def reset(self) -> None:
        """Drop retained spans and aggregates (start of measurement window).

        Traces still in flight keep their open spans; only finished
        history is discarded.
        """
        self.tracer.clear()
        self.resource_totals.clear()
        self.finished = 0
        self.truncated = 0
