"""Layer spans and counters, recorded from outside the program.

Every layer boundary is timed by wrapping the public function or method
that enters it; nothing under ``src/`` knows it is being measured.  Two
levels exist:

* the *run probe* (always on, also in untraced runs) wraps only
  ``GammaMachine.run``, once per simulated point, for the host seconds,
  completions, events, messages and queries each run produced;
* the *full trace* (``--trace 1``) wraps every layer listed in
  ``README.md`` and is the source of the per-layer metrics.

A span is one call into a layer.  Coarse spans (relation build,
partition, machine build, run, prewarm, execute, audit, rescale) are
kept in memory with their name, start, end, parent span and pass id;
hot calls (routing, query draws, invariant hooks, latency records) are
aggregated into counts and seconds instead, and the hottest ones
(``Environment.process``, ``Resource.request``) are only counted.  Each
span's self time -- its duration minus the time its child spans cover --
is added to its layer's ``self_s.<layer>`` total.

Parallel workers are forked after the wrappers are installed, so they
trace too; what a worker measured during one run is shipped back to
the parent as phase counters (``repro.obs.phases``), which the
executor already returns.  Worker spans themselves stay in the worker.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Prefix of the phase counters that carry a worker's totals home.
SHIP_PREFIX = "perfbench:"

#: (placement class name, strategy) pairs, most specific first: the
#: rescaled placements subclass the static ones.
_STRATEGY_OF_PLACEMENT = (
    ("MagicPlacement", "magic"),
    ("BerdPlacement", "berd"),
    ("HashPlacement", "hash"),
    ("RangePlacement", "range"),
)


def strategy_of(placement) -> str:
    names = {cls.__name__ for cls in type(placement).__mro__}
    for class_name, strategy in _STRATEGY_OF_PLACEMENT:
        if class_name in names:
            return strategy
    return type(placement).__name__


class Tracer:
    """Installs the wrappers and accumulates what they measure."""

    def __init__(self):
        #: Cumulative counts and seconds by metric name.
        self.totals: Dict[str, float] = defaultdict(float)
        #: Closed coarse spans, in closing order.
        self.spans: List[Dict] = []
        self.pass_id: Optional[str] = None
        self._stack: List[list] = []  # [span id, layer, start, child s]
        self._next_id = 0
        self._undo: List[tuple] = []
        self._probe_patches = 0
        self._parent_pid = os.getpid()

    # -- spans -----------------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [self._next_id, layer, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: Optional[str]) -> float:
        ended = time.perf_counter()
        self._stack.pop()
        duration = ended - frame[2]
        self.totals["self_s." + frame[1]] += duration - frame[3]
        if self._stack:
            self._stack[-1][3] += duration
        if name is not None:
            self.spans.append({
                "id": frame[0], "name": name, "layer": frame[1],
                "start": frame[2], "end": ended,
                "parent": self._stack[-1][0] if self._stack else None,
                "pass": self.pass_id, "pid": os.getpid()})
        return duration

    @contextlib.contextmanager
    def measure(self, layer: str, name: str):
        """One span opened by the benchmark itself."""
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(frame, name)

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        previous = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr: str, make: Callable) -> None:
        self._set(cls, attr, make(cls.__dict__[attr]))

    def _patch_function(self, original, make: Callable) -> None:
        """Replace *original* under every ``repro`` module name bound to it."""
        wrapper = make(original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def uninstall_full(self) -> None:
        """Undo :meth:`install_full`, keeping the run probe."""
        while len(self._undo) > self._probe_patches:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _span_wrapper(self, layer: str, span: Optional[str], metric: str,
                      after: Optional[Callable] = None):
        """Time each call as a span of *layer* (kept unless *span* is None)."""
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                frame = tracer._enter(layer)
                try:
                    value = original(*args, **kwargs)
                finally:
                    tracer.totals[metric] += tracer._exit(frame, span)
                if after is not None:
                    after(value)
                return value
            return wrapper
        return make

    def _leaf_wrapper(self, layer: str, calls: str, seconds: str):
        """Count and time a hot call without keeping its spans.

        Only the outermost call is counted, so an override that calls
        ``super()`` is one call, not two.
        """
        tracer = self
        busy = [False]

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if busy[0]:
                    return original(*args, **kwargs)
                busy[0] = True
                frame = tracer._enter(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.totals[seconds] += tracer._exit(frame, None)
                    tracer.totals[calls] += 1
                    busy[0] = False
            return wrapper
        return make

    def _count_wrapper(self, metric: str):
        totals = self.totals

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                totals[metric] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    # -- installation ----------------------------------------------------

    def install_run_probe(self) -> None:
        """Wrap ``GammaMachine.run`` and the worker-side ``execute_run``."""
        from repro.experiments import executor
        from repro.gamma import GammaMachine

        tracer = self

        def make_run(original):
            @functools.wraps(original)
            def run(machine, source, multiprogramming_level, *args, **kwargs):
                totals = tracer.totals
                events = machine.env.events_scheduled
                processes = totals["des.processes"]
                requests = totals["des.resource_requests"]
                frame = tracer._enter("gamma")
                try:
                    result = original(machine, source, multiprogramming_level,
                                      *args, **kwargs)
                finally:
                    duration = tracer._exit(frame, "gamma.run")
                suffix = f".mpl{multiprogramming_level}"
                key = strategy_of(machine.placement) + suffix
                totals["gamma.run_s"] += duration
                totals["gamma.run_s." + key] += duration
                totals["completions"] += machine.metrics.completed_total
                totals["gamma.queries_completed"] += result.completed
                totals["gamma.messages"] += result.messages_sent
                totals["des.events"] += machine.env.events_scheduled - events
                totals["des.processes" + suffix] += (
                    totals["des.processes"] - processes)
                totals["des.resource_requests" + suffix] += (
                    totals["des.resource_requests"] - requests)
                return result
            return run

        def make_ship(original):
            @functools.wraps(original)
            def execute_run(*args, **kwargs):
                if os.getpid() == tracer._parent_pid:
                    return original(*args, **kwargs)
                from repro.obs import phases
                before = dict(tracer.totals)
                result = original(*args, **kwargs)
                phases.annotate(**{
                    SHIP_PREFIX + name: value - before.get(name, 0.0)
                    for name, value in tracer.totals.items()
                    if value != before.get(name, 0.0)})
                return result
            return execute_run

        self._patch_method(GammaMachine, "run", make_run)
        self._set(executor, "execute_run", make_ship(executor.execute_run))
        self._probe_patches = len(self._undo)

    def install_full(self) -> None:
        """Wrap every layer boundary the per-layer metrics are read at."""
        from repro import core, storage
        from repro.des import Environment
        from repro.des.resources import Resource
        from repro.dynamics import rescale
        from repro.experiments import executor, plan, runner
        from repro.gamma import GammaMachine
        from repro.obs import audit
        from repro.obs.sketch import LatencyRecorder
        from repro.validation.invariants import InvariantChecker
        from repro.workload import mixes

        # storage
        def relation_built(_):
            self.totals["storage.relations_built"] += 1
        self._patch_function(storage.make_wisconsin, self._span_wrapper(
            "storage", "storage.make_wisconsin",
            "storage.relation_build_s", relation_built))

        # core: partition per strategy, routing as a hot leaf
        for cls, strategy in ((core.RangeStrategy, "range"),
                              (core.BerdStrategy, "berd"),
                              (core.MagicStrategy, "magic"),
                              (core.HashStrategy, "hash")):
            self._patch_method(cls, "partition", self._span_wrapper(
                "core", f"core.partition.{strategy}",
                f"core.partition_s.{strategy}"))
        route_leaf = self._leaf_wrapper("core", "core.route_calls",
                                        "core.route_s")
        for cls in _subclasses(core.Placement):
            for attr in ("route", "qualifying_counts", "site_for_tuple"):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, route_leaf)

        # workload: mix construction and per-query draws
        self._patch_function(mixes.make_mix, self._span_wrapper(
            "workload", None, "workload.make_mix_s"))
        draw_leaf = self._leaf_wrapper("workload", "workload.query_draw_calls",
                                       "workload.query_draw_s")
        for cls in (mixes.QueryMix, mixes.CompositeSource):
            self._patch_method(cls, "__call__", draw_leaf)

        # gamma + des
        self._patch_method(GammaMachine, "__init__", self._span_wrapper(
            "gamma", "gamma.machine_build",
            "gamma.machine_build_s"))
        self._patch_method(Environment, "process",
                           self._count_wrapper("des.processes"))
        self._patch_method(Resource, "request",
                           self._count_wrapper("des.resource_requests"))

        # experiments
        def placements_built(stats):
            self.totals["experiments.placements_built"] += stats[
                "placements_built"]
        self._patch_function(plan.prewarm, self._span_wrapper(
            "experiments", "experiments.prewarm",
            "experiments.prewarm_s", placements_built))
        for cls in (executor.SerialExecutor, executor.ParallelExecutor):
            self._patch_method(cls, "execute", self._span_wrapper(
                "experiments", "experiments.execute",
                "experiments.execute_s"))
        self._patch_function(runner.run_experiment, self._span_wrapper(
            "experiments", "experiments.run_experiment",
            "experiments.run_experiment_s"))

        # observers
        hook_leaf = self._leaf_wrapper("validation", "validation.hook_calls",
                                       "validation.hook_s")
        for attr in list(InvariantChecker.__dict__):
            if attr.startswith("on_"):
                self._patch_method(InvariantChecker, attr, hook_leaf)
        self._patch_method(LatencyRecorder, "record", self._leaf_wrapper(
            "obs", "obs.latency_records", "obs.latency_record_s"))
        self._patch_function(audit.audit_placement, self._span_wrapper(
            "obs", "obs.audit_placement", "obs.audit_s"))

        # dynamics
        self._patch_function(rescale.rescale_placement, self._span_wrapper(
            "dynamics", "dynamics.rescale_placement",
            "dynamics.rescale_s"))
        from repro.dynamics import runner as dynamics_runner
        self._patch_function(dynamics_runner.run_dynamics, self._span_wrapper(
            "dynamics", "dynamics.run_dynamics",
            "dynamics.run_dynamics_s"))


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found
