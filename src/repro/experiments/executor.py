"""Pluggable execution backends for :class:`~repro.experiments.plan.RunPlan`.

Two executors share one contract: given a plan, return one
:class:`ExecutionOutcome` per planned run, *in plan order*, consulting
an optional :class:`~repro.experiments.cache.ResultCache` before
simulating anything.

* :class:`SerialExecutor` runs everything in-process -- the reference
  the parallel backend is tested bit-identical against.
* :class:`ParallelExecutor` fans the plan out over a **warm,
  fork-shared worker pool** (``--jobs N`` on the CLI).  The parent
  first *prewarms* every distinct relation/placement the pending specs
  need (:func:`~repro.experiments.plan.prewarm`), then starts the pool
  through an explicit ``multiprocessing.get_context("fork")`` so
  workers inherit the populated memos copy-on-write -- a grid of runs
  over one figure shares almost all of its expensive state, so only
  the simulations themselves cost CPU.  On platforms without fork (or
  with ``start_method="spawn"``), a per-worker initializer prewarms
  once per *process* instead of once per task.  Dispatch is
  **chunked**: specs are grouped by
  :meth:`~repro.experiments.plan.RunSpec.placement_key` so each chunk
  stays memo-local, and chunks are submitted longest-MPL-first so the
  stragglers schedule early.  Determinism is structural: every seed
  derives from the :class:`~repro.experiments.plan.RunSpec`, never
  from worker state, and outcomes are reassembled in plan order.

Telemetry under parallelism works by shipping a picklable
:class:`~repro.obs.telemetry.TelemetrySpec` *to* the worker (which
constructs the live object locally) and a detached, environment-free
telemetry snapshot *back*.  Cache lookups are skipped whenever
telemetry is requested -- a cached result has no spans to return -- but
freshly traced results are still written through to the cache.

Both backends simulate through one function, :func:`_execute_chunk`
(pool workers receive it by name, the serial executor calls it
in-process one spec at a time), so telemetry build/detach, per-spec
phase snapshots, outcome construction and cache write-through exist
once.  They also feed the wall-clock observability layer, strictly
observationally (results are bit-identical with it on or off):

* when a :mod:`~repro.obs.phases` accumulator is installed, each
  run's relation-build / placement-build / simulate / cache-write /
  telemetry-detach wall seconds land in its outcome's ``phases`` and,
  per chunk, in the installed accumulator (parent-side cache-read and
  prewarm time is recorded there directly);
* ``progress`` receives plan lifecycle events
  (:mod:`~repro.obs.progress`); parallel workers additionally push
  phase-boundary heartbeats over a multiprocessing queue.  Terminal
  ``spec-finish`` events stay in plan order: outcomes of completed
  chunks are released as the plan-order frontier advances.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..gamma import RunResult
from ..obs import Telemetry, TelemetrySpec, phases
from ..obs.progress import NULL_PROGRESS
from .cache import ResultCache
from .plan import PlannedRun, RunPlan, RunSpec, execute_run, prewarm

__all__ = ["ExecutionOutcome", "SerialExecutor", "ParallelExecutor",
           "make_executor", "default_start_method", "WorkerCrash"]

#: Target number of chunks per worker: enough slack that an unlucky
#: chunk-to-worker assignment cannot idle half the pool, few enough
#: that per-task dispatch overhead stays negligible.
_CHUNKS_PER_WORKER = 2


class WorkerCrash(RuntimeError):
    """A parallel worker died; carries the worker traceback and spec.

    A bare exception re-raised from a pickled future says nothing about
    *which* of a 63-point grid crashed or where in the worker it
    happened.  The worker wraps any failure in this type with the
    offending :class:`RunSpec` digest, the (strategy, MPL) coordinates,
    its pid, and the full formatted traceback, all embedded in the
    message so the object pickles losslessly back to the parent.

    On the first crash the parent cancels every not-yet-started chunk
    (``pool.shutdown(cancel_futures=True)``) before re-raising, so a
    broken sweep stops promptly instead of simulating the rest of the
    plan to completion first.
    """


@dataclass
class ExecutionOutcome:
    """One executed (or cache-satisfied) planned run."""

    spec: RunSpec
    result: RunResult
    #: Wall seconds this simulation took wherever it ran (0.0 if cached).
    wall_seconds: float = 0.0
    #: Process CPU seconds (``time.process_time`` delta) the run cost in
    #: the process that simulated it.  On an oversubscribed host wall
    #: time inflates with time-slicing while this stays honest, which
    #: is what the parallel benchmark's work-amplification bound is
    #: stated on.
    cpu_seconds: float = 0.0
    #: True when the result was loaded from the cache, not simulated.
    cached: bool = False
    #: Detached telemetry snapshot, when tracing was requested.
    telemetry: Optional[Telemetry] = None
    #: Wall-clock phase snapshot of this spec's run, from the process
    #: that ran it (None if cached or phase collection was off).
    phases: Optional[Dict] = None


def default_start_method() -> str:
    """The multiprocessing start method the parallel executor prefers.

    ``fork`` wherever the platform offers it: forked workers inherit
    the parent's prewarmed relation/placement memos copy-on-write, so
    the pool is warm for free.  Elsewhere (spawn-only platforms) the
    per-worker initializer prewarms instead.  Pinning this explicitly
    also insulates the executor from interpreter-default changes
    (Python 3.14 stops defaulting to fork on Linux).
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def _run_one(planned: PlannedRun, telemetry: Optional[Telemetry],
             check_invariants: bool = False
             ) -> Tuple[RunResult, float, float]:
    started = time.perf_counter()
    cpu_started = time.process_time()
    result = execute_run(planned.spec, planned.params, telemetry=telemetry,
                         check_invariants=check_invariants)
    return (result, time.perf_counter() - started,
            time.process_time() - cpu_started)


def _pool_initializer(representatives: Sequence[PlannedRun]) -> None:
    """Per-worker warmup for start methods that do not inherit memos.

    Spawn/forkserver workers begin with empty per-process memos; this
    builds each distinct relation/placement once per *process* (not
    once per task) before the first chunk arrives.  Failures are
    deliberately non-fatal (``strict=False``): a spec that cannot build
    dies inside ``_execute_chunk`` instead, where it is wrapped
    in a :class:`WorkerCrash` with full context rather than taking the
    whole pool down as a bare ``BrokenProcessPool``.
    """
    phases.reset()
    prewarm(representatives, strict=False)


def _crash(spec: RunSpec, exc: BaseException) -> WorkerCrash:
    # Chained causes may not pickle (arbitrary third-party exceptions);
    # embed everything as text instead.
    return WorkerCrash(
        f"worker pid {os.getpid()} failed on run spec "
        f"{spec.digest()} (figure {spec.figure}, strategy "
        f"{spec.strategy!r}, mpl {spec.multiprogramming_level}): "
        f"{type(exc).__name__}: {exc}\n"
        f"--- worker traceback ---\n{traceback.format_exc()}")


def _execute_chunk(chunk: Sequence[PlannedRun],
                   telemetry_spec: Optional[TelemetrySpec] = None,
                   check_invariants: bool = False,
                   collect_phases: bool = False,
                   progress_queue=None,
                   cache: Optional[ResultCache] = None,
                   executor: str = "serial", jobs: int = 1,
                   in_worker: bool = False):
    """Simulate a chunk of planned runs: the one per-run path.

    Per spec it builds and detaches telemetry, times the run into its
    own :class:`~repro.obs.phases.PhaseAccumulator` and writes the
    result through to ``cache``.  Returns ``(outcomes,
    chunk_snapshot)``: :class:`ExecutionOutcome` objects in chunk
    order, each carrying its spec's phase snapshot, plus the chunk
    aggregate the caller merges into its own accumulator (merging the
    per-spec snapshots too would double-count).  Per-spec accumulators
    are popped without merging, so the accumulator stack the process
    already holds -- the caller's in-process, a fork-inherited copy in
    a worker -- is never recorded into.

    Pool workers receive this function by name with ``in_worker=True``:
    a failure is re-raised as a :class:`WorkerCrash` naming the spec,
    because a pickled exception loses both.  The serial executor calls
    it in-process with one-spec chunks and sees exceptions unchanged.
    """
    observing = collect_phases or progress_queue is not None
    chunk_acc = phases.PhaseAccumulator() if observing else None
    pid = os.getpid()
    outcomes = []
    for planned in chunk:
        spec = planned.spec
        try:
            listener = None
            if progress_queue is not None:
                digest = spec.digest()[:12]

                def listener(name: str, action: str, elapsed: float,
                             _digest=digest, _spec=spec) -> None:
                    if action != "start":
                        return
                    try:
                        progress_queue.put({
                            "spec": _digest, "strategy": _spec.strategy,
                            "mpl": _spec.multiprogramming_level,
                            "phase": name, "pid": pid,
                            "wall_seconds": round(elapsed, 6)})
                    except Exception:
                        pass  # progress must never kill a simulation

            acc = None
            if observing:
                acc = phases.push(phases.PhaseAccumulator(listener=listener))
            try:
                telemetry = (telemetry_spec.build()
                             if telemetry_spec is not None else None)
                result, wall, cpu = _run_one(
                    planned, telemetry, check_invariants=check_invariants)
                if telemetry is not None:
                    with phases.phase("telemetry-detach"):
                        telemetry.detach()
                if cache is not None:
                    with phases.phase("cache-write"):
                        cache.put(spec, result, executor=executor, jobs=jobs)
            finally:
                if acc is not None:
                    phases.pop(merge_into_parent=False)
            snapshot = None
            if acc is not None:
                snapshot = acc.snapshot()
                chunk_acc.merge(snapshot)
            if progress_queue is not None:
                counters = snapshot["counters"] if snapshot else {}
                try:
                    progress_queue.put({
                        "spec": spec.digest()[:12],
                        "strategy": spec.strategy,
                        "mpl": spec.multiprogramming_level,
                        "phase": "worker-done", "pid": pid,
                        "wall_seconds": round(wall, 6),
                        "events": int(counters.get("events", 0)),
                        "sim_clock": round(
                            counters.get("sim_seconds", 0.0), 6)})
                except Exception:
                    pass
            outcomes.append(ExecutionOutcome(
                spec=spec, result=result, wall_seconds=wall,
                cpu_seconds=cpu, telemetry=telemetry, phases=snapshot))
        except BaseException as exc:
            if not in_worker:
                raise
            raise _crash(spec, exc) from None
    chunk_snapshot = chunk_acc.snapshot() if chunk_acc is not None else None
    return outcomes, chunk_snapshot


def _report_finished(progress, index: int,
                     outcome: ExecutionOutcome) -> None:
    """The terminal ``spec-finish`` event of one simulated outcome."""
    counters = (outcome.phases or {}).get("counters", {})
    progress.spec_finished(outcome.spec, index, cached=False,
                           wall_seconds=outcome.wall_seconds,
                           events=counters.get("events"),
                           sim_seconds=counters.get("sim_seconds"))


class SerialExecutor:
    """Runs a plan in-process, one simulation at a time."""

    name = "serial"
    jobs = 1

    def execute(self, plan: RunPlan,
                cache: Optional[ResultCache] = None,
                telemetry_spec: Optional[TelemetrySpec] = None,
                check_invariants: bool = False,
                progress=None,
                ) -> List[ExecutionOutcome]:
        progress = progress if progress is not None else NULL_PROGRESS
        acc = phases.current()
        progress.plan_started(len(plan), executor=self.name, jobs=self.jobs,
                              figure=_plan_figure(plan))
        # A cache hit was not validated by this run, so invariant
        # checking (like tracing) bypasses cache reads and always
        # simulates; fresh results still write through.
        tracing = telemetry_spec is not None or check_invariants
        outcomes: List[ExecutionOutcome] = []
        for index, planned in enumerate(plan):
            progress.spec_started(planned.spec, index)
            if cache is not None and not tracing:
                with phases.phase("cache-read"):
                    hit = cache.get(planned.spec)
                if hit is not None:
                    outcomes.append(ExecutionOutcome(
                        spec=planned.spec, result=hit, cached=True))
                    progress.spec_finished(planned.spec, index, cached=True)
                    continue
            (outcome,), chunk_snapshot = _execute_chunk(
                (planned,), telemetry_spec, check_invariants,
                collect_phases=acc is not None, cache=cache,
                executor=self.name, jobs=self.jobs)
            if chunk_snapshot is not None:
                acc.merge(chunk_snapshot)
            outcomes.append(outcome)
            _report_finished(progress, index, outcome)
        progress.plan_finished()
        return outcomes


def _chunk_pending(pending: Sequence[Tuple[int, PlannedRun]], jobs: int
                   ) -> List[List[Tuple[int, PlannedRun]]]:
    """Group pending runs into memo-local, straggler-first chunks.

    Specs are grouped by :meth:`RunSpec.placement_key` (a chunk never
    mixes placements, so a cold worker builds at most one), ordered
    within each group by descending MPL, and groups are split so the
    whole plan yields roughly ``_CHUNKS_PER_WORKER * jobs`` chunks --
    enough slack for the pool to balance.  Chunks are then submitted
    longest-MPL-first: the high-MPL points dominate a figure's wall
    time, so scheduling them early keeps the tail short.  Everything
    here is deterministic (stable sorts, first-appearance group order).
    """
    groups: Dict[Tuple, List[Tuple[int, PlannedRun]]] = {}
    for index, planned in pending:
        groups.setdefault(planned.spec.placement_key(), []).append(
            (index, planned))
    target = max(len(groups), min(len(pending), _CHUNKS_PER_WORKER * jobs))
    size = max(1, -(-len(pending) // target))  # ceil division
    chunks: List[List[Tuple[int, PlannedRun]]] = []
    for group in groups.values():
        group.sort(key=lambda entry: (
            -entry[1].spec.multiprogramming_level, entry[0]))
        for start in range(0, len(group), size):
            chunks.append(group[start:start + size])
    chunks.sort(key=lambda chunk: (
        -max(entry[1].spec.multiprogramming_level for entry in chunk),
        chunk[0][0]))
    return chunks


class ParallelExecutor:
    """Fans a plan out over a warm process pool (``--jobs N``).

    ``start_method`` picks the multiprocessing context: ``"fork"``
    (default where available) shares the parent's prewarmed memos with
    every worker copy-on-write; ``"spawn"`` / ``"forkserver"`` fall
    back to a per-worker initializer that prewarms once per process.
    Results are bit-identical across methods and to serial.
    """

    name = "process-pool"

    def __init__(self, jobs: int, start_method: Optional[str] = None):
        if jobs < 2:
            raise ValueError(f"ParallelExecutor needs jobs >= 2, got {jobs}")
        if start_method is None:
            start_method = default_start_method()
        available = multiprocessing.get_all_start_methods()
        if start_method not in available:
            raise ValueError(
                f"start method {start_method!r} unavailable on this "
                f"platform (have: {', '.join(available)})")
        self.jobs = jobs
        self.start_method = start_method

    def execute(self, plan: RunPlan,
                cache: Optional[ResultCache] = None,
                telemetry_spec: Optional[TelemetrySpec] = None,
                check_invariants: bool = False,
                progress=None,
                ) -> List[ExecutionOutcome]:
        progress = progress if progress is not None else NULL_PROGRESS
        acc = phases.current()
        collect_phases = acc is not None
        progress.plan_started(len(plan), executor=self.name, jobs=self.jobs,
                              figure=_plan_figure(plan))
        outcomes: List[Optional[ExecutionOutcome]] = [None] * len(plan)
        pending: List[Tuple[int, PlannedRun]] = []
        tracing = telemetry_spec is not None or check_invariants
        for index, planned in enumerate(plan):
            progress.spec_started(planned.spec, index)
            hit = None
            if cache is not None and not tracing:
                with phases.phase("cache-read"):
                    hit = cache.get(planned.spec)
            if hit is not None:
                outcomes[index] = ExecutionOutcome(
                    spec=planned.spec, result=hit, cached=True)
                progress.spec_finished(planned.spec, index, cached=True)
            else:
                pending.append((index, planned))

        if pending:
            self._execute_pending(pending, outcomes, cache=cache,
                                  telemetry_spec=telemetry_spec,
                                  check_invariants=check_invariants,
                                  collect_phases=collect_phases,
                                  progress=progress, acc=acc)
        progress.plan_finished()
        return [outcome for outcome in outcomes if outcome is not None]

    # -- internals ---------------------------------------------------------

    def _execute_pending(self, pending, outcomes, cache, telemetry_spec,
                         check_invariants, collect_phases, progress,
                         acc) -> None:
        fork_shared = self.start_method == "fork"
        pool_kwargs: Dict = {
            "max_workers": self.jobs,
            "mp_context": multiprocessing.get_context(self.start_method),
        }
        if fork_shared:
            # Build every distinct relation/placement in the parent
            # BEFORE the pool exists: forked workers inherit the warm
            # memos copy-on-write and never rebuild.  Non-strict --
            # a spec that cannot build crashes inside its worker with
            # full WorkerCrash context instead of here.
            prewarm([planned for _, planned in pending], strict=False)
        else:
            # Spawn-style workers inherit nothing; prewarm once per
            # worker process via the pool initializer.  One planned run
            # per distinct placement key is enough to warm both memos.
            seen, representatives = set(), []
            for _, planned in pending:
                key = planned.spec.placement_key()
                if key not in seen:
                    seen.add(key)
                    representatives.append(planned)
            pool_kwargs.update(initializer=_pool_initializer,
                               initargs=(tuple(representatives),))

        chunks = _chunk_pending(pending, self.jobs)
        heartbeat_queue = progress.worker_queue()
        # spec-finish events stay in plan order whatever order chunks
        # complete in: they are released as the plan-order frontier
        # of pending indexes advances over filled outcome slots.
        frontier = 0
        order = [index for index, _ in pending]

        with ProcessPoolExecutor(**pool_kwargs) as pool:
            futures = {
                pool.submit(_execute_chunk,
                            tuple(planned for _, planned in chunk),
                            telemetry_spec, check_invariants,
                            collect_phases, heartbeat_queue, cache,
                            self.name, self.jobs, True): chunk
                for chunk in chunks
            }
            try:
                for future in as_completed(futures):
                    chunk_outcomes, chunk_snapshot = future.result()
                    for (index, _), outcome in zip(futures[future],
                                                   chunk_outcomes):
                        outcomes[index] = outcome
                    if chunk_snapshot is not None and acc is not None:
                        acc.merge(chunk_snapshot)
                    while (frontier < len(order)
                           and outcomes[order[frontier]] is not None):
                        index = order[frontier]
                        _report_finished(progress, index, outcomes[index])
                        frontier += 1
            except BaseException:
                # First crash (or interrupt) wins: drop every chunk that
                # has not started yet so the sweep stops promptly
                # instead of simulating the rest of the plan first.
                pool.shutdown(cancel_futures=True)
                raise


def _plan_figure(plan: RunPlan) -> Optional[str]:
    """The figure name a plan regenerates (None for an empty plan)."""
    return plan.runs[0].spec.figure if len(plan) else None


def make_executor(jobs: int = 1, start_method: Optional[str] = None):
    """The executor for a requested parallelism level.

    ``start_method`` is forwarded to :class:`ParallelExecutor` (and
    ignored for serial): ``None`` picks fork where available.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs, start_method=start_method)
