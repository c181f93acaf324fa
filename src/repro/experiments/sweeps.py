"""General parameter sweeps over the simulation model.

Beyond the figure regeneration (fixed Table 2 parameters, MPL on the
x-axis), a systems study wants sensitivity analyses: how does the
comparison move when a hardware or workload parameter changes?
:func:`sweep` compiles a (strategy x value) grid over any knob
expressible as a :class:`SweepAxis` into a
:class:`~repro.experiments.plan.RunPlan`, executes it on a serial or
process-pool backend (``jobs``), and returns a tidy result table.

Built-in axes cover the sweeps the extension benchmarks use:
machine size, QB selectivity, attribute correlation, buffer-pool size
and CPU speed.  The ``num_sites`` axis is the scale-up experiment:
the paper stops at 32 processors, and
:data:`~repro.experiments.config.SCALEUP_SITES` carries the comparison
up to 1,024.  Every point therefore also reports where its wall time
went -- placement-build, simulate and relation-build seconds and DES
events, read from the executor's per-run phase snapshot -- so a
superlinear cost at one machine size is visible per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..gamma import GAMMA_PARAMETERS, RunResult
from ..obs import phases
from .cache import ResultCache
from .config import FIGURES
from .executor import ExecutionOutcome, make_executor
from .plan import RunPlan, compile_point

__all__ = ["SweepAxis", "SweepPoint", "SweepResult", "sweep",
           "AXES"]


@dataclass(frozen=True)
class SweepAxis:
    """One sweepable knob.

    ``apply(value)`` returns the keyword overrides for
    :func:`~repro.experiments.plan.compile_point`: any of ``params`` (a
    SimulationParameters), ``correlation``, ``qb_low_tuples``,
    ``num_sites``.
    """

    name: str
    apply: Callable[[float], Dict]
    description: str = ""


def _params_axis(field_name: str, description: str) -> SweepAxis:
    def apply(value):
        return {"params": GAMMA_PARAMETERS.with_overrides(
            **{field_name: value})}
    return SweepAxis(name=field_name, apply=apply, description=description)


AXES: Dict[str, SweepAxis] = {
    "num_sites": SweepAxis(
        "num_sites", lambda v: {"num_sites": int(v)},
        "machine size in processors (the scale-up axis)"),
    "qb_selectivity": SweepAxis(
        "qb_selectivity", lambda v: {"qb_low_tuples": int(v)},
        "tuples retrieved by the low QB query (Figure 9 axis)"),
    "correlation": SweepAxis(
        "correlation", lambda v: {"correlation": float(v)},
        "rank correlation of the partitioning attributes"),
    "buffer_pool": SweepAxis(
        "buffer_pool",
        lambda v: {"params": GAMMA_PARAMETERS.with_overrides(
            buffer_pool_pages=(int(v) or None))},
        "explicit buffer pool pages per node (0 = analytic model)"),
    "cpu_mips": _params_axis(
        "cpu_instructions_per_second", "CPU speed in instructions/second"),
}


@dataclass(frozen=True)
class SweepPoint:
    """One (strategy, axis value) measurement with phase attribution."""

    strategy: str
    value: float
    result: RunResult
    #: Content digest of the point's RunSpec (its cache address).
    spec_digest: str = ""
    #: Wall seconds this run spent building its placement.  None when
    #: it was built elsewhere: by the parallel executor's parent-side
    #: prewarm (see :meth:`SweepResult.prewarm_build_seconds`), by an
    #: earlier run in this process (memo hit), or not at all (cached).
    placement_build_seconds: Optional[float] = None
    #: Wall seconds spent inside the simulation proper.
    simulate_seconds: float = 0.0
    #: Wall seconds spent synthesizing the relation (the first run
    #: that needs it; later ones reuse the memoized relation).
    relation_build_seconds: float = 0.0
    #: DES agenda entries processed during the simulation.
    events: int = 0

    @classmethod
    def from_outcome(cls, strategy: str, value: float,
                     outcome: ExecutionOutcome) -> "SweepPoint":
        snapshot = outcome.phases or {}
        totals = snapshot.get("totals", {})

        def seconds(name: str) -> float:
            entry = totals.get(name)
            return float(entry["seconds"]) if entry else 0.0

        return cls(strategy=strategy, value=value, result=outcome.result,
                   spec_digest=outcome.spec.digest(),
                   placement_build_seconds=(
                       seconds("placement-build")
                       if "placement-build" in totals else None),
                   simulate_seconds=seconds("simulate"),
                   relation_build_seconds=seconds("relation-build"),
                   events=int(snapshot.get("counters", {})
                              .get("events", 0)))

    @property
    def events_per_sec(self) -> float:
        """DES throughput of the simulate phase (0.0 if unmeasured)."""
        if self.simulate_seconds <= 0:
            return 0.0
        return self.events / self.simulate_seconds

    def to_json_dict(self) -> Dict:
        return {
            "strategy": self.strategy,
            "value": self.value,
            "spec_digest": self.spec_digest,
            "result": self.result.to_json_dict(),
            "placement_build_seconds": self.placement_build_seconds,
            "simulate_seconds": self.simulate_seconds,
            "relation_build_seconds": self.relation_build_seconds,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
        }


@dataclass
class SweepResult:
    """All points of one sweep."""

    axis: str
    figure: str
    multiprogramming_level: int
    cardinality: int = 100_000
    num_sites: int = 32
    measured_queries: int = 250
    seed: int = 13
    points: List[SweepPoint] = field(default_factory=list)
    #: Aggregate execution accounting (mirrors FigureResult semantics).
    cpu_seconds: float = 0.0
    jobs: int = 1
    executed_runs: int = 0
    cached_runs: int = 0
    #: Wall-clock phase snapshot of the whole sweep (every run plus
    #: parent-side prewarm and cache reads).
    phases: Optional[Dict] = None

    def series(self, strategy: str) -> List[Tuple[float, float]]:
        """(value, throughput) pairs of one strategy, in sweep order."""
        return [(p.value, p.result.throughput)
                for p in self.points if p.strategy == strategy]

    def ratio_series(self, numerator: str,
                     denominator: str) -> List[Tuple[float, float]]:
        """Throughput ratio of two strategies along the axis."""
        num = dict(self.series(numerator))
        den = dict(self.series(denominator))
        return [(v, num[v] / den[v]) for v in num if v in den and den[v]]

    def prewarm_build_seconds(self) -> float:
        """Placement-build seconds spent outside every point's run.

        That is the parallel executor's parent-side prewarm; serial
        sweeps build inside the runs and report 0.0 here.
        """
        totals = (self.phases or {}).get("totals", {})
        total = totals.get("placement-build", {}).get("seconds", 0.0)
        return max(0.0, total - sum(p.placement_build_seconds or 0.0
                                    for p in self.points))

    def to_json_dict(self) -> Dict:
        return {
            "axis": self.axis,
            "figure": self.figure,
            "multiprogramming_level": self.multiprogramming_level,
            "cardinality": self.cardinality,
            "num_sites": self.num_sites,
            "measured_queries": self.measured_queries,
            "seed": self.seed,
            "values": list(dict.fromkeys(p.value for p in self.points)),
            "strategies": list(dict.fromkeys(
                p.strategy for p in self.points)),
            "jobs": self.jobs,
            "executed_runs": self.executed_runs,
            "cached_runs": self.cached_runs,
            "prewarm_build_seconds": self.prewarm_build_seconds(),
            "points": [p.to_json_dict() for p in self.points],
        }


def sweep(axis: str, values: Sequence[float],
          figure: str = "8a",
          strategies: Sequence[str] = ("range", "berd", "magic"),
          multiprogramming_level: int = 32,
          cardinality: int = 100_000,
          num_sites: int = 32,
          measured_queries: int = 250,
          seed: int = 13,
          jobs: int = 1,
          start_method: Optional[str] = None,
          cache: Optional[ResultCache] = None,
          check_invariants: bool = False,
          progress=None) -> SweepResult:
    """Run a (strategy x value) grid along one named axis.

    The axis value overrides the fixed setting it names (``num_sites``
    on the ``num_sites`` axis).  The execution arguments mean what they
    mean for :func:`~repro.experiments.runner.run_experiment`; results
    are bit-identical at any ``jobs``.
    """
    try:
        sweep_axis = AXES[axis]
    except KeyError:
        raise ValueError(
            f"unknown axis {axis!r}; available: {sorted(AXES)}") from None
    config = FIGURES[figure]
    labels: List[Tuple[float, str]] = []
    runs = []
    for value in values:
        point_kwargs = dict(multiprogramming_level=multiprogramming_level,
                            cardinality=cardinality, num_sites=num_sites,
                            measured_queries=measured_queries, seed=seed)
        point_kwargs.update(sweep_axis.apply(value))
        for name in strategies:
            runs.append(compile_point(config, name, **point_kwargs))
            labels.append((value, name))

    executor = make_executor(jobs, start_method=start_method)
    accumulator = phases.push(phases.PhaseAccumulator(keep_spans=False))
    try:
        outcomes = executor.execute(RunPlan(runs=tuple(runs)), cache=cache,
                                    check_invariants=check_invariants,
                                    progress=progress)
    finally:
        phases.pop(merge_into_parent=False)

    result = SweepResult(axis=axis, figure=figure,
                         multiprogramming_level=multiprogramming_level,
                         cardinality=cardinality, num_sites=num_sites,
                         measured_queries=measured_queries, seed=seed,
                         jobs=executor.jobs,
                         phases=accumulator.snapshot())
    for (value, name), outcome in zip(labels, outcomes):
        result.points.append(SweepPoint.from_outcome(name, value, outcome))
        result.cpu_seconds += outcome.wall_seconds
        if outcome.cached:
            result.cached_runs += 1
        else:
            result.executed_runs += 1
    return result
