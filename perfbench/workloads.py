"""The benchmark's workloads and the simulated outputs each pass checks.

On the simulated side every workload is a closed loop: each of the MPL
terminals issues its next query only after its previous one completes.
On the host side one process drives the load, with at most two forked
workers (``fig8a-jobs2``).  ``README.md`` gives the reason for each
workload and the sizes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Tuple

# Layer entry points are looked up on their modules at call time, so
# the traced run's wrappers (which rebind module attributes) see them.
from repro import dynamics, experiments
from repro.experiments import plan as plan_module

from tracing import SHIP_PREFIX, Tracer

FIGURE = experiments.FIGURES["8a"]


@dataclass(frozen=True)
class Workload:
    name: str
    #: "figure" runs ``run_experiment``; "dynamics" runs ``run_dynamics``.
    kind: str
    #: Key of this workload's digests in ``references.json``; workloads
    #: that simulate the same points share one.
    reference: str
    num_sites: int = 32
    cardinality: int = 100_000
    mpls: Tuple[int, ...] = ()
    measured_queries: int = 0
    strategies: Tuple[str, ...] = ("range", "berd", "magic")
    jobs: int = 1
    #: Times the relation/placement build is repeated in set-up.
    setup_repeats: int = 0

    def figure_kwargs(self, seed: int) -> Dict:
        return dict(cardinality=self.cardinality, num_sites=self.num_sites,
                    measured_queries=self.measured_queries, mpls=self.mpls,
                    seed=seed, strategies=self.strategies)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig8a-serial", "figure", "fig8a-grid", mpls=(1, 16, 64),
             measured_queries=250, setup_repeats=3),
    Workload("dynamics-checked", "dynamics", "dynamics-8a",
             cardinality=20_000, mpls=(8,), measured_queries=150,
             strategies=("range", "hash", "berd", "magic")),
    Workload("fig8a-jobs2", "figure", "fig8a-grid", mpls=(1, 16, 64),
             measured_queries=250, jobs=2, setup_repeats=3),
)}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def setup_once(workload: Workload, seed: int) -> None:
    """Build every relation and placement the passes need, from cold."""
    if workload.kind != "figure":
        return
    plan_module.clear_memos()
    plan_module.prewarm(experiments.compile_figure(
        FIGURE, **workload.figure_kwargs(seed)))


@dataclass
class PassOutput:
    #: point label -> digest of its simulated outputs.
    hashes: Dict[str, str]
    #: point label -> why its outputs are malformed (independent of
    #: any reference).
    malformed: Dict[str, str]
    #: Dynamics payload counts (empty on static workloads).
    counts: Dict[str, float]


def run_pass(workload: Workload, seed: int, tracer: Tracer) -> PassOutput:
    if workload.kind == "figure":
        return _figure_pass(workload, seed, tracer)
    return _dynamics_pass(workload, seed)


def _check_run(result, workload: Workload) -> str:
    if result.completed != workload.measured_queries:
        return f"completed {result.completed} != {workload.measured_queries}"
    if not result.throughput > 0:
        return f"throughput {result.throughput}"
    return ""


def _figure_pass(workload: Workload, seed: int, tracer: Tracer) -> PassOutput:
    figure = experiments.run_experiment(FIGURE, jobs=workload.jobs,
                            **workload.figure_kwargs(seed))
    # Workers ship what they measured back as phase counters.
    for name, value in figure.phases["counters"].items():
        if name.startswith(SHIP_PREFIX):
            tracer.totals[name[len(SHIP_PREFIX):]] += value
    hashes, malformed = {}, {}
    for strategy, runs in figure.series.items():
        for result in runs:
            label = f"{strategy}.mpl{result.multiprogramming_level}"
            hashes[label] = digest(result.to_json_dict())
            problem = _check_run(result, workload)
            if problem:
                malformed[label] = problem
    return PassOutput(hashes, malformed, {})


def _dynamics_pass(workload: Workload, seed: int) -> PassOutput:
    figure = dynamics.run_dynamics(
        "8a", strategies=workload.strategies,
        cardinality=workload.cardinality,
        multiprogramming_level=workload.mpls[0],
        measured_queries=workload.measured_queries, seed=seed,
        check_invariants=True)
    hashes, malformed = {}, {}
    counts = {"dynamics.moved_fraction": 0.0, "dynamics.inserts_issued": 0,
              "dynamics.online_splits": 0, "dynamics.fault_retries": 0,
              "dynamics.degraded_queries": 0}
    per_strategy = figure.dynamics["per_strategy"]
    for strategy in workload.strategies:
        payload = per_strategy[strategy]
        baseline = figure.series[strategy][0]
        hashes[f"{strategy}.baseline"] = digest(
            [baseline.to_json_dict(), payload["baseline"]])
        for scenario in ("failure", "rescale", "churn"):
            hashes[f"{strategy}.{scenario}"] = digest(payload[scenario])
        problem = _check_run(baseline, workload)
        if problem:
            malformed[f"{strategy}.baseline"] = problem
        moved = payload["rescale"]["report"]
        stats = payload["failure"]["stats"]
        maintainer = payload["churn"]["maintainer"] or {}
        counts["dynamics.moved_fraction"] += dynamics.rescale.RescaleReport \
            .from_json_dict(moved).moved_fraction / len(workload.strategies)
        counts["dynamics.inserts_issued"] += payload["churn"]["inserts_issued"]
        counts["dynamics.online_splits"] += maintainer.get(
            "splits_performed", 0)
        counts["dynamics.fault_retries"] += stats["retries"]
        counts["dynamics.degraded_queries"] += stats["degraded_queries"]
    return PassOutput(hashes, malformed, counts)
