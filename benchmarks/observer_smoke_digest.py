"""Bit-identity gate for the observers: metrics, timelines, sketches, checks.

``scale_smoke_digest.py`` hashes untraced results and
``traced_smoke_digest.py`` hashes span records; neither pins what the
observers themselves collect.  This script runs a small canonical
figure-8a point at 32 sites for every strategy with both observers on
-- a :class:`~repro.obs.Telemetry` built from
``TelemetrySpec(latency=True)`` (a short sampling interval so every
utilization timeline carries many points) and an
:class:`~repro.validation.InvariantChecker` -- once plain and once under
a seeded site failure with recovery (``FaultPlan.seeded``).  Each run
contributes its result, the full metrics-registry export (counters,
gauges, histograms, timelines), the latency-sketch p50/p95/p99 per
query type and the checker's ``summary()``; the digest is compared
against the committed ``results/observer_smoke_p32_digest.json``.

    python benchmarks/observer_smoke_digest.py --check        # CI gate
    python benchmarks/observer_smoke_digest.py --check --jobs 2
    python benchmarks/observer_smoke_digest.py --write        # re-baseline

``--jobs 2`` runs the six machines in a two-process pool, so the digest
also proves the collected data survives the trip back from a worker.
Re-baselining is only legitimate when a change *intends* to alter what
the observers record -- never to quiet the gate after a refactor that
should have been equivalent.
"""

import multiprocessing
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.dynamics import FaultPlan  # noqa: E402
from repro.experiments import FIGURES  # noqa: E402
from repro.experiments.plan import (  # noqa: E402
    PAPER_INDEXES,
    clear_memos,
    compile_point,
    placement_for_spec,
)
from repro.gamma import GammaMachine  # noqa: E402
from repro.obs import TelemetrySpec  # noqa: E402
from repro.validation import InvariantChecker  # noqa: E402
from repro.workload import make_mix  # noqa: E402
from scale_smoke_digest import gate_main  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         os.pardir))
DIGEST_PATH = os.path.join(REPO_ROOT, "results",
                           "observer_smoke_p32_digest.json")

#: The canonical configuration.  Changing any value invalidates the
#: committed digest -- bump it and re-baseline deliberately.
CONFIG = {
    "figure": "8a",
    "num_sites": 32,
    "cardinality": 10_000,
    "measured_queries": 60,
    "mpl": 8,
    "seed": 13,
    "timeline_interval": 0.02,
    "fault": {"seed": 7, "fail_at": 0.25, "recovery_seconds": 0.05},
}

#: (variant name, faulted) -- every strategy of the figure runs each.
VARIANTS = (("observed", False), ("faulted", True))


def _run(task):
    strategy, faulted = task
    config = FIGURES[CONFIG["figure"]]
    planned = compile_point(config, strategy, CONFIG["mpl"],
                            cardinality=CONFIG["cardinality"],
                            num_sites=CONFIG["num_sites"],
                            measured_queries=CONFIG["measured_queries"],
                            seed=CONFIG["seed"])
    spec = planned.spec
    fault_plan = None
    if faulted:
        fault = CONFIG["fault"]
        fault_plan = FaultPlan.seeded(
            fault["seed"], CONFIG["num_sites"], fail_at=fault["fail_at"],
            recovery_seconds=fault["recovery_seconds"])
    telemetry = TelemetrySpec(
        latency=True, timeline_interval=CONFIG["timeline_interval"]).build()
    checker = InvariantChecker()
    machine = GammaMachine(placement_for_spec(spec, planned.params),
                           indexes=PAPER_INDEXES, params=planned.params,
                           seed=spec.machine_seed, telemetry=telemetry,
                           invariants=checker, fault_plan=fault_plan)
    mix = make_mix(spec.mix_name, domain=spec.cardinality,
                   qb_low_tuples=spec.qb_low_tuples)
    result = machine.run(mix, spec.multiprogramming_level,
                         measured_queries=spec.measured_queries)
    return {
        "strategy": strategy,
        "result": result.to_json_dict(),
        "registry": [metric.as_dict() for metric in telemetry.registry],
        "latency": {
            query_type: {q: summary[q] for q in ("p50", "p95", "p99")}
            for query_type, summary in telemetry.latency.summary().items()},
        "invariants": checker.summary(),
    }


def canonical_payload(jobs=1):
    clear_memos()
    strategies = FIGURES[CONFIG["figure"]].strategies
    tasks = [(strategy, faulted) for _, faulted in VARIANTS
             for strategy in strategies]
    if jobs > 1:
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            runs = pool.map(_run, tasks)
    else:
        runs = [_run(task) for task in tasks]
    return {name: [run for run, (_, faulted) in zip(runs, tasks)
                   if faulted == variant_faulted]
            for name, variant_faulted in VARIANTS}


def main(argv=None):
    return gate_main(__doc__.splitlines()[0], CONFIG, DIGEST_PATH,
                     canonical_payload, argv)


if __name__ == "__main__":
    sys.exit(main())
