"""Bit-identity gate for the traced and buffer-pool paths: P=32 digest.

``scale_smoke_digest.py`` hashes untraced runs with the default
parameters only, so neither the traced resource bookings (span records
and per-query-type ``resource_totals``) nor the explicit buffer-pool
read path (``buffer_pool_pages`` set) is covered by any gate.  This
script runs a small canonical figure-8a point at 32 sites three ways --
traced, buffer pool (64 pages) untraced, buffer pool traced -- hashes
each run's full result, span records and resource totals, and compares
the digest against the committed ``results/traced_smoke_p32_digest.json``.

    python benchmarks/traced_smoke_digest.py --check        # CI gate
    python benchmarks/traced_smoke_digest.py --check --jobs 2
    python benchmarks/traced_smoke_digest.py --write        # re-baseline

Re-baselining is only legitimate when a change *intends* to alter
simulated results or the span schema -- never to quiet the gate after
a refactor that should have been equivalent.
"""

import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.experiments import FIGURES  # noqa: E402
from repro.experiments.executor import make_executor  # noqa: E402
from repro.experiments.plan import clear_memos, compile_figure  # noqa: E402
from repro.gamma import GAMMA_PARAMETERS  # noqa: E402
from repro.obs import TelemetrySpec  # noqa: E402
from scale_smoke_digest import gate_main  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         os.pardir))
DIGEST_PATH = os.path.join(REPO_ROOT, "results",
                           "traced_smoke_p32_digest.json")

#: The canonical configuration.  Changing any value invalidates the
#: committed digest -- bump it and re-baseline deliberately.
CONFIG = {
    "figure": "8a",
    "num_sites": 32,
    "cardinality": 10_000,
    "measured_queries": 40,
    "mpls": [8],
    "seed": 13,
    "buffer_pool_pages": 64,
}

#: (variant name, buffer pool on, traced) -- one executed plan each.
VARIANTS = (
    ("traced", False, True),
    ("buffered", True, False),
    ("buffered_traced", True, True),
)


def _run_variant(buffered, traced, jobs):
    params = GAMMA_PARAMETERS
    if buffered:
        params = dataclasses.replace(
            params, buffer_pool_pages=CONFIG["buffer_pool_pages"])
    plan = compile_figure(
        FIGURES[CONFIG["figure"]], cardinality=CONFIG["cardinality"],
        num_sites=CONFIG["num_sites"],
        measured_queries=CONFIG["measured_queries"],
        mpls=tuple(CONFIG["mpls"]), seed=CONFIG["seed"], params=params)
    outcomes = make_executor(jobs).execute(
        plan, telemetry_spec=TelemetrySpec() if traced else None)
    points = []
    for outcome in outcomes:
        point = {"strategy": outcome.spec.strategy,
                 "result": outcome.result.to_json_dict()}
        if traced:
            spans = outcome.telemetry.spans
            point["spans"] = [[entry.time, entry.sequence, entry.kind,
                               entry.details] for entry in spans.entries()]
            point["resource_totals"] = spans.resource_totals
        points.append(point)
    return points


def canonical_payload(jobs=1):
    clear_memos()
    return {name: _run_variant(buffered, traced, jobs)
            for name, buffered, traced in VARIANTS}


def main(argv=None):
    return gate_main(__doc__.splitlines()[0], CONFIG, DIGEST_PATH,
                     canonical_payload, argv)


if __name__ == "__main__":
    sys.exit(main())
