"""Telemetry overhead: fig-8a quick regeneration with tracing off vs. on.

Writes ``BENCH_telemetry_overhead.json`` next to the repo root so future
changes can track what instrumentation costs.  The acceptance bar for
the observability layer is that *disabled* telemetry stays within noise
of the uninstrumented seed (every hot-path hook is one attribute check,
or a resource hold whose ``on_done`` booking is ``None``); *enabled*
tracing may legitimately cost tens of percent -- it is an opt-in
diagnosis mode.

Run directly (``python benchmarks/test_telemetry_overhead.py``) or via
pytest (``pytest benchmarks/test_telemetry_overhead.py``).
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ledger import record as ledger_record  # noqa: E402

from repro.experiments import FIGURES, run_experiment
from repro.obs import TelemetrySpec

MPLS = (1, 16, 64)
# Overridable so the CI smoke jobs can seed the perf ledger from a tiny
# configuration (the 3.0x overhead ceiling still holds at any size).
MEASURED = int(os.environ.get("TELEMETRY_BENCH_MEASURED", "250"))
CARDINALITY = int(os.environ.get("TELEMETRY_BENCH_CARDINALITY", "100000"))
PROCESSORS = 32
OUTPUT = os.path.join(os.path.dirname(__file__), os.pardir,
                      "BENCH_telemetry_overhead.json")


def _time_run(telemetry_spec=None):
    started = time.perf_counter()
    result = run_experiment(FIGURES["8a"], cardinality=CARDINALITY,
                            num_sites=PROCESSORS, measured_queries=MEASURED,
                            mpls=MPLS, seed=13,
                            telemetry_spec=telemetry_spec)
    wall = time.perf_counter() - started
    return wall, result


def measure():
    off_wall, off_result = _time_run()
    on_wall, on_result = _time_run(TelemetrySpec())
    spans = sum(t.spans.span_count()
                for t in on_result.telemetries.values())
    return {
        "benchmark": "fig-8a quick regeneration (3 MPL points x 3 strategies)",
        "mpls": list(MPLS),
        "measured_queries": MEASURED,
        "telemetry_off_wall_seconds": round(off_wall, 3),
        "telemetry_on_wall_seconds": round(on_wall, 3),
        "overhead_ratio": round(on_wall / off_wall, 3),
        "spans_recorded": spans,
        "throughput_unchanged": {
            strategy: [off_result.throughput_at(strategy, mpl)
                       == on_result.throughput_at(strategy, mpl)
                       for mpl in MPLS]
            for strategy in off_result.series
        },
    }


def test_telemetry_overhead_and_artifact():
    payload = measure()
    with open(OUTPUT, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    ledger_record({
        "telemetry_overhead_ratio": payload["overhead_ratio"],
    }, benchmark="telemetry_overhead")
    # Tracing must not change the simulation itself: identical seeds
    # produce identical throughput series with telemetry off and on.
    for flags in payload["throughput_unchanged"].values():
        assert all(flags)
    # Enabled tracing is allowed to cost time, but not absurdly so.
    assert payload["overhead_ratio"] < 3.0


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2, sort_keys=True))
