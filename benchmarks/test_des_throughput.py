"""DES kernel throughput: optimized event loop vs. the frozen baseline.

Runs the canonical fig-8a workload (mpl 16, all three strategies) on
both kernels -- the live ``repro.des`` and the pre-optimization
snapshot in ``benchmarks/_baseline_des`` -- interleaved in a single
process (see :mod:`benchmarks.des_workload` for why interleaving is
essential on noisy hosts), and writes ``BENCH_des_throughput.json``
next to the repo root.

The acceptance bar is a >= 1.5x CPU-time speed-up overall, and the
comparison is only meaningful because ``run_compare`` asserts the two
kernels produce bit-identical simulation results first: a faster
kernel that drifts is a different simulator, not an optimization.  It
also asserts the exact event relation ``current == baseline - holds``
(the live kernel schedules one agenda entry per resource hold, the
baseline two), so the two kernels' event counts are reported apart.

Environment overrides (used by the CI ``perf-smoke`` job to keep the
run small; the speedup floor is only asserted on the full
configuration):

* ``DES_BENCH_MEASURED`` -- measured queries per strategy (default 100)
* ``DES_BENCH_REPEAT``   -- timed repeats per kernel (default 4)
* ``DES_BENCH_ASSERT_SPEEDUP`` -- set to ``0`` to record without
  asserting (tiny configs are noise-dominated)

Run directly (``python benchmarks/test_des_throughput.py``) or via
pytest (``pytest benchmarks/test_des_throughput.py``).
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from des_workload import run_compare  # noqa: E402
from ledger import record as ledger_record  # noqa: E402

CARDINALITY = 100_000
PROCESSORS = 32
MPL = 16
MEASURED = int(os.environ.get("DES_BENCH_MEASURED", "100"))
REPEAT = int(os.environ.get("DES_BENCH_REPEAT", "4"))
ASSERT_SPEEDUP = os.environ.get("DES_BENCH_ASSERT_SPEEDUP", "1") != "0"
STRATEGIES = ("range", "magic", "berd")
SPEEDUP_FLOOR = 1.5
OUTPUT = os.path.join(os.path.dirname(__file__), os.pardir,
                      "BENCH_des_throughput.json")


def measure():
    summary = run_compare(
        cardinality=CARDINALITY, num_sites=PROCESSORS, mpl=MPL,
        measured_queries=MEASURED, seed=13, strategies=list(STRATEGIES),
        repeat=REPEAT)
    report = {
        "benchmark": "fig-8a simulation, optimized DES kernel vs. frozen "
                     "baseline (interleaved in-process, best of "
                     f"{REPEAT} repeats)",
        "config": summary["config"],
        "total_events": summary["total_events"],
        "total_holds": summary["total_holds"],
        "cpu_seconds": {name: round(value, 4)
                        for name, value in
                        summary["total_cpu_seconds"].items()},
        "events_per_second": {name: round(value)
                              for name, value in
                              summary["events_per_second"].items()},
        "per_strategy_speedup": {
            strategy: round(entry["speedup"], 3)
            for strategy, entry in summary["strategies"].items()},
        "speedup": round(summary["speedup"], 3),
        "results_identical": summary["results_identical"],
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": ASSERT_SPEEDUP,
    }
    return report


def test_des_throughput():
    report = measure()
    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    ledger_record({
        "des_kernel_speedup": report["speedup"],
        "des_events_per_second": report["events_per_second"]["current"],
    }, benchmark="des_throughput")
    print()
    print(json.dumps(report, indent=2, sort_keys=True))
    # run_compare already raised if any strategy's results diverged
    # between kernels or across repeats; record the fact regardless.
    assert report["results_identical"]
    if report["speedup_asserted"]:
        assert report["speedup"] >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x kernel speedup on the fig-8a "
            f"workload, got {report['speedup']}x")
    else:
        print("(speedup floor not asserted for this configuration, "
              "artifact recorded)")


if __name__ == "__main__":
    test_des_throughput()
    print(f"wrote {os.path.abspath(OUTPUT)}")
