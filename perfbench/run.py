"""Host-time benchmark of the declustering simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fig8a-serial --seed 13 \\
        --seconds 30 --trace 0

One run sets the workload up (imports, the lazy ``scipy.stats`` import,
relation and placement builds, repeated and reported as a median), then
runs passes of the workload until ``--seconds`` have elapsed, checking
every simulated point against stored reference digests.  It prints each
pass, each metric by name with its unit, and as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics from the traced ones and writes the spans to
``perfbench/out/``.  ``--workload all`` runs every workload in its own
process and ends with one combined line.  See ``perfbench/README.md``
for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
OUT = HERE / "out"

#: Passes run even when one pass outlasts ``--seconds``; a traced run
#: needs two untraced and two traced ones.
MIN_PASSES = {0: 3, 1: 4}

#: Per-layer metrics derived per pass rather than summed.
_RATIOS = {"des.events_per_query", "des.host_ns_per_event",
           "experiments.parallel_efficiency", "trace.overhead_ratio"}


def metric_units(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in definition[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    import numpy
    return {"git_sha": git_sha(), "host": platform.node(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def cpu_seconds() -> float:
    """Process CPU of this process plus every reaped worker."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped worker."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def load_references(key: str, seed: int):
    table = json.loads(REFERENCES.read_text())
    return table.get(key, {}).get(str(seed))


def layer_values(delta, workload) -> dict:
    """Per-layer metrics of one traced pass from its tracer-total deltas."""
    values = {name: delta.get(name, 0.0) for name in metric_units("per_layer")}
    events, completions = delta.get("des.events", 0.0), delta.get(
        "completions", 0.0)
    run_s, execute_s = delta.get("gamma.run_s", 0.0), delta.get(
        "experiments.execute_s", 0.0)
    values["des.events_per_query"] = (
        events / completions if completions else 0.0)
    values["des.host_ns_per_event"] = run_s / events * 1e9 if events else 0.0
    values["experiments.parallel_efficiency"] = (
        run_s / (workload.jobs * execute_s) if execute_s else 0.0)
    return values


def run_all(args) -> int:
    """Run every workload in its own process; print one combined line."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="", flush=True)
        if child.returncode != 0:
            return child.returncode
        result = json.loads(child.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    # Set-up, part 1: what every CLI invocation pays once.  scipy.stats
    # is otherwise imported lazily by the first GammaMachine.run.
    started = time.perf_counter()
    import scipy.stats  # noqa: F401
    import workloads
    from tracing import Tracer
    import_s = time.perf_counter() - started

    try:
        workload = workloads.WORKLOADS[args.workload]
    except KeyError:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    info = stamp(args)
    print("perfbench", json.dumps(info, sort_keys=True), flush=True)

    tracer = Tracer()
    tracer.install_run_probe()

    # Set-up, part 2: relation and placement builds, from cold each time.
    build_s, setup_delta = [], {}
    repeats = workload.setup_repeats if not args.trace else min(
        1, workload.setup_repeats)
    for _ in range(repeats):
        if args.trace:
            tracer.install_full()
        tracer.pass_id = "setup"
        before = dict(tracer.totals)
        t0 = time.perf_counter()
        with tracer.measure("bench", "setup"):
            workloads.setup_once(workload, args.seed)
        build_s.append(time.perf_counter() - t0)
        setup_delta = _delta(tracer.totals, before)
        tracer.uninstall_full()
    setup_s = import_s + (statistics.median(build_s) if build_s else 0.0)
    print(f"setup: imports {import_s:.4f} s, builds "
          f"{[round(s, 4) for s in build_s]} s", flush=True)

    expected = load_references(workload.reference, args.seed)
    if expected is None and workload.jobs > 1:
        # No stored digests for this seed: the serial executor is the
        # reference the parallel one must reproduce bit for bit.
        serial = replace(workload, jobs=1)
        expected = workloads.run_pass(serial, args.seed, tracer).hashes

    passes, attempted, failed, problems = [], 0, 0, []
    measuring = time.perf_counter()
    while (len(passes) < MIN_PASSES[args.trace]
           or time.perf_counter() - measuring < args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install_full()
        tracer.pass_id = len(passes)
        before = dict(tracer.totals)
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            if traced:
                with tracer.measure("bench", "pass"):
                    out = workloads.run_pass(workload, args.seed, tracer)
            else:
                out = workloads.run_pass(workload, args.seed, tracer)
        except Exception as exc:  # a failed pass counts, the run goes on
            wall, out = time.perf_counter() - t0, None
            traceback.print_exc()
            problems.append(f"pass {len(passes)}: {type(exc).__name__}: {exc}")
        else:
            wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        tracer.uninstall_full()
        delta = _delta(tracer.totals, before)

        if out is None:
            points = len(expected) if expected else 1
            attempted, failed = attempted + points, failed + points
        else:
            if expected is None:
                # No stored digests for this seed: every pass must
                # reproduce the first one.
                expected = out.hashes
            labels = set(expected) | set(out.hashes)
            wrong = sorted({label for label in labels
                            if expected.get(label) != out.hashes.get(label)}
                           | set(out.malformed))
            if wrong:
                problems.append(f"pass {len(passes)}: outputs differ at "
                                f"{wrong[:6]} {out.malformed}")
            attempted, failed = attempted + len(labels), failed + len(wrong)
            delta.update(out.counts)
        passes.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                       "totals": delta})
        print(f"pass {len(passes) - 1}{' traced' if traced else ''}: "
              f"wall {wall:.4f} s, cpu {cpu:.4f} s, simulate "
              f"{delta.get('gamma.run_s', 0.0):.4f} s, "
              f"{int(delta.get('completions', 0))} completions, "
              f"{int(delta.get('des.events', 0))} events", flush=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall_s = statistics.median(p["wall_s"] for p in untraced)
    if args.trace:
        # Counts and seconds are the median traced pass plus the traced
        # set-up, which holds the builds of the static workloads.
        per_pass = [layer_values(p["totals"], workload) for p in traced]
        metrics = {}
        for name, unit in metric_units("per_layer").items():
            value = statistics.median(v[name] for v in per_pass)
            if name not in _RATIOS:
                value += setup_delta.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"]["value"] = statistics.median(
            p["wall_s"] for p in traced) / wall_s
    else:
        def sim_rate(p):
            run_s = p["totals"].get("gamma.run_s", 0.0)
            completions = p["totals"].get("completions", 0.0)
            return completions / run_s if run_s else 0.0
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "setup_s": setup_s,
            "sim_queries_per_s": statistics.median(map(sim_rate, untraced)),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}

    for problem in problems:
        print("FAILED", problem, flush=True)
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
          f"points over {len(passes)} passes)")

    OUT.mkdir(exist_ok=True)
    record = {"stamp": info, "setup": {"import_s": import_s,
                                       "build_s": build_s},
              "passes": passes, "metrics": metrics, "problems": problems}
    if args.trace:
        record["spans"] = tracer.spans
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _delta(after, before) -> dict:
    return {name: value - before.get(name, 0.0)
            for name, value in after.items()
            if value != before.get(name, 0.0)}


if __name__ == "__main__":
    sys.exit(main())
