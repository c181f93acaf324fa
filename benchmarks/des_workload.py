"""Run the canonical fig-8a workload and report DES kernel throughput.

One invocation simulates the figure-8a query mix at a single
multiprogramming level for each requested strategy, timing only the
``GammaMachine.run`` window (relation generation and placement
construction happen before the clock starts).  The summary -- agenda
entries scheduled, CPU seconds, events/sec, and the full
:class:`~repro.gamma.metrics.RunResult` per strategy -- is printed to
stdout as JSON.

Two kernels can be measured:

* ``current`` -- the live ``repro.des`` package;
* ``baseline`` -- the frozen pre-optimization snapshot in
  ``benchmarks/_baseline_des``.

The default ``--compare`` mode loads *both* in one interpreter: the
baseline rides in a private copy of the ``repro`` package (registered
as ``_repro_baseline`` with its ``des`` subpackage pointed at the
snapshot), and the timed repeats alternate kernels back to back.
Interleaving inside a single process is what makes the measurement
robust: host-level CPU speed drifts by tens of percent between
invocations, but adjacent repeats see the same machine state, and the
best-of-``--repeat`` CPU time per kernel discards scheduler noise and
one-time lazy imports.  ``--kernel current``/``--kernel baseline``
run one kernel only (the baseline via ``sys.modules`` aliasing before
anything imports ``repro``), which keeps a fully isolated cross-check
available.

Run standalone with the package on the path::

    PYTHONPATH=src python benchmarks/des_workload.py --measured 100 --repeat 3
"""

import argparse
import importlib
import importlib.util
import json
import os
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
_BASELINE_PKG = "_repro_baseline"


def _install_baseline_kernel() -> None:
    """Alias ``repro.des`` to the pre-optimization snapshot.

    Must run before any ``repro`` import: the snapshot package is
    registered in ``sys.modules`` under the real name, so every later
    ``from ..des import ...`` (and submodule import such as
    ``repro.des.environment``) resolves to the frozen copy.
    """
    base = os.path.join(HERE, "_baseline_des")
    spec = importlib.util.spec_from_file_location(
        "repro.des", os.path.join(base, "__init__.py"),
        submodule_search_locations=[base])
    module = importlib.util.module_from_spec(spec)
    sys.modules["repro.des"] = module
    spec.loader.exec_module(module)


def _load_baseline_machine():
    """Import a private ``repro`` copy running on the snapshot kernel.

    The copy is registered as ``_repro_baseline`` with
    ``_repro_baseline.des`` pre-bound to ``benchmarks/_baseline_des``,
    so its every relative ``from ..des import ...`` resolves to the
    frozen kernel while the model code is byte-for-byte the same
    source as the live package.  Returns the copy's ``GammaMachine``.
    """
    if _BASELINE_PKG not in sys.modules:
        src = os.path.normpath(os.path.join(HERE, os.pardir, "src", "repro"))
        pkg_spec = importlib.util.spec_from_file_location(
            _BASELINE_PKG, os.path.join(src, "__init__.py"),
            submodule_search_locations=[src])
        pkg = importlib.util.module_from_spec(pkg_spec)
        sys.modules[_BASELINE_PKG] = pkg
        # The snapshot kernel must be registered before the package
        # body runs (it imports .gamma, which imports ..des).
        base = os.path.join(HERE, "_baseline_des")
        des_spec = importlib.util.spec_from_file_location(
            f"{_BASELINE_PKG}.des", os.path.join(base, "__init__.py"),
            submodule_search_locations=[base])
        des = importlib.util.module_from_spec(des_spec)
        sys.modules[f"{_BASELINE_PKG}.des"] = des
        des_spec.loader.exec_module(des)
        pkg_spec.loader.exec_module(pkg)
    return importlib.import_module(
        f"{_BASELINE_PKG}.gamma.machine").GammaMachine


def _build_points(cardinality, num_sites, mpl, measured_queries, seed,
                  strategies, package: str = "repro"):
    """Compile the workload for one package copy.

    *package* matters in compare mode: placements and indexes are
    dispatched on ``isinstance`` inside the model (loader, catalog), so
    each package copy must consume objects built from its *own* classes
    -- a current-package ``MagicPlacement`` handed to the baseline copy
    would silently fail its checks and simulate a different machine.
    The copies are byte-identical source, so same seeds => same
    workload.
    """
    config_mod = importlib.import_module(f"{package}.experiments.config")
    plan = importlib.import_module(f"{package}.experiments.plan")

    config = config_mod.FIGURES["8a"]
    points = []
    for strategy in strategies:
        spec = plan.compile_point(
            config, strategy, multiprogramming_level=mpl,
            cardinality=cardinality, num_sites=num_sites,
            measured_queries=measured_queries, seed=seed).spec
        # Everything the simulation consumes is built outside the timed
        # window: this benchmark measures the event loop, not NumPy.
        placement = plan.placement_for_spec(spec)
        mix = plan.make_mix(spec.mix_name, domain=spec.cardinality,
                            qb_low_tuples=spec.qb_low_tuples)
        points.append((strategy, spec, placement, mix))
    return points


def _timed_run(machine_cls, spec, placement, mix, indexes, params):
    """One simulation run.

    Returns ``(cpu_seconds, wall_seconds, events, holds, result)``;
    ``holds`` counts the holds whose grant entry surfaced on the
    baseline kernel, whose forward-compat hold shim keeps that count on
    its environment, and is None on the live kernel.
    """
    machine = machine_cls(placement, indexes=indexes, params=params,
                          seed=spec.machine_seed)
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    result = machine.run(
        mix, multiprogramming_level=spec.multiprogramming_level,
        measured_queries=spec.measured_queries)
    cpu = time.process_time() - cpu_started
    wall = time.perf_counter() - wall_started
    # The baseline snapshot predates the events_scheduled property;
    # _seq is the same counter in both kernels.
    return (cpu, wall, machine.env._seq, getattr(machine.env, "holds", None),
            asdict(result))


def run_workload(cardinality: int, num_sites: int, mpl: int,
                 measured_queries: int, seed: int, strategies,
                 repeat: int = 1, kernel: str = "current"):
    """Measure one kernel (the classic single-kernel mode)."""
    from repro.experiments.plan import GAMMA_PARAMETERS, PAPER_INDEXES
    from repro.gamma.machine import GammaMachine

    points = _build_points(cardinality, num_sites, mpl, measured_queries,
                           seed, strategies)
    per_strategy = {}
    total_events = 0
    total_cpu = 0.0
    for strategy, spec, placement, mix in points:
        cpu = wall = float("inf")
        result = events = None
        for _ in range(max(1, repeat)):
            this_cpu, this_wall, this_events, _, this_result = _timed_run(
                GammaMachine, spec, placement, mix, PAPER_INDEXES,
                GAMMA_PARAMETERS)
            if result is not None and (this_result != result
                                       or this_events != events):
                raise AssertionError(
                    f"non-deterministic repeat for {strategy!r}")
            result, events = this_result, this_events
            cpu = min(cpu, this_cpu)
            wall = min(wall, this_wall)
        total_events += events
        total_cpu += cpu
        per_strategy[strategy] = {
            "events": events,
            "cpu_seconds": cpu,
            "wall_seconds": wall,
            "events_per_second": events / cpu if cpu else 0.0,
            "result": result,
        }
    return {
        "config": {
            "figure": "8a",
            "cardinality": cardinality,
            "num_sites": num_sites,
            "multiprogramming_level": mpl,
            "measured_queries": measured_queries,
            "seed": seed,
            "strategies": list(strategies),
            "repeat": max(1, repeat),
        },
        "kernel": kernel,
        "strategies": per_strategy,
        "total_events": total_events,
        "total_cpu_seconds": total_cpu,
        "events_per_second": total_events / total_cpu if total_cpu else 0.0,
    }


def run_compare(cardinality: int, num_sites: int, mpl: int,
                measured_queries: int, seed: int, strategies,
                repeat: int = 3):
    """Measure both kernels, interleaved, in this process.

    Per strategy and repeat the two kernels run back to back
    (current first, then baseline), so both see the same host state;
    the per-kernel best-of-``repeat`` CPU time is the throughput
    basis.  Results are asserted bit-identical across kernels and
    deterministic across repeats.  Event counts are asserted to obey
    the exact relation ``current == baseline - holds``: the live
    kernel pushes one agenda entry per granted ``Resource.hold`` (its
    wake), the baseline two (the grant, then a timeout once the grant
    surfaces), so ``holds`` counts the baseline's surfaced grants -- a
    grant still on the agenda when the run stops has cost one entry on
    either kernel.
    """
    _load_baseline_machine()
    kernels = {}
    for name, package in (("current", "repro"), ("baseline", _BASELINE_PKG)):
        plan = importlib.import_module(f"{package}.experiments.plan")
        kernels[name] = {
            "machine": importlib.import_module(
                f"{package}.gamma.machine").GammaMachine,
            "params": plan.GAMMA_PARAMETERS,
            "indexes": plan.PAPER_INDEXES,
            "points": _build_points(cardinality, num_sites, mpl,
                                    measured_queries, seed, strategies,
                                    package=package),
        }

    per_strategy = {}
    totals = {name: 0.0 for name in kernels}
    total_events = {name: 0 for name in kernels}
    total_holds = 0
    for index, strategy in enumerate(strategies):
        # Untimed warm-up of both kernels: first contact pays lazy
        # imports (scipy for the confidence interval) and code-object
        # warm-up; it also provides the reference results.
        reference, events, counted = {}, {}, {}
        for name, k in kernels.items():
            _, _, events[name], counted[name], reference[name] = _timed_run(
                k["machine"], *k["points"][index][1:], k["indexes"],
                k["params"])
        holds = counted["baseline"]
        if events["current"] != events["baseline"] - holds:
            raise AssertionError(
                f"event counts for {strategy!r} break current == baseline "
                f"- holds: {events['current']} != {events['baseline']} "
                f"- {holds}")
        if reference["current"] != reference["baseline"]:
            raise AssertionError(
                f"kernels disagree on simulated results for {strategy!r}")

        best = {name: float("inf") for name in kernels}
        for _ in range(max(1, repeat)):
            for name, k in kernels.items():
                cpu, _, this_events, _, this_result = _timed_run(
                    k["machine"], *k["points"][index][1:], k["indexes"],
                    k["params"])
                if (this_result != reference[name]
                        or this_events != events[name]):
                    raise AssertionError(
                        f"non-deterministic repeat for {strategy!r} "
                        f"on the {name} kernel")
                best[name] = min(best[name], cpu)

        total_holds += holds
        entry = {"holds": holds, "result": reference["current"]}
        for name in kernels:
            totals[name] += best[name]
            total_events[name] += events[name]
            entry[name] = {
                "events": events[name],
                "cpu_seconds": best[name],
                "events_per_second": (events[name] / best[name]
                                      if best[name] else 0.0),
            }
        entry["speedup"] = (best["baseline"] / best["current"]
                            if best["current"] else 0.0)
        per_strategy[strategy] = entry

    return {
        "config": {
            "figure": "8a",
            "cardinality": cardinality,
            "num_sites": num_sites,
            "multiprogramming_level": mpl,
            "measured_queries": measured_queries,
            "seed": seed,
            "strategies": list(strategies),
            "repeat": max(1, repeat),
        },
        "mode": "compare",
        "strategies": per_strategy,
        "total_events": total_events,
        "total_holds": total_holds,
        "total_cpu_seconds": totals,
        "events_per_second": {
            name: total_events[name] / totals[name] if totals[name] else 0.0
            for name in totals},
        "speedup": (totals["baseline"] / totals["current"]
                    if totals["current"] else 0.0),
        "results_identical": True,  # asserted above, per strategy
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel", choices=["compare", "current", "baseline"],
                        default="compare",
                        help="measure both kernels interleaved (default) "
                             "or a single one in isolation")
    parser.add_argument("--baseline", action="store_true",
                        help="shorthand for --kernel baseline")
    parser.add_argument("--cardinality", type=int, default=100_000)
    parser.add_argument("--sites", type=int, default=32)
    parser.add_argument("--mpl", type=int, default=16)
    parser.add_argument("--measured", type=int, default=150)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--strategies", default="range,magic,berd",
                        help="comma-separated strategy names")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repeats per strategy; best CPU time wins")
    args = parser.parse_args(argv)

    kernel = "baseline" if args.baseline else args.kernel
    strategies = [s for s in args.strategies.split(",") if s]
    if kernel == "compare":
        summary = run_compare(
            cardinality=args.cardinality, num_sites=args.sites,
            mpl=args.mpl, measured_queries=args.measured, seed=args.seed,
            strategies=strategies, repeat=args.repeat)
    else:
        if kernel == "baseline":
            _install_baseline_kernel()
        summary = run_workload(
            cardinality=args.cardinality, num_sites=args.sites,
            mpl=args.mpl, measured_queries=args.measured, seed=args.seed,
            strategies=strategies, repeat=args.repeat, kernel=kernel)
    json.dump(summary, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
