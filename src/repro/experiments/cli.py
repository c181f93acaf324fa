"""Command-line entry point: ``repro-experiments``.

Examples::

    repro-experiments --figure 8a                # one figure, full sweep
    repro-experiments --all --quick              # every figure, small runs
    repro-experiments --figure 8a --jobs 4       # grid on 4 worker processes
    repro-experiments --figure 8a --cache runs/cache
                                                 # resumable: re-runs load
                                                 # completed points from disk
    repro-experiments --sweep num_sites --sweep-values 32,128,512,1024 \
        --mpls 8                                 # scale-up to 1,024 sites
    repro-experiments --processors               # §7 processor counts
    repro-experiments --rebalance                # §4 worst-case heuristic
    repro-experiments --explain 8a               # traced re-run: where did
                                                 # each query type's time go?
    repro-experiments --figure 8a --trace --metrics-out runs/8a
                                                 # span/metric artifacts
    repro-experiments --figure 8a --audit        # placement-quality audit
                                                 # report (md + HTML) next
                                                 # to the figure run
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .cache import ResultCache
from .config import FIGURES
from .plot import plot_figure
from .report import (
    average_processors_table,
    format_figure,
    format_processor_table,
    rebalance_worst_case,
)
from .results_io import save_figure_json
from .runner import run_experiment

__all__ = ["main", "build_parser"]

#: Reduced settings for --quick runs (smoke-level fidelity).
QUICK_MPLS = (1, 16, 64)
QUICK_MEASURED = 200


def _mpl_list(text: str):
    """Parse a comma-separated multiprogramming-level list."""
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"multiprogramming levels must be >= 1, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of 'A Performance Analysis of "
                    "Alternative Multi-Attribute Declustering Strategies' "
                    "(SIGMOD 1992).")
    parser.add_argument("--figure", choices=sorted(FIGURES),
                        help="regenerate a single figure")
    parser.add_argument("--all", action="store_true",
                        help="regenerate every figure")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps for a fast smoke run")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for figure/sweep/explain "
                             "grids (default: 1 = serial; results are "
                             "bit-identical at any N).  The parent "
                             "prewarms every relation/placement the "
                             "plan needs, then forks a warm pool that "
                             "inherits them copy-on-write")
    parser.add_argument("--start-method",
                        choices=("fork", "spawn", "forkserver"),
                        help="multiprocessing start method for --jobs "
                             "(default: fork where available, which "
                             "shares the prewarmed memos with workers "
                             "for free; spawn/forkserver prewarm once "
                             "per worker instead; results are "
                             "bit-identical across methods)")
    parser.add_argument("--cache", metavar="DIR",
                        help="content-addressed result cache: completed "
                             "(strategy, MPL, seed, ...) points are loaded "
                             "from DIR instead of re-simulated, and new "
                             "points are stored there, so interrupted "
                             "sweeps resume")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache (force fresh simulation)")
    parser.add_argument("--processors", action="store_true",
                        help="print the per-figure average-processor table")
    parser.add_argument("--rebalance", action="store_true",
                        help="run the section-4 rebalancing worst case")
    parser.add_argument("--trace", action="store_true",
                        help="collect telemetry (spans, metrics, "
                             "utilization timelines) during figure runs")
    parser.add_argument("--latency", action="store_true",
                        help="capture per-query-type response-time "
                             "distributions (mergeable quantile "
                             "sketches): p50/p95/p99/max per figure "
                             "point in reports and saved JSON; series "
                             "are bit-identical either way")
    parser.add_argument("--metrics-out", metavar="DIR",
                        help="write spans.jsonl / metrics.jsonl / "
                             "metrics.prom / summary.txt per run into DIR "
                             "(implies --trace)")
    parser.add_argument("--explain", metavar="FIG", choices=sorted(FIGURES),
                        help="re-run one MPL point of FIG with tracing on "
                             "and print the per-query-type resource "
                             "breakdown")
    parser.add_argument("--explain-mpl", type=int, default=64,
                        help="multiprogramming level for --explain "
                             "(default: 64)")
    parser.add_argument("--explain-top-k", type=int, default=5,
                        metavar="K",
                        help="rows per query type in the --explain "
                             "why-table (default: 5)")
    parser.add_argument("--audit", action="store_true",
                        help="run the placement-quality audit after each "
                             "figure: heat maps, skew, M_i slice spread, "
                             "per-query fan-out, rendered as markdown + "
                             "HTML (simulated results are untouched)")
    parser.add_argument("--audit-out", metavar="DIR",
                        help="directory for audit_<figure>.{md,html} "
                             "(default: audit-reports; implies --audit)")
    parser.add_argument("--audit-samples", type=int, default=400,
                        metavar="N",
                        help="sampled predicates per query type in the "
                             "audit (default: 400)")
    parser.add_argument("--progress", choices=("line", "jsonl"),
                        help="live run progress on stderr: 'line' keeps "
                             "one status line (done/total, events/sec, "
                             "cache-aware ETA, worker heartbeats); "
                             "'jsonl' streams one JSON event per line "
                             "for machines")
    parser.add_argument("--no-phases", action="store_true",
                        help="skip wall-clock phase attribution "
                             "(plan-compile / relation-build / "
                             "placement-build / simulate / cache I/O "
                             "seconds recorded into saved results; "
                             "results are bit-identical either way)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="run every simulated point under the "
                             "conservation-law invariant checker (first "
                             "breach aborts with InvariantViolation; "
                             "results are bit-identical either way, but "
                             "cached points are re-simulated so they are "
                             "actually checked)")
    parser.add_argument("--mpls", metavar="M1,M2,...", type=_mpl_list,
                        help="override the multiprogramming levels swept")
    parser.add_argument("--sweep", metavar="AXIS",
                        help="run a parameter sweep (see --sweep-values) "
                             "at one MPL (--mpls M, default 32); axes: "
                             "num_sites, qb_selectivity, correlation, "
                             "buffer_pool, cpu_mips.  The scale-up "
                             "experiment is --sweep num_sites "
                             "--sweep-values 32,128,512,1024 --mpls 8 "
                             "(see docs/scaling.md)")
    parser.add_argument("--sweep-values", metavar="V1,V2,...",
                        help="comma-separated axis values for --sweep")
    parser.add_argument("--sweep-figure", default="8a",
                        help="figure config the sweep is based on")
    parser.add_argument("--dynamics", action="store_true",
                        help="run the dynamics scenarios: per-strategy "
                             "baseline, mid-run site failure (p99 "
                             "degradation), elastic rescale with audit "
                             "before/after, and online-insert churn "
                             "with live MAGIC grid splits (see "
                             "docs/dynamics.md)")
    parser.add_argument("--dynamics-figure", default="8a",
                        choices=sorted(FIGURES),
                        help="figure config the dynamics run is based "
                             "on (default: 8a)")
    parser.add_argument("--dynamics-scenarios", metavar="S1,S2,...",
                        help="comma-separated subset of "
                             "failure,rescale,churn (default: all)")
    parser.add_argument("--dynamics-strategies", metavar="N1,N2,...",
                        help="comma-separated subset of "
                             "range,hash,berd,magic (default: all)")
    parser.add_argument("--dynamics-grow-to", type=int, default=64,
                        help="machine size the rescale scenario grows "
                             "to (default: 64)")
    parser.add_argument("--dynamics-mpl", type=int, default=8,
                        help="multiprogramming level for --dynamics "
                             "(default: 8)")
    parser.add_argument("--report", metavar="DIR",
                        help="render a markdown report from figure_*.json "
                             "files previously saved with --save-json")
    parser.add_argument("--plot", action="store_true",
                        help="also render each figure as an ASCII plot")
    parser.add_argument("--save-json", metavar="DIR",
                        help="save each figure's results as JSON in DIR")
    parser.add_argument("--measured", type=int, default=400,
                        help="measured queries per (strategy, MPL) point")
    parser.add_argument("--cardinality", type=int, default=100_000,
                        help="relation cardinality")
    parser.add_argument("--processors-count", type=int, default=32,
                        dest="num_sites", help="number of processors")
    parser.add_argument("--seed", type=int, default=13)
    return parser


def _cache_from_args(args) -> Optional[ResultCache]:
    if args.no_cache or not args.cache:
        return None
    return ResultCache(args.cache)


def _progress_from_args(args):
    """A ProgressTracker on stderr when --progress was requested."""
    if not args.progress:
        return None
    from ..obs.progress import ProgressTracker
    return ProgressTracker(stream=sys.stderr, mode=args.progress)


def _telemetry_spec(args):
    """The picklable telemetry recipe when --trace/--metrics-out/
    --latency is on.  --latency alone skips spans and timelines (the
    sketches need neither), keeping capture overhead near zero."""
    tracing = bool(args.trace or args.metrics_out)
    latency = bool(getattr(args, "latency", False))
    if not (tracing or latency):
        return None
    from ..obs import TelemetrySpec
    return TelemetrySpec(trace=tracing,
                         timeline_interval=0.5 if tracing else 0.0,
                         latency=latency)


def _export_run_artifacts(out_dir: str, figure: str, telemetries) -> List[str]:
    """Write span/metric artifacts for every traced run; returns notes."""
    import os

    from ..obs import (render_prometheus, why_table, write_metrics_jsonl,
                       write_spans_jsonl)
    os.makedirs(out_dir, exist_ok=True)
    notes = []
    for (strategy, mpl), telemetry in sorted(telemetries.items()):
        if telemetry.spans is None:
            # Latency-only capture: no spans/metrics to export.
            continue
        stem = os.path.join(out_dir, f"{figure}_{strategy}_mpl{mpl}")
        spans = write_spans_jsonl(telemetry.spans, f"{stem}.spans.jsonl")
        write_metrics_jsonl(telemetry.registry, f"{stem}.metrics.jsonl")
        with open(f"{stem}.metrics.prom", "w") as handle:
            handle.write(render_prometheus(telemetry.registry))
        with open(f"{stem}.summary.txt", "w") as handle:
            handle.write(why_table(telemetry.spans))
        notes.append(f"(wrote {stem}.{{spans.jsonl,metrics.jsonl,"
                     f"metrics.prom,summary.txt}}; {spans} spans)")
    return notes


def _execution_note(result) -> str:
    """One line of execution accounting for a figure run."""
    return (f"(wall time {result.wall_seconds:.1f}s, "
            f"sim time {result.cpu_seconds:.1f}s, "
            f"jobs {result.jobs}; "
            f"{result.executed_runs} simulated, "
            f"{result.cached_runs} from cache)")


def _run_figures(names: List[str], args) -> List[str]:
    blocks = []
    if args.mpls:
        mpls = args.mpls
    else:
        mpls = QUICK_MPLS if args.quick else None
    measured = QUICK_MEASURED if args.quick else args.measured
    cache = _cache_from_args(args)
    telemetry_spec = _telemetry_spec(args)
    progress = _progress_from_args(args)
    try:
        return _run_figures_inner(names, args, blocks, mpls, measured,
                                  cache, telemetry_spec, progress)
    finally:
        if progress is not None:
            progress.close()


def _run_figures_inner(names, args, blocks, mpls, measured, cache,
                       telemetry_spec, progress) -> List[str]:
    for name in names:
        config = FIGURES[name]
        result = run_experiment(
            config, cardinality=args.cardinality,
            num_sites=args.num_sites,
            measured_queries=measured, mpls=mpls, seed=args.seed,
            jobs=args.jobs, start_method=args.start_method,
            cache=cache, telemetry_spec=telemetry_spec,
            check_invariants=args.check_invariants,
            progress=progress, collect_phases=not args.no_phases)
        if args.audit or args.audit_out:
            # Post-processing only: the audit reads the finished result
            # (and the plan layer's memoized placements), so the series
            # above are bit-identical with or without it.
            from .audit_report import (audit_payload, build_audit_report,
                                       write_report)
            report = build_audit_report(result, samples=args.audit_samples)
            result.audit = audit_payload(report)
            md_path, html_path = write_report(
                report, args.audit_out or "audit-reports")
            blocks.append(f"(audit: wrote {md_path} and {html_path}; "
                          f"digest {report.digest})")
        blocks.append(format_figure(result))
        if args.metrics_out:
            blocks += _export_run_artifacts(args.metrics_out, name,
                                            result.telemetries)
        if args.plot:
            blocks.append("")
            blocks.append(plot_figure(result))
        if args.save_json:
            import os
            os.makedirs(args.save_json, exist_ok=True)
            path = os.path.join(args.save_json, f"figure_{name}.json")
            save_figure_json(result, path)
            blocks.append(f"(saved {path})")
        blocks.append(_execution_note(result))
        blocks.append("")
    return blocks


def _sweep_value(text: str):
    """An axis value as typed: int when it parses as one, else float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _run_sweep(args) -> List[str]:
    from .sweeps import sweep
    values = [_sweep_value(v) for v in args.sweep_values.split(",")]
    progress = _progress_from_args(args)
    try:
        result = sweep(args.sweep, values, figure=args.sweep_figure,
                       multiprogramming_level=(args.mpls[0] if args.mpls
                                               else 32),
                       cardinality=args.cardinality,
                       num_sites=args.num_sites,
                       measured_queries=(QUICK_MEASURED if args.quick
                                         else args.measured),
                       seed=args.seed, jobs=args.jobs,
                       start_method=args.start_method,
                       cache=_cache_from_args(args),
                       check_invariants=args.check_invariants,
                       progress=progress)
    finally:
        if progress is not None:
            progress.close()
    out = [f"Sweep over {result.axis} (figure {result.figure}, "
           f"MPL {result.multiprogramming_level}):"]
    strategies = list(dict.fromkeys(p.strategy for p in result.points))
    out.append(f"{'value':>12}" + "".join(f"{s:>10}" for s in strategies)
               + f"{'build(s)':>12}{'events/s':>12}")
    for value in values:
        at_value = [p for p in result.points if p.value == value]
        throughput = {p.strategy: p.result.throughput for p in at_value}
        row = f"{value:12g}" + "".join(
            f"{throughput.get(s, float('nan')):10.1f}" for s in strategies)
        builds = [p.placement_build_seconds for p in at_value
                  if p.placement_build_seconds is not None]
        row += f"{sum(builds):12.2f}" if builds else f"{'-':>12}"
        rates = [p.events_per_sec for p in at_value if p.events_per_sec > 0]
        row += (f"{sum(rates) / len(rates):12.0f}" if rates
                else f"{'-':>12}")
        out.append(row)
    prewarm = result.prewarm_build_seconds()
    if prewarm > 0:
        out.append(f"(placements built before the runs by the parallel "
                   f"prewarm: {prewarm:.2f}s placement-build in total)")
    if args.save_json:
        import json
        import os
        os.makedirs(args.save_json, exist_ok=True)
        path = os.path.join(args.save_json,
                            f"sweep_{result.axis}_{result.figure}.json")
        with open(path, "w") as handle:
            json.dump(result.to_json_dict(), handle, indent=1)
        out.append(f"(saved {path})")
    out.append(f"(jobs {result.jobs}; {result.executed_runs} simulated, "
               f"{result.cached_runs} from cache)")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out: List[str] = []

    did_something = False
    if args.figure:
        out += _run_figures([args.figure], args)
        did_something = True
    if args.all:
        out += _run_figures(sorted(FIGURES), args)
        did_something = True
    if args.processors:
        for name in sorted(FIGURES):
            config = FIGURES[name]
            table = average_processors_table(
                config, cardinality=args.cardinality,
                num_sites=args.num_sites, seed=args.seed)
            out.append(format_processor_table(config, table))
            out.append("")
        did_something = True
    if args.rebalance:
        stats = rebalance_worst_case(num_sites=args.num_sites)
        out.append("Section 4 worst case (identical attribute values):")
        for key, value in stats.items():
            out.append(f"  {key}: {value}")
        did_something = True
    if args.sweep:
        if not args.sweep_values:
            print("--sweep requires --sweep-values", file=sys.stderr)
            return 2
        if args.mpls and len(args.mpls) != 1:
            print("--sweep runs at one multiprogramming level; give "
                  "--mpls exactly one value", file=sys.stderr)
            return 2
        out += _run_sweep(args)
        did_something = True
    if args.dynamics:
        from ..dynamics import run_dynamics
        from .results_io import save_figure_json

        scenarios = (tuple(args.dynamics_scenarios.split(","))
                     if args.dynamics_scenarios else None)
        strategies = (tuple(args.dynamics_strategies.split(","))
                      if args.dynamics_strategies else None)
        result = run_dynamics(
            args.dynamics_figure,
            strategies=strategies, scenarios=scenarios,
            cardinality=(min(args.cardinality, 20_000) if args.quick
                         else args.cardinality),
            num_sites=args.num_sites, grow_to=args.dynamics_grow_to,
            multiprogramming_level=args.dynamics_mpl,
            measured_queries=(QUICK_MEASURED if args.quick
                              else args.measured),
            seed=args.seed, check_invariants=args.check_invariants,
            progress=lambda line: print(f"  {line}", file=sys.stderr))
        dyn = result.dynamics
        out.append(f"Dynamics (figure {dyn['figure']}, "
                   f"{dyn['num_sites']} sites, MPL "
                   f"{dyn['multiprogramming_level']}, scenarios "
                   f"{','.join(dyn['scenarios'])}):")
        header = (f"{'strategy':>10}{'base q/s':>10}{'fail q/s':>10}"
                  f"{'p99 x':>8}{'moved%':>8}{'grow q/s':>10}"
                  f"{'splits':>8}")
        out.append(header)
        for name, payload in dyn["per_strategy"].items():
            base = payload["baseline"]["throughput"]
            row = f"{name:>10}{base:10.1f}"
            failure = payload.get("failure")
            if failure:
                worst = max((d for d in failure["p99_degradation"].values()
                             if d is not None), default=float("nan"))
                row += f"{failure['throughput']:10.1f}{worst:8.2f}"
            else:
                row += f"{'-':>10}{'-':>8}"
            rescale = payload.get("rescale")
            if rescale:
                moved = (100.0 * rescale["report"]["tuples_moved"]
                         / rescale["report"]["total_tuples"])
                row += f"{moved:8.1f}{rescale['throughput_after']:10.1f}"
            else:
                row += f"{'-':>8}{'-':>10}"
            churn = payload.get("churn")
            if churn and churn.get("maintainer"):
                row += f"{churn['maintainer']['splits_performed']:8d}"
            else:
                row += f"{'-':>8}"
            out.append(row)
        if args.save_json:
            import os
            os.makedirs(args.save_json, exist_ok=True)
            path = os.path.join(args.save_json,
                                f"dynamics_{dyn['figure']}.json")
            save_figure_json(result, path)
            out.append(f"(saved {path})")
        did_something = True
    if args.explain:
        from .explain import explain_figure
        explained = explain_figure(
            args.explain, mpl=args.explain_mpl,
            cardinality=args.cardinality, num_sites=args.num_sites,
            measured_queries=(QUICK_MEASURED if args.quick
                              else min(args.measured, 200)),
            seed=args.seed, jobs=args.jobs)
        out.append(explained.render(top_k=args.explain_top_k))
        did_something = True
    if args.report:
        from .markdown import report_from_directory
        out.append(report_from_directory(args.report))
        did_something = True

    if not did_something:
        build_parser().print_help()
        return 2

    print("\n".join(out))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
