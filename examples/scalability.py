#!/usr/bin/env python3
"""Extension: the declustering gap as the machine grows.

The paper's introduction motivates multi-attribute declustering with
systems of "hundreds and thousands of processors": the cost of
broadcasting a selection to processors holding no relevant tuples grows
with the machine.  This example sweeps the processor count and plots
MAGIC's advantage over range partitioning with the built-in sweep
framework and ASCII plotter.

Run:  python examples/scalability.py     (takes ~1-2 minutes)
"""

from repro.experiments import ascii_plot, sweep


def main():
    processors = [4, 8, 16, 32]
    print("Sweeping machine size (low-low mix, MPL = 2 x processors "
          "equivalent load)...")
    result = sweep("num_sites", processors, figure="8a",
                   strategies=("range", "magic"),
                   multiprogramming_level=32,
                   cardinality=50_000, measured_queries=200)

    series = {name: result.series(name) for name in ("range", "magic")}
    print()
    print(ascii_plot(series, width=48, height=14, x_label="processors"))

    print("\nMAGIC / range throughput ratio:")
    for value, ratio in result.ratio_series("magic", "range"):
        print(f"  P={int(value):3d}: {ratio:4.2f}x")
    print("\nThe gap widens with the machine: range must start an "
          "operator on every\nprocessor for half the workload, and that "
          "overhead scales with P while the\nuseful work per query does "
          "not.  MAGIC's grid keeps both query types local.")


if __name__ == "__main__":
    main()
