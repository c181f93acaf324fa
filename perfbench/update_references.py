"""Regenerate ``references.json``, the simulated-output digests per seed.

Simulated statistics are deterministic, so the benchmark compares every
point it simulates against these digests; a mismatch is a change of
simulated behaviour, never noise.  Regenerate them only for a change
that alters simulated behaviour on purpose, from the repository root::

    python3 perfbench/update_references.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Seeds with stored digests.  13 is the default seed.
SEEDS = range(0, 21)


def main() -> int:
    table = {}
    for workload in workloads.WORKLOADS.values():
        if workload.jobs != 1 or workload.reference in table:
            continue
        table[workload.reference] = {}
        for seed in SEEDS:
            workloads.setup_once(workload, seed)
            out = workloads.run_pass(workload, seed, Tracer())
            if out.malformed:
                print(f"{workload.name} seed {seed}: {out.malformed}",
                      file=sys.stderr)
                return 1
            table[workload.reference][str(seed)] = dict(
                sorted(out.hashes.items()))
            print(f"{workload.reference} seed {seed}: "
                  f"{len(out.hashes)} points", flush=True)
    (HERE / "references.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
