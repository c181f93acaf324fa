"""Bit-identity gate for the scale refactor: canonical P=32 digest.

The 1,024-site work rewrote the placement hot paths (incremental
rebalance weights, pooled candidate search, batched multicast); all of
it is equivalence-by-design, and this script is the cheap CI proof: a
small canonical figure-8a run at 32 sites whose series, response times,
message counts and RunSpec digests are hashed and compared against the
committed ``results/scale_smoke_p32_digest.json``.

    python benchmarks/scale_smoke_digest.py --check        # CI gate
    python benchmarks/scale_smoke_digest.py --check --jobs 2
    python benchmarks/scale_smoke_digest.py --write        # re-baseline

Re-baselining is only legitimate when a change *intends* to alter
simulated results (new workload, parameter fix) -- never to quiet the
gate after a refactor that should have been equivalent.
"""

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.experiments import FIGURES, run_experiment  # noqa: E402
from repro.experiments.plan import clear_memos  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         os.pardir))
DIGEST_PATH = os.path.join(REPO_ROOT, "results",
                           "scale_smoke_p32_digest.json")

#: The canonical configuration.  Changing any value invalidates the
#: committed digest -- bump it and re-baseline deliberately.
CONFIG = {
    "figure": "8a",
    "num_sites": 32,
    "cardinality": 10_000,
    "measured_queries": 40,
    "mpls": [1, 8],
    "seed": 13,
}


def canonical_payload(jobs=1):
    clear_memos()
    result = run_experiment(
        FIGURES[CONFIG["figure"]], cardinality=CONFIG["cardinality"],
        num_sites=CONFIG["num_sites"],
        measured_queries=CONFIG["measured_queries"],
        mpls=tuple(CONFIG["mpls"]), seed=CONFIG["seed"], jobs=jobs)
    return {
        "series": {name: [[run.multiprogramming_level, run.throughput,
                           run.response_time_mean, run.messages_sent]
                          for run in runs]
                   for name, runs in sorted(result.series.items())},
        "spec_digests": {name: list(digests) for name, digests
                         in sorted(result.spec_digests.items())},
    }


def digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def gate_main(description, config, digest_path, payload_fn, argv=None):
    """``--check`` / ``--write`` a committed digest of ``payload_fn(jobs)``.

    Shared by the digest gates: *config* is stored beside the sha256 so
    a run with a drifted configuration fails instead of comparing
    unlike payloads.
    """
    parser = argparse.ArgumentParser(description=description)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="fail (exit 1) unless the run matches the "
                           "committed digest")
    mode.add_argument("--write", action="store_true",
                      help="(re-)write the committed digest file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (the digest must not "
                             "depend on this)")
    args = parser.parse_args(argv)

    got = digest(payload_fn(jobs=args.jobs))
    if args.write:
        with open(digest_path, "w") as handle:
            json.dump({"config": config, "sha256": got}, handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {digest_path}\nsha256 {got}")
        return 0

    with open(digest_path) as handle:
        committed = json.load(handle)
    if committed["config"] != config:
        print("config drift: committed digest was captured with "
              f"{committed['config']}, script runs {config}")
        return 1
    if committed["sha256"] != got:
        print(f"BIT-IDENTITY BROKEN (jobs={args.jobs}):\n"
              f"  committed {committed['sha256']}\n"
              f"  got       {got}")
        return 1
    print(f"bit-identical at P={config['num_sites']} "
          f"(jobs={args.jobs}): sha256 {got}")
    return 0


def main(argv=None):
    return gate_main(__doc__.splitlines()[0], CONFIG, DIGEST_PATH,
                     canonical_payload, argv)


if __name__ == "__main__":
    sys.exit(main())
