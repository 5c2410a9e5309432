"""Benchmark entry point.

    python3 bench/run.py --workload k3-campaign --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics of the workload, measured
with tracing off; with --trace 1 the per-layer metrics of a traced pass and
the kernel spot table.  A machine line comes first; the last line of stdout
is the JSON result.  Commands whose output differs from reference.json are
named on stderr and counted in "failed".
"""

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = harness.load_library()
    reference = harness.load_reference()
    workload = harness.WORKLOADS[args.workload]
    print(json.dumps({"machine": harness.machine_info(args.seed),
                      "workload": workload.name, "trace": args.trace}), flush=True)
    if args.trace:
        result = harness.traced_run(lib, workload, args.seed, reference,
                                    harness.spot_cases(lib))
    else:
        result = harness.untraced_run(lib, workload, args.seed, args.seconds, reference)
    for key in result.failed:
        print(f"bench: output differs from reference: {key}", file=sys.stderr)
    print(result.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
