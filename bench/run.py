"""qprofile benchmark: one workload, one fresh process, one JSON result line.

    python3 bench/run.py --workload loop-14q --seed 1 --seconds 30 --trace 0

Workloads: loop-14q, cell-4q-parallel, swap-study (see workloads.py and
README.md). With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run,
and the spans go to bench/out/trace-<workload>-seed<seed>.json. Progress
and check failures go to stderr. Run from the repository root; the program
is imported from its sources in ./src.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Single-threaded BLAS, set before numpy loads, so that load threads never
# outnumber the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "qprofile", "__init__.py")):
        print(f"error: no qprofile sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s,
        out_dir=os.path.join(BENCH_DIR, "out"),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
