"""CL-protocol benchmark for clner; see README.md in this directory.

    python3 bench/run.py --workload toy-cl-spankl --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --self-test

Run from the repository root. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import os

# one BLAS thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "clner" / "__init__.py").is_file():
        print(f"no clner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    parser = argparse.ArgumentParser(description="CL-protocol benchmark for clner")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show each correctness check rejecting corrupted input")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    out = BENCH_DIR / "out"
    if args.self_test:
        import selftest

        return selftest.main(out / "selftest")
    import measure

    return measure.main(args.workload, args.seed, args.seconds, args.trace, out)


if __name__ == "__main__":
    sys.exit(main())
