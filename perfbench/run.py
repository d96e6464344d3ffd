"""Benchmark entry point.  Run from the root of a checkout:

    python3 perfbench/run.py --workload row|grid|cli --seed N --seconds S --trace 0|1

It measures the package under ``src/`` of that checkout (nothing needs to be
installed), prints a full result document, then, as the last line, the
summary: ``{"correct", "attempted", "failed", "metrics"}``.  Exit status 0
when every attempt passed its checks, 1 when one failed, 2 when the checkout
has no ``src/lattice_rearrange``.  See README.md for the workloads.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=("row", "grid", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lattice_rearrange" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package to measure under {SRC}\n")
        return 2
    # one solve at a time: keep BLAS from starting its own threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
