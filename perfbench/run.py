"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of perfbench/workloads.py against the package under src/ of
the checkout this file sits in, and prints the result as one JSON object on
the last line of standard output.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 a separate traced run gives the per-layer
ones.  Exits 2 without a result when the checkout holds no src/entgames.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# single-process serial workloads on matrices of at most 144 x 144: one BLAS
# thread, so runs do not depend on the core count or on other tenants' load
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "entgames" / "__init__.py").is_file():
        print(f"error: no entgames package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness   # imports numpy and entgames, so only after the settings above

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
