"""Benchmark of regimelq: time to solution, verify and Monte Carlo
throughput over four workloads, with per-layer timings in a traced run.

Run from the repository root:

    python3 bench/run.py --workload grid-solve --seed 0 --seconds 20 --trace 0

Workloads: grid-solve, tree-lattice, mc-verify, mc-scalar (see
bench/README.md).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics.  The last line of standard output is
the result object; the lines before it carry the machine facts and the
answer record.  The library is imported from ``src/`` next to this
directory; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-solve", "tree-lattice", "mc-verify", "mc-scalar")
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sizes", choices=("real", "tiny"), default="real",
                   help="problem sizes; 'tiny' is for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this fresh process and print it")
    return p.parse_args(argv)


def pin_to_one_cpu():
    """Run on the first allowed CPU only (set-up processes inherit it), so
    the speed probe times the core the work runs on; see speed.py."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "regimelq" / "__init__.py").is_file():
        print(f"error: regimelq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread, fixed before numpy loads, so runs on a shared
    # two-core machine do not depend on what the other core is doing
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    t_start = perf_counter()
    import harness          # imports regimelq: part of the measured set-up

    if args.setup_only:
        print(json.dumps(harness.setup_once(args.workload, args.seed, args.sizes,
                                            ROOT, t_start)))
        return 0
    out = harness.run(args.workload, args.seed, args.seconds, args.trace,
                      args.sizes, ROOT, t_start)
    print(json.dumps({"facts": out["facts"]}))
    print(json.dumps(out["answers"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
