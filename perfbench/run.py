"""nconvex benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs passes over them in this
one process until S seconds have gone (at least one pass), checks every
operation, and prints a readable report followed by one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics from wrapped
spans with ``--trace 1``.  The solver is imported from ``src/`` next to
this directory; nothing is installed.  Run records and span dumps go to
``perfbench/out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy loads, so runs stay comparable.
BLAS_THREADS = 1
SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nconvex benchmark runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nconvex" / "__init__.py").is_file():
        print(f"nconvex sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import harness
    import nconvex

    if Path(nconvex.__file__).resolve().parent != SRC / "nconvex":
        print(f"nconvex was imported from {nconvex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = harness.environment(args.seed, BLAS_THREADS)
    try:
        record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    line = harness.result_line(record)
    harness.append_record(record, env, line)
    harness.print_report(record, env)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
