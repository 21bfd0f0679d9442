"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of graphgame from the source tree next to this directory
(`src/graphgame`, `fixtures/`). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. The line
before it is the detailed report (per-command times, fail ratio, artifact
digest, machine record). Work files go to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads(nproc: int) -> None:
    """Cap BLAS threads at the cores this process may use, and keep the
    program's replica thread pool off (closed loop, one caller)."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        value = int(current) if current.isdigit() and 0 < int(current) <= nproc else nproc
        os.environ[var] = str(value)
    os.environ.pop("GRAPHGAME_THREADS", None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("repeated-play", "chain-run", "one-shot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "graphgame" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no graphgame source tree (src/graphgame, fixtures/) under {ROOT}",
              file=sys.stderr)
        return 2
    cap_threads(len(os.sched_getaffinity(0)))  # before numpy is imported
    sys.path.insert(0, str(src))

    import graphgame

    if Path(graphgame.__file__).resolve().parent != (src / "graphgame").resolve():
        print(f"error: imported graphgame from {graphgame.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    result, report = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
