"""Run every workload, each in a fresh process, and print all its metrics.

    python3 perfbench/report.py --seed 1 --seconds 25 [--trace]

This includes bigmod, which BENCHMARK.json leaves out while its codes fail
(see perfbench/README.md).  With --trace each workload also gets a traced
run, which prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            # Everything but the machine-readable last line.
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
                status = proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
