"""Benchmark of the zpscodes parity-check pipeline.

    python3 perfbench/run.py --workload iter-wide --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (the library is imported from ./src).
Prints the metrics by name with their units, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.  The full result, with digests and environment, is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"code_s.p50": "s", "code_s.tail": "s", "verified_per_s": "codes/s",
              "setup_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "zpscodes" / "__init__.py").is_file():
        print(f"error: no library source at {src}/zpscodes", file=sys.stderr)
        return 2
    # Pin BLAS/OpenMP pools before numpy loads; children inherit the setting.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy
    import zpscodes

    if Path(zpscodes.__file__).resolve().parent != (src / "zpscodes").resolve():
        print(f"error: zpscodes imported from {zpscodes.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    ncodes = harness.code_count(w, args.seconds)
    if trace:
        # Each traced code also runs untraced: a quarter as many codes.
        ncodes = max(3, ncodes // 4)
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    result = harness.run_workload(
        zpscodes, w, args.seed, ncodes, trace,
        spans_path=OUT / f"{stem}.spans.npz" if trace else None,
        setup_src=None if trace else str(src),
    )
    e2e = result["end_to_end"]
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seconds": args.seconds,
    }
    correct = result["failed"] == 0
    result["correct"] = correct
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"workload {w.name}: p={w.p} s={w.s} n={w.n} t={w.t} method={w.method} "
          f"seed={args.seed} codes={result['codes']} trace={args.trace}")
    print(f"  code_s.p50      {e2e['code_s.p50']:.6f} s")
    print(f"  code_s.tail     {e2e['code_s.tail']:.6f} s   "
          f"(p{result['tail_percentile']} of {result['codes']} codes)")
    print(f"  verified_per_s  {e2e['verified_per_s']:.4f} codes/s")
    print(f"  fail_frac       {e2e['fail_frac']:.4f} ratio   {result['failures'] or ''}")
    if not trace:
        print(f"  setup_s         {e2e['setup_s']:.6f} s")
    print(f"  peak_rss_mb     {e2e['peak_rss_mb']:.1f} MiB")
    for key, value in result["digests"].items():
        print(f"  digest.{key:<15} {value[:16]}")
    for key, value in (result["per_layer"] if trace else result["counters"]).items():
        print(f"  {key:<32} {value:.6g} {layer_unit(key)}")
    if trace and result["untraced_targets"]:
        print(f"  untraced (not found): {', '.join(result['untraced_targets'])}")
    env = result["env"]
    print(f"  env python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"git={env['git_sha'][:12]}")

    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
