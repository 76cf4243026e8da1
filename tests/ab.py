"""A paired, in-process A/B timing of two trees of zpscodes.

Run it by hand from the repository root:

    python tests/ab.py --parent DIR --change DIR --workload W [--seed N] [--codes K]

DIR is a source tree (a directory holding src/zpscodes) or a commit of this
repository, whose src/ is extracted with git archive.  Each tree's package
is loaded into this one process under a name of its own, so both run on
the same interpreter, the same numpy and BLAS, and the same host speed:
pairs of runs in separate processes can land in different speed modes of
the host.  The inputs are those of perfbench/workloads.py, which this
script only reads, plus a few named ones (EXTRA).

Each code runs four times, in ABBA order, parent, change, change, parent,
on even codes and in BAAB order on odd ones, so that neither side always
meets a code first; one warm-up code runs outside the run.  Every run
must give the same H text and counter digest, and verify_parity must
accept it, or the script stops.
The per-code ratio is change/parent, of the two runs' summed seconds, for
the whole pipeline and for each of its stages, which are those of
perfbench/harness.pipeline.  The report gives each ratio's median over the
codes with a bootstrap 95 % interval (Efron and Tibshirani, 1993), the
median seconds of each side, and the median minor page faults
(getrusage) of a run on each side.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, Workload, make_generator, matrix_text  # noqa: E402

# Named inputs beyond the benchmark's: the paper's grid at s = 16 and 20
# (3^20 stored as Python ints), and wide type entries, t_i = 20.
EXTRA = {
    w.name: w
    for w in (
        Workload("paper-s16", 3, 16, 1000, (2,) * 16, "minors", rate=1.0),
        Workload("paper-s20", 3, 20, 1000, (2,) * 20, "minors", rate=1.0),
        Workload("wide-t20", 3, 8, 400, (20,) * 8, "minors", rate=1.0),
    )
}
STAGES = ("parse", "standard_form", "construct", "verify_parity", "format")
BOOTSTRAP = 2000


def load(tree: Path, name: str):
    """tree's src/zpscodes, imported as the package name."""
    src = tree / "src" / "zpscodes"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def checkout(where: str, tmp: Path) -> Path:
    """The tree at where: a directory as it is, or a commit's src/
    extracted into tmp."""
    if Path(where).is_dir():
        return Path(where)
    tmp.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", where, "src"],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tmp)], stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit(f"git archive {where} failed")
    return tmp


def run(zp, text: str, method: str) -> tuple:
    """(seconds of each stage, minor faults, (H digest, counter digest)) of
    one pass of perfbench/harness.pipeline."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    marks = [time.perf_counter()]
    g = zp.parse_matrix(text)
    marks.append(time.perf_counter())
    sf = zp.standard_form(g)
    marks.append(time.perf_counter())
    result = getattr(zp, f"parity_check_{method}")(sf)
    h = result.h_unpermuted
    marks.append(time.perf_counter())
    ok, _ = zp.verify_parity(g, h)
    marks.append(time.perf_counter())
    out = zp.format_matrix(h)
    marks.append(time.perf_counter())
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if not ok:
        raise SystemExit("verify_parity rejected an H")
    c = result.counters
    hist = sorted(c.hist.items(), key=repr)
    fields = (c.big_mults, c.big_adds, c.small_mults, c.small_adds, hist)
    digests = (hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(repr(fields).encode()).hexdigest())
    return np.diff(marks), faults, digests


def interval(ratios, rng) -> tuple:
    """(median, low, high): the median of ratios and its bootstrap 95 %
    interval."""
    ratios = np.asarray(ratios)
    picks = rng.integers(0, ratios.size, (BOOTSTRAP, ratios.size))
    medians = np.median(ratios[picks], axis=1)
    return float(np.median(ratios)), *map(float, np.percentile(medians, (2.5, 97.5)))


def compare(parent: Path, change: Path, workload: str, seed: int, codes: int) -> dict:
    """Stage -> (median ratio, low, high, parent median s, change median s),
    with "pipeline" for the whole pass, and "faults" -> (parent, change)
    median minor faults of a run, over codes codes of workload."""
    w = {**WORKLOADS, **EXTRA}[workload]
    sides = (load(parent, "zpscodes_ab_parent"), load(change, "zpscodes_ab_change"))
    texts = [matrix_text(make_generator(w, seed, i), w.p, w.s) for i in range(codes + 1)]
    for zp in sides:
        run(zp, texts[-1], w.method)  # warm-up, outside the run
    seconds = ([], [])  # per side, per code: stage seconds of its two runs
    faults = ([], [])
    for i, text in enumerate(texts[:-1]):
        got = {}
        for side in (0, 1, 1, 0) if i % 2 == 0 else (1, 0, 0, 1):
            stages, minflt, digests = run(sides[side], text, w.method)
            if got.setdefault("digests", digests) != digests:
                raise SystemExit(f"code {i}: the trees give different H or counters")
            got[side] = got.get(side, 0) + stages
            faults[side].append(minflt)
        for side in (0, 1):
            seconds[side].append(got[side])
    parent_s, change_s = (np.array(x) for x in seconds)  # codes x stages
    rng = np.random.default_rng(seed)
    report = {}
    columns = (("pipeline", parent_s.sum(1), change_s.sum(1)),
               *((stage, parent_s[:, k], change_s[:, k]) for k, stage in enumerate(STAGES)))
    for name, a, b in columns:
        report[name] = (*interval(b / a, rng), float(np.median(a)) / 2, float(np.median(b)) / 2)
    report["faults"] = tuple(statistics.median(x) for x in faults)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="tree directory or commit")
    parser.add_argument("--change", required=True, help="tree directory or commit")
    parser.add_argument("--workload", required=True, choices=sorted({**WORKLOADS, **EXTRA}))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--codes", type=int, default=30)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="zpscodes-ab-") as tmp:
        trees = (checkout(args.parent, Path(tmp) / "parent"),
                 checkout(args.change, Path(tmp) / "change"))
        report = compare(*trees, args.workload, args.seed, args.codes)
    print(f"{args.workload}, seed {args.seed}, {args.codes} codes, ABBA/BAAB: change/parent")
    for name, (ratio, low, high, a, b) in ((k, v) for k, v in report.items() if k != "faults"):
        print(f"{name:14} {ratio:6.3f} [{low:.3f}, {high:.3f}]  "
              f"parent {a * 1e3:8.3f} ms  change {b * 1e3:8.3f} ms")
    print(f"{'minor faults':14} parent {report['faults'][0]:g}  change {report['faults'][1]:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
