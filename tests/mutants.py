"""A catalogue of hand mutants of src/zpscodes, each with the tests that
must kill it: mutation analysis (DeMillo, Lipton and Sayward, "Hints on
test data selection", 1978), kept small and aimed at the exactness rule,
the signs, the counters and the canonical ranges.

CI runs it on every pull request.  Run it from the repository root, for
every mutant or for some:

    python tests/mutants.py [name ...]

Each mutant names a file under src/zpscodes/, a text that occurs there
exactly once, its replacement, what the change breaks and the Tier-1 tests
expected to kill it.  The script copies src/, tests/ and pyproject.toml
into a temporary directory, applies one mutant at a time and runs its tests
there with pytest -x and plain asserts: a kill needs no explanation, and
pytest's diff of two long texts can take minutes.  A mutant is killed when a test fails; it survives
when they all pass.  The script prints one line a mutant and exits 1 if
any survives or cannot be run.  A survivor stays in the catalogue: it
names a test that is missing.  tests/test_mutants.py checks in Tier-1 that
each text still occurs exactly once and that each test named exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/zpscodes/
    old: str
    new: str
    breaks: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant(
        "rule-without-minus-one", "matrix.py",
        "return (limit - 1 - start) // (term or 1) if start < limit else 0",
        "return (limit - start) // (term or 1) if start < limit else 0",
        "the exactness rule lets a sum reach the limit itself, one past the exact range",
        ("tests/test_matrix.py::test_exact_terms_rule",),
    ),
    Mutant(
        "zero-term-divides", "matrix.py",
        "// (term or 1) if start < limit",
        "// term if start < limit",
        "a forest whose blocks are all zero, bound 0, divides by zero",
        ("tests/test_minors.py::test_levels_exact_or_storage",),
    ),
    Mutant(
        "power-of-two-exception-for-floats", "matrix.py",
        "and m < limit and issubclass(dtype, np.integer):",
        "and m < limit:",
        "a float type, which does not wrap modulo 2^b, is told a power of two bounds nothing",
        ("tests/test_matrix.py::test_exact_terms_rule",),
    ),
    Mutant(
        "tier-gate-strict", "matrix.py",
        "if _exact_terms(dtype, term) >= max(k, 1):",
        "if _exact_terms(dtype, term) > max(k, 1):",
        "a product or level that a float type holds exactly is sent a tier wider",
        ("tests/test_matrix.py::test_float32_tier_boundary",
         "tests/test_minors.py::test_exact_levels_at_their_bounds"),
    ),
    Mutant(
        "tier-ignores-k", "matrix.py",
        "if _exact_terms(dtype, term) >= max(k, 1):",
        "if _exact_terms(dtype, term) >= 1:",
        "a product whose k terms overflow a float type's exact range still runs in it",
        ("tests/test_matrix.py::test_float_tier_boundary",),
    ),
    Mutant(
        "empty-product-tier", "matrix.py",
        "_exact_terms(dtype, term) >= max(k, 1)",
        "_exact_terms(dtype, term) >= k",
        "an empty product over a Python-int ring runs in float32 and returns Python floats",
        ("tests/test_matrix.py::test_kernel_matches_python_ints",),
    ),
    Mutant(
        "storage-from-one-entry", "matrix.py",
        "if _exact_terms(np.int64, (ring.modulus - 1) ** 2) else object",
        "if _exact_terms(np.int64, ring.modulus - 1) else object",
        "rings whose products of two entries overflow int64 are stored in int64",
        ("tests/test_matrix.py::test_exact_terms_rule",),
    ),
    Mutant(
        "kernel-chunk-of-one-factor", "matrix.py",
        "_exact_terms(np.int64, (m - 1) ** 2, m - 1, m) if dtype is np.int64",
        "_exact_terms(np.int64, m - 1, m - 1, m) if dtype is np.int64",
        "an int64 chunk counts terms of m - 1, not (m - 1)^2, and overflows",
        ("tests/test_matrix.py::test_kernel_matches_python_ints",),
    ),
    Mutant(
        "panel-stride-too-wide", "matrix.py",
        "for c0 in range(0, cols, w):",
        "for c0 in range(0, cols, w + 1):",
        "a product converted in panels skips a column between panels",
        ("tests/test_matrix.py::test_kernel_converts_a_large_operand_in_panels",),
    ),
    Mutant(
        "place-writer-row-end-dropped", "matrix.py",
        'text[last[ncols - 1 :: ncols]] = ord("\\n")',
        "pass",
        "the place writer ends every row with a blank, not a newline",
        ("tests/test_matrix.py::test_format_matches_row_writer",),
    ),
    Mutant(
        "template-row-end-shifted", "matrix.py",
        "cells[ncols - 1 :: ncols] -= 0x1600",
        "cells[ncols - 2 :: ncols] -= 0x1600",
        "the template writer puts each row's newline one entry early",
        ("tests/test_matrix.py::test_format_sparse_chunks",),
    ),
    Mutant(
        "working-type-at-panel-width-strict", "stdform.py",
        ">= PANEL_WIDTH),",
        "> PANEL_WIDTH),",
        "a modulus whose headroom is exactly one panel (8191 in int32) leaves its narrow type",
        ("tests/test_stdform.py::test_headroom_picks_each_working_type",),
    ),
    Mutant(
        "no-reduction-above-pivot", "stdform.py",
        "q[row_ptr] = 0",
        "q[: row_ptr + 1] = 0",
        "entries above a pivot of valuation v are not reduced into [0, p^v): not canonical",
        ("tests/test_stdform.py::test_standard_form_is_canonical",),
    ),
    Mutant(
        "levels-fallback-from-leaf-bound", "minors.py",
        "_tier(bound[low], 1) in (np.float32, np.float64)",
        "_tier(bound[end - 2], 1) in (np.float32, np.float64)",
        "a forest whose top level no float type holds keeps float levels below it",
        ("tests/test_minors.py::test_exact_levels_at_their_bounds",),
    ),
    Mutant(
        "inexact-forest-not-split", "minors.py",
        "if _tier(bound[low], 1) in (np.float32, np.float64):",
        "if True:",
        "a forest whose bound no float type holds runs in int64 levels, which overflow, unsplit",
        ("tests/test_minors.py::test_exact_levels_at_their_bounds",),
    ),
    Mutant(
        "plan-cache-keyed-on-end", "minors.py",
        "key = low, end",
        "key = end",
        "a split's forest (low + 1, end) takes the plan of forest (low, end), and splits again",
        ("tests/test_minors.py::test_each_forest_planned_once",
         "tests/test_minors.py::test_deep_tree_evaluates_its_root_over_recursed_children"),
    ),
    Mutant(
        "table-rows-unsigned", "minors.py",
        "{a: -stripped_row(sf, a).astype(dtype)",
        "{a: stripped_row(sf, a).astype(dtype)",
        "the table holds A, not -A, so every minor of odd order has the wrong sign",
        ("tests/test_minors.py::test_leaf_level_skipped_and_one_stack_per_table",),
    ),
    Mutant(
        "level-term-subtracted", "minors.py",
        "    total += tile\n",
        "    total -= tile\n",
        "an exact level subtracts its term -A(a, end) instead of adding it",
        ("tests/test_matrix.py::test_exact_float_level_is_not_reduced",),
    ),
    Mutant(
        "level-tile-not-dividing", "minors.py",
        "rep = min(blocks, _COPIES)",
        "rep = min(blocks, 48)",
        "a level of 64 nodes or more gets a tile of 48 copies of its term, which does not divide it",
        ("tests/test_matrix.py::test_float_level_allocates_nothing_that_grows",
         "tests/test_minors.py::test_one_level_product_per_group_level_and_strip"),
    ),
    Mutant(
        "bounds-not-clamped", "minors.py",
        "bound[a] = np.minimum(top[a] + weight[a] @ bound, 2.0 ** 53)",
        "bound[a] = top[a] + weight[a] @ bound",
        "a bound past float64's range becomes inf, and 0 * inf nan",
        ("tests/test_minors.py::test_exact_bound_clamped_past_float64_range",),
    ),
    Mutant(
        "exact-forest-not-reduced", "minors.py",
        "_reduce_in_place(dest, m)",
        "pass",
        "the signed minors of float levels reach H^T unreduced",
        ("tests/test_minors.py::test_levels_exact_or_storage",),
    ),
    Mutant(
        "python-ints-without-int64-hop", "minors.py",
        "dest = out if out.dtype != object else np.empty(out.shape, np.int64)",
        "dest = out",
        "the exact minors of float levels reach a Python-int H^T as Python floats",
        ("tests/test_minors.py::test_exact_levels_over_python_ints",),
    ),
    Mutant(
        "tree-budget-exclusive", "minors.py",
        "if column <= _TREE_BYTES else 0",
        "if column < _TREE_BYTES else 0",
        "a forest whose column takes exactly _TREE_BYTES splits instead of running in strips of one",
        ("tests/test_minors.py::test_strip_edges",),
    ),
    Mutant(
        "minors-wide-flag-shifted", "minors.py",
        "stack, wide = work[nlevels:], end == self.layout.s + 1",
        "stack, wide = work[nlevels:], end == self.layout.s",
        "the forest files column group 2, not the free group, as wide in its counters",
        ("tests/test_acceptance.py::test_ac5_exact_operation_counts",),
    ),
    Mutant(
        "root-wide-flag-shifted", "minors.py",
        "t, width, wide = self.layout.t, out.shape[1], end == self.layout.s + 1",
        "t, width, wide = self.layout.t, out.shape[1], end == self.layout.s",
        "a split's root product is counted in the wrong column group",
        ("tests/test_minors.py::test_levels_match_node_by_node",),
    ),
    Mutant(
        "column-group-scaling", "paritycheck.py",
        "block *= ring.p ** (j - 1)",
        "block *= ring.p ** j",
        "column group j of H^T is scaled by p^j, not p^(j-1): G H^T = 0 but H is too small",
        ("tests/test_paritycheck.py",),
    ),
    Mutant(
        "iterative-row-unsigned", "paritycheck.py",
        "_reduce_in_place(-stripped_row(sf, i), ring.modulus)",
        "_reduce_in_place(stripped_row(sf, i), ring.modulus)",
        "the iterative construction drops the sign of each row: G H^T != 0",
        ("tests/test_paritycheck.py",),
    ),
    Mutant(
        "wide-flag-shifted", "paritycheck.py",
        "dual.t[j - 1], j == 1)",
        "dual.t[j - 1], j == 2)",
        "the iterative counters file column group 2, not 1, as the wide group",
        ("tests/test_acceptance.py::test_ac5_exact_operation_counts",),
    ),
    Mutant(
        "minors-budget-inclusive", "paritycheck.py",
        "if big_pairs > MINORS_BUDGET:",
        "if big_pairs >= MINORS_BUDGET:",
        "a minors run of exactly MINORS_BUDGET pairs is refused",
        ("tests/test_paritycheck.py::test_minors_budget_boundary",),
    ),
    Mutant(
        "verify-dual-accepts-small-h", "paritycheck.py",
        "sizes[0] * sizes[1] != ring.p ** (ring.s * g.ncols)",
        "sizes[0] * sizes[1] > ring.p ** (ring.s * g.ncols)",
        "verify_dual accepts an H with G H^T = 0 that generates less than the dual",
        ("tests/test_cli.py::test_verify_accepts_exactly_the_dual",),
    ),
]


def apply(mutant: Mutant, src: Path) -> None:
    """Replace mutant.old by mutant.new in its file under src/zpscodes."""
    path = src / "zpscodes" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: its text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant, tree: Path) -> str:
    """'killed', 'survived' or 'error' for mutant, applied to a fresh copy
    of src/ in tree."""
    shutil.rmtree(tree / "src", ignore_errors=True)
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    apply(mutant, tree / "src")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    code = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--assert=plain",
         *mutant.tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode
    # pytest exits 1 when a test failed, 2 when collection failed (a mutant
    # that breaks an import), 0 when all passed; 4 and 5 mean a named test
    # was not found.
    return {0: "survived", 1: "killed", 2: "killed"}.get(code, "error")


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        known = {m.name for m in MUTANTS}
        sys.stderr.write(f"unknown mutants: {sorted(set(names) - known)}\n")
        return 2
    bad = []
    with tempfile.TemporaryDirectory(prefix="zpscodes-mutants-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree / "pyproject.toml")
        start = time.perf_counter()
        for mutant in chosen:
            t0 = time.perf_counter()
            outcome = run(mutant, tree)
            print(f"{outcome:8} {time.perf_counter() - t0:6.1f} s  {mutant.name}: {mutant.breaks}",
                  flush=True)
            if outcome != "killed":
                bad.append(mutant.name)
        print(f"{len(chosen) - len(bad)} of {len(chosen)} killed in "
              f"{time.perf_counter() - start:.1f} s")
    if bad:
        print("not killed: " + ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
