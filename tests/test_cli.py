import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zpscodes import (
    Matrix,
    RingSpec,
    format_matrix,
    parity_check_iterative,
    parity_check_minors,
    parse_matrix,
    random_code,
    standard_form,
)
from zpscodes import bench, cli
from zpscodes.cli import main

from helpers import DEGENERATE_CASES, degenerate_type, miscount_big_mults

Z4 = RingSpec(2, 2)
EXAMPLE_TEXT = "2 2 2 3\n1 1 2\n0 2 2\n"


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text(EXAMPLE_TEXT)
    return path


def test_std_form_output(example_file, capsys):
    assert main(["std-form", str(example_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "type: 3 1 1"
    assert out[1] == "perm: 1 2 3"
    assert out[2] == "2 2 2 3"
    assert parse_matrix("\n".join(out[2:])) == Matrix(Z4, [[1, 1, 2], [0, 2, 2]])


def test_parity_check_matches_library(example_file, tmp_path, capsys):
    out_path = tmp_path / "h.txt"
    assert main(["parity-check", str(example_file), "--method", "minors",
                 "--out", str(out_path)]) == 0
    assert "counters:" in capsys.readouterr().err
    want = parity_check_minors(standard_form(parse_matrix(EXAMPLE_TEXT))).h
    assert parse_matrix(out_path.read_text()) == want


def test_methods_give_identical_files(example_file, tmp_path):
    paths = {}
    for method in ["minors", "iterative"]:
        paths[method] = tmp_path / f"{method}.txt"
        assert main(["parity-check", str(example_file), "--method", method,
                     "--out", str(paths[method])]) == 0
    assert paths["minors"].read_text() == paths["iterative"].read_text()


def test_bruteforce_method(example_file, capsys):
    assert main(["parity-check", str(example_file), "--method", "bruteforce"]) == 0
    h = parse_matrix(capsys.readouterr().out)
    assert h.nrows == 8  # 4^3 / 8 codewords in the dual
    g = parse_matrix(EXAMPLE_TEXT)
    assert not (g.data @ h.data.T % 4).any()


def test_original_coords_round_trip(tmp_path, capsys):
    # input whose standard form needs a column swap
    path = tmp_path / "g.txt"
    path.write_text("2 2 1 2\n2 1\n")
    assert main(["parity-check", str(path), "--original-coords"]) == 0
    h = parse_matrix(capsys.readouterr().out)
    g = parse_matrix(path.read_text())
    assert not (g.data @ h.data.T % 4).any()


def test_verify_exit_codes(example_file, tmp_path, capsys):
    h_path = tmp_path / "h.txt"
    assert main(["parity-check", str(example_file), "--out", str(h_path)]) == 0
    assert main(["verify", str(example_file), str(h_path)]) == 0
    assert "ok" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 1 3\n1 0 0\n")
    assert main(["verify", str(example_file), str(bad)]) == 1
    assert "row 1" in capsys.readouterr().out


def _verify(tmp_path, g: Matrix, h: Matrix) -> int:
    gens, parity = tmp_path / "g.txt", tmp_path / "h.txt"
    gens.write_text(format_matrix(g))
    parity.write_text(format_matrix(h))
    return main(["verify", str(gens), str(parity)])


def test_verify_rejects_an_orthogonal_h_that_is_too_small(tmp_path, capsys):
    # Over Z_4, G = 1 0 1 / 0 1 1 / 1 1 0 generates a code of 32 words, whose
    # dual is generated by 2 2 2: H = 0 0 0 is orthogonal to G as well, but
    # generates {0}.
    g = Matrix(Z4, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert _verify(tmp_path, g, Matrix(Z4, [[2, 2, 2]])) == 0
    assert capsys.readouterr().out == "ok: G H^T = 0\n"
    assert _verify(tmp_path, g, Matrix(Z4, [[0, 0, 0]])) == 1
    assert capsys.readouterr().out == (
        "H does not generate the dual: |<G>| = 32 and |<H>| = 1, whose product is not 2^6\n")
    # G = 1 0 1 / 0 1 1 has H = 3 3 1: H = 0 0 0 and H = 2 2 2 are
    # orthogonal to G but generate codes of sizes 1 and 2, not 4.
    g = Matrix(Z4, [[1, 0, 1], [0, 1, 1]])
    assert _verify(tmp_path, g, Matrix(Z4, [[3, 3, 1]])) == 0
    capsys.readouterr()
    for h, size in (([[0, 0, 0]], 1), ([[2, 2, 2]], 2)):
        assert _verify(tmp_path, g, Matrix(Z4, h)) == 1
        assert capsys.readouterr().out == (
            f"H does not generate the dual: |<G>| = 16 and |<H>| = {size}, "
            "whose product is not 2^6\n")


# Each construction's H passes; a zero H, p H, H without its last row and H
# with one row scaled by p generate too small a code, and fail with both
# sizes.  Over Z_4 and 3^2 for every degenerate type and a plain one, and
# over 3^21 and 1451^3, stored in Python ints; at s = 21 the minors
# construction is over its budget, so only the iterative one runs.
@pytest.mark.parametrize("ring,case", [
    *((ring, case) for ring in (Z4, RingSpec(3, 2)) for case in (*DEGENERATE_CASES, "plain")),
    (RingSpec(3, 21), "plain"), (RingSpec(1451, 3), "plain"), (RingSpec(1451, 3), "some-zero"),
], ids=lambda x: f"{x.p}^{x.s}" if isinstance(x, RingSpec) else x)
def test_verify_accepts_exactly_the_dual(ring, case, tmp_path, capsys):
    p, s = ring.p, ring.s
    n, t = (2 * s + 3, (2,) * s) if case == "plain" else degenerate_type(case, s)
    sf = random_code(ring, n, t, 67)
    constructions = (parity_check_minors, parity_check_iterative)[s > 20 :]
    for construct in constructions:
        h = construct(sf).h
        assert _verify(tmp_path, sf.matrix, h) == 0
    assert capsys.readouterr().out == "ok: G H^T = 0\n" * len(constructions)
    if not h.nrows:
        return
    data, m = h.data, ring.modulus
    scaled = data.copy()
    scaled[0] = scaled[0] * p % m
    for bad in (data * 0, data * p % m, data[:-1], scaled):
        assert _verify(tmp_path, sf.matrix, Matrix(ring, bad)) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"H does not generate the dual: |<G>| = ")
        assert f"whose product is not {p}^{s * n}" in out


def test_bruteforce_without_columns_verifies(tmp_path, capsys):
    # No generators of length 0: the dual is the one empty vector, 1 x 0.
    g, h = tmp_path / "g.txt", tmp_path / "h.txt"
    g.write_text("2 2 0 0\n")
    assert main(["parity-check", str(g), "--method", "bruteforce", "--out", str(h)]) == 0
    assert h.read_text() == "2 2 1 0\n\n"
    assert main(["verify", str(g), str(h)]) == 0
    assert "ok" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("2 2 1 2\n1 x\n")
    assert main(["std-form", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_huge_column_count_exit_code(tmp_path, capsys):
    # The header's 10^13 columns are refused at the first line, which holds
    # 2, as a parse error, not a failed allocation.
    path = tmp_path / "wide.txt"
    path.write_text("2 1 1 10000000000000\n1 0\n")
    assert main(["std-form", str(path)]) == 2
    assert "line 2, column 0: expected 10000000000000 entries, found 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header,column",
    [("x 2 1 1", 1), ("4 2 1 1", 1), ("2 0 1 1", 2), ("2 63 1 1", 2), ("2 2 z 1", 3), ("2 2 1 -1", 4)],
)
def test_header_error_exit_code(header, column, tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text(header + "\n0\n")
    assert main(["std-form", str(path)]) == 2
    assert f"line 1, column {column}:" in capsys.readouterr().err


def test_large_prime_header(tmp_path, capsys):
    # p = 2^61 - 1: the primality test of the header must not stall.
    path = tmp_path / "large.txt"
    path.write_text("2305843009213693951 1 1 1\n5\n")
    assert main(["std-form", str(path)]) == 0
    assert capsys.readouterr().out.endswith("2305843009213693951 1 1 1\n1\n")


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["std-form", str(tmp_path / "nope.txt")]) == 2
    capsys.readouterr()


def test_budget_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "wide.txt"
    path.write_text("2 6 1 5\n1 0 0 0 0\n")
    assert main(["parity-check", str(path), "--method", "bruteforce"]) == 3
    # The zero code of length 24 over Z_2: its ambient space of 2^24 vectors
    # passes BRUTEFORCE_BUDGET, but its dual is all of them, and H would
    # take 24 * 2^24 entries.  It is refused before anything is enumerated.
    path.write_text("2 1 1 24\n" + "0 " * 24 + "\n")
    monkeypatch.setattr(cli, "parity_check_bruteforce", None)
    assert main(["parity-check", str(path), "--method", "bruteforce"]) == 3
    assert "H needs 402653184 entries" in capsys.readouterr().err
    # Minors at s = 62 would need about 2^62 block products.
    path.write_text("2 62 1 2\n1 1\n")
    assert main(["parity-check", str(path), "--method", "minors"]) == 3
    capsys.readouterr()


# A header alone asks for 10^13 columns, or rows: every command refuses it
# before standard_form allocates from it, and refuses a parity-check or
# G H^T past the budget.
@pytest.mark.parametrize("command", [
    ["std-form", "{wide}"], ["std-form", "{deep}"], ["parity-check", "{wide}"],
    ["parity-check", "{deep}", "--method", "minors"], ["verify", "{wide}", "{wide}"],
    ["verify", "{small}", "{deep}"], ["parity-check", "{square}"], ["verify", "{tall}", "{tall}"],
], ids=lambda command: "-".join(arg.strip("-{}") for arg in command))
def test_entry_budget_exit_code(command, tmp_path, capsys):
    edge = math.isqrt(cli.ENTRY_BUDGET)  # an (edge + 1)-row input fits on its own
    texts = {"wide": "2 1 0 10000000000000\n", "deep": "2 1 10000000000000 0\n",
             "small": EXAMPLE_TEXT,
             "square": f"2 1 1 {edge + 1}\n" + "1 " * (edge + 1) + "\n",
             "tall": f"2 1 {edge + 1} 1\n" + "1\n" * (edge + 1)}
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in command]
    tracemalloc.start()
    try:
        assert main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "over the budget of" in capsys.readouterr().err
    if "{wide}" in command or "{deep}" in command:
        assert peak < 1 << 20


def test_entry_budget_charges_the_panel_buffer_it_allocates(tmp_path, capsys):
    # 1.1 M rows of no columns: standard_form's panel buffer has no columns
    # either, so only a line a row is charged, far below the budget.
    path = tmp_path / "deep.txt"
    path.write_text("2 1 1100000 0\n")
    assert main(["std-form", str(path)]) == 0
    assert capsys.readouterr().out == "type: 0 0\nperm: \n2 1 0 0\n"


def test_entry_budget_admits_iter_wide(tmp_path, capsys):
    # perfbench's iter-wide: p = 3, s = 10, n = 1000, t_i = 2.
    sf = random_code(RingSpec(3, 10), 1000, (2,) * 10, 5)
    gens, h = tmp_path / "gens.txt", tmp_path / "h.txt"
    gens.write_text(format_matrix(sf.matrix))
    assert main(["parity-check", str(gens), "--out", str(h)]) == 0
    assert main(["verify", str(gens), str(h)]) == 0
    capsys.readouterr()


def test_python_m_matches_main(example_file, capsys):
    # The README's `PYTHONPATH=src python -m zpscodes ...`, run from the root
    # of a checkout without an install.
    args = ["parity-check", str(example_file), "--method", "minors"]
    assert main(args) == 0
    want = capsys.readouterr()
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zpscodes", *args], cwd=root, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=60,
    )
    assert proc.returncode == 0
    assert (proc.stdout, proc.stderr) == (want.out, want.err)


def test_usage_error_exit_code(capsys):
    assert main(["parity-check"]) == 2
    capsys.readouterr()


def test_bench_csv_determinism(tmp_path, capsys):
    args = ["bench", "--p", "2", "--s-range", "2:3", "--ell-range", "1",
            "--n-list", "8", "--trials", "2", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    rows_a = list(csv.reader(a.read_text().splitlines()))
    rows_b = list(csv.reader(b.read_text().splitlines()))
    assert len(rows_a) == 1 + 2 * 2 * 2  # header + methods x s x trials
    wall = rows_a[0].index("wall_ns")
    strip = lambda rows: [r[:wall] + r[wall + 1:] for r in rows]
    assert strip(rows_a) == strip(rows_b)


def test_bench_counter_selftest(tmp_path, capsys, monkeypatch):
    miscount_big_mults(monkeypatch)
    code = main(["bench", "--p", "2", "--s-range", "2", "--ell-range", "1",
                 "--n-list", "6", "--trials", "1", "--seed", "0",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("options,named", [
    (["--ell-range", "0"], "ell = 0"),
    (["--trials", "-1"], "trials = -1"),
    (["--s-range", "2:4", "--ell-range", "2", "--n-list", "7"], "n = 7"),
    (["--p", "4"], "p = 4"),
])
def test_bench_rejects_bad_grid(options, named, tmp_path, capsys, monkeypatch):
    built = []
    real = bench.random_code
    monkeypatch.setattr(bench, "random_code", lambda *args: built.append(args) or real(*args))
    grid = {"--p": "2", "--s-range": "2:3", "--ell-range": "1", "--n-list": "8", "--trials": "1"}
    grid.update(zip(options[::2], options[1::2]))
    out = tmp_path / "grid.csv"
    args = [word for item in grid.items() for word in item]
    assert main(["bench", *args, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not built and not out.exists()


# Exact stdout/stderr bytes of the README commands.  The inputs cover a
# standard form that needs no column swap (Z_4), one with zero type entries
# and a swap (3^4), and a ring stored as python ints (1451^3 > 3037000500)
# with p-power-scaled rows.
GOLDEN_INPUTS = {
    "z4": EXAMPLE_TEXT,
    "3^4": "3 4 4 6\n27 54 0 27 0 54\n9 18 27 0 45 9\n1 2 0 5 7 3\n2 4 9 10 14 6\n",
    "1451^3": (
        "1451 3 3 6\n"
        "10527005 3054936850 2 10157 7 1000000007\n"
        "1451 10157 4353 0 14510 2902000000\n"
        "4210802 23159411 0 3052831450 6316203 0\n"
    ),
}
GOLDEN_COMMANDS = {
    "std-form": ["std-form"],
    "minors": ["parity-check", "--method", "minors"],
    "iterative": ["parity-check", "--method", "iterative"],
    "original-coords": ["parity-check", "--original-coords", "--out", "OUT"],
}
GOLDEN = {
    ("z4", "std-form"): (
        "type: 3 1 1\n"
        "perm: 1 2 3\n"
        "2 2 2 3\n"
        "1 1 2\n"
        "0 2 2\n",
        ""),
    ("z4", "minors"): (
        "2 2 2 3\n"
        "3 3 1\n"
        "2 2 0\n",
        "counters: big: 1 mults / 1 adds; small: 0 mults / 0 adds\n"),
    ("z4", "iterative"): (
        "2 2 2 3\n"
        "3 3 1\n"
        "2 2 0\n",
        "counters: big: 1 mults / 1 adds; small: 0 mults / 0 adds\n"),
    ("z4", "original-coords"): (
        "2 2 2 3\n"
        "3 3 1\n"
        "2 2 0\n",
        "counters: big: 1 mults / 1 adds; small: 0 mults / 0 adds\n"),
    ("3^4", "std-form"): (
        "type: 6 1 0 2 0\n"
        "perm: 1 3 4 2 5 6\n"
        "3 4 3 6\n"
        "1 0 5 2 7 3\n"
        "0 9 0 0 0 0\n"
        "0 0 9 0 36 36\n",
        ""),
    ("3^4", "minors"): (
        "3 4 5 6\n"
        "79 0 0 1 0 0\n"
        "13 0 77 0 1 0\n"
        "17 0 77 0 0 1\n"
        "0 9 0 0 0 0\n"
        "36 0 9 0 0 0\n",
        "counters: big: 11 mults / 11 adds; small: 1 mults / 1 adds\n"),
    ("3^4", "iterative"): (
        "3 4 5 6\n"
        "79 0 0 1 0 0\n"
        "13 0 77 0 1 0\n"
        "17 0 77 0 0 1\n"
        "0 9 0 0 0 0\n"
        "36 0 9 0 0 0\n",
        "counters: big: 6 mults / 6 adds; small: 1 mults / 1 adds\n"),
    ("3^4", "original-coords"): (
        "3 4 5 6\n"
        "79 1 0 0 0 0\n"
        "13 0 0 77 1 0\n"
        "17 0 0 77 0 1\n"
        "0 0 9 0 0 0\n"
        "36 0 0 9 0 0\n",
        "counters: big: 6 mults / 6 adds; small: 1 mults / 1 adds\n"),
    ("1451^3", "std-form"): (
        "type: 6 1 1 1\n"
        "perm: 2 1 3 4 5 6\n"
        "1451 3 3 6\n"
        "1 0 2105399 3040188887 61056622 2339165979\n"
        "0 1451 24667 103164649 85609 2237041524\n"
        "0 0 2105401 254753521 515823245 2383313932\n",
        ""),
    ("1451^3", "minors"): (
        "1451 3 5 6\n"
        "269501243 3054867809 3054936730 1 0 0\n"
        "454766133 4106 3054936606 0 1 0\n"
        "44145689 3053414371 3054935719 0 0 1\n"
        "2902 3054912184 1451 0 0 0\n"
        "0 2105401 0 0 0 0\n",
        "counters: big: 4 mults / 4 adds; small: 1 mults / 1 adds\n"),
    ("1451^3", "iterative"): (
        "1451 3 5 6\n"
        "269501243 3054867809 3054936730 1 0 0\n"
        "454766133 4106 3054936606 0 1 0\n"
        "44145689 3053414371 3054935719 0 0 1\n"
        "2902 3054912184 1451 0 0 0\n"
        "0 2105401 0 0 0 0\n",
        "counters: big: 3 mults / 3 adds; small: 1 mults / 1 adds\n"),
    ("1451^3", "original-coords"): (
        "1451 3 5 6\n"
        "3054867809 269501243 3054936730 1 0 0\n"
        "4106 454766133 3054936606 0 1 0\n"
        "3053414371 44145689 3054935719 0 0 1\n"
        "3054912184 2902 1451 0 0 0\n"
        "2105401 0 0 0 0 0\n",
        "counters: big: 3 mults / 3 adds; small: 1 mults / 1 adds\n"),
}


@pytest.mark.parametrize("ring,command", sorted(GOLDEN))
def test_readme_commands_golden_bytes(ring, command, tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text(GOLDEN_INPUTS[ring])
    out_path = tmp_path / "h.txt"
    subcommand, *options = GOLDEN_COMMANDS[command]
    options = [str(out_path) if arg == "OUT" else arg for arg in options]
    assert main([subcommand, str(path), *options]) == 0
    captured = capsys.readouterr()
    if out_path.exists():
        assert captured.out == ""
        stdout = out_path.read_text()
    else:
        stdout = captured.out
    assert (stdout, captured.err) == GOLDEN[(ring, command)]
