import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zpscodes import (
    Matrix,
    RingSpec,
    parity_check_minors,
    parse_matrix,
    standard_form,
)
from zpscodes import bench
from zpscodes.cli import main

from helpers import miscount_big_mults

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


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("2 2 1 2\n1 x\n")
    assert main(["std-form", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("2 6 1 5\n1 0 0 0 0\n")
    assert main(["parity-check", str(path), "--method", "bruteforce"]) == 3
    # Minors at s = 62 would need about 2^62 block products.
    path.write_text("2 62 1 2\n1 1\n")
    assert main(["parity-check", str(path), "--method", "minors"]) == 3
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
