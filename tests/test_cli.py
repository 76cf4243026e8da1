import csv

import numpy as np
import pytest

from zpscodes import (
    Matrix,
    RingSpec,
    parity_check_minors,
    parse_matrix,
    standard_form,
)
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


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["std-form", str(tmp_path / "nope.txt")]) == 2
    capsys.readouterr()


def test_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("2 6 1 5\n1 0 0 0 0\n")
    assert main(["parity-check", str(path), "--method", "bruteforce"]) == 3
    capsys.readouterr()


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
    rows_a = list(csv.reader(a.open()))
    rows_b = list(csv.reader(b.open()))
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
