"""Command-line interface.

Subcommands: std-form, parity-check, verify, bench.  Exit codes: 0 success,
1 verification failure or counter mismatch, 2 usage/parse errors, 3
budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .bench import CounterMismatchError, run_suite
from .matrix import ParseError, ShapeError, format_matrix, parse_matrix
from .paritycheck import (
    BudgetExceededError,
    parity_check_bruteforce,
    parity_check_iterative,
    parity_check_minors,
    verify_dual,
)
from .stdform import PANEL_WIDTH, standard_form
from .zring import DomainError, RingMismatchError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# Entries that a command may hold: an input with the column order and the
# panel buffer of its standard form, rows x 2 min(PANEL_WIDTH, ncols), where
# a row without columns counts as one entry, its line of text; H, n x n at
# most, for parity-check, or |C^perp| x n by brute force; G H^T for verify.
# A header alone can ask for any of them.  It counts entries, not bytes: a
# standard form's working copy and buffer in int8 to int32 count as in
# int64, so the charge stays an upper bound.
ENTRY_BUDGET = 2 ** 26


def _check_entries(what: str, entries: int) -> None:
    if entries > ENTRY_BUDGET:
        raise BudgetExceededError(
            f"{what} needs {entries} entries, over the budget of {ENTRY_BUDGET}"
        )


def _read_matrix(path: str):
    with open(path) as fh:
        matrix = parse_matrix(fh.read())
    rows, cols = matrix.shape
    _check_entries(path, (rows + 1) * max(cols + 2 * min(PANEL_WIDTH, cols), 1))
    return matrix


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_std_form(args) -> int:
    sf = standard_form(_read_matrix(args.input))
    lines = [
        "type: " + " ".join(str(x) for x in (sf.layout.n, *sf.layout.t)),
        "perm: " + " ".join(str(x) for x in sf.perm.images),
    ]
    _emit("\n".join(lines) + "\n" + format_matrix(sf.matrix), args.out)
    return EXIT_OK


def _cmd_parity_check(args) -> int:
    generators = _read_matrix(args.input)
    _check_entries("H", generators.ncols ** 2)
    if args.method == "bruteforce":
        # H lists the dual: p^(sn) / |C| vectors, |C| read off the type as in verify_dual.
        ring, n, t = generators.ring, generators.ncols, standard_form(generators).layout.t
        dual = ring.p ** (ring.s * n - sum((ring.s - i) * x for i, x in enumerate(t)))
        _check_entries("H", dual * n)
        h = parity_check_bruteforce(generators)
    else:
        construct = parity_check_minors if args.method == "minors" else parity_check_iterative
        result = construct(standard_form(generators))
        h = result.h_unpermuted if args.original_coords else result.h
        print(f"counters: {result.counters.summary()}", file=sys.stderr)
    _emit(format_matrix(h), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _read_matrix(args.generator)
    h = _read_matrix(args.parity)
    _check_entries("G H^T", g.nrows * h.nrows)
    witness, sizes = verify_dual(g, h)
    if witness:
        print(f"nonzero product entry at row {witness[0]}, column {witness[1]}")
    elif sizes:
        ring = g.ring
        print(f"H does not generate the dual: |<G>| = {sizes[0]} and |<H>| = {sizes[1]}, "
              f"whose product is not {ring.p}^{ring.s * g.ncols}")
    else:
        print("ok: G H^T = 0")
        return EXIT_OK
    return EXIT_FAIL


def _parse_range(spec: str):
    """'2:6' -> [2, 3, 4, 5, 6]; '4' -> [4]."""
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(spec)]
    if not values:
        raise ValueError(f"empty range {spec!r}")
    return values


def _cmd_bench(args) -> int:
    records = run_suite(
        args.p,
        _parse_range(args.s_range),
        _parse_range(args.ell_range),
        [int(x) for x in args.n_list.split(",")],
        args.trials,
        args.seed,
        out=args.out,
    )
    print(f"{len(records)} rows written to {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpscodes",
        description="Parity-check matrices for additive codes over Z_{p^s}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_std = sub.add_parser("std-form", help="reduce a generator matrix to standard form")
    p_std.add_argument("input", help="matrix text file")
    p_std.add_argument("--out", help="output file (default: stdout)")
    p_std.set_defaults(func=_cmd_std_form)

    p_pc = sub.add_parser("parity-check", help="compute a parity-check matrix")
    p_pc.add_argument("input", help="generator matrix text file")
    p_pc.add_argument(
        "--method", choices=["minors", "iterative", "bruteforce"], default="iterative"
    )
    p_pc.add_argument(
        "--original-coords", action="store_true",
        help="undo the standard-form column permutation in the output",
    )
    p_pc.add_argument("--out", help="output file (default: stdout)")
    p_pc.set_defaults(func=_cmd_parity_check)

    p_ver = sub.add_parser("verify", help="check that H generates the dual of G's code")
    p_ver.add_argument("generator", help="generator matrix file")
    p_ver.add_argument("parity", help="parity-check matrix file")
    p_ver.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="run the instrumented benchmark grid")
    p_bench.add_argument("--p", type=int, required=True)
    p_bench.add_argument("--s-range", required=True, help="e.g. 2:6 or 4")
    p_bench.add_argument("--ell-range", required=True, help="e.g. 2:4 or 2")
    p_bench.add_argument("--n-list", required=True, help="comma separated, e.g. 100,200")
    p_bench.add_argument("--trials", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CounterMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ParseError, ShapeError, RingMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
