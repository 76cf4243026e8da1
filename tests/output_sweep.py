"""Seeded output hash sweep: one SHA-256 over everything the pipeline emits
on a fixed grid of generator matrices.

Run it at two commits and compare the printed digests:

    PYTHONPATH=src python tests/output_sweep.py

Equal digests mean the standard form (matrix, dtype, layout and perm), H and
h_unpermuted of both constructions (entries and dtype), the counters and
their histogram, the format_matrix bytes and the verify_parity witnesses,
on a correct and on a corrupted H, are the same.  The inputs come from
random.Random, never from the library, so an edit to the library cannot
change them.  tests/test_output_sweep.py pins the digest.
"""

from __future__ import annotations

import hashlib
import random
import sys

import numpy as np

from zpscodes import (
    Matrix,
    RingSpec,
    format_matrix,
    parity_check_iterative,
    parity_check_minors,
    standard_form,
    verify_parity,
)

# (p, s, nrows, ncols): a few more pivots than one 32-column panel where
# n allows it, the storage edges (2^26, 3^16, 1447^3, 2^62) and rings stored
# as Python ints (3^21, 1451^3).
GRID = [
    (2, 1, 40, 70),
    (2, 4, 45, 70),
    (2, 4, 100, 150),
    (3, 2, 40, 64),
    (3, 10, 36, 60),
    (5, 3, 40, 66),
    (2, 20, 36, 50),
    (2, 26, 34, 40),
    (3, 16, 34, 40),
    (1447, 3, 34, 40),
    (2, 62, 20, 24),
    (3, 21, 34, 40),
    (1451, 3, 34, 40),
]
KINDS = ("arbitrary", "scaled", "redundant", "square", "empty", "nocols")
MINORS_MAX_S = 8  # the minors construction costs 2^s block pairs


def generator_rows(kind: str, p: int, s: int, k: int, n: int, rng: random.Random):
    """A k x n (or derived shape) generator matrix as lists of python ints."""
    m = p ** s
    if kind == "arbitrary":
        return [[rng.randrange(m) for _ in range(n)] for _ in range(k)]
    if kind == "scaled":
        # Each row a multiple of a random p-power: pivots of every valuation.
        rows = []
        for _ in range(k):
            scale = p ** rng.randrange(s)
            rows.append([scale * rng.randrange(m) % m for _ in range(n)])
        return rows
    if kind == "redundant":
        base = generator_rows("scaled", p, s, k // 2, n, rng)
        combos = []
        for _ in range(k - k // 2 - 1):
            coeffs = [rng.randrange(m) for _ in base]
            combos.append([sum(a * row[c] for a, row in zip(coeffs, base)) % m
                           for c in range(n)])
        rows = base + combos + [[0] * n]
        rng.shuffle(rows)
        return rows
    if kind == "square":
        # n = t: unit upper triangular, columns shuffled.
        rows = [[1 if c == r else rng.randrange(m) if c > r else 0 for c in range(k)]
                for r in range(k)]
        order = list(range(k))
        rng.shuffle(order)
        return [[row[c] for c in order] for row in rows]
    if kind == "empty":
        return []
    if kind == "nocols":
        return [[] for _ in range(k)]
    raise ValueError(kind)


def _entries(a: Matrix):
    return (str(a.data.dtype), a.shape, a.data.tolist())


def _feed(h, *items) -> None:
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")


def sweep_digest() -> str:
    h = hashlib.sha256()
    for p, s, k, n in GRID:
        ring = RingSpec(p, s)
        m = ring.modulus
        for kind in KINDS:
            rng = random.Random(f"{p}^{s}:{kind}")
            rows = generator_rows(kind, p, s, k, n, rng)
            ncols = len(rows[0]) if rows else n
            g = Matrix(ring, np.array(rows, dtype=object).reshape(len(rows), ncols))
            _feed(h, p, s, kind)
            sf = standard_form(g)
            _feed(h, _entries(sf.matrix), sf.layout.n, sf.layout.t, sf.perm.images)
            methods = [parity_check_iterative]
            if s <= MINORS_MAX_S:
                methods.append(parity_check_minors)
            for construct in methods:
                res = construct(sf)
                c = res.counters
                _feed(
                    h, res.method, _entries(res.h), _entries(res.h_unpermuted),
                    (c.big_mults, c.big_adds, c.small_mults, c.small_adds),
                    sorted(c.hist.items()),
                    hashlib.sha256(format_matrix(res.h_unpermuted).encode()).hexdigest(),
                    verify_parity(g, res.h_unpermuted),
                )
                hu = res.h_unpermuted
                if hu.nrows and hu.ncols and g.nrows:
                    bad = hu.data.copy()
                    r, col = rng.randrange(hu.nrows), rng.randrange(hu.ncols)
                    bad[r, col] = (bad[r, col] + 1) % m
                    _feed(h, verify_parity(g, Matrix(ring, bad)))
    return h.hexdigest()


if __name__ == "__main__":
    sys.stdout.write(sweep_digest() + "\n")
