"""Shared test oracles and generators, independent of the library paths
they check."""

import random

import numpy as np

from zpscodes import Matrix, OpCounters, RingSpec


def cofactor_det(rows, modulus):
    """Plain first-row cofactor expansion; the independent determinant oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % modulus
    total = 0
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in rows[1:]]
        total += (-1) ** c * rows[0][c] * cofactor_det(minor, modulus)
    return total % modulus


def structured_matrix(ring, n, rng):
    """Random matrix with the unit-subdiagonal shape."""
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            if c >= r:
                rows[r][c] = rng.randrange(ring.modulus)
            elif c == r - 1:
                rows[r][c] = 1
    return Matrix(ring, rows)


def random_matrix(ring, nrows, ncols, rng):
    data = np.array(
        [[rng.randrange(ring.modulus) for _ in range(ncols)] for _ in range(nrows)],
        dtype=np.int64,
    ).reshape(nrows, ncols)
    return Matrix(ring, data)


def random_type(n, s, rng):
    """Random type vector with sum <= n."""
    t = []
    remaining = n
    for _ in range(s):
        ti = rng.randint(0, remaining)
        t.append(ti)
        remaining -= ti
    rng.shuffle(t)
    return tuple(t)


def row_span_set(generators: Matrix):
    """All elements of the row span, by closure under addition (breadth-first
    over coefficients).  Only for tiny codes; independent of the library's
    enumeration path."""
    m = generators.ring.modulus
    n = generators.ncols
    words = {(0,) * n}
    for row in generators.data:
        row = tuple(int(x) for x in row)
        new_words = set()
        for coeff in range(m):
            shift = tuple(coeff * x % m for x in row)
            for w in words:
                new_words.add(tuple((a + b) % m for a, b in zip(w, shift)))
        words = new_words
    return words


def gh_transpose_is_zero(g: Matrix, h: Matrix) -> bool:
    """G H^T = 0, computed with python ints, independent of the library's
    matrix product."""
    m = g.ring.modulus
    return all(
        sum(int(x) * int(y) for x, y in zip(g_row, h_row)) % m == 0
        for g_row in g.data
        for h_row in h.data
    )


def miscount_big_mults(monkeypatch):
    """Make the counters record every wide block product twice, so the
    instrumented counts no longer match the closed forms."""
    record_mul = OpCounters.record_mul

    def record_twice(self, a, b, c, wide):
        record_mul(self, a, b, c, wide)
        if wide:
            self.big_mults += 1

    monkeypatch.setattr(OpCounters, "record_mul", record_twice)


def rows_as_set(matrix: Matrix):
    return {tuple(int(x) for x in row) for row in matrix.data}
