"""Seeded output hash sweeps: one SHA-256 over everything the pipeline emits
on a fixed grid of generator matrices, and one over the block geometry of
standard forms.

Run it at two commits and compare the two printed digests:

    PYTHONPATH=src python tests/output_sweep.py

Equal digests mean the standard form (matrix, dtype, layout and perm), H and
h_unpermuted of both constructions (entries and dtype), the counters and
their histogram, the format_matrix bytes and the verify_parity witnesses,
on a correct and on a corrupted H, are the same.  The inputs come from
random.Random, never from the library, so an edit to the library cannot
change them.  tests/test_output_sweep.py pins the digest.

Equal geometry digests mean that random_code (matrix, layout, perm),
extract_blocks, and the test oracles reconstruct, reduced_associated,
z4_parity_check on Z_4 (tests/oracles.py), enumerate_codewords (in order)
and is_member on a few vectors (tests/codemodel.py) give the same results
on a grid of types with empty groups, n = t and every storage.
tests/test_output_sweep.py pins this digest too.
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
    random_code,
    standard_form,
    verify_parity,
)
from zpscodes.stdform import extract_blocks

from codemodel import CodeSpec, cardinality, enumerate_codewords, is_member
from oracles import reconstruct, reduced_associated, z4_parity_check

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


# (p, s, n, type): empty row groups, n = t, no rows, the storage edge
# 1447^3 and rings stored as Python ints (3^21, 1451^3, 2^62).  Types with
# few codewords are enumerated as well.
GEOMETRY_GRID = [
    (2, 2, 7, (2, 1)),
    (2, 2, 5, (0, 3)),
    (2, 2, 4, (3, 1)),
    (2, 2, 3, (0, 0)),
    (2, 3, 6, (1, 0, 2)),
    (3, 3, 9, (2, 0, 3)),
    (5, 4, 9, (1, 2, 0, 1)),
    (3, 2, 4, (2, 2)),
    (1447, 3, 7, (2, 1, 2)),
    (1447, 3, 4, (0, 0, 1)),
    (3, 21, 8, (1,) + (0,) * 18 + (1, 2)),
    (3, 21, 5, (0,) * 19 + (1, 1)),
    (1451, 3, 7, (1, 2, 3)),
    (1451, 3, 3, (0, 0, 1)),
    (2, 62, 6, (0,) * 59 + (1, 1, 2)),
]
ENUMERATE_MAX = 2 ** 12


def _probe_vectors(code: CodeSpec, rng: random.Random):
    """A random vector, a random combination of the generators and that
    combination with p^(s-1) added at one coordinate, as Python ints."""
    ring = code.ring
    m = ring.modulus
    gens = code.generators.data.tolist()
    word = [0] * code.n
    for row in gens:
        a = rng.randrange(m)
        word = [(x + a * int(y)) % m for x, y in zip(word, row)]
    vectors = [[rng.randrange(m) for _ in range(code.n)], word]
    if code.n:
        bumped = list(word)
        c = rng.randrange(code.n)
        bumped[c] = (bumped[c] + ring.p ** (ring.s - 1)) % m
        vectors.append(bumped)
    return vectors


def _feed_code(h, code: CodeSpec, rng: random.Random) -> None:
    sf = code.standard
    _feed(h, _entries(code.generators), sf.layout.n, sf.layout.t, sf.perm.images)
    if cardinality(sf.layout, code.ring.p) <= ENUMERATE_MAX:
        words = enumerate_codewords(code)
        _feed(h, str(words.dtype), words.shape, words.tolist())
    _feed(h, [is_member(code, v) for v in _probe_vectors(code, rng)])


def geometry_digest() -> str:
    h = hashlib.sha256()
    for p, s, n, t in GEOMETRY_GRID:
        ring = RingSpec(p, s)
        _feed(h, p, s, n, t)
        sf = random_code(ring, n, t, seed=1000 * p + s + n)
        code = CodeSpec(sf.matrix, standard=sf)
        rng = random.Random(f"{p}^{s}:{n}:{t}")
        _feed_code(h, code, rng)
        blocks = extract_blocks(sf)
        _feed(h, [(key, _entries(blocks[key])) for key in sorted(blocks)])
        _feed(h, _entries(reconstruct(sf)), _entries(reduced_associated(sf)))
        if (p, s) == (2, 2):
            _feed(h, _entries(z4_parity_check(sf)))
        # The same code with shuffled columns: a standard form whose
        # permutation is not the identity.
        order = list(range(n))
        rng.shuffle(order)
        shuffled = code.generators.data[:, order]
        _feed_code(h, CodeSpec(Matrix(ring, shuffled)), rng)
    return h.hexdigest()


if __name__ == "__main__":
    sys.stdout.write(sweep_digest() + "\n")
    sys.stdout.write(geometry_digest() + "\n")
