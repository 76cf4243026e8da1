"""Code-level semantics: enumeration, membership, cardinality, equality.

A CodeSpec caches the standard form of its generators, so membership tests
reduce against standard-form pivots (exact, no enumeration) and enumeration
runs over the unique-combination coefficients lambda_i^(j) in Z_{p^(s-j+1)}.
"""

from __future__ import annotations

import numpy as np

from zpscodes.matrix import BlockLayout, Matrix, ShapeError, apply_col_permutation, dtype_for
from zpscodes.stdform import StandardForm, standard_form
from zpscodes.zring import DomainError, RingMismatchError

from helpers import inverse

ENUMERATION_BUDGET = 2 ** 20


class CodeSpec:
    """An additive code over Z_{p^s}: generators plus their standard form."""

    __slots__ = ("ring", "n", "generators", "standard")

    def __init__(self, generators: Matrix, standard: StandardForm | None = None):
        self.ring = generators.ring
        self.n = generators.ncols
        self.generators = generators
        self.standard = standard if standard is not None else standard_form(generators)

    @property
    def layout(self) -> BlockLayout:
        return self.standard.layout


def cardinality(layout: BlockLayout, p: int) -> int:
    """Number of codewords, p^(sum (s - i + 1) t_i).  Exact (big) integer."""
    s = layout.s
    return p ** sum((s - i) * ti for i, ti in enumerate(layout.t))


def enumerate_codewords(code: CodeSpec) -> np.ndarray:
    """All codewords as rows, in the caller's original coordinates.

    Expands every coefficient tuple of the unique-combination form over the
    un-permuted standard-form rows; the result is duplicate-free.
    """
    ring = code.ring
    p, m = ring.p, ring.modulus
    layout = code.layout
    size = cardinality(layout, p)
    if size > ENUMERATION_BUDGET:
        raise DomainError(f"|C| = {size} exceeds enumeration budget {ENUMERATION_BUDGET}")

    rows = apply_col_permutation(code.standard.matrix, inverse(code.standard.perm))
    dtype = dtype_for(ring)
    words = np.zeros((1, code.n), dtype=dtype)
    # A row of group i, scaled by p^(i-1), takes p^(s-i+1) distinct multiples.
    for row, scale in zip(rows.data, _row_scales(layout, p)):
        scaled = (np.arange(m // scale, dtype=dtype)[:, None] * row) % m
        words = (words[:, None, :] + scaled[None, :, :]).reshape(-1, code.n) % m
    return words


def _row_scales(layout: BlockLayout, p: int) -> list:
    """p^(i-1) for each row of row group i, in row order."""
    return [p ** i for i, ti in enumerate(layout.t) for _ in range(ti)]


def is_member(code: CodeSpec, v) -> bool:
    """Exact membership by reduction against standard-form pivots."""
    ring = code.ring
    vec = np.asarray(v, dtype=dtype_for(ring))
    if vec.shape != (code.n,):
        raise ShapeError(f"vector of length {vec.shape} vs code length {code.n}")
    p, m = ring.p, ring.modulus
    layout = code.layout
    perm = code.standard.perm
    g = code.standard.matrix.data
    # Move v into the standard form's coordinates (pull convention).
    w = vec[perm.index] % m
    for r, pv in enumerate(_row_scales(layout, p)):
        val = int(w[r])
        if val % pv:
            return False
        w = (w - (val // pv) * g[r]) % m
    return not np.any(w)


def codes_equal(a: CodeSpec, b: CodeSpec) -> bool:
    """Set equality, via equal types plus mutual row membership."""
    if a.ring != b.ring:
        raise RingMismatchError("codes over different rings")
    if a.n != b.n:
        raise ShapeError(f"codes of different length: {a.n} vs {b.n}")
    if a.layout.t != b.layout.t:
        return False
    # Generator rows live in the original coordinates, unlike the (column
    # permuted) standard-form rows.
    return all(is_member(b, row) for row in a.generators.data) and all(
        is_member(a, row) for row in b.generators.data
    )
