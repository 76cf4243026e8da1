"""Parity-check matrix constructions and verification.

Both constructions assemble the same transposed parity-check matrix: column
group 1 (width n - t) stacks the wide blocks over an identity, and column
group j >= 2 (width t_{s+2-j}) stacks p^(j-1)-scaled blocks over a scaled
identity and zeros.  The minors construction computes every block through an
independent block-minor recursion; the iterative construction reuses the
blocks of the same column group, which is what makes it polynomial in s.
The two results are entrywise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import (
    BlockLayout,
    Matrix,
    ShapeError,
    _matmul_reduced,
    _reduce,
    apply_col_permutation,
    dtype_for,
)
from .minors import BlockMinorTable
from .opcounters import OpCounters, predicted_counts_minors
from .stdform import StandardForm, extract_blocks
from .zring import DomainError, RingMismatchError


BRUTEFORCE_BUDGET = 2 ** 24
# Big block-product pairs the minors construction may take: s <= 20 runs.
MINORS_BUDGET = 2 ** 20


class BudgetExceededError(DomainError):
    """Raised when a brute-force enumeration or the minors recursion would
    be too large."""


@dataclass(frozen=True)
class ParityCheckResult:
    h: Matrix
    method: str
    counters: OpCounters
    h_unpermuted: Matrix


def dual_type(layout: BlockLayout) -> BlockLayout:
    """Type of the dual code: (n; n - t, t_s, ..., t_2)."""
    t = layout.t
    return BlockLayout(layout.n, (layout.n - layout.total,) + tuple(reversed(t[1:])))


def _assemble(
    sf: StandardForm, h_blocks: dict, counters: OpCounters, method: str
) -> ParityCheckResult:
    """Write H^T once into one array from the reduced ndarray blocks H_{i,j},
    keyed (i, j), of every column group j of nonzero width."""
    layout = sf.layout
    ring = sf.matrix.ring
    s = layout.s
    dual = dual_type(layout)
    ht = np.zeros((layout.n, dual.total), dtype=dtype_for(ring))
    for j, width in enumerate(dual.t, start=1):
        if width == 0:
            continue
        cols = dual.group(j)
        scale = ring.p ** (j - 1)
        for i in range(1, s + 2 - j):
            block = h_blocks[(i, j)]
            ht[layout.group(i), cols] = block if j == 1 else _reduce(block * scale, ring.modulus)
        # Row group s + 2 - j; for j = 1 the free group's wide identity.
        np.fill_diagonal(ht[layout.group(s + 2 - j), cols], scale)
    # H is a view of H^T, whose entries are reduced already: un-permuting
    # holds one more (n - t_1) x n array besides it.
    h = Matrix._of_reduced(ring, ht.T)
    return ParityCheckResult(h, method, counters, apply_col_permutation(h, sf.perm.inverse()))


def parity_check_minors(sf: StandardForm) -> ParityCheckResult:
    """Minors construction: every block H_{i,j} = (-1)^(s+2-i-j) O^i_{s+2-i-j}
    computed through an independent (unmemoized) block-minor recursion.
    Refused, before any work, when its 2^s - 1 - s big block-product pairs
    exceed MINORS_BUDGET."""
    s = sf.layout.s
    big_pairs, _ = predicted_counts_minors(s)
    if big_pairs > MINORS_BUDGET:
        raise BudgetExceededError(
            f"minors construction at s={s} needs {big_pairs} big block-product pairs, "
            f"over the budget of {MINORS_BUDGET}"
        )
    counters = OpCounters()
    table = BlockMinorTable(extract_blocks(sf), sf.layout, counters)
    m = table.ring.modulus
    h = {}
    for j, width in enumerate(dual_type(sf.layout).t, start=1):
        if width == 0:
            continue
        for i in range(1, s + 2 - j):
            order = s + 2 - i - j
            block = table.block_minor_rec(i, order).data
            h[(i, j)] = _reduce(-block, m) if order % 2 == 1 else block
    del table  # its children stack goes before H is assembled
    return _assemble(sf, h, counters, "minors")


def parity_check_iterative(sf: StandardForm) -> ParityCheckResult:
    """Iterative construction: per column group j, seed with
    H_{s-j+1,j} = -A_{s-j+1,s-j+2} and fill i = s-j, ..., 1 reusing the
    already computed blocks of the same group."""
    counters = OpCounters()
    s = sf.layout.s
    table = BlockMinorTable(extract_blocks(sf), sf.layout, counters)
    a, m = table.blocks, table.ring.modulus
    h = {}
    for j, width in enumerate(dual_type(sf.layout).t, start=1):
        if width == 0:
            continue
        wide = (j == 1)
        top = s - j + 1
        h[(top, j)] = _reduce(-a[(top, s - j + 2)], m)
        for i in range(top - 1, 0, -1):
            acc = a[(i, s - j + 2)]
            for k in range(i + 1, top + 1):
                prod = table._counted_mul(a[(i, k)], h[(k, j)], wide)
                acc = table._counted_add(acc, prod, wide)
            h[(i, j)] = _reduce(-acc, m)
    return _assemble(sf, h, counters, "iterative")


def parity_check_bruteforce(generators: Matrix) -> Matrix:
    """All vectors orthogonal to every generator row, found by enumerating
    the full ambient space (the complete dual set, one vector per row)."""
    ring = generators.ring
    m = ring.modulus
    n = generators.ncols
    total = m ** n
    if total > BRUTEFORCE_BUDGET:
        raise BudgetExceededError(
            f"ambient space has {total} vectors, over the budget of {BRUTEFORCE_BUDGET}"
        )
    gt = generators.data.astype(np.int64).T  # n x k
    powers = np.array([m ** (n - 1 - c) for c in range(n)], dtype=np.int64)
    found = []
    chunk = 1 << 20
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        vecs = (idx[:, None] // powers[None, :]) % m
        if gt.shape[1] == 0:
            mask = np.ones(len(idx), dtype=bool)
        else:
            syndromes = (vecs @ gt) % m
            mask = ~syndromes.any(axis=1)
        found.append(vecs[mask])
    rows = np.vstack(found) if found else np.zeros((0, n), np.int64)
    return Matrix(ring, rows)


def z4_parity_check(sf: StandardForm) -> Matrix:
    """The classical quaternary parity-check matrix
    ( -(S+RT)^T  T^T  Id ; 2R^T  2Id  0 ) for p=2, s=2 standard forms.
    Generates the same code as the minors construction."""
    ring = sf.matrix.ring
    if ring.p != 2 or ring.s != 2:
        raise DomainError(f"quaternary construction needs p=2, s=2, got {ring.p}^{ring.s}")
    layout = sf.layout
    g1, g2, g3 = (layout.group(j) for j in (1, 2, 3))
    blocks = extract_blocks(sf)
    r, s_blk, t_blk = blocks[(1, 2)].data, blocks[(1, 3)].data, blocks[(2, 3)].data
    # Row groups of H: the free group's n - t rows, then t_2 rows.
    t2, free = t_blk.shape
    h = np.zeros((free + t2, layout.n), dtype=dtype_for(ring))
    h[:free, g1] = -(s_blk + r @ t_blk).T
    h[:free, g2] = t_blk.T
    np.fill_diagonal(h[:free, g3], 1)
    h[free:, g1] = 2 * r.T
    np.fill_diagonal(h[free:, g2], 2)
    return Matrix(ring, h)


def verify_parity(g: Matrix, h: Matrix):
    """Check G H^T = 0.  Returns (True, None) or (False, (row, col)) with the
    1-based coordinates of the first nonzero product entry."""
    if g.ring != h.ring:
        raise RingMismatchError("generator and parity-check over different rings")
    if g.ncols != h.ncols:
        raise ShapeError(f"length mismatch: {g.ncols} vs {h.ncols}")
    prod = _matmul_reduced(g.data, h.data.T, g.ring)
    nz = np.argwhere(prod != 0)
    if nz.size:
        r, c = nz[0]
        return False, (int(r) + 1, int(c) + 1)
    return True, None
