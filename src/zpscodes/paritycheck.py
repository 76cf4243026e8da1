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
    identity,
    insert_block,
    mat_add,
    mat_mul,
    mat_neg,
    mat_scalar,
    mat_transpose,
    zeros,
)
from .minors import BlockMinorTable
from .opcounters import OpCounters
from .stdform import StandardForm, extract_blocks
from .zring import DomainError, RingMismatchError


BRUTEFORCE_BUDGET = 2 ** 24


class BudgetExceededError(DomainError):
    """Raised when a brute-force enumeration would be too large."""


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


def _assemble(sf: StandardForm, hij, counters: OpCounters, method: str) -> ParityCheckResult:
    """Build H^T from a block source hij(table, i, j) -> Matrix."""
    layout = sf.layout
    ring = sf.matrix.ring
    p, s = ring.p, layout.s
    n, t = layout.n, layout.total

    ht = zeros(ring, n, n - layout.t[0] if s >= 1 else n)
    num_col = 0
    for j in range(1, s + 1):
        width = n - t if j == 1 else layout.t[s + 1 - j]
        if width == 0:
            continue
        scale = p ** (j - 1)
        num_row = 0
        for i in range(1, s + 2 - j):
            block = hij(i, j)
            ht = insert_block(ht, num_row, num_col, mat_scalar(scale, block))
            num_row += layout.t[i - 1]
        ht = insert_block(ht, num_row, num_col, mat_scalar(scale, identity(ring, width)))
        num_col += width
    h = mat_transpose(Matrix(ring, ht.data[:, :num_col]))
    # Free H^T before un-permuting, which holds two more n x (n - t_1)
    # arrays besides H: four at once would be one more than assembly holds.
    del ht
    return ParityCheckResult(h, method, counters, _unpermute(h, sf))


def _unpermute(h: Matrix, sf: StandardForm) -> Matrix:
    from .matrix import apply_col_permutation

    return apply_col_permutation(h, sf.perm.inverse())


def parity_check_minors(sf: StandardForm) -> ParityCheckResult:
    """Minors construction: every block H_{i,j} = (-1)^(s+2-i-j) O^i_{s+2-i-j}
    computed through an independent (unmemoized) block-minor recursion."""
    counters = OpCounters()
    table = BlockMinorTable(extract_blocks(sf), sf.layout, counters)
    s = sf.layout.s

    def hij(i, j):
        order = s + 2 - i - j
        block = table.block_minor_rec(i, order)
        if order % 2 == 1:
            block = mat_neg(block)
        return block

    return _assemble(sf, hij, counters, "minors")


def parity_check_iterative(sf: StandardForm) -> ParityCheckResult:
    """Iterative construction: per column group j, seed with
    H_{s-j+1,j} = -A_{s-j+1,s-j+2} and fill i = s-j, ..., 1 reusing the
    already computed blocks of the same group."""
    counters = OpCounters()
    blocks = extract_blocks(sf)
    layout = sf.layout
    s = layout.s
    table = BlockMinorTable(blocks, layout, counters)

    computed = {}
    for j in range(1, s + 1):
        wide = (j == 1)
        width = layout.n - layout.total if j == 1 else layout.t[s + 1 - j]
        if width == 0:
            continue
        group = {}
        top = s - j + 1
        group[top] = mat_neg(blocks[(top, s - j + 2)])
        for i in range(top - 1, 0, -1):
            acc = blocks[(i, s - j + 2)]
            for k in range(i + 1, top + 1):
                prod = table._counted_mul(blocks[(i, k)], group[k], wide)
                acc = table._counted_add(acc, prod, wide)
            group[i] = mat_neg(acc)
        computed[j] = group

    return _assemble(sf, lambda i, j: computed[j][i], counters, "iterative")


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
    t1, t2 = layout.t
    n = layout.n
    free = n - t1 - t2
    blocks = extract_blocks(sf)
    r, s_blk, t_blk = blocks[(1, 2)], blocks[(1, 3)], blocks[(2, 3)]

    h = zeros(ring, free + t2, n)
    h = insert_block(h, 0, 0, mat_neg(mat_transpose(mat_add(s_blk, mat_mul(r, t_blk)))))
    h = insert_block(h, 0, t1, mat_transpose(t_blk))
    h = insert_block(h, 0, t1 + t2, identity(ring, free))
    h = insert_block(h, free, 0, mat_scalar(2, mat_transpose(r)))
    h = insert_block(h, free, t1, mat_scalar(2, identity(ring, t2)))
    return h


def verify_parity(g: Matrix, h: Matrix):
    """Check G H^T = 0.  Returns (True, None) or (False, (row, col)) with the
    1-based coordinates of the first nonzero product entry."""
    if g.ring != h.ring:
        raise RingMismatchError("generator and parity-check over different rings")
    if g.ncols != h.ncols:
        raise ShapeError(f"length mismatch: {g.ncols} vs {h.ncols}")
    prod = mat_mul(g, mat_transpose(h))
    nz = np.argwhere(prod.data != 0)
    if nz.size:
        r, c = nz[0]
        return False, (int(r) + 1, int(c) + 1)
    return True, None
