"""Parity-check matrix constructions and verification.

Both constructions fill one unscaled H^T in place, through _construct.  Its
column group 1 (width n - t) stacks the wide blocks over an identity; group
j >= 2 (width t_{s+2-j}) stacks blocks over an identity and zeros, and is
scaled by p^(j-1) at the end.  The minors construction computes every block
through an independent block-minor recursion; the iterative one is a block
back-substitution, polynomial in s.  Both count through
OpCounters.record_node.  The two results are entrywise identical.
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
from .stdform import StandardForm, extract_blocks, stripped_row
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


def _construct(sf: StandardForm, method: str, fill) -> ParityCheckResult:
    """H^T with the identity block of column group j in row group s + 2 - j,
    once fill(ht, dual, counters) has written the blocks H_{i,j},
    i <= s + 1 - j, unscaled; column group j is then scaled by p^(j-1)."""
    layout, ring = sf.layout, sf.matrix.ring
    s, dual = layout.s, dual_type(layout)
    ht = np.zeros((layout.n, dual.total), dtype=dtype_for(ring))
    diag = np.concatenate([np.r_[dual.group(j)] for j in range(s, 0, -1)])
    ht[np.arange(layout.group(2).start, layout.n), diag] = 1
    counters = OpCounters()
    fill(ht, dual, counters)
    for j in range(2, s + 1):
        block = ht[: layout.group(s + 2 - j).stop, dual.group(j)]  # zeros below
        block[...] = _reduce(block * ring.p ** (j - 1), ring.modulus)
    # H is a view of H^T, whose entries are reduced already: un-permuting
    # holds one more (n - t_1) x n array besides it.
    h = Matrix._of_reduced(ring, ht.T)
    return ParityCheckResult(h, method, counters, apply_col_permutation(h, sf.perm.inverse()))


def parity_check_minors(sf: StandardForm) -> ParityCheckResult:
    """Minors construction: every block H_{i,j} = (-1)^(s+2-i-j) O^i_{s+2-i-j}
    computed through an independent (unmemoized) block-minor recursion.
    Refused, before any work, when its 2^s - 1 - s big block-product pairs
    exceed MINORS_BUDGET."""
    layout, s, m = sf.layout, sf.layout.s, sf.matrix.ring.modulus
    big_pairs, _ = predicted_counts_minors(s)
    if big_pairs > MINORS_BUDGET:
        raise BudgetExceededError(
            f"minors construction at s={s} needs {big_pairs} big block-product pairs, "
            f"over the budget of {MINORS_BUDGET}"
        )

    def fill(ht, dual, counters):
        # The table, and with it its children stack, goes when fill returns.
        table = BlockMinorTable(extract_blocks(sf), layout, counters)
        for j, width in enumerate(dual.t, start=1):
            if width == 0:
                continue
            for i in range(1, s + 2 - j):
                order = s + 2 - i - j
                block = table.block_minor_rec(i, order).data
                ht[layout.group(i), dual.group(j)] = _reduce(-block, m) if order % 2 else block

    return _construct(sf, "minors", fill)


def parity_check_iterative(sf: StandardForm) -> ParityCheckResult:
    """Iterative construction: H_{i,j} = -(A_{i,s-j+2} + sum_{i<k<=s+1-j}
    A_{i,k} H_{k,j}) as one block back-substitution into H^T, i = s, ..., 1.
    Once row groups i+1..s are done, row group i of column groups 1..s+1-i
    is one kernel call, -([A_{i,i+1} | ... | A_{i,s}] H^T[groups i+1..s] +
    [A_{i,s+1} | 0]): the free group's wide identity is never multiplied.
    Each block of a column group of nonzero width is counted as the
    recurrence computes it, one product and one sum per term k."""
    layout, ring = sf.layout, sf.matrix.ring
    s, t, total = layout.s, layout.t, layout.total

    def fill(ht, dual, counters):
        for i in range(s, 0, -1):
            # Its first total - lo columns take row groups i+1..s of H^T; the
            # rest, A_{i,s+1}, is the added term under column group 1.
            row, lo = stripped_row(sf, i), layout.group(i + 1).start
            out = ht[layout.group(i), : row.shape[1]]
            out[:, : layout.n - total] = row[:, total - lo :]
            prod = _matmul_reduced(row[:, : total - lo], ht[lo:total, : row.shape[1]], ring, out)
            out[...] = _reduce(-prod, ring.modulus)
            for j in range(1, s + 1 - i):
                if dual.t[j - 1]:
                    counters.record_node(t[i - 1], t[i : s + 1 - j], dual.t[j - 1], j == 1)

    return _construct(sf, "iterative", fill)


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
        # With no generators every vector has the empty syndrome.
        found.append(vecs[~((vecs @ gt) % m).any(axis=1)])
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
