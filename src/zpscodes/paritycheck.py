"""Parity-check matrix constructions and verification.

Both constructions fill the first t rows of an unscaled H^T in place,
through _construct; its last n - t rows are [I_{n-t} | 0] and are never
stored.  Column group 1 (width n - t) of those rows holds the wide blocks;
group j >= 2 (width t_{s+2-j}) holds blocks over an identity and zeros, and
is scaled by p^(j-1) at the end.  _construct then writes H in the caller's
coordinates once, row-major; H in the standard form's coordinates is built
from it on first read.  The minors construction computes every block
through an independent block-minor recursion; the iterative one is a block
back-substitution, polynomial in s.  Both count through
OpCounters.record_node.  The two results are entrywise identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrix import (
    BlockLayout,
    Matrix,
    Permutation,
    ShapeError,
    _matmul_reduced,
    _reduce_in_place,
    apply_col_permutation,
    dtype_for,
)
from .minors import BlockMinorTable
from .opcounters import OpCounters, predicted_counts_minors
from .stdform import StandardForm, standard_form, stripped_row
from .zring import DomainError, RingMismatchError


BRUTEFORCE_BUDGET = 2 ** 24
# Big block-product pairs the minors construction may take: s <= 20 runs.
MINORS_BUDGET = 2 ** 20


class BudgetExceededError(DomainError):
    """Raised when a brute-force enumeration or the minors recursion would
    be too large."""


@dataclass(frozen=True)
class ParityCheckResult:
    """H in the caller's coordinates, h_unpermuted, and in the standard
    form's, h, which is built from it on first read: column j of h is
    column perm(j) of h_unpermuted."""

    method: str
    counters: OpCounters
    h_unpermuted: Matrix
    perm: Permutation

    @cached_property
    def h(self) -> Matrix:
        return apply_col_permutation(self.h_unpermuted, self.perm)


def dual_type(layout: BlockLayout) -> BlockLayout:
    """Type of the dual code: (n; n - t, t_s, ..., t_2)."""
    t = layout.t
    return BlockLayout(layout.n, (layout.n - layout.total,) + tuple(reversed(t[1:])))


def _construct(sf: StandardForm, method: str, fill) -> ParityCheckResult:
    """The first t rows of H^T, with the identity block of column group j in
    row group s + 2 - j, once fill(ht, dual, counters) has written the blocks
    H_{i,j}, i <= s + 1 - j, unscaled; column group j is then scaled by
    p^(j-1).  Row r of H^T is column perm(r) of h_unpermuted, which is
    written once, row-major: rows r < t from ht, and the free rows r >= t,
    [I_{n-t} | 0], as unit entries.  ht goes when this returns."""
    layout, ring = sf.layout, sf.matrix.ring
    s, t, dual = layout.s, layout.total, dual_type(layout)
    ht = np.zeros((t, dual.total), dtype=dtype_for(ring))
    for j in range(2, s + 1):
        np.fill_diagonal(ht[layout.group(s + 2 - j), dual.group(j)], 1)
    counters = OpCounters()
    fill(ht, dual, counters)
    for j in range(2, s + 1):
        block = ht[: layout.group(s + 2 - j).stop, dual.group(j)]  # zeros below
        block *= ring.p ** (j - 1)
        _reduce_in_place(block, ring.modulus)
    h = np.zeros((dual.total, layout.n), dtype=ht.dtype)
    h[:, sf.perm.index[:t]] = ht.T
    h[np.arange(layout.n - t), sf.perm.index[t:]] = 1
    return ParityCheckResult(method, counters, Matrix._of_reduced(ring, h), sf.perm)


def parity_check_minors(sf: StandardForm) -> ParityCheckResult:
    """Minors construction: every block H_{i,j} = (-1)^(s+2-i-j) O^i_{s+2-i-j}
    computed through an independent (unmemoized) block-minor recursion.
    The trees of one column group run as one forest that writes its signed
    minors straight into H^T.  Refused, before any work, when its
    2^s - 1 - s big block-product pairs exceed MINORS_BUDGET."""
    layout, s = sf.layout, sf.layout.s
    big_pairs, _ = predicted_counts_minors(s)
    if big_pairs > MINORS_BUDGET:
        raise BudgetExceededError(
            f"minors construction at s={s} needs {big_pairs} big block-product pairs, "
            f"over the budget of {MINORS_BUDGET}"
        )

    def fill(ht, dual, counters):
        # The table, and with it its workspace, goes when fill returns.
        table = BlockMinorTable(sf, counters)
        for j, width in enumerate(dual.t, start=1):
            if width:
                end = s + 2 - j
                table.block_minor_rec(1, end, ht[: layout.group(end).start, dual.group(j)])

    return _construct(sf, "minors", fill)


def parity_check_iterative(sf: StandardForm) -> ParityCheckResult:
    """Iterative construction: H_{i,j} = -(A_{i,s-j+2} + sum_{i<k<=s+1-j}
    A_{i,k} H_{k,j}) as one block back-substitution into H^T, i = s, ..., 1.
    Once row groups i+1..s are done, row group i of column groups 1..s+1-i
    is one kernel call, -[A_{i,i+1} | ... | A_{i,s}] H^T[groups i+1..s] +
    [-A_{i,s+1} | 0], on the row negated once: the free group's wide
    identity is never multiplied, and no sign pass runs over H^T.
    Each block of a column group of nonzero width is counted as the
    recurrence computes it, one product and one sum per term k."""
    layout, ring = sf.layout, sf.matrix.ring
    s, t, total = layout.s, layout.t, layout.total

    def fill(ht, dual, counters):
        for i in range(s, 0, -1):
            # The row, negated once and left signed: its first total - lo
            # columns take row groups i+1..s of H^T; the rest, -A_{i,s+1},
            # is the added term under column group 1, reduced by the kernel.
            row, lo = -stripped_row(sf, i), layout.group(i + 1).start
            out = ht[layout.group(i), : row.shape[1]]
            out[:, : layout.n - total] = row[:, total - lo :]
            out[...] = _matmul_reduced(row[:, : total - lo], ht[lo:total, : row.shape[1]], ring, out)
            for j in range(1, s + 1 - i):
                if dual.t[j - 1]:
                    counters.record_node(t[i - 1], t[i : s + 1 - j], dual.t[j - 1], j == 1)

    return _construct(sf, "iterative", fill)


def parity_check_bruteforce(generators: Matrix) -> Matrix:
    """All vectors orthogonal to every generator row, one a row in
    lexicographic order, found by enumerating the full ambient space."""
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
    return Matrix._of_reduced(ring, rows)


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


def verify_dual(g: Matrix, h: Matrix):
    """Check that H generates the dual of G's code.  G H^T = 0 puts <H> in
    the dual, and the two are equal exactly when |<G>| |<H>| = p^(sn), with
    each size the order of its standard form.  Returns (witness, sizes):
    both None when H generates the dual; verify_parity's witness, the
    1-based (row, col) of the first nonzero entry of G H^T, and None; or
    None and the sizes (|<G>|, |<H>|)."""
    ok, witness = verify_parity(g, h)
    if not ok:
        return witness, None
    ring, sizes = g.ring, tuple(standard_form(x).order for x in (g, h))
    return None, (sizes if sizes[0] * sizes[1] != ring.p ** (ring.s * g.ncols) else None)
