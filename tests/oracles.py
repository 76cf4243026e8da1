"""Oracles for the block-minor geometry, on Python ints.

Restricted permutations and the structured determinants, the block-minor
signed sum, the quaternary parity-check construction and the standard
form's block writers.  None of them calls the library's product kernel or
its Matrix arithmetic, the code they check.
"""

from itertools import combinations

import numpy as np

from zpscodes.matrix import Matrix, Permutation, dtype_for
from zpscodes.stdform import extract_blocks
from zpscodes.zring import DomainError


def sign(perm: Permutation) -> int:
    """(-1) to the number of inversions."""
    return -1 if sum(a > b for a, b in combinations(perm.images, 2)) % 2 else 1


def is_restricted(perm: Permutation) -> bool:
    """Membership test for the sigma(h) >= h - 1 family."""
    return all(perm.images[h - 1] >= h - 1 for h in range(1, perm.degree + 1))


def enumerate_restricted(n: int):
    """All degree-n permutations with sigma(h) >= h - 1, in lexicographic
    order of their image arrays.  There are exactly 2^(n-1) of them."""
    if n < 1:
        raise DomainError(f"degree {n} must be >= 1")
    out = []
    images = [0] * n
    used = [False] * (n + 1)

    def place(h):
        if h > n:
            out.append(Permutation(images))
            return
        # A value v fits only positions h <= v + 1: h - 1, while free, goes here.
        for img in [h - 1] if h > 1 and not used[h - 1] else range(max(1, h - 1), n + 1):
            if not used[img]:
                used[img] = True
                images[h - 1] = img
                place(h + 1)
                used[img] = False

    place(1)
    return out


def j_set(perm: Permutation) -> tuple:
    """Indices h with sigma(h) >= h, in increasing order: the factors of a
    restricted permutation's term.  Only these survive on a matrix whose
    first subdiagonal is all ones with zeros below it."""
    return tuple(h for h in range(1, perm.degree + 1) if perm.images[h - 1] >= h)


def _check_structured(a: Matrix) -> int:
    n = a.nrows
    if n != a.ncols or n < 1:
        raise DomainError(f"need a square matrix of positive size, got {a.shape}")
    for r in range(1, n):
        for c in range(r):
            if int(a.data[r, c]) != (c == r - 1):
                raise DomainError(
                    f"entry ({r + 1}, {c + 1}) = {int(a.data[r, c])} breaks the "
                    "unit-subdiagonal structure"
                )
    return n


def det_structured_sum(a: Matrix) -> int:
    """Determinant via the restricted-permutation signed sum."""
    n, m = _check_structured(a), a.ring.modulus
    total = 0
    for sigma in enumerate_restricted(n):
        term = 1
        for h in j_set(sigma):
            term = term * int(a.data[h - 1, sigma.images[h - 1] - 1]) % m
        total = (total + sign(sigma) * term) % m
    return total


def det_structured_laplace(a: Matrix) -> int:
    """Determinant via the first-column Laplace recursion on diagonal minors."""
    n, m = _check_structured(a), a.ring.modulus

    def minor(i, j):
        # i-th diagonal minor of order j (1-based anchor).
        if j == 0:
            return 1
        total = 0
        for k in range(i, i + j):
            sub = minor(k + 1, i + j - 1 - k)
            total = (total + (-1) ** (k - i) * int(a.data[i - 1, k - 1]) * sub) % m
        return total

    return minor(1, n)


def table_blocks(table) -> dict:
    """The stripped blocks A_{i,j} of a BlockMinorTable, keyed by (i, j), in
    the ring's storage: its rows -[A_{i,i+1} | ... | A_{i,s+1}], negated and
    cut at the column groups."""
    layout, storage, out = table.layout, dtype_for(table.ring), {}
    for i, row in table._rows.items():
        start = layout.group(i + 1).start
        for j in range(i + 1, layout.s + 2):
            cols = layout.group(j)
            out[(i, j)] = (-row[:, cols.start - start : cols.stop - start]).astype(storage)
    return out


def block(table, i: int, j: int) -> Matrix:
    """The stripped block A_{i,j} of a BlockMinorTable."""
    return Matrix(table.ring, table_blocks(table)[(i, j)])


def block_minor_sum(table, i: int, j: int) -> Matrix:
    """The order-j block-minor of a BlockMinorTable anchored at block-row i,
    by the signed sum over restricted permutations of degree j, or the
    identity on group i for j = 0.  Uncounted."""
    if not (1 <= i and 0 <= j and i + j <= table.layout.s + 1):
        raise DomainError(f"block-minor ({i}, {j}) out of range for s={table.layout.s}")
    if j == 0:
        group = table.layout.group(i)
        return Matrix(table.ring, np.eye(group.stop - group.start, dtype=np.int64))
    acc, blocks = 0, table_blocks(table)
    for sigma in enumerate_restricted(j):
        term = None
        for h in j_set(sigma):
            factor = blocks[(i + h - 1, i + sigma.images[h - 1])].astype(object)
            term = factor if term is None else term.dot(factor)
        acc = acc + sign(sigma) * term
    return Matrix(table.ring, acc % table.ring.modulus)


def z4_parity_check(sf) -> Matrix:
    """The classical quaternary parity-check matrix
    ( -(S+RT)^T  T^T  Id ; 2R^T  2Id  0 ) for p=2, s=2 standard forms.
    Generates the same code as the minors construction."""
    ring = sf.matrix.ring
    if ring.p != 2 or ring.s != 2:
        raise DomainError(f"quaternary construction needs p=2, s=2, got {ring.p}^{ring.s}")
    layout = sf.layout
    g1, g2, g3 = (layout.group(j) for j in (1, 2, 3))
    blocks = extract_blocks(sf)
    r, s_blk, t_blk = (blocks[key].data.astype(object) for key in ((1, 2), (1, 3), (2, 3)))
    # Row groups of H: the free group's n - t rows, then t_2 rows.
    t2, free = t_blk.shape
    h = np.zeros((free + t2, layout.n), dtype=object)
    h[:free, g1] = -(s_blk + r.dot(t_blk)).T
    h[:free, g2] = t_blk.T
    np.fill_diagonal(h[:free, g3], 1)
    h[free:, g1] = 2 * r.T
    np.fill_diagonal(h[free:, g2], 2)
    return Matrix(ring, h)


def _write_blocks(sf, base: int) -> np.ndarray:
    """Row group i as base^(i-1) (0, Id, A_{i,i+1}, ..., A_{i,s+1}), with
    the identity at column group i, from the blocks extract_blocks gives."""
    layout, blocks = sf.layout, extract_blocks(sf)
    out = np.zeros((layout.total, layout.n), dtype=object)
    for i in range(1, layout.s + 1):
        rows = out[layout.group(i)]
        np.fill_diagonal(rows[:, layout.group(i)], 1)
        for j in range(i + 1, layout.s + 2):
            rows[:, layout.group(j)] = blocks[(i, j)].data
        rows *= base ** (i - 1)
    return out


def reconstruct(sf) -> Matrix:
    """Reassemble the standard-form matrix from its extracted blocks."""
    return Matrix(sf.matrix.ring, _write_blocks(sf, sf.matrix.ring.p))


def reduced_associated(sf) -> Matrix:
    """The reduced associated matrix: first column group dropped, identity
    blocks on the subdiagonal, p-power scalings stripped."""
    return Matrix(sf.matrix.ring, _write_blocks(sf, 1)[:, sf.layout.t[0] :])
