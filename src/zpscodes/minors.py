"""Restricted permutations and structured (block-)determinants.

The determinant machinery applies to square matrices whose first subdiagonal
is all ones with zeros below it.  For such matrices only permutations with
sigma(h) >= h - 1 contribute, and the surviving factors are indexed by
J_sigma = {h : sigma(h) >= h}.  The same signed-sum formula defines a
block-determinant on the reduced associated matrix of a standard-form
generator matrix; block-minors of its diagonal are what the parity-check
constructions consume.
"""

from __future__ import annotations

from .matrix import Matrix, Permutation, identity, mat_add, mat_mul, mat_neg
from .opcounters import OpCounters
from .zring import DomainError


def is_restricted(perm: Permutation) -> bool:
    """Membership test for the sigma(h) >= h - 1 family."""
    return all(perm(h) >= h - 1 for h in range(1, perm.degree + 1))


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
        for img in range(max(1, h - 1), n + 1):
            if not used[img]:
                used[img] = True
                images[h - 1] = img
                place(h + 1)
                used[img] = False

    place(1)
    return out


def j_set(perm: Permutation) -> tuple:
    """Indices h with sigma(h) >= h, in increasing order."""
    return tuple(h for h in range(1, perm.degree + 1) if perm(h) >= h)


def _check_structured(a: Matrix) -> int:
    n = a.nrows
    if n != a.ncols or n < 1:
        raise DomainError(f"need a square matrix of positive size, got {a.shape}")
    for r in range(1, n):
        for c in range(r):
            want = 1 if c == r - 1 else 0
            if int(a.data[r, c]) != want:
                raise DomainError(
                    f"entry ({r + 1}, {c + 1}) = {int(a.data[r, c])} breaks the "
                    "unit-subdiagonal structure"
                )
    return n


def det_structured_sum(a: Matrix) -> int:
    """Determinant via the restricted-permutation signed sum."""
    n = _check_structured(a)
    m = a.ring.modulus
    total = 0
    for sigma in enumerate_restricted(n):
        term = 1
        for h in j_set(sigma):
            term = term * int(a.data[h - 1, sigma(h) - 1]) % m
        total = (total + sigma.sign() * term) % m
    return total


def det_structured_laplace(a: Matrix) -> int:
    """Determinant via the first-column Laplace recursion on diagonal minors."""
    n = _check_structured(a)
    m = a.ring.modulus

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


class BlockMinorTable:
    """Block-minors of the block diagonal of a reduced associated matrix.

    Holds the stripped blocks A_{i,j} keyed by (i, j), 1 <= i <= s,
    i + 1 <= j <= s + 1.  The recursion counts one multiplication and one
    addition per non-identity term through the attached counters; the
    product by the order-0 identity minor is skipped.  Nothing is memoized,
    so operation counts reproduce independent recomputation.
    """

    def __init__(self, blocks: dict, layout, counters: OpCounters | None = None):
        self.blocks = blocks
        self.layout = layout
        self.ring = next(iter(blocks.values())).ring if blocks else None
        self.counters = counters if counters is not None else OpCounters()
        self._wide_group = layout.s + 1

    def block(self, i: int, j: int) -> Matrix:
        return self.blocks[(i, j)]

    def _check_range(self, i: int, j: int) -> None:
        if not (1 <= i and 0 <= j and i + j <= self.layout.s + 1):
            raise DomainError(f"block-minor ({i}, {j}) out of range for s={self.layout.s}")

    def _counted_mul(self, a: Matrix, b: Matrix, wide: bool) -> Matrix:
        assert a.ncols == b.nrows, "block product not conformable"
        self.counters.record_mul(a.nrows, a.ncols, b.ncols, wide)
        return mat_mul(a, b)

    def _counted_add(self, a: Matrix, b: Matrix, wide: bool) -> Matrix:
        self.counters.record_add(a.nrows, a.ncols, wide)
        return mat_add(a, b)

    def block_minor_sum(self, i: int, j: int) -> Matrix:
        """Order-j block-minor anchored at block-row i via the signed sum
        over restricted permutations.  Uncounted; serves as the oracle."""
        self._check_range(i, j)
        if j == 0:
            return identity(self.ring, self.layout.t[i - 1])
        m = self.ring.modulus
        acc = None
        for sigma in enumerate_restricted(j):
            term = None
            for h in j_set(sigma):
                factor = self.block(i + h - 1, i + sigma(h))
                term = factor if term is None else mat_mul(term, factor)
            if sigma.sign() < 0:
                term = mat_neg(term)
            acc = term if acc is None else mat_add(acc, term)
        return acc

    def block_minor_rec(self, i: int, j: int) -> Matrix:
        """Order-j block-minor anchored at block-row i via the Laplace-style
        recursion; identical value to block_minor_sum."""
        self._check_range(i, j)
        if j == 0:
            return identity(self.ring, self.layout.t[i - 1])
        wide = (i + j == self._wide_group)
        acc = None
        for k in range(i, i + j):
            sub_order = i + j - 1 - k
            if sub_order == 0:
                term = self.block(i, k + 1)
            else:
                term = self._counted_mul(
                    self.block(i, k + 1), self.block_minor_rec(k + 1, sub_order), wide
                )
            if (k - i) % 2 == 1:
                term = mat_neg(term)
            acc = term if acc is None else self._counted_add(acc, term, wide)
        return acc
