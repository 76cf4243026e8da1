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

import sys
from functools import cached_property

import numpy as np

from .matrix import (
    Matrix, Permutation, ShapeError, _matmul_reduced, _reduce, dtype_for, identity, mat_add,
    mat_mul, mat_neg
)
from .opcounters import OpCounters
from .zring import DomainError

# Bytes that the level arrays of one column strip of a block-minor recursion
# tree, the leaf level excluded, and its largest children stack may take
# together (see BlockMinorTable._strips); a tree whose single column passes it
# recurses node by node at its top until its subtrees fit.
_TREE_BYTES = 1 << 20


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

    Holds the stripped blocks A_{i,j}, keyed by (i, j), 1 <= i <= s,
    i + 1 <= j <= s + 1, as raw ndarrays; only the public methods build a
    Matrix.  The recursion counts through OpCounters.record_node, as the
    iterative construction does: one multiplication and one addition per
    non-identity term, never the product by the order-0 identity minor.
    Nothing is memoized: every node of a recursion tree performs its own
    block products, so operation counts reproduce independent
    recomputation; only the dispatch is batched (see _minor_rec).
    """

    def __init__(self, blocks: dict, layout, counters: OpCounters | None = None):
        self.blocks = {key: block.data for key, block in blocks.items()}
        self.layout = layout
        self.ring = blocks[(1, 2)].ring
        self.counters = counters if counters is not None else OpCounters()
        self._stack = np.empty(0, dtype_for(self.ring))

    @cached_property
    def _signed_rows(self) -> dict:
        """Row group a as [A(a, a+1) | -A(a, a+2) | ... | ±A(a, s+1)], signed as in _minor_rec."""
        layout, blocks, m = self.layout, self.blocks, self.ring.modulus
        widths = (*layout.t, layout.n - layout.total)
        if any(blk.shape != (widths[a - 1], widths[b - 1]) for (a, b), blk in blocks.items()):
            raise ShapeError(f"blocks do not fit the type {layout.t}")
        return {a: np.hstack([blocks[(a, b)] if (b - a) % 2 else _reduce(-blocks[(a, b)], m)
                              for b in range(a + 1, layout.s + 2)])
                for a in range(1, layout.s + 1)}

    def block(self, i: int, j: int) -> Matrix:
        return Matrix(self.ring, self.blocks[(i, j)])

    def _check_range(self, i: int, j: int) -> None:
        if not (1 <= i and 0 <= j and i + j <= self.layout.s + 1):
            raise DomainError(f"block-minor ({i}, {j}) out of range for s={self.layout.s}")

    # A counted block product and sum, kept only as perfbench/tracer.py's targets.
    def _counted_mul(self, a: np.ndarray, b: np.ndarray, wide: bool) -> np.ndarray:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"block product not conformable: {a.shape} by {b.shape}")
        self.counters.record_mul(a.shape[0], a.shape[1], b.shape[1], wide)
        return _matmul_reduced(a, b, self.ring)

    def _counted_add(self, a: np.ndarray, b: np.ndarray, wide: bool) -> np.ndarray:
        if a.shape != b.shape:
            raise ShapeError(f"block sum not conformable: {a.shape} vs {b.shape}")
        self.counters.record_add(a.shape[0], a.shape[1], wide)
        return _reduce(a + b, self.ring.modulus)

    def _level_product(self, rows, children, leaf, count: int) -> np.ndarray:
        """count nodes side by side: rows times children, plus leaf on each
        of the count equal-width column blocks, in one kernel call.  Uncounted."""
        t, w = leaf.shape
        if rows.shape != (t, children.shape[0]) or children.shape[1] != count * w:
            raise ShapeError(f"level not conformable: {rows.shape} {children.shape} {leaf.shape}")
        return _matmul_reduced(rows, children, self.ring, leaf)

    def block_minor_sum(self, i: int, j: int) -> Matrix:
        """Order-j block-minor anchored at block-row i via the signed sum
        over restricted permutations, or the identity on group i for j = 0.
        Uncounted, and built on the public Matrix ops; serves as the oracle."""
        self._check_range(i, j)
        if j == 0:
            return identity(self.ring, self.layout.group(i).stop - self.layout.group(i).start)
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
            return self.block_minor_sum(i, j)
        return Matrix._of_reduced(self.ring, self._minor_rec(i, j))

    def _strips(self, i: int, end: int) -> tuple:
        """(deep, strip, stack) of tree (i, end): whether one column passes
        _TREE_BYTES, the strip width, and the children-stack entries a strip
        takes.  A column holds levels i..end-2 and the largest level's
        children, sum(t[a:end-1]) rows for each of its c(a) nodes; a deep
        tree's one strip stacks its root's."""
        t, width = self.layout.t, self.blocks[(i, end)].shape[1]
        # 8 bytes an entry, plus an int object no larger than m - 1's.
        entry = 8 + (sys.getsizeof(self.ring.modulus - 1) if self._stack.dtype == object else 0)
        levels = stack = kids = 0
        for a in range(end - 2, i - 1, -1):
            count = 1 << max(a - i - 1, 0)
            kids += t[a]  # sum(t[a:end-1])
            levels += t[a - 1] * count
            stack = max(stack, kids * count)
        if entry * (levels + stack) > _TREE_BYTES:
            return True, max(width, 1), kids * width
        strip = max(1, _TREE_BYTES // (entry * max(levels + stack, 1)))
        return False, strip, stack * min(strip, width)

    def _children_stack(self, size: int) -> np.ndarray:
        """The buffer every level product stacks its children in, of at least
        size entries.  It is allocated at the largest use over all trees of
        the table, so once for a table unless _TREE_BYTES grows."""
        if self._stack.size < size:
            s = self.layout.s
            uses = (self._strips(a, e)[2] for a in range(1, s + 1) for e in range(a + 1, s + 2))
            self._stack = np.empty(max(uses), self._stack.dtype)
        return self._stack

    def _minor_rec(self, i: int, j: int) -> np.ndarray:
        """The recursion of block_minor_rec on raw arrays, for j >= 1.

        A node at anchor a of the tree ending at end = i + j computes
        O(a) = sum over a < b <= end of (-1)^(b-1-a) A(a, b) O(b), skipping
        the product by O(end) = Id.  The tree runs bottom-up on column strips
        of its leaf (see _strips).  Level a holds its c(a) nodes side by side,
        c(i) = 1 and c(a) = 2^(a-i-1) below; its children at anchor b are
        nodes [c(a), 2c(a)) of level b, or node 0 for a = i.  So a level is
        one fused product of the signed row [A(a, a+1) | ... | ±A(a, end-1)]
        by its children, written one anchor at a time into the table's
        stack, plus ±A(a, end), counted once at full width on the first
        strip.  The leaf level end - 1 is never computed: each of its nodes
        is the leaf A(end-1, end), so an order-1 tree is a copy of it.  A
        tree whose single column passes the budget (order above 17 at t = 2
        for int64) evaluates its root alone over whole children.
        """
        end = i + j
        t, width = self.layout.t, self.blocks[(i, end)].shape[1]
        deep, strip, used = self._strips(i, end)
        # Node 0 of each child level, as level arrays of one node.
        kids = {b: self._minor_rec(b, end - b)[:, None] for b in range(i + 1, end)} if deep else {}
        stack, leaf = self._children_stack(used), self._signed_rows[end - 1]
        out = np.empty((t[i - 1], width), stack.dtype)
        wide = (end == self.layout.s + 1)
        for c0 in range(0, max(width, 1), strip):
            # Level b holds its c(b) nodes as (t_b, c(b), cols), the leaf level
            # its one distinct node; a fresh dict per strip lets the last
            # strip's level arrays go.
            cols, level = min(strip, width - c0), dict(kids)
            if not deep:
                level[end - 1] = leaf[:, None, c0 : c0 + cols]
            for a in (i,) if deep else range(end - 2, i - 1, -1):
                count, row, k = 1 << max(a - i - 1, 0), self._signed_rows[a], sum(t[a : end - 1])
                lo, r = (0 if a == i else count), 0
                children = stack[: k * count * cols].reshape(k, count, cols)
                for b in range(a + 1, end):
                    kid = level[b] if b == end - 1 else level[b][:, lo : lo + count]
                    children[r : r + t[b - 1]] = kid
                    r += t[b - 1]
                level[a] = self._level_product(
                    row[:, :k], children.reshape(k, count * cols),
                    row[:, k + c0 : k + c0 + cols], count).reshape(t[a - 1], count, cols)
                if c0 == 0:  # at full width, once
                    self.counters.record_node(t[a - 1], t[a : end - 1], width, wide, count)
            out[:, c0 : c0 + cols] = level[i][:, 0]
        return out
