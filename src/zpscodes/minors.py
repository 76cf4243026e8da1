"""Block-minors of the reduced associated matrix of a standard form.

The reduced associated matrix of a standard-form generator matrix has the
stripped blocks A_{i,j} above its block diagonal and identities on the
block subdiagonal.  Its diagonal block-minor O(i, end) of order end - i is
the signed sum, over the permutations with sigma(h) >= h - 1, of products
of blocks; the minors construction takes every block of H from one such
minor.  Here they are evaluated only by the first-column Laplace recursion,
O(a, end) = sum over a < b <= end of (-1)^(b-1-a) A(a, b) O(b, end), with
O(end, end) the identity: all the trees of one column group of H^T at once,
as one forest of levels of nodes (see BlockMinorTable._levels).  The signed
sum itself serves only as an oracle, in the tests.
"""

from __future__ import annotations

import sys
from functools import cached_property

import numpy as np

from .matrix import (
    ShapeError, _carve, _matmul_dtype, _matmul_reduced, _reduce, _reduce_in_place, dtype_for
)
from .opcounters import OpCounters
from .zring import DomainError

# Bytes that the level arrays of one column strip of a block-minor tree or
# forest, the leaf level excluded, and its largest children stack or level
# may take together: the table's workspace (see BlockMinorTable._plan).  A
# tree whose single column passes it recurses node by node at its top until
# its subtrees fit; such a forest runs its trees alone.
_TREE_BYTES = 1 << 20


def _put(dst: np.ndarray, src: np.ndarray, negate: bool, m: int) -> None:
    """dst = src, or -src mod m."""
    if negate:
        # Not np.negative(out=): numpy 2.4 writes wrong int64 values into some
        # (rows, 1) views, a column group of width 1 for one.
        np.subtract(0, src, out=dst)
        _reduce_in_place(dst, m)
    else:
        dst[...] = src


class BlockMinorTable:
    """Block-minors of the block diagonal of a reduced associated matrix.

    Holds the stripped blocks A_{i,j}, keyed by (i, j), 1 <= i <= s,
    i + 1 <= j <= s + 1, as raw ndarrays.  The recursion counts through OpCounters.record_node, as the
    iterative construction does: one multiplication and one addition per
    non-identity term, never the product by the order-0 identity minor.
    Nothing is memoized: every node of a recursion tree performs its own
    block products, so operation counts reproduce independent
    recomputation.  Only the dispatch is batched, one product per level of
    nodes (see _levels), and the memory reused: every level product works
    in the table's one workspace, which goes with the table.
    """

    def __init__(self, blocks: dict, layout, counters: OpCounters | None = None):
        self.blocks = {key: block.data for key, block in blocks.items()}
        self.layout = layout
        self.ring = blocks[(1, 2)].ring
        self.counters = counters if counters is not None else OpCounters()
        self._work = np.empty(0, dtype_for(self.ring))

    @cached_property
    def _signed_rows(self) -> dict:
        """Row group a as [A(a, a+1) | -A(a, a+2) | ... | ±A(a, s+1)], signed as in _levels."""
        layout, blocks, m = self.layout, self.blocks, self.ring.modulus
        widths = (*layout.t, layout.n - layout.total)
        if any(blk.shape != (widths[a - 1], widths[b - 1]) for (a, b), blk in blocks.items()):
            raise ShapeError(f"blocks do not fit the type {layout.t}")
        return {a: np.hstack([blocks[(a, b)] if (b - a) % 2 else _reduce(-blocks[(a, b)], m)
                              for b in range(a + 1, layout.s + 2)])
                for a in range(1, layout.s + 1)}

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

    def _level_product(self, rows, children, leaf, count: int, out=None, work=None) -> np.ndarray:
        """count nodes side by side: rows times children, plus leaf on each
        of the count equal-width column blocks, in one kernel call, into out
        with work as its scratch when given (see _matmul_reduced).  Uncounted."""
        t, w = leaf.shape
        if rows.shape != (t, children.shape[0]) or children.shape[1] != count * w:
            raise ShapeError(f"level not conformable: {rows.shape} {children.shape} {leaf.shape}")
        return _matmul_reduced(rows, children, self.ring, leaf, out, work)

    def block_minor_rec(self, i: int, j: int, out) -> None:
        """The order-j block-minors O(a, end), end = i + j, a = i..end-1, via
        the Laplace-style recursion, as one forest.  out is an array of the
        rows of groups i..end-1 by the width of group end (for i = 1, a
        column group of H^T); (-1)^(end-a) O(a, end) goes into its row group
        a, and the block ops of each tree are counted."""
        self._check_range(i, j)
        end, layout = i + j, self.layout
        top = layout.group(i).start
        if out.shape != (layout.group(end).start - top, self.blocks[(i, end)].shape[1] if j else 0):
            raise ShapeError(f"out {out.shape} does not fit the minors ({i}, {j})")
        sinks = {a: (out[layout.group(a).start - top : layout.group(a).stop - top], (end - a) % 2)
                 for a in range(i, end)}
        if sinks:
            self._levels(i - 1, end, sinks)

    def _plan(self, root: int, low: int, end: int) -> tuple:
        """(deep, strip, sizes) of levels end-2..low of tree (root, end), or
        of the forest of trees low..end-1 when root = low - 1 (see _levels):
        whether one column passes _TREE_BYTES, the strip width, and the
        workspace entries a strip takes for its levels and for its largest
        children stack or level, whose quotient the stack takes once the
        level's product is done.  Level a holds c(a) nodes of t_a rows, and
        stacks sum(t[a:end-1]) rows of children for each.  A deep tree's one
        strip is its root's level over whole children; a deep forest takes
        none, for its trees run alone."""
        t, width, storage = self.layout.t, self.blocks[(low, end)].shape[1], dtype_for(self.ring)
        # 8 bytes an entry, plus an int object no larger than m - 1's.
        entry = 8 + (sys.getsizeof(self.ring.modulus - 1) if storage is object else 0)
        levels = stack = kids = 0
        for a in range(end - 2, low - 1, -1):
            count = 1 << max(a - root - 1, 0)
            kids += t[a]  # sum(t[a:end-1])
            levels += t[a - 1] * count
            stack = max(stack, kids * count, t[a - 1] * count)
        if entry * (levels + stack) <= _TREE_BYTES:
            strip = max(1, _TREE_BYTES // (entry * max(levels + stack, 1)))
            cols = min(strip, width)
            return False, strip, (levels * cols, stack * cols)
        if root < low:
            return True, width, (0, 0)
        return True, max(width, 1), (t[root - 1] * width, max(kids, t[root - 1]) * width)

    def _workspace(self, size: int) -> np.ndarray:
        """The flat buffer, in the ring's storage, that every level product
        works in, of at least size entries.  It is allocated at the largest
        column group of the table, so once for a table unless a deep tree or
        a larger _TREE_BYTES asks for more; the old buffer goes first."""
        if self._work.size < size:
            groups = (sum(self._plan(0, 1, end)[2]) for end in range(2, self.layout.s + 2))
            dtype, self._work = self._work.dtype, None
            self._work = np.empty(max(size, *groups), dtype)
        return self._work

    def _minor_rec(self, i: int, j: int) -> np.ndarray:
        """O(i, i + j) for j >= 1, from tree (i, i + j) alone (see _levels)."""
        out = np.empty((self.layout.t[i - 1], self.blocks[(i, i + j)].shape[1]),
                       dtype_for(self.ring))
        self._levels(i, i + j, {i: (out, False)})
        return out

    def _levels(self, root: int, end: int, sinks: dict) -> None:
        """Evaluate tree (root, end) from level end - 2 up to level
        low = min(sinks), and copy node 0 of each level a in sinks, which is
        O(a, end), into its array, negated where sinks says so.

        A node at anchor a computes O(a) = sum over a < b <= end of
        (-1)^(b-1-a) A(a, b) O(b), skipping the product by O(end) = Id.
        The tree runs bottom-up on column strips of its leaf (see _plan).
        Level a holds its c(a) nodes side by side, c(root) = 1 and
        c(a) = 2^(a-root-1) below; its children at anchor b are nodes
        [c(a), 2c(a)) of level b, or node 0 for a = root.  So a level is
        one fused product of the signed row [A(a, a+1) | ... | ±A(a, end-1)]
        by its children, stacked one anchor at a time, plus ±A(a, end),
        counted once at full width on the first strip.  The leaf level
        end - 1 is never computed: each of its nodes is the leaf
        A(end-1, end), so an order-1 tree is a copy of it.

        The trees (a, end), a = low..end-1, together are tree (low - 1, end)
        without its root level: the forest of a column group, whose level a
        holds 2^(a-low) nodes, as many as those trees hold at anchor a.  A
        tree whose single column passes the budget (order above 17 at t = 2
        for int64) evaluates its root alone over whole children, and such a
        forest evaluates its trees one by one.

        Every level product works in the table's workspace: the kernel
        takes its product in the level's own array, a strip's level arrays
        lie side by side, and the children stack, in the product's dtype,
        follows them and takes the reduction's quotient.
        """
        t, m, low, signed = self.layout.t, self.ring.modulus, min(sinks), self._signed_rows
        width, leaf = self.blocks[(low, end)].shape[1], signed[end - 1]
        deep, strip, (nlevels, nstack) = self._plan(root, low, end)
        if deep and root < low:
            for a, (dst, negate) in sinks.items():
                _put(dst, self._minor_rec(a, end - a), negate, m)
            return
        # Node 0 of each child level, as level arrays of one node.
        kids = {b: self._minor_rec(b, end - b)[:, None]
                for b in range(root + 1, end)} if deep else {}
        work = self._workspace(nlevels + nstack)
        stack = work[nlevels:]
        wide = (end == self.layout.s + 1)
        for c0 in range(0, max(width, 1), strip):
            # Level b holds its c(b) nodes as (t_b, c(b), cols), the leaf level
            # its one distinct node.
            cols, level, used = min(strip, width - c0), dict(kids), 0
            if not deep:
                level[end - 1] = leaf[:, None, c0 : c0 + cols]
            for a in (root,) if deep else range(end - 2, low - 1, -1):
                count, row, k = 1 << max(a - root - 1, 0), signed[a], sum(t[a : end - 1])
                lo, r, size = (0 if a == root else count), 0, t[a - 1] * count * cols
                dtype = _matmul_dtype(self.ring, t[a - 1], k, count * cols)
                children = _carve(stack, (k, count, cols), dtype)
                for b in range(a + 1, end):
                    kid = level[b] if b == end - 1 else level[b][:, lo : lo + count]
                    children[r : r + t[b - 1]] = kid
                    r += t[b - 1]
                out = work[used : used + size].reshape(t[a - 1], count * cols)
                used += size
                level[a] = self._level_product(
                    row[:, :k], children.reshape(k, count * cols),
                    row[:, k + c0 : k + c0 + cols], count, out, stack,
                ).reshape(t[a - 1], count, cols)
                if c0 == 0:  # at full width, once
                    self.counters.record_node(t[a - 1], t[a : end - 1], width, wide, count)
            for a, (dst, negate) in sinks.items():
                _put(dst[:, c0 : c0 + cols], level[a][:, 0], negate, m)
