"""Block-minors of the reduced associated matrix of a standard form.

The reduced associated matrix of a standard-form generator matrix has the
stripped blocks A_{i,j} above its block diagonal and identities on the
block subdiagonal.  Its diagonal block-minor O(i, end) of order end - i is
the signed sum, over the permutations with sigma(h) >= h - 1, of products
of blocks; the minors construction takes every block of H from one such
minor, signed as H^T holds it: M(a) = (-1)^(end-a) O(a, end).  Here they
are evaluated only by the first-column Laplace recursion, O(a, end) = sum
over a < b <= end of (-1)^(b-1-a) A(a, b) O(b, end), O(end, end) = Id.  As
(end - a) + (b - 1 - a) + (end - b) is odd, it reads M(a) = -sum over
a < b <= end of A(a, b) M(b), M(end) = Id: each block carries its sign, as
in the iterative construction.  All the trees of one column group of H^T
run at once, as one forest of levels of nodes, each level one call of the
product kernel (see BlockMinorTable._forest).  A forest too big for one
column splits off its first tree, one root product over a forest of its
own.  Where the ring and the type allow (see matrix._level_dtype), a table
keeps its levels in float64 as signed residues, exact integers that no
level converts, and canonicalizes only the minors it writes.  The signed
sum itself serves only as an oracle, in the tests.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import accumulate

import numpy as np

from .matrix import (
    ShapeError, _carve, _level_dtype, _matmul_dtype, _matmul_reduced, _reduce, _reduce_in_place,
    dtype_for,
)
from .opcounters import OpCounters
from .zring import DomainError

# Bytes that the level arrays of one column strip of a block-minor forest,
# the leaf level excluded, and its largest children stack or level may take
# together: the table's workspace (see BlockMinorTable._plan).  A forest
# whose single column passes it splits off its first tree (see _forest).
_TREE_BYTES = 1 << 20

# Copies of the leaf level's node that a forest broadcasts over its leaf
# stacks at a time (see _strip).
_LEAF_COPIES = 64


class BlockMinorTable:
    """Block-minors of the block diagonal of a reduced associated matrix.

    Holds the stripped blocks A_{i,j}, keyed by (i, j), 1 <= i <= s,
    i + 1 <= j <= s + 1, as raw ndarrays, and recurses on their negations
    (see the module docstring), counting through OpCounters.record_node as
    the iterative construction does: one multiplication and one addition
    per non-identity term, never the product by the order-0 identity
    minor.  Nothing is memoized: every node of a recursion tree performs
    its own block products, so operation counts reproduce independent
    recomputation.  Only the dispatch is batched, one product per level of
    nodes (see _forest), and the memory reused: every level product works
    in the table's one workspace, which goes with the table.
    """

    def __init__(self, blocks: dict, layout, counters: OpCounters | None = None):
        self.blocks = {key: block.data for key, block in blocks.items()}
        self.layout = layout
        self.ring = blocks[(1, 2)].ring
        self.counters = counters if counters is not None else OpCounters()
        self._work = None

    @cached_property
    def _dtype(self):
        """The dtype of the rows and of every level of every forest
        (see _level_dtype): no level product has an inner dimension above
        total - t_1."""
        return _level_dtype(self.ring, self.layout.total - self.layout.t[0])

    @cached_property
    def _rows(self) -> dict:
        """Row group a as -[A(a, a+1) | ... | A(a, s+1)] mod p^s, in the dtype
        of the levels: the factor and the terms of every node at anchor a."""
        layout, blocks, m = self.layout, self.blocks, self.ring.modulus
        widths = (*layout.t, layout.n - layout.total)
        if any(blk.shape != (widths[a - 1], widths[b - 1]) for (a, b), blk in blocks.items()):
            raise ShapeError(f"blocks do not fit the type {layout.t}")
        return {a: _reduce(-np.hstack([blocks[(a, b)] for b in range(a + 1, layout.s + 2)]), m)
                .astype(self._dtype, copy=False) for a in range(1, layout.s + 1)}

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

    def block_minor_rec(self, i: int, j: int, out) -> None:
        """The order-j block-minors O(a, end), end = i + j, a = i..end-1, via
        the Laplace-style recursion, as one forest.  out is an array of the
        rows of groups i..end-1 by the width of group end (for i = 1, a
        column group of H^T); M(a) = (-1)^(end-a) O(a, end) goes into its row
        group a, and the block ops of each tree are counted."""
        end, layout = i + j, self.layout
        if not (1 <= i and 0 <= j and end <= layout.s + 1):
            raise DomainError(f"block-minor ({i}, {j}) out of range for s={layout.s}")
        rows = layout.group(end).start - layout.group(i).start
        if out.shape != (rows, self.blocks[(i, end)].shape[1] if j else 0):
            raise ShapeError(f"out {out.shape} does not fit the minors ({i}, {j})")
        if j:
            self._forest(i, end, out)

    def _plan(self, low: int, end: int) -> tuple:
        """(strip, sizes) of forest (low, end) (see _forest): the strip
        width, 0 when one column passes _TREE_BYTES, and the workspace
        entries a strip takes for its levels and for its largest children
        stack or level, whose quotient the stack takes once the level's
        product is done.  Level a holds 2^(a-low) nodes of t_a rows, and
        stacks sum(t[a:end-1]) rows of children for each."""
        t, width, m = self.layout.t, self.blocks[(low, end)].shape[1], self.ring.modulus
        levels = stack = kids = 0
        for a in range(end - 2, low - 1, -1):
            count = 1 << (a - low)
            kids += t[a]  # sum(t[a:end-1])
            levels += t[a - 1] * count
            stack = max(stack, kids * count, t[a - 1] * count)
        # 8 bytes an entry; over Python ints, a level entry's int below m, and a stack
        # entry's share of the product under way: a pointer, a sum below kids * m^2.
        column = 8 * (levels + stack)
        if dtype_for(self.ring) is object:
            column += levels * sys.getsizeof(m - 1) + stack * (8 + sys.getsizeof(kids * m * m))
        strip = max(1, _TREE_BYTES // max(column, 8)) if column <= _TREE_BYTES else 0
        cols = min(strip, width)
        return strip, (levels * cols, stack * cols)

    def _workspace(self, size: int) -> np.ndarray:
        """The flat buffer, in the dtype of the levels, that every level product
        works in, of at least size entries.  It is allocated at the largest
        column group of the table, so once for a table unless a larger
        _TREE_BYTES asks for more; the old buffer goes first."""
        if self._work is None or self._work.size < size:
            groups = (sum(self._plan(1, end)[1]) for end in range(2, self.layout.s + 2))
            self._work = None
            self._work = np.empty(max(size, *groups), self._dtype)
        return self._work

    def _strip(self, low: int, end: int, cols: int, levels: np.ndarray, stack: np.ndarray):
        """(steps, sinks): the views in which each strip of cols columns of
        forest (low, end) runs, levels in the flat buffer levels (see _plan).
        Step a, a = end-2..low, is (row a's first k columns, the rest, the
        nodes of levels a+1..end-2 that are its children, where they stack,
        where the leaf level's stack, the whole stack, level a), with
        k = sum(t[a:end-1]); sink a is node 0 of level a.  The leaf
        level's stack is seen as rows of _LEAF_COPIES nodes, or of all of
        them if fewer: numpy broadcasts one node over many at a fraction of
        the speed at which it copies such a row."""
        t, floats, steps, level, used, k = self.layout.t, levels.dtype == np.float64, [], {}, 0, 0
        leaves = t[end - 2]
        for a in range(end - 2, low - 1, -1):
            count, row, k = 1 << (a - low), self._rows[a], k + t[a]
            copies = min(count, _LEAF_COPIES)
            dtype = np.float64 if floats else _matmul_dtype(self.ring, t[a - 1], k, count * cols)
            children = _carve(stack, (k, count, cols), dtype)
            level[a] = levels[used : used + t[a - 1] * count * cols].reshape(t[a - 1], count, cols)
            used += level[a].size
            sources = [level[b][:, count : 2 * count] for b in range(a + 1, end - 1)]
            steps.append((row[:, :k], row[:, k:], sources, children[: k - leaves],
                          children[k - leaves :].reshape(leaves, count // copies, copies * cols),
                          children.reshape(k, count * cols),
                          level[a].reshape(t[a - 1], count * cols)))
        return steps, [level[a][:, 0] for a in range(low, end - 1)]

    def _tree(self, low: int, end: int, out: np.ndarray) -> None:
        """M(low) into out, for low < end - 1: one root product, row low in the
        storage, -[A(low, low+1) | ... | A(low, end-1)] times the minors that
        forest (low + 1, end), its children trees, leaves, plus -A(low, end)."""
        t, width, wide = self.layout.t, out.shape[1], end == self.layout.s + 1
        kids = np.empty((sum(t[low : end - 1]), width), out.dtype)
        self._forest(low + 1, end, kids)
        row, k = self._rows[low].astype(out.dtype, copy=False), kids.shape[0]
        out[...] = _matmul_reduced(row[:, :k], kids, self.ring, row[:, k : k + width])
        self.counters.record_node(t[low - 1], t[low : end - 1], width, wide)

    def _forest(self, low: int, end: int, out: np.ndarray) -> None:
        """The trees (a, end), a = low..end-1, into out as block_minor_rec
        says, bottom-up on column strips of its leaf (see _plan).

        A node at anchor a computes M(a) = -sum over a < b <= end of
        A(a, b) M(b), skipping the product by M(end) = Id.  Level a holds the
        2^(a-low) nodes that the trees have at anchor a, node 0 the root of
        tree a; its nodes' children at anchor b are nodes [2^(a-low),
        2^(a-low+1)) of level b.  So a level is one call of _matmul_reduced:
        -[A(a, a+1) | ... | A(a, end-1)] times its children, stacked in the
        workspace, plus -A(a, end), both from row a, into its own array
        there, counted once at full width.  The leaf level end - 1 is never
        computed: each node is -A(end-1, end), which a forest of one order-1
        tree copies whole.  In float64 the levels and their children stack
        hold signed residues, which no level converts; each strip copies its
        sinks, node 0 of each level, into out as they are, and the forest
        reduces each row group of out that it computed once.  A forest whose
        single column passes the budget (order above 17 at t = 2 for int64)
        splits off its first tree: forest (low + 1, end), then tree (low,
        end), which runs forest (low + 1, end) again, as the unmemoized
        count requires.
        """
        t, width = self.layout.t, out.shape[1]
        leaf = self._rows[end - 1][:, :width]
        if low == end - 1:
            out[...] = leaf
            return
        strip, (nlevels, nstack) = self._plan(low, end)
        if not strip:
            self._forest(low + 1, end, out[t[low - 1] :])
            self._tree(low, end, out[: t[low - 1]])
            return
        work = self._workspace(nlevels + nstack)
        stack, wide = work[nlevels:], end == self.layout.s + 1
        for a in range(end - 2, low - 1, -1):  # at full width, once
            self.counters.record_node(t[a - 1], t[a : end - 1], width, wide, 1 << (a - low))
        edges = [0, *accumulate(t[low - 1 : end - 1])]  # of the row groups of out
        out[edges[-2] :] = leaf
        cols = None
        for c0 in range(0, max(width, 1), strip):
            if cols != min(strip, width - c0):  # the first strip, or a narrower last one
                cols = min(strip, width - c0)
                steps, sinks = self._strip(low, end, cols, work[:nlevels], stack)
            # The leaf level's node, as copies side by side that fill a row of
            # a leaf stack at a time (see _strip).
            tile = np.tile(leaf[:, c0 : c0 + cols], min(1 << (end - 2 - low), _LEAF_COPIES))
            for factor, terms, sources, kids, leaves, children, level in steps:
                if sources:
                    np.concatenate(sources, out=kids)
                leaves[...] = tile[:, None, : leaves.shape[2]]
                _matmul_reduced(factor, children, self.ring, terms[:, c0 : c0 + cols], level, stack)
            np.concatenate(sinks, out=out[: edges[-2], c0 : c0 + cols], casting="unsafe")
        if work.dtype != out.dtype:  # signed residues; the leaf's group is canonical
            for r0, r1 in zip(edges, edges[1:-1]):
                _reduce_in_place(out[r0:r1], self.ring.modulus)
