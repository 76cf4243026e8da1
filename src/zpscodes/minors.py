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
run at once, as one forest of levels of nodes, each level one exact
product, _level_product (see BlockMinorTable.block_minor_rec).  The signed
sum itself serves only as an oracle, in the tests.

The levels hold the minors as plain integers, reduced nowhere.  With the
factors -A(a, b) taken as they are, the entries of M(a) are integers of
magnitude at most U(a) = sum over a < b < end of t_b max A(a, b) U(b),
plus max A(a, end), where U(end - 1) = max A(end - 1, end) and each max is
read from the table's own rows, so U bounds M(a) for any reduced
blocks.  Every partial sum of a level product is bounded by its U too.
So a level is exact in any summation order in the first float type that
holds one term of the largest U of it and its children (README,
"Exactness").  standard_form leaves every entry above a pivot of
valuation v in [0, p^v), so A(a, b) has entries below p^(b-a), the free
group's (b = s + 1) included, and U stays small: on minors-deep (3^13,
t_i = 2) U(1) is 2^33.4 to 2^35.4, and levels 5 to 12 (6 to 12 in 4 of
100 codes), the ones with the most nodes, are float32.  A forest
reduces only the minors it writes into H^T, once, over Python ints
through int64: delayed reduction (FFLAS-FFPACK: Dumas, Giorgi and
Pernet, 2008) taken to its end.  A forest whose U(low) no float type
holds, or too big for one column, has one fallback: it splits off its
first tree, whose root product, over a forest of its own, runs in the
ring's storage, reduced into [0, p^s) by the kernel's own rule.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .matrix import (
    ShapeError, _carve, _matmul_reduced, _reduce_in_place, _tier, dtype_for,
)
from .opcounters import OpCounters
from .stdform import StandardForm, stripped_row

# Bytes that the level arrays of one column strip of a block-minor forest,
# the leaf level excluded, and its largest children stack or level may take
# together: the table's workspace (see BlockMinorTable._plan).  A forest
# whose single column passes it splits off its first tree, as one whose
# bound no float type holds does (see block_minor_rec).
_TREE_BYTES = 1 << 20

# Copies of a block that a forest broadcasts at a time: the leaf level's node
# over its leaf stacks (see _strip), a level's terms over its nodes.
_COPIES = 64


def _level_product(factor, children, terms, level, stack) -> None:
    """An exact level of a forest (see BlockMinorTable.block_minor_rec):
    factor @ children into level, plus terms on each of its 2^(a-low) node
    blocks, all integers, every partial sum one term that _exact_terms holds
    in level's float dtype.  terms go on tiled rep times, the fewer of the
    blocks and _COPIES, which divides the blocks, from the flat buffer stack,
    which may hold children: numpy broadcasts a row of rep blocks far faster
    than one block.  Nothing is reduced, converted or allocated."""
    np.matmul(factor, children, out=level)
    rows, width = terms.shape
    blocks = level.shape[1] // width
    rep = min(blocks, _COPIES)
    tile = _carve(stack, (rows, 1, rep * width), level.dtype)
    tile.reshape(rows, rep, width)[...] = terms[:, None, :]
    total = level.reshape(rows, blocks // rep, rep * width)
    total += tile


class BlockMinorTable:
    """Block-minors of the block diagonal of a reduced associated matrix.

    Holds row a = 1..s of the standard form as _rows[a] = -stripped_row(sf,
    a), the factor and terms of every node at anchor a, in float64, exact
    for an int64 ring, or in Python ints, and recurses on them (see the
    module docstring), counting through OpCounters.record_node as the
    iterative construction does: one multiplication and one addition per
    non-identity term, never the product by the order-0 identity minor.
    No minor is memoized: every node of a recursion tree performs its own
    block products, so operation counts reproduce independent
    recomputation.  Only the dispatch is batched, one product per level of
    nodes (see block_minor_rec), each forest planned once (see _plan), and the
    memory reused: every level product works in the table's one workspace.
    """

    def __init__(self, sf: StandardForm, counters: OpCounters | None = None):
        self.layout, self.ring = sf.layout, sf.matrix.ring
        self.counters = counters if counters is not None else OpCounters()
        dtype = object if dtype_for(self.ring) is object else np.float64
        self._rows = {a: -stripped_row(sf, a).astype(dtype) for a in range(1, self.layout.s + 1)}
        self._work, self._cast, self._plans = None, {}, {}

    def _row(self, a: int, dtype: np.dtype) -> np.ndarray:
        """Row group a in dtype: signed in a float dtype, reduced mod p^s in
        the storage, as _tree's root product takes it."""
        if (a, dtype) not in self._cast:
            row = self._rows[a]
            self._cast[(a, dtype)] = (row.astype(dtype, copy=False) if dtype.kind == "f"
                                      else _reduce_in_place(row.astype(dtype), self.ring.modulus))
        return self._cast[(a, dtype)]

    @cached_property
    def _bounds(self):
        """S, where S[end][a], a < end, is the largest U(b) over a <= b < end
        (see the module docstring): the bound of level a of a forest that
        ends at end and of its children, for any ring and any reduced
        blocks.

        S is computed in float64.  Its terms are all >= 0, so a sum or
        product whose exact value is below 2^53 is computed exactly, in any
        order, and one whose exact value is not stays at or above 2^53:
        rounding is monotone.  Each U is clamped at 2^53, which no float
        level holds, so that no sum reaches inf, nor a product 0 * inf nan."""
        s, t, n = self.layout.s, self.layout.t, self.layout.n
        # top[a, b] = max A(a, b): the column maxima of each row group, where
        # its columns lie (a trailing 0 past them), then of each column
        # group; reduceat gives an empty group the next one's first column.
        starts = np.cumsum((0, *t))
        cols = np.zeros((s + 2, n + 1))
        for a, row in self._rows.items():
            cols[a, n - row.shape[1] : n] = -row.min(axis=0, initial=0)
        top = np.zeros((s + 2, s + 2))
        top[:, 1:] = np.maximum.reduceat(cols, starts, axis=1)
        top[:, 1:][:, np.diff((*starts, n)) == 0] = 0
        # U[a, end] = max A(a, end) + sum over a < b < end of t_b max A(a, b)
        # U[b, end], with U[b, end] = 0 for b >= end.
        weight = top * (0, *t, 0)
        bound = np.zeros((s + 2, s + 2))
        for a in range(s, 0, -1):
            bound[a] = np.minimum(top[a] + weight[a] @ bound, 2.0 ** 53)
        return np.maximum.accumulate(bound[::-1], axis=0)[::-1].T.tolist()

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
        return _reduce_in_place(a + b, self.ring.modulus)

    def _plan(self, low: int, end: int) -> tuple:
        """(strip, sizes, dtypes) of forest (low, end) (see block_minor_rec),
        found once a table.  dtypes[a], a = low..end-2, is the matrix._tier
        of one term of the bound from a on (see _bounds); dtypes is None, and
        the forest splits, unless level low's, the largest, is a float type.
        strip is 0 then, or when one column passes _TREE_BYTES; sizes are
        the 8-byte workspace words of a strip's levels, each padded to a
        word, and of its largest children stack or level, which takes the
        level's terms after its product.  Level a holds 2^(a-low) nodes of
        t_a rows, and stacks sum(t[a:end-1]) rows of children for each."""
        key = low, end
        if key not in self._plans:
            t, bound, group = self.layout.t, self._bounds[end], self.layout.group(end)
            self._plans[key] = 0, (0, 0), None
            if _tier(bound[low], 1) in (np.float32, np.float64):
                dtypes = {a: np.dtype(_tier(bound[a], 1)) for a in range(low, end - 1)}
                sizes, stack, kids = [], 0, 0
                for a in range(end - 2, low - 1, -1):
                    count, itemsize = 1 << (a - low), dtypes[a].itemsize
                    kids += t[a]  # sum(t[a:end-1])
                    sizes.append(t[a - 1] * count * itemsize)
                    stack = max(stack, max(kids, t[a - 1]) * count * itemsize)
                column = sum(sizes) + stack  # bytes a column
                strip = max(1, _TREE_BYTES // max(column, 8)) if column <= _TREE_BYTES else 0
                cols = min(strip, group.stop - group.start)
                words = sum(-(-size * cols // 8) for size in sizes), -(-stack * cols // 8)
                self._plans[key] = strip, words, dtypes
        return self._plans[key]

    def _workspace(self, size: int) -> np.ndarray:
        """The flat float64 buffer that every level product works in, of at
        least size 8-byte words.  It is allocated at the largest column group
        of the table, so once for a table unless a split forest or a larger
        _TREE_BYTES asks for more; the old buffer goes first."""
        if self._work is None or self._work.size < size:
            groups = (sum(self._plan(1, end)[1]) for end in range(2, self.layout.s + 2))
            self._work = None
            self._work = np.empty(max(size, *groups))
        return self._work

    def _strip(self, low: int, end: int, cols: int, levels: np.ndarray, stack: np.ndarray):
        """(steps, sinks): the views in which each strip of cols columns of
        forest (low, end) runs, levels in the flat buffer levels in the
        dtypes of _plan, each level and stack as rows of its nodes side by
        side.  Step a, a = end-2..low, is (row a's first k columns, the rest,
        the nodes of levels a+1..end-2 that are its children, where they
        stack, where the leaf level's stack, the whole stack, level a), with
        k = sum(t[a:end-1]); sink a is node 0 of level a.  The leaf
        level's stack is seen as rows of _COPIES nodes, or of all of
        them if fewer: numpy broadcasts one node over many at a fraction of
        the speed at which it copies such a row."""
        t, steps, level, used, k = self.layout.t, [], {}, 0, 0
        leaves, dtypes = t[end - 2], self._plan(low, end)[2]
        for a in range(end - 2, low - 1, -1):
            count, dtype, k = 1 << (a - low), dtypes[a], k + t[a]
            row, copies, nodes = self._row(a, dtype), min(count, _COPIES), count * cols
            children = _carve(stack, (k, nodes), dtype)
            level[a] = _carve(levels[used:], (t[a - 1], nodes), dtype)
            used += -(-level[a].nbytes // 8)
            steps.append((row[:, :k], row[:, k:],
                          [level[b][:, nodes : 2 * nodes] for b in range(a + 1, end - 1)],
                          children[: k - leaves],
                          children[k - leaves :].reshape(leaves, count // copies, copies * cols),
                          children, level[a]))
        return steps, [level[a][:, :cols] for a in range(low, end - 1)]

    def _tree(self, low: int, end: int, out: np.ndarray) -> None:
        """M(low) into out, for low < end - 1: one root product, row low
        reduced in the storage, -[A(low, low+1) | ... | A(low, end-1)] times
        the minors that forest (low + 1, end), its children trees, leaves,
        plus -A(low, end)."""
        t, width, wide = self.layout.t, out.shape[1], end == self.layout.s + 1
        kids = np.empty((sum(t[low : end - 1]), width), out.dtype)
        self.block_minor_rec(low + 1, end, kids)
        row, k = self._row(low, out.dtype), kids.shape[0]
        out[...] = _matmul_reduced(row[:, :k], kids, self.ring, row[:, k : k + width])
        self.counters.record_node(t[low - 1], t[low : end - 1], width, wide)

    def block_minor_rec(self, low: int, end: int, out: np.ndarray) -> None:
        """M(a) = (-1)^(end-a) O(a, end), a = low..end-1 < end, into row
        group a of out, whose columns are group end's (for low = 1, a column
        group of H^T), as the forest of trees (a, end), bottom-up on column
        strips of its leaf (see _plan), each tree's block ops counted.

        A node at anchor a computes M(a) = -sum over a < b <= end of
        A(a, b) M(b), skipping the product by M(end) = Id.  Level a holds the
        2^(a-low) nodes that the trees have at anchor a, node 0 the root of
        tree a; its nodes' children at anchor b are nodes [2^(a-low),
        2^(a-low+1)) of level b.  So a level is one call of _level_product:
        -[A(a, a+1) | ... | A(a, end-1)] times its children, stacked in the
        workspace, plus -A(a, end), both from row a, into its own array
        there, counted once at full width.  The leaf level end - 1 is never
        computed: each node is -A(end-1, end), which a forest of one order-1
        tree copies whole.  The levels, float (see _plan), hold exact
        signed minors, unreduced.
        Each strip copies its sinks, node 0 of each level, into out as they
        are, through one int64 array for an out of Python ints, and the
        forest reduces out, the leaf's row group included, once.  A forest
        whose single column passes the budget (order above 17 at t = 2 in
        8-byte levels), or whose bound no float type holds, splits off its
        first tree: forest (low + 1, end), then tree (low, end), which runs
        forest (low + 1, end) again, as the unmemoized count requires, and
        whose root product runs in the storage.
        """
        t, width, m = self.layout.t, out.shape[1], self.ring.modulus
        if low == end - 1:
            out[...] = self._rows[end - 1][:, :width]
            _reduce_in_place(out, m)
            return
        strip, (nlevels, nstack), dtypes = self._plan(low, end)
        if not strip:
            self.block_minor_rec(low + 1, end, out[t[low - 1] :])
            self._tree(low, end, out[: t[low - 1]])
            return
        # Python ints take the exact minors from int64, never as floats.
        dest = out if out.dtype != object else np.empty(out.shape, np.int64)
        work = self._workspace(nlevels + nstack)
        stack, wide = work[nlevels:], end == self.layout.s + 1
        for a in range(end - 2, low - 1, -1):  # at full width, once
            self.counters.record_node(t[a - 1], t[a : end - 1], width, wide, 1 << (a - low))
        top = out.shape[0] - t[end - 2]  # the rows above the leaf's group
        leaf = self._row(end - 1, dtypes[end - 2])[:, :width]
        dest[top:] = leaf
        cols = None
        for c0 in range(0, width, strip):
            if cols != min(strip, width - c0):  # the first strip, or a narrower last one
                cols = min(strip, width - c0)
                steps, sinks = self._strip(low, end, cols, work[:nlevels], stack)
            # The leaf level's node, as copies side by side that fill a row of
            # a leaf stack at a time (see _strip).
            tile = np.tile(leaf[:, c0 : c0 + cols], min(1 << (end - 2 - low), _COPIES))
            for factor, terms, sources, kids, leaves, children, level in steps:
                if sources:
                    np.concatenate(sources, out=kids)
                leaves[...] = tile[:, None, : leaves.shape[2]]
                _level_product(factor, children, terms[:, c0 : c0 + cols], level, stack)
            np.concatenate(sinks, out=dest[:top, c0 : c0 + cols], casting="unsafe")
        _reduce_in_place(dest, m)
        if dest is not out:
            out[...] = dest
