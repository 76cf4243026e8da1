"""Shared test oracles and generators, independent of the library paths
they check."""

import itertools
import random

import numpy as np

from zpscodes import (BlockLayout, Matrix, OpCounters, Permutation, RingSpec, StandardForm,
                      standard_form)
from zpscodes.matrix import ParseError, dtype_for
from zpscodes.minors import BlockMinorTable
from zpscodes.zring import unit_inverse_int

from oracles import table_blocks


def cofactor_det(rows, modulus):
    """Plain first-row cofactor expansion; the independent determinant oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % modulus
    total = 0
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in rows[1:]]
        total += (-1) ** c * rows[0][c] * cofactor_det(minor, modulus)
    return total % modulus


def structured_matrix(ring, n, rng):
    """Random matrix with the unit-subdiagonal shape."""
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            if c >= r:
                rows[r][c] = rng.randrange(ring.modulus)
            elif c == r - 1:
                rows[r][c] = 1
    return Matrix(ring, rows)


DEGENERATE_CASES = ["n=t", "no-rows", "no-cols", "some-zero"]


def degenerate_type(case, s):
    """(n, t) of a degenerate type over a ring of length s."""
    if case == "n=t":
        t = (2,) + (1,) * (s - 1)
        return sum(t), t
    if case == "no-rows":
        return 5, (0,) * s
    if case == "no-cols":
        return 0, (0,) * s
    if case == "some-zero":
        t = tuple(2 * (i % 2) for i in range(s))
        return sum(t) + 3, t
    raise ValueError(case)


def inverse(perm: Permutation) -> Permutation:
    """The inverse permutation, by argsort of its index."""
    return Permutation(np.argsort(perm.index) + 1)


def random_matrix(ring, nrows, ncols, rng):
    data = np.array(
        [[rng.randrange(ring.modulus) for _ in range(ncols)] for _ in range(nrows)],
        dtype=np.int64,
    ).reshape(nrows, ncols)
    return Matrix(ring, data)


def random_type(n, s, rng):
    """Random type vector with sum <= n."""
    t = []
    remaining = n
    for _ in range(s):
        ti = rng.randint(0, remaining)
        t.append(ti)
        remaining -= ti
    rng.shuffle(t)
    return tuple(t)


def row_span_set(generators: Matrix):
    """All elements of the row span, by closure under addition (breadth-first
    over coefficients).  Only for tiny codes; independent of the library's
    enumeration path."""
    m = generators.ring.modulus
    n = generators.ncols
    words = {(0,) * n}
    for row in generators.data:
        row = tuple(int(x) for x in row)
        new_words = set()
        for coeff in range(m):
            shift = tuple(coeff * x % m for x in row)
            for w in words:
                new_words.add(tuple((a + b) % m for a, b in zip(w, shift)))
        words = new_words
    return words


def gh_transpose_is_zero(g: Matrix, h: Matrix) -> bool:
    """G H^T = 0, computed with python ints, independent of the library's
    matrix product."""
    m = g.ring.modulus
    return all(
        sum(int(x) * int(y) for x, y in zip(g_row, h_row)) % m == 0
        for g_row in g.data
        for h_row in h.data
    )


def miscount_big_mults(monkeypatch):
    """Make the counters record every wide block product twice, so the
    instrumented counts no longer match the closed forms."""
    record_mul = OpCounters.record_mul

    def record_twice(self, a, b, c, wide, count=1):
        record_mul(self, a, b, c, wide, count)
        if wide:
            self.big_mults += count

    monkeypatch.setattr(OpCounters, "record_mul", record_twice)


def group_width(layout, j):
    """The width of column group j of layout."""
    group = layout.group(j)
    return group.stop - group.start


def block_table(ring, layout, blocks, counters=None):
    """A BlockMinorTable whose stripped blocks A(i, j) are the ndarrays
    blocks[(i, j)], entries anywhere in [0, p^s).  A standard form's row
    group i holds p^(i-1) A(i, j) mod p^s, so A(i, j) only mod p^(s-i+1):
    the table is built from a zero form of the layout, and its signed rows
    are then set from blocks."""
    zero = Matrix(ring, np.zeros((layout.total, layout.n), np.int64))
    table = BlockMinorTable(StandardForm(zero, layout, Permutation.identity(layout.n)), counters)
    for i, row in table._rows.items():
        row[...] = -np.hstack([blocks[(i, j)] for j in range(i + 1, layout.s + 2)])
    return table


def node_by_node_minor(table, i, j):
    """The order-j block-minor of a BlockMinorTable anchored at block-row i
    (j >= 1) by the plain recursion, one node at a time on python ints:
    O(a) = sum over a < b <= end of (-1)^(b-1-a) A(a, b) O(b), end = i + j,
    with the product by O(end) = Id skipped.  Each block product and sum is
    recorded in table.counters with count 1.  Uses only the table's blocks
    and layout: the reference for the table's level-by-level recursion."""
    end, m, t = i + j, table.ring.modulus, table.layout.t
    wide, blocks = end == table.layout.s + 1, table_blocks(table)
    width = group_width(table.layout, end)

    def node(a):
        acc = None
        for b in range(a + 1, end + 1):
            term = blocks[(a, b)].astype(object)
            if b < end:
                term = term.dot(node(b))
                table.counters.record_mul(t[a - 1], t[b - 1], width, wide)
            term = -term if (b - 1 - a) % 2 else term
            if acc is not None:
                table.counters.record_add(t[a - 1], width, wide)
            acc = term if acc is None else acc + term
        return acc % m

    return node(i).astype(dtype_for(table.ring))


def tree_minor(table, i, j):
    """O(i, i + j), j >= 1, from tree (i, i + j) of a BlockMinorTable alone,
    with its counters: BlockMinorTable._tree, or the forest of the one
    order-1 tree, BlockMinorTable.block_minor_rec, which leave it signed
    (-1)^j."""
    out = np.empty((table.layout.t[i - 1], group_width(table.layout, i + j)), dtype_for(table.ring))
    (table._tree if j > 1 else table.block_minor_rec)(i, i + j, out)
    return out if j % 2 == 0 else (-out) % table.ring.modulus


def chunk_spy(chunks: list):
    """An ndarray subclass that appends (inner dimension, dtype) to chunks for
    each product it is the left factor of, by @ or by np.matmul, with or
    without out: viewed as one, the left operand of matrix._matmul_reduced
    records the kernel's chunk products."""

    class ChunkSpy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            left = inputs[0] is self
            inputs = tuple(np.asarray(x) for x in inputs)
            out = getattr(ufunc, method)(*inputs, **kwargs)
            if ufunc is np.matmul and left:
                chunks.append((self.shape[1], out.dtype))
            return out

    return ChunkSpy


def unimodular_row_mix(g: Matrix, rng) -> Matrix:
    """U G for a random unimodular U, on python ints: one elementary row
    addition, row i += c row j with i != j, per row, then a row shuffle."""
    m, rows = g.ring.modulus, g.data.tolist()
    for _ in range(len(rows) if len(rows) > 1 else 0):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.randrange(m)
        rows[i] = [(x + c * y) % m for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return Matrix(g.ring, np.array(rows, dtype=object).reshape(g.shape))


def rows_as_set(matrix: Matrix):
    return {tuple(int(x) for x in row) for row in matrix.data}


def sequential_standard_form(rows: Matrix) -> StandardForm:
    """The unblocked reduction, one pivot at a time over the whole matrix:
    the reference the blocked standard_form must match exactly.  Per
    valuation v, the pivot is the first entry of valuation v in the first
    column at or after col_ptr that has one, in a row at or after row_ptr."""
    ring = rows.ring
    p, s, m = ring.p, ring.s, ring.modulus
    n = rows.ncols
    work = rows.data.copy()
    cols = list(range(n))
    t = [0] * s
    row_ptr = 0
    col_ptr = 0
    for v in range(s):
        pv = p ** v
        while True:
            found = None
            for c in range(col_ptr, n):
                col = work[row_ptr:, c]
                mask = (col % pv == 0) & ((col // pv) % p != 0)
                hit = np.flatnonzero(mask)
                if hit.size:
                    found = (row_ptr + int(hit[0]), c)
                    break
            if found is None:
                break
            r, c = found
            if r != row_ptr:
                work[[row_ptr, r]] = work[[r, row_ptr]]
            if c != col_ptr:
                work[:, [col_ptr, c]] = work[:, [c, col_ptr]]
                cols[col_ptr], cols[c] = cols[c], cols[col_ptr]
            inv = unit_inverse_int(int(work[row_ptr, col_ptr]) // pv, ring)
            work[row_ptr] = (work[row_ptr] * inv) % m
            q = work[:, col_ptr] // pv
            q[row_ptr] = 0
            if np.any(q):
                work = (work - np.outer(q, work[row_ptr])) % m
            t[v] += 1
            row_ptr += 1
            col_ptr += 1
    g = Matrix(ring, work[:row_ptr].reshape(row_ptr, n))
    return StandardForm(g, BlockLayout(n, t), Permutation([c + 1 for c in cols]))


def every_matrix(ring, nrows, ncols):
    """Every nrows x ncols matrix over ring, its entries in lexicographic order."""
    for entries in itertools.product(range(ring.modulus), repeat=nrows * ncols):
        yield Matrix(ring, np.array(entries, dtype=np.int64).reshape(nrows, ncols))


def check_against_sequential(g: Matrix, rng) -> StandardForm:
    """standard_form(g), checked equal to sequential_standard_form(g) in
    matrix, dtype, layout and permutation, and to standard_form(U g) for a
    random unimodular U."""
    got, want = standard_form(g), sequential_standard_form(g)
    assert got.matrix == want.matrix, g
    assert got.matrix.data.dtype == want.matrix.data.dtype
    assert got.layout == want.layout and got.perm == want.perm, g
    assert standard_form(unimodular_row_mix(g, rng)) == got, g
    return got


def row_format_matrix(m: Matrix) -> str:
    """The per-row text writer: the reference format_matrix must match
    byte for byte."""
    lines = [f"{m.ring.p} {m.ring.s} {m.nrows} {m.ncols}"]
    lines.extend(" ".join(map(str, row.tolist())) for row in m.data)
    return "\n".join(lines) + "\n"


def entrywise_parse_matrix(text: str) -> Matrix:
    """The per-entry reader of a text with a valid header: the reference
    parse_matrix must match, in its result or in its ParseError."""
    lines = [
        (lineno, raw.strip())
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() and not raw.strip().startswith(("type:", "perm:", "#"))
    ]
    lineno, header = lines[0]
    p, s, nrows, ncols = (int(f) for f in header.split())
    ring = RingSpec(p, s)
    if len(lines) - 1 != nrows and (ncols or len(lines) > 1):
        raise ParseError(f"expected {nrows} rows, found {len(lines) - 1}", lineno)
    rows = []
    for lineno, line in lines[1:]:
        entries = line.split()
        if len(entries) != ncols:
            raise ParseError(f"expected {ncols} entries, found {len(entries)}", lineno)
        row = []
        for col, tok in enumerate(entries, start=1):
            try:
                val = int(tok)
            except ValueError:
                raise ParseError(f"bad entry {tok!r}", lineno, col) from None
            if not 0 <= val < ring.modulus:
                raise ParseError(f"entry {val} out of range [0, {ring.modulus})", lineno, col)
            row.append(val)
        rows.append(row)
    return Matrix(ring, np.array(rows, dtype=object).reshape(nrows, ncols))
