"""Shared test oracles and generators, independent of the library paths
they check."""

import random

import numpy as np

from zpscodes import BlockLayout, Matrix, OpCounters, Permutation, RingSpec, StandardForm
from zpscodes.matrix import ParseError
from zpscodes.zring import unit_inverse_int


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


def node_by_node_minor(table, i, j):
    """The order-j block-minor of a BlockMinorTable anchored at block-row i
    (j >= 1) by the plain recursion, one node at a time on python ints:
    O(a) = sum over a < b <= end of (-1)^(b-1-a) A(a, b) O(b), end = i + j,
    with the product by O(end) = Id skipped.  Each block product and sum is
    recorded in table.counters with count 1.  Uses only table.blocks and
    table.layout: the reference for the table's level-by-level recursion."""
    end, m, t = i + j, table.ring.modulus, table.layout.t
    wide = end == table.layout.s + 1
    width = table.blocks[(i, end)].shape[1]

    def node(a):
        acc = None
        for b in range(a + 1, end + 1):
            term = table.blocks[(a, b)].astype(object)
            if b < end:
                term = term.dot(node(b))
                table.counters.record_mul(t[a - 1], t[b - 1], width, wide)
            term = -term if (b - 1 - a) % 2 else term
            if acc is not None:
                table.counters.record_add(t[a - 1], width, wide)
            acc = term if acc is None else acc + term
        return acc % m

    return node(i).astype(table.blocks[(i, end)].dtype)


def chunk_spy(chunks: list):
    """An ndarray subclass that appends (inner dimension, dtype) to chunks for
    each product it is the left factor of: viewed as one, the left operand
    of matrix._matmul_reduced records the kernel's chunk products."""

    class ChunkSpy(np.ndarray):
        def __matmul__(self, other):
            out = np.asarray(self) @ other
            chunks.append((self.shape[1], out.dtype))
            return out

    return ChunkSpy


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
    if len(lines) - 1 != nrows:
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
