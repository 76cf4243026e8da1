"""Standard-form reduction over Z_{p^s}.

standard_form() row-reduces an arbitrary generator matrix to the
upper-block-triangular shape with p^(i-1)*Id diagonal blocks, recording the
column permutation it applied.  The reduction sweeps valuations 0..s-1; at
each stage it picks pivots of that exact valuation (columns left-to-right,
rows top-down, for determinism), normalizes the pivot row by the inverse of
the pivot's unit part, swaps the pivot column into place, and clears the
pivot column exactly below and canonically above (entries above a pivot of
valuation v end up in [0, p^v)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import BlockLayout, Matrix, Permutation, zeros
from .zring import unit_inverse_int


@dataclass(frozen=True)
class StandardForm:
    """Standard-form generator matrix plus its layout and column permutation.

    Applying perm (pull convention) to the columns of the input code's
    generators yields a code generated by matrix.
    """

    matrix: Matrix
    layout: BlockLayout
    perm: Permutation


def standard_form(rows: Matrix) -> StandardForm:
    ring = rows.ring
    p, s, m = ring.p, ring.s, ring.modulus
    n = rows.ncols
    # Row operations multiply two reduced entries, which the storage rule
    # of the ring's arrays keeps exact.
    work = rows.data.copy()
    nrows = work.shape[0]
    cols = list(range(n))  # cols[j] = original column now at position j

    t = [0] * s
    row_ptr = 0
    col_ptr = 0
    for v in range(s):
        pv = p ** v
        while True:
            found = None
            for c in range(col_ptr, n):
                col = work[row_ptr:, c]
                # valuation == v  <=>  p^v | x and p^(v+1) does not
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
            # Below the pivot entries have valuation >= v, so the quotient
            # clears them exactly; above it reduces the entry into [0, p^v).
            q = work[:, col_ptr] // pv
            q[row_ptr] = 0
            if np.any(q):
                work = (work - np.outer(q, work[row_ptr])) % m
            t[v] += 1
            row_ptr += 1
            col_ptr += 1

    g = Matrix(ring, work[:row_ptr].reshape(row_ptr, n))
    layout = BlockLayout(n, t)
    perm = Permutation([c + 1 for c in cols])
    return StandardForm(g, layout, perm)


def extract_blocks(sf: StandardForm) -> dict:
    """Blocks A_{i,j} of the standard form, p-power scaling stripped.

    Keys are (i, j) for 1 <= i <= s, i + 1 <= j <= s + 1.  A_{i,j} has t_i
    rows; t_j columns for j <= s and n - t columns for j = s + 1.
    """
    layout = sf.layout
    ring = sf.matrix.ring
    s = layout.s
    blocks = {}
    for i in range(1, s + 1):
        scale = ring.p ** (i - 1)
        r0 = layout.row_offset(i)
        for j in range(i + 1, s + 2):
            c0 = layout.col_offset(j)
            w = layout.group_width(j)
            sub = sf.matrix.data[r0 : r0 + layout.t[i - 1], c0 : c0 + w]
            # Row group i of G is p^(i-1) times the stored block.
            blocks[(i, j)] = Matrix(ring, sub // scale)
    return blocks


def reconstruct(sf: StandardForm) -> Matrix:
    """Reassemble the standard-form matrix from its extracted blocks."""
    from .matrix import identity, insert_block, mat_scalar

    layout = sf.layout
    ring = sf.matrix.ring
    s = layout.s
    blocks = extract_blocks(sf)
    g = zeros(ring, layout.total, layout.n)
    for i in range(1, s + 1):
        scale = ring.p ** (i - 1)
        r0 = layout.row_offset(i)
        g = insert_block(g, r0, layout.col_offset(i), mat_scalar(scale, identity(ring, layout.t[i - 1])))
        for j in range(i + 1, s + 2):
            g = insert_block(g, r0, layout.col_offset(j), mat_scalar(scale, blocks[(i, j)]))
    return g


def reduced_associated(sf: StandardForm) -> Matrix:
    """The reduced associated matrix: first column group dropped, identity
    blocks on the subdiagonal, p-power scalings stripped."""
    from .matrix import identity, insert_block

    layout = sf.layout
    ring = sf.matrix.ring
    s = layout.s
    blocks = extract_blocks(sf)
    ncols = layout.n - layout.t[0] if s >= 1 else layout.n
    out = zeros(ring, layout.total, ncols)
    for i in range(1, s + 1):
        r0 = layout.row_offset(i)
        if i >= 2:
            out = insert_block(
                out, r0, layout.col_offset(i) - layout.t[0], identity(ring, layout.t[i - 1])
            )
        for j in range(i + 1, s + 2):
            out = insert_block(out, r0, layout.col_offset(j) - layout.t[0], blocks[(i, j)])
    return out
