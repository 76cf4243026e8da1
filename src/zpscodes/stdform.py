"""Standard-form reduction over Z_{p^s}.

standard_form() row-reduces an arbitrary generator matrix to the
upper-block-triangular shape with p^(i-1)*Id diagonal blocks, recording the
column permutation it applied.  The reduction sweeps valuations 0..s-1; at
each stage it picks pivots of that exact valuation (columns left-to-right,
rows top-down, for determinism), normalizes the pivot row by the inverse of
the pivot's unit part, swaps the pivot column into place, and clears the
pivot column exactly below and canonically above (entries above a pivot of
valuation v end up in [0, p^v)).

The elimination is blocked, with deferred updates (Storjohann and Mulders,
"Fast algorithms for linear algebra modulo N", 1998).  A panel opens at the
next pivot column and covers a window of PANEL_WIDTH columns.  Pivots are
searched in the window only, and each pivot's row operations (normalize,
then clear its column in every row) are applied only to the window and to
a rows x panel transform X, which starts as the pivot rows' unit columns.
The columns right of the window are updated once per panel, by one matrix
product: work[:, wend:] += (X - I_P) @ work[P, wend:], with P the panel's
pivot rows.  That is exact because every row operation of the panel takes a
pivot row as its source, so their product differs from the identity only in
the columns P.  The panel is flushed when the window is used up, or when
the window holds no pivot of the current valuation; only then is the rest
of the matrix searched, now up to date.

The window and X sit side by side in one column-major panel buffer, rows x
2 PANEL_WIDTH: the window is copied in when the panel opens and written
back, reduced, when it is flushed.  So a pivot normalizes one row and makes
one rank-1 update, over [window from the pivot column | X], applied through
the buffer's transpose so that the update and the outer product it
subtracts are both row-major.

The buffer is reduced lazily (delayed reduction, as in FFLAS-FFPACK: Dumas,
Giorgi and Pernet, 2008).  An update subtracts products of two reduced
entries, so it lowers an entry by at most (m - 1)^2, and an int64 buffer
stays exact for matrix._headroom(m) = (2^63 - m) // (m - 1)^2 updates: it
is reduced when that many are pending, and at each flush.  That is once a
flush below about 2^28, and after every update at the largest odd int64
moduli; a Python-int buffer is reduced after every update.  A power of two
has no bound, as int64 wraps modulo 2^64, a multiple of m, and the mask
reduces any int64: 2^30 and 2^31, which the formula would reduce every 8
and every 2 updates, are reduced at the flush only.  Each pivot reduces
only what it reads: its column, before the quotients are taken, and its
row, before and after the scaling by the unit inverse.

The search tests one residue per entry.  At stage v every entry of the
search region (rows from the next pivot row, columns from the next pivot
column) has valuation >= v: stage v - 1 ended when the region held none of
valuation v - 1, and a row operation of stage v adds multiples of a row of
the region.  So an entry has valuation exactly v when it is not divisible
by p^(v+1).  p^(v+1) divides p^s, so the test holds on unreduced entries
too; for p = 2 it masks the low v + 1 bits.  The chosen pivot's valuation
is checked again as a scalar.  The search after a flush scans PANEL_WIDTH
columns, then twice as many, four times as many and so on, and stops at
the first chunk with a hit: a pivot just past the window costs one chunk,
and a search that crosses every column costs a number of chunks
logarithmic in their count.

The pivot order is exactly the unblocked one.  The window's columns are up
to date, and they come first, so a pivot found there is the first in the
whole matrix; a pivot beyond the window is searched for only after a flush.
A row swap is applied at once to every column of work and to the rows of
the buffer: it exchanges two rows that are not yet pivot rows, so it
commutes with the panel's pending operations.  A column swap exchanges two
columns that are up to date, either both in the window or right after a
flush.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import (BlockLayout, Matrix, Permutation, _headroom, _matmul_reduced,
                     _reduce_in_place, dtype_for)
from .zring import RingSpec, unit_inverse_int

# Columns a panel searches, and so pivots it defers, before it is flushed.
PANEL_WIDTH = 32


@dataclass(frozen=True)
class StandardForm:
    """Standard-form generator matrix plus its layout and column permutation.

    Applying perm (pull convention) to the columns of the input code's
    generators yields a code generated by matrix.
    """

    matrix: Matrix
    layout: BlockLayout
    perm: Permutation


def _first_pivot(region: np.ndarray, pv1: int):
    """(row, col) in region of the first entry not divisible by pv1, in the
    first column that has one; None when there is none.  The columns are
    scanned in chunks of PANEL_WIDTH, then twice as many, four times as
    many and so on, up to the first chunk with a hit."""
    if not region.shape[0]:
        return None
    c0, width = 0, PANEL_WIDTH
    while c0 < region.shape[1]:
        chunk = region[:, c0 : c0 + width]
        # The transpose's flat order runs column by column.  The low bits of
        # an int64 or a Python int are its residue mod a power of two.
        if pv1 & (pv1 - 1):
            hits = (chunk // pv1 * pv1 != chunk).T
        else:
            hits = ((chunk & (pv1 - 1)) != 0).T
        first = int(hits.argmax())
        if hits.flat[first]:
            c, r = divmod(first, chunk.shape[0])
            return r, c0 + c
        c0 += width
        width *= 2
    return None


def _flush(
    work: np.ndarray, x: np.ndarray, r0: int, k: int, wend: int, ring: RingSpec
) -> None:
    """Apply a panel's k pivots, whose rows start at r0 and whose operations
    x records, to the columns of work from wend on; then clear x."""
    if k and wend < work.shape[1]:
        d = x[:, :k]
        d[np.arange(r0, r0 + k), np.arange(k)] -= 1
        _reduce_in_place(d, ring.modulus)
        work[:, wend:] = _matmul_reduced(d, work[r0 : r0 + k, wend:], ring, work[:, wend:])
    x[:, :k] = 0


def standard_form(rows: Matrix) -> StandardForm:
    ring = rows.ring
    p, s, m = ring.p, ring.s, ring.modulus
    n = rows.ncols
    # work and buf are column-major, so that a window, a search chunk and
    # the columns right of a panel are each one contiguous block.
    work = rows.data.copy(order="F")
    cols = list(range(n))  # cols[j] = original column now at position j
    # The panel buffer: the open window [wstart, wend) of work in columns
    # [0, wend - wstart), zeros up to PANEL_WIDTH, then X.  Column k of X:
    # the open panel's operations applied to the unit column of its k-th
    # pivot row; zero until that pivot is chosen.
    buf = np.zeros((work.shape[0], 2 * PANEL_WIDTH), dtype=work.dtype, order="F")
    x = buf[:, PANEL_WIDTH:]
    # Updates the buffer takes before it is reduced.
    step = 1 if work.dtype == object else _headroom(m)

    t = [0] * s
    row_ptr = 0
    col_ptr = 0
    for v in range(s):
        pv = p ** v
        # The search region's entries have valuation >= v: those not
        # divisible by p^(v+1) have valuation v.
        pv1 = pv * p
        # The open panel: k pivots so far, pending updates since the buffer
        # was last reduced, window [wstart, wend).
        k, pending, wstart, wend = 0, 0, col_ptr, col_ptr
        while True:
            hit = _first_pivot(buf[row_ptr:, col_ptr - wstart : wend - wstart], pv1)
            if hit is None:
                window = buf[:, : wend - wstart]
                _reduce_in_place(window, m)
                work[:, wstart:wend] = window
                _flush(work, x, row_ptr - k, k, wend, ring)
                hit = _first_pivot(work[row_ptr:, wend:], pv1)
                if hit is None:
                    break
                c = wend + hit[1]
                if c != col_ptr:
                    work[:, [col_ptr, c]] = work[:, [c, col_ptr]]
                    cols[col_ptr], cols[c] = cols[c], cols[col_ptr]
                k, pending, wstart, wend = 0, 0, col_ptr, min(col_ptr + PANEL_WIDTH, n)
                buf[:, : wend - wstart] = work[:, wstart:wend]
                buf[:, wend - wstart : PANEL_WIDTH] = 0
            else:
                c = col_ptr + hit[1]
                if c != col_ptr:
                    a, b = col_ptr - wstart, c - wstart
                    buf[:, [a, b]] = buf[:, [b, a]]
                    cols[col_ptr], cols[c] = cols[c], cols[col_ptr]
            r = row_ptr + hit[0]
            if r != row_ptr:
                # The window's columns of work are stale until the flush
                # writes the buffer back.
                work[[row_ptr, r]] = work[[r, row_ptr]]
                buf[[row_ptr, r]] = buf[[r, row_ptr]]
            col = buf[:, col_ptr - wstart]
            _reduce_in_place(col, m)
            pivot = int(col[row_ptr])
            if pivot % pv or pivot // pv % p == 0:
                raise ArithmeticError(f"pivot {pivot} at ({r}, {c}) does not have valuation {v}")
            x[row_ptr, k] = 1
            # The window from the pivot column on and the panel's columns of
            # X, updated in place.
            act = buf[:, col_ptr - wstart : PANEL_WIDTH + k + 1]
            prow = act[row_ptr]
            _reduce_in_place(prow, m)
            prow *= unit_inverse_int(pivot // pv, ring)
            _reduce_in_place(prow, m)
            # Below the pivot entries have valuation >= v, so the quotient
            # clears them exactly; above it reduces the entry into [0, p^v).
            q = col // pv
            q[row_ptr] = 0
            if np.any(q):
                # Through the transpose both operands are row-major.
                np.subtract(act.T, np.outer(prow, q), out=act.T)
                pending += 1
                if pending == step:
                    _reduce_in_place(act, m)
                    pending = 0
            t[v] += 1
            row_ptr += 1
            col_ptr += 1
            k += 1

    # Every entry of work is reduced.  The row-major copy leaves the
    # redundant rows behind.
    g = Matrix._of_reduced(ring, np.ascontiguousarray(work[:row_ptr]))
    layout = BlockLayout(n, t)
    perm = Permutation([c + 1 for c in cols])
    return StandardForm(g, layout, perm)


def stripped_row(sf: StandardForm, i: int) -> np.ndarray:
    """[A_{i,i+1} | ... | A_{i,s+1}]: row group i of the standard form right of
    its identity, over p^(i-1), which leaves it reduced."""
    cols = slice(sf.layout.group(i + 1).start, None)
    return sf.matrix.data[sf.layout.group(i), cols] // sf.matrix.ring.p ** (i - 1)


def extract_blocks(sf: StandardForm) -> dict:
    """Blocks A_{i,j} of the standard form, p-power scaling stripped.

    Keys are (i, j) for 1 <= i <= s, i + 1 <= j <= s + 1.  A_{i,j} has t_i
    rows; t_j columns for j <= s and n - t columns for j = s + 1.
    """
    layout, ring, out = sf.layout, sf.matrix.ring, {}
    for i in range(1, layout.s + 1):
        row, start = stripped_row(sf, i), layout.group(i + 1).start
        for j in range(i + 1, layout.s + 2):
            cols = layout.group(j)
            out[(i, j)] = Matrix._of_reduced(ring, row[:, cols.start - start : cols.stop - start])
    return out


def _write_blocks(ring: RingSpec, layout: BlockLayout, blocks: dict, scaled: bool):
    """Row group i is c (0, Id, A_{i,i+1}, ..., A_{i,s+1}), with the identity
    at column group i and c = p^(i-1) when scaled, else 1."""
    out = np.zeros((layout.total, layout.n), dtype=dtype_for(ring))
    for i in range(1, layout.s + 1):
        rows = out[layout.group(i)]
        np.fill_diagonal(rows[:, layout.group(i)], 1)
        for j in range(i + 1, layout.s + 2):
            rows[:, layout.group(j)] = blocks[(i, j)].data
        if scaled:
            rows *= ring.p ** (i - 1)
    return out


def from_blocks(ring: RingSpec, layout: BlockLayout, blocks: dict) -> Matrix:
    """The standard-form matrix of the given layout whose stripped blocks,
    keyed as extract_blocks returns them, are blocks."""
    return Matrix(ring, _write_blocks(ring, layout, blocks, scaled=True))


def reconstruct(sf: StandardForm) -> Matrix:
    """Reassemble the standard-form matrix from its extracted blocks."""
    return from_blocks(sf.matrix.ring, sf.layout, extract_blocks(sf))


def reduced_associated(sf: StandardForm) -> Matrix:
    """The reduced associated matrix: first column group dropped, identity
    blocks on the subdiagonal, p-power scalings stripped."""
    ring = sf.matrix.ring
    out = _write_blocks(ring, sf.layout, extract_blocks(sf), scaled=False)
    return Matrix(ring, out[:, sf.layout.t[0] :])
