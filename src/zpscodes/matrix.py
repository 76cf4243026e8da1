"""Dense matrices over Z_{p^s}, block assembly and column permutations.

Matrices wrap a numpy array tagged with a RingSpec.  They are treated as
immutable: every operation returns a new Matrix and the underlying arrays
are marked read-only.  Zero-dimension matrices (0 x k, k x 0) are legal and
show up whenever some t_i = 0 or n - t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .zring import RingMismatchError, RingSpec


class ShapeError(ValueError):
    """Raised on dimension-incompatible matrix operations."""


class ParseError(ValueError):
    """Raised on malformed matrix text input."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# The largest modulus m with (m - 1)^2 < 2^63.
_INT64_MAX_MODULUS = math.isqrt(2 ** 63 - 1) + 1


def dtype_for(ring: RingSpec):
    """Storage for arrays over ring: int64 when the product of two reduced
    entries fits, (p^s - 1)^2 < 2^63, and python ints (object) otherwise.

    Every elementwise sum, negation and product of reduced entries is then
    exact; only a matrix product, which sums k such products, must look at
    its inner dimension too.  This is the package's one overflow rule.
    """
    return np.int64 if ring.modulus <= _INT64_MAX_MODULUS else object


class Matrix:
    """A nrows x ncols matrix over Z_{p^s}; entries reduced into [0, p^s)."""

    __slots__ = ("ring", "data")

    def __init__(self, ring: RingSpec, data):
        arr = np.array(data, dtype=dtype_for(ring))
        if arr.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got ndim={arr.ndim}")
        arr %= ring.modulus
        arr.setflags(write=False)
        self.ring = ring
        self.data = arr

    @property
    def nrows(self) -> int:
        return self.data.shape[0]

    @property
    def ncols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.shape == other.shape
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"Matrix({self.ring.p}^{self.ring.s}, {self.data.tolist()})"

    def tolist(self):
        return [[int(x) for x in row] for row in self.data]


def zeros(ring: RingSpec, nrows: int, ncols: int) -> Matrix:
    return Matrix(ring, np.zeros((nrows, ncols), dtype=dtype_for(ring)))


def identity(ring: RingSpec, k: int) -> Matrix:
    return Matrix(ring, np.eye(k, dtype=np.int64))


def _same_ring(a: Matrix, b: Matrix) -> RingSpec:
    if a.ring != b.ring:
        raise RingMismatchError("matrices over different rings")
    return a.ring


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    ring = _same_ring(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    return Matrix(ring, (a.data + b.data) % ring.modulus)


def mat_neg(a: Matrix) -> Matrix:
    return Matrix(a.ring, (-a.data) % a.ring.modulus)


def mat_scalar(c: int, a: Matrix) -> Matrix:
    c = c % a.ring.modulus
    return Matrix(a.ring, (a.data * c) % a.ring.modulus)


def _matmul_reduced(a: np.ndarray, b: np.ndarray, ring: RingSpec) -> np.ndarray:
    m = ring.modulus
    if (m - 1) ** 2 * a.shape[1] < 2 ** 63:
        return (a @ b) % m
    # A sum of k int64 products could overflow: use python ints.
    return (a.astype(object) @ b.astype(object)) % m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ring = _same_ring(a, b)
    if a.ncols != b.nrows:
        raise ShapeError(f"mul: {a.shape} by {b.shape}")
    if a.ncols == 0:
        return zeros(ring, a.nrows, b.ncols)
    return Matrix(ring, _matmul_reduced(a.data, b.data, ring))


def mat_transpose(a: Matrix) -> Matrix:
    return Matrix(a.ring, a.data.T)


def insert_block(m: Matrix, r: int, c: int, block: Matrix) -> Matrix:
    """Return m with the submatrix at (r, c) overwritten by block."""
    _same_ring(m, block)
    if r < 0 or c < 0 or r + block.nrows > m.nrows or c + block.ncols > m.ncols:
        raise ShapeError(
            f"block {block.shape} does not fit in {m.shape} at ({r}, {c})"
        )
    out = m.data.copy()
    out[r : r + block.nrows, c : c + block.ncols] = block.data
    return Matrix(m.ring, out)


def extract_block(m: Matrix, r: int, c: int, nrows: int, ncols: int) -> Matrix:
    if r < 0 or c < 0 or r + nrows > m.nrows or c + ncols > m.ncols:
        raise ShapeError(f"block ({nrows}, {ncols}) out of bounds at ({r}, {c})")
    return Matrix(m.ring, m.data[r : r + nrows, c : c + ncols])


@dataclass(frozen=True)
class BlockLayout:
    """Code length n plus the type vector (t_1, ..., t_s)."""

    n: int
    t: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(int(x) for x in self.t))
        if any(x < 0 for x in self.t):
            raise ShapeError(f"negative type entry in {self.t}")
        if self.total > self.n:
            raise ShapeError(f"type {self.t} exceeds length {self.n}")

    @property
    def s(self) -> int:
        return len(self.t)

    @property
    def total(self) -> int:
        return sum(self.t)

    def row_offset(self, i: int) -> int:
        """Row index where block-row group i (1-based) starts."""
        return sum(self.t[: i - 1])

    def col_offset(self, j: int) -> int:
        """Column index where block-column group j starts (group s+1 is the
        free-column group of width n - t)."""
        return sum(self.t[: j - 1])

    def group_width(self, j: int) -> int:
        if 1 <= j <= self.s:
            return self.t[j - 1]
        if j == self.s + 1:
            return self.n - self.total
        raise ShapeError(f"column group {j} out of range for s={self.s}")


class Permutation:
    """A permutation of {1, ..., n}, stored as its image array."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ShapeError(f"not a permutation of 1..{n}: {images}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for pos, img in enumerate(self.images, start=1):
            inv[img - 1] = pos
        return Permutation(inv)

    def sign(self) -> int:
        seen = [False] * self.degree
        sign = 1
        for start in range(self.degree):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.images[i] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign


def apply_col_permutation(a: Matrix, perm: Permutation) -> Matrix:
    """Pull convention: column j of the result is column perm(j) of a."""
    if perm.degree != a.ncols:
        raise ShapeError(f"permutation degree {perm.degree} != ncols {a.ncols}")
    idx = [img - 1 for img in perm.images]
    return Matrix(a.ring, a.data[:, idx])


# --- text format ------------------------------------------------------------
#
# line 1:  p s nrows ncols
# then nrows lines of ncols entries in [0, p^s), space separated.
# Lines starting with "type:" or "perm:" (emitted by the std-form command)
# and blank lines are skipped.


def format_matrix(m: Matrix) -> str:
    lines = [f"{m.ring.p} {m.ring.s} {m.nrows} {m.ncols}"]
    for row in m.data:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Matrix:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("type:", "perm:", "#")):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise ParseError("empty input", 1)
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 4:
        raise ParseError("header must be 'p s nrows ncols'", lineno)
    try:
        p, s, nrows, ncols = (int(f) for f in fields)
        ring = RingSpec(p, s)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from exc
    if nrows < 0 or ncols < 0:
        raise ParseError("negative dimensions", lineno)
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
            except ValueError as exc:
                raise ParseError(f"bad entry {tok!r}", lineno, col) from exc
            if not 0 <= val < ring.modulus:
                raise ParseError(
                    f"entry {val} out of range [0, {ring.modulus})", lineno, col
                )
            row.append(val)
        rows.append(row)
    data = np.array(rows, dtype=np.int64) if rows else np.zeros((0, ncols), np.int64)
    return Matrix(ring, data.reshape(nrows, ncols))
