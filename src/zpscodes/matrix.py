"""Dense matrices over Z_{p^s}, block assembly and column permutations.

Matrices wrap a numpy array tagged with a RingSpec.  They are treated as
immutable: every operation returns a new Matrix and the underlying arrays
are marked read-only.  Zero-dimension matrices (0 x k, k x 0) are legal and
show up whenever some t_i = 0 or n - t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .zring import DomainError, RingMismatchError, RingSpec, _is_prime


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


# Entries below which one % costs less than floor division's three passes:
# on small arrays numpy's per-call overhead dominates.  On int64 by 16 the
# two break even near 512 entries; % takes 0.9 us on 4 entries against
# 2.1 us, and 70 us on 16384 against 25 us.  Without the gate, minors-deep
# (5248 of its 6405 reductions a code are below it) runs 6 % slower.
_REDUCE_FLOOR_MIN = 1024


def _reduce_in_place(arr: np.ndarray, m: int) -> None:
    """Reduce arr into [0, m) in place; a view writes through.

    When m is a power of two, an int64 array of any size becomes
    arr & (m - 1): in two's complement the low bits of every int64,
    -2^63 included, are its residue mod m, and the mask takes one pass
    with no temporary.  Any other int64 array of _REDUCE_FLOOR_MIN entries
    or more becomes arr - (arr // m) * m: numpy divides an array by a
    scalar through a precomputed reciprocal (Granlund and Montgomery,
    1994), which costs a fraction of the true division that % takes.
    Where q * m wraps, for entries within m of -2^63, arr - q * m wraps
    back: the result, in [0, m), is still exact.  Small arrays and Python
    ints go through %.
    """
    if arr.dtype != object and not m & (m - 1):
        arr &= m - 1
    elif arr.dtype == object or arr.size < _REDUCE_FLOOR_MIN:
        arr %= m
    else:
        q = arr // m
        q *= m
        arr -= q


def _reduce(arr: np.ndarray, m: int) -> np.ndarray:
    """A temporary the caller owns, reduced into [0, m): an int64 arr in
    place, Python ints into a new array, which numpy writes faster than it
    updates one in place.  Use the result."""
    if arr.dtype == object:
        return arr % m
    _reduce_in_place(arr, m)
    return arr


class Matrix:
    """A nrows x ncols matrix over Z_{p^s}; entries reduced into [0, p^s)."""

    __slots__ = ("ring", "data")

    def __init__(self, ring: RingSpec, data):
        arr = np.array(data, dtype=dtype_for(ring))
        self._adopt(ring, _reduce(arr, ring.modulus))

    @classmethod
    def _of_reduced(cls, ring: RingSpec, arr: np.ndarray) -> "Matrix":
        """Wrap arr, whose entries are already reduced into [0, p^s), as it
        is: no copy and no second reduction, only a conversion when arr is
        not in the ring's storage.  arr becomes read-only."""
        self = cls.__new__(cls)
        self._adopt(ring, arr.astype(dtype_for(ring), copy=False))
        return self

    def _adopt(self, ring: RingSpec, arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got ndim={arr.ndim}")
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
    return Matrix(ring, a.data + b.data)


def mat_neg(a: Matrix) -> Matrix:
    return Matrix(a.ring, -a.data)


def mat_scalar(c: int, a: Matrix) -> Matrix:
    return Matrix(a.ring, a.data * (c % a.ring.modulus))


# Multiply-adds below which a float64 product costs more than it saves:
# converting the operands and the result outweighs the faster BLAS kernel.
# Measured crossover against int64 on square and panel-shaped products.
FLOAT_MIN_MACS = 4096


def _headroom(m: int) -> int:
    """Products of two entries reduced mod m that an int64 may gain or lose
    from an entry in [0, m) and stay exact mod m: (2^63 - m) // (m - 1)^2.
    A power of two has no bound, 2^63 here: int64 wraps modulo 2^64, a
    multiple of m, and the mask of _reduce_in_place reduces any int64."""
    return (2 ** 63 - m) // (m - 1) ** 2 if m & (m - 1) else 2 ** 63


def _product_dtype(m: int, k: int, macs: int):
    """float64, on BLAS, for a product of entries reduced mod m whose partial
    sums, each below (m - 1)^2 * k, it holds exactly (below 2^53) and whose
    macs multiply-adds repay the conversions; int64 otherwise."""
    return np.float64 if (m - 1) ** 2 * k < 2 ** 53 and macs >= FLOAT_MIN_MACS else np.int64


def _matmul_reduced(a: np.ndarray, b: np.ndarray, ring: RingSpec, c=None) -> np.ndarray:
    """(a @ b, plus c on each block of c.shape[1] columns) mod p^s in the
    ring's storage, for reduced a, b and c: the one place where the
    arithmetic of a product is decided.  It runs in float64 as
    _product_dtype says, else in the storage: an int64 ring in inner chunks
    of _headroom(m), each added to the sum so far and reduced once, so
    Python ints serve only a ring stored in them."""
    m, (rows, k), cols, storage = ring.modulus, a.shape, b.shape[1], dtype_for(ring)
    dtype = storage if storage is object else _product_dtype(m, k, rows * k * cols)
    step = _headroom(m) if dtype is np.int64 else max(k, 1)
    # The product, as blocks of c's width, takes c on each.
    width = cols if c is None else c.shape[1]
    acc = None if c is None else c[:, None, :]
    for k0 in range(0, max(k, 1), step):
        # Converted a chunk at a time, so that no converted operand outlives its product.
        x, y = a[:, k0 : k0 + step], b[k0 : k0 + step]
        prod = x.astype(dtype, copy=False) @ y.astype(dtype, copy=False)
        prod = prod.astype(storage, copy=False).reshape(rows, cols // max(width, 1), width)
        if acc is not None:
            prod += acc
        acc = _reduce(prod, m)
    return acc.reshape(rows, cols)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ring = _same_ring(a, b)
    if a.ncols != b.nrows:
        raise ShapeError(f"mul: {a.shape} by {b.shape}")
    return Matrix._of_reduced(ring, _matmul_reduced(a.data, b.data, ring))


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
        # Group j spans [offsets[j - 1], offsets[j]).
        object.__setattr__(self, "_offsets", (*accumulate(self.t, initial=0), self.n))
        if self.total > self.n:
            raise ShapeError(f"type {self.t} exceeds length {self.n}")

    @property
    def s(self) -> int:
        return len(self.t)

    @property
    def total(self) -> int:
        return self._offsets[-2]

    def group(self, j: int) -> slice:
        """Row group j of the standard form, or column group j, which spans
        the same indices (1 <= j <= s + 1).  Group j <= s has width t_j;
        group s + 1 is the free group of width n - t."""
        if not 1 <= j <= self.s + 1:
            raise ShapeError(f"group {j} out of range for s={self.s}")
        return slice(self._offsets[j - 1], self._offsets[j])


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
    return Matrix._of_reduced(a.ring, a.data[:, idx])


# --- text format ------------------------------------------------------------
#
# line 1:  p s nrows ncols
# then nrows lines of ncols entries in [0, p^s), space separated.
# Lines starting with "type:" or "perm:" (emitted by the std-form command)
# and blank lines are skipped.


# Entries per chunk of format_matrix: the chunk's temporaries (values,
# offsets, its text) stay below 2 MiB.
_FORMAT_CHUNK = 1 << 15


def format_matrix(m: Matrix) -> str:
    header = f"{m.ring.p} {m.ring.s} {m.nrows} {m.ncols}\n"
    return "".join(chain([header], _format_rows(m.data, m.ring.modulus)))


def _format_rows(data: np.ndarray, modulus: int):
    """The text of the rows of a reduced matrix, one str per chunk of whole
    rows.  A chunk costs a few passes over its entries plus one pass per
    place above the units over its entries of two or more digits, so a
    sparse or block-structured matrix, mostly single digits, costs little
    more than its size."""
    nrows, ncols = data.shape
    if ncols == 0:
        yield "\n" * nrows
        return
    # Every entry is below p^s < 2^63, in either storage.
    dt = np.uint32 if modulus <= 2 ** 32 else np.uint64
    width = len(str(modulus - 1))
    # An entry has one digit more than the powers 10, 100, ... it reaches.
    powers = [dt(10 ** k) for k in range(1, width)]
    step = max(1, _FORMAT_CHUNK // ncols)
    for r in range(0, nrows, step):
        x = data[r : r + step].astype(dt, order="C").ravel()
        # The entries of two or more digits, as a slice or as an index.  A
        # slice costs width - 1 place passes over the whole chunk; an index
        # costs those passes over its entries plus about four passes of
        # gathers and scatters.  So take the slice when they are more than
        # (width - 1) / (width + 3) of the chunk: a fifth at width 2, one
        # half at width 5, three fifths at width 7.
        big = x >= 10
        wide = np.count_nonzero(big)
        sel = slice(None) if (width + 3) * wide > (width - 1) * x.size else np.flatnonzero(big)
        # Each temporary goes once used, which keeps the chunk's peak within
        # the bound of test_format_memory_peak.
        del big
        xs = x[sel]
        # last[i]: where entry i's last digit goes in the chunk's text, which
        # starts with width spare bytes; its separator follows it.
        last = np.full(x.size, 2, dtype=np.int64)
        last[0] += width - 2
        last[sel] += sum((xs >= power).view(np.uint8) for power in powers)
        # Not np.cumsum(out=), which keeps a few KiB of small buffers.
        np.add.accumulate(last, out=last)
        text = np.empty(int(last[-1]) + 2, dtype=np.uint8)
        # Places width - 1 ... 1 of the entries in sel, most significant
        # first, leading zeros included: a short entry's zeros land on bytes
        # of the entries before it or on the spare bytes, and are overwritten
        # by a later, less significant pass, the last digits or the
        # separators.  xs keeps what is left below the place written; pos
        # is last itself when sel is a slice, and ends equal to it either way.
        pos = last[sel]
        pos -= width - 1
        digit = np.empty(xs.shape, dtype=np.uint8)
        for power in reversed(powers):
            q = xs // power
            np.add(q, ord("0"), out=digit, casting="unsafe")
            text[pos] = digit
            q *= power
            xs -= q
            pos += 1
        x[sel] = xs
        del xs, pos, digit
        text[last] = np.add(x, ord("0"), dtype=np.uint8, casting="unsafe")
        last += 1
        text[last] = ord(" ")
        text[last[ncols - 1 :: ncols]] = ord("\n")
        del x, last
        yield str(text[width:], "ascii")


def parse_matrix(text: str) -> Matrix:
    """Read the text format.  A body of digits and blanks only is read by
    numpy line by line; any other, or one numpy refuses, is read entry by
    entry, which names the first bad line and column."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("type:", "perm:", "#")):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise ParseError("empty input", 1)
    # Popped rather than sliced off: lines is the body from here on.
    lineno, header = lines.pop(0)
    fields = header.split()
    if len(fields) != 4:
        raise ParseError("header must be 'p s nrows ncols'", lineno)
    values = []
    for column, field in enumerate(fields, start=1):
        try:
            values.append(int(field))
        except ValueError as exc:
            raise ParseError(f"bad header field {field!r}", lineno, column) from exc
    p, s, nrows, ncols = values
    try:
        ring = RingSpec(p, s)
    except DomainError as exc:
        # RingSpec rejects a p that is not prime before it looks at s; the
        # prime test runs again only on this error path.
        column = 2 if _is_prime(p) else 1
        raise ParseError(str(exc), lineno, column) from exc
    for column, size in ((3, nrows), (4, ncols)):
        if size < 0:
            raise ParseError("negative dimensions", lineno, column)
    if len(lines) != nrows:
        raise ParseError(f"expected {nrows} rows, found {len(lines)}", lineno)
    data = _parse_digits(lines, nrows, ncols, ring.modulus)
    if data is None:
        data = _parse_entrywise(lines, ncols, ring.modulus)
    return Matrix._of_reduced(ring, data.reshape(nrows, ncols))


# Deletes the characters of a line that holds only ASCII digits and blanks.
_DIGITS_AND_BLANKS = str.maketrans("", "", "0123456789 \t")


def _parse_digits(body, nrows: int, ncols: int, modulus: int):
    """The nrows lines of body read by numpy one at a time, or None unless
    each holds ncols entries of ASCII digits only, separated by blanks, all
    below modulus.  On such lines numpy reads what int() reads, except that
    a token above 2^63 - 1 saturates to 2^63 - 1 >= modulus, which fails
    the range test."""
    data = np.empty((nrows, ncols), dtype=np.int64)
    for row, (_, line) in enumerate(body):
        if line.translate(_DIGITS_AND_BLANKS):
            return None
        entries = np.fromstring(line, dtype=np.int64, sep=" ")
        if entries.size != ncols:
            return None
        data[row] = entries
    if data.size and data.max() >= modulus:
        return None
    return data


def _parse_entrywise(body, ncols: int, modulus: int) -> np.ndarray:
    """Read the body entry by entry; raises a ParseError at the first bad
    row length, entry or range."""
    rows = []
    for lineno, line in body:
        entries = line.split()
        if len(entries) != ncols:
            raise ParseError(f"expected {ncols} entries, found {len(entries)}", lineno)
        row = []
        for col, tok in enumerate(entries, start=1):
            try:
                val = int(tok)
            except ValueError as exc:
                raise ParseError(f"bad entry {tok!r}", lineno, col) from exc
            if not 0 <= val < modulus:
                raise ParseError(f"entry {val} out of range [0, {modulus})", lineno, col)
            row.append(val)
        rows.append(row)
    return np.array(rows, dtype=np.int64) if rows else np.zeros((0, ncols), np.int64)
