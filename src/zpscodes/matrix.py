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


# Each working type holds every integer of magnitude below its limit exactly.
_EXACT_BELOW = {np.float32: 2 ** 24, np.float64: 2 ** 53,
                np.int8: 2 ** 7, np.int16: 2 ** 15, np.int32: 2 ** 31, np.int64: 2 ** 63}


def _exact_terms(dtype, term: int, start: int = 0, m: int | None = None) -> int:
    """The terms of magnitude at most term (1 for 0) that a sum of magnitude
    at most start may take in dtype, a numpy scalar type, and stay exact:
    (limit - 1 - start) // term, or 0 past the limit.  Given m, a power of
    two below an integer type's limit bounds nothing (2^63): the type wraps
    modulo 2^b, a multiple of m, which the mask of _reduce_in_place reduces.
    The package's one exactness rule (README, "Exactness")."""
    limit = _EXACT_BELOW[dtype]
    if m is not None and not m & (m - 1) and m < limit and issubclass(dtype, np.integer):
        return 2 ** 63
    return (limit - 1 - start) // (term or 1) if start < limit else 0


def dtype_for(ring: RingSpec):
    """Storage for arrays over ring: int64 when it holds the product of two
    reduced entries, (p^s - 1)^2, and python ints (object) otherwise.

    Every elementwise sum, negation and product of reduced entries is then
    exact; only a matrix product, which sums k such products, must look at
    its inner dimension too.
    """
    return np.int64 if _exact_terms(np.int64, (ring.modulus - 1) ** 2) else object


def _carve(buf, shape, dtype):
    """The leading bytes of the flat, contiguous buffer buf as a C-contiguous
    array of shape in dtype, sharing buf's memory."""
    size = math.prod(shape)
    if buf.dtype == dtype:
        return buf[:size].reshape(shape)
    return buf.view(np.uint8)[: size * np.dtype(dtype).itemsize].view(dtype).reshape(shape)


# Entries below which one % costs less than floor division's three passes:
# on small arrays numpy's per-call overhead dominates.  On int64 by 16 the
# two break even near 512 entries; % takes 0.9 us on 4 entries against
# 2.1 us, and 70 us on 16384 against 25 us.  Below it, a code makes 141 of
# minors-deep's 156 reductions (none a level's: the levels are exact) and 99
# of iter-wide's 130; generic-gen's 760 all mask.  Without the gate, in an
# in-process A/B of 200 codes, minors-deep runs 2.9 % and iter-wide 1.7 %
# slower.
_REDUCE_FLOOR_MIN = 1024


def _reduce_in_place(arr: np.ndarray, m: int) -> np.ndarray:
    """arr, reduced into [0, m) in place and returned; a view writes through.

    When m is a power of two, an integer array of any size becomes
    arr & (m - 1): in two's complement the low bits of every signed
    integer, the type's minimum included, are its residue mod m, and the
    mask takes one pass with no temporary.  Any other integer array of
    _REDUCE_FLOOR_MIN entries or more becomes arr - (arr // m) * m: numpy
    divides an array by a scalar through a precomputed reciprocal
    (Granlund and Montgomery, 1994), a fraction of the true division that
    % takes.  Where q * m wraps, for entries within m of the type's
    minimum, arr - q * m wraps back: the result, in [0, m), is still
    exact.  Small arrays and Python ints go through %.
    """
    if arr.dtype != object and not m & (m - 1):
        arr &= m - 1
    elif arr.dtype == object or arr.size < _REDUCE_FLOOR_MIN:
        arr %= m
    else:
        q = arr // m
        q *= m
        arr -= q
    return arr


class Matrix:
    """A nrows x ncols matrix over Z_{p^s}; entries reduced into [0, p^s)."""

    __slots__ = ("ring", "data")

    def __init__(self, ring: RingSpec, data):
        arr = np.array(data, dtype=dtype_for(ring))
        self._adopt(ring, _reduce_in_place(arr, ring.modulus))

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


# zeros to extract_block, the product kernel aside, are kept only as perfbench/tracer.py's targets.
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


# Bytes above which _matmul_reduced makes the float copy of a product's
# right operand in column panels of this size, in one reused buffer.
# Measured on verify_parity, BLAS on one thread, 2 CPUs: iter-wide's 8 MB
# float64 H^T in 2 MiB panels took its benchmark p50 from 18.4 to 15.8 ms
# and peak RSS from 55.5 to 53.0 MiB against one whole copy (10 pairs);
# generic-gen's 1.3 MB float32 H^T took 4.6 ms whole, 4.9 ms in 1 MiB panels.
_PANEL_BYTES = 1 << 21


def _tier(term: int, k: int):
    """The type in which a product whose entries sum k terms of magnitude at
    most term runs: the first float type that holds every partial sum of
    max(k, 1) terms, in any order (an empty product takes one term's tier,
    so Python ints stay Python ints); else int64, in chunks, where it holds
    one term; else Python ints (object)."""
    for dtype in (np.float32, np.float64):
        if _exact_terms(dtype, term) >= max(k, 1):
            return dtype
    return np.int64 if _exact_terms(np.int64, term) else object


def _matmul_reduced(a: np.ndarray, b: np.ndarray, ring: RingSpec, c=None) -> np.ndarray:
    """(a @ b + c) mod p^s in the ring's storage, for reduced a, b and c, c
    of the product's shape: the one place where the arithmetic of a reduced
    product is decided.  It runs in _tier((m - 1)^2, k), and an int64
    product in inner chunks of _exact_terms(int64, (m - 1)^2, m - 1, m),
    each added to the sum so far and reduced once, so Python ints serve
    only a ring stored in them.  c is added in the storage, after the
    product.  A float copy of b of more than _PANEL_BYTES is made one
    column panel at a time, in one reused buffer of that size, each panel
    multiplied into the result: a is converted once.  A b already in the
    product's type, as in an int64 or Python-int product, takes no panels.
    The result is a new array.
    """
    (rows, k), cols = a.shape, b.shape[1]
    m, storage, dtype = ring.modulus, dtype_for(ring), _tier((ring.modulus - 1) ** 2, k)
    step = _exact_terms(np.int64, (m - 1) ** 2, m - 1, m) if dtype is np.int64 else max(k, 1)

    def chunk(k0):
        # Converted here, so that no converted operand outlives its product.
        x, y = a[:, k0 : k0 + step], b[k0 : k0 + step]
        return np.matmul(x.astype(dtype, copy=False), y.astype(dtype, copy=False))

    itemsize = np.dtype(dtype).itemsize
    if b.dtype != dtype and k * cols * itemsize > _PANEL_BYTES:
        # A float tier with a large b: b goes through one reused buffer,
        # a column panel at a time, each multiplied into the result.
        x, w = a.astype(dtype, copy=False), max(1, _PANEL_BYTES // (k * itemsize))
        prod, panel = np.empty((rows, cols), dtype), np.empty_like(b[:, :w], dtype=dtype)
        for c0 in range(0, cols, w):
            y = panel[:, : min(w, cols - c0)]
            y[...] = b[:, c0 : c0 + w]
            np.matmul(x, y, out=prod[:, c0 : c0 + w])
        total = prod.astype(storage)
    else:
        total = chunk(0).astype(storage, copy=False)
    if c is not None:
        total += c
    for k0 in range(step, k, step):  # int64 chunks after the first
        _reduce_in_place(total, m)
        total += chunk(k0)
    return _reduce_in_place(total, m)


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
    """A permutation of {1, ..., n}, stored as its images, a tuple of Python
    ints, and as index, the read-only int64 array of images - 1."""

    __slots__ = ("images", "index")

    def __init__(self, images):
        if not isinstance(images, np.ndarray):
            images = np.fromiter(images, np.int64)
        index = images.astype(np.int64) - 1
        n = index.size
        if index.ndim != 1 or not np.array_equal(np.sort(index), np.arange(n)):
            raise ShapeError(f"not a permutation of 1..{n}: {tuple(images.tolist())}")
        index.setflags(write=False)
        self.index = index
        self.images = tuple((index + 1).tolist())

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def apply_col_permutation(a: Matrix, perm: Permutation) -> Matrix:
    """Pull convention: column j of the result is column perm(j) of a."""
    if perm.degree != a.ncols:
        raise ShapeError(f"permutation degree {perm.degree} != ncols {a.ncols}")
    return Matrix._of_reduced(a.ring, a.data.take(perm.index, axis=1))


# --- text format ------------------------------------------------------------
#
# line 1:  p s nrows ncols
# then nrows lines of ncols entries in [0, p^s), space separated; blank when
# ncols = 0, so that such a body may also be left out.
# Lines starting with "type:" or "perm:" (emitted by the std-form command)
# and blank lines are skipped.


# Entries per chunk of format_matrix's place writer: the chunk's temporaries
# (values, offsets, its text) stay below 2 MiB.  The template writer takes
# four such chunks at once (see _format_rows).
_FORMAT_CHUNK = 1 << 15


def format_matrix(m: Matrix) -> str:
    header = f"{m.ring.p} {m.ring.s} {m.nrows} {m.ncols}\n"
    return "".join(chain([header], _format_rows(m.data, m.ring.modulus)))


def _format_rows(data: np.ndarray, modulus: int):
    """The text of the rows of a reduced matrix, one str per chunk of whole
    rows.  A chunk of 4 _FORMAT_CHUNK entries of which at most a sixteenth
    have two or more digits is written through a template: one '<u2' cell
    an entry, its digit (0x01 for a wider one) and its separator, and
    CPython's %d for the wider entries.  Any other is written by place,
    _FORMAT_CHUNK entries at a time.  A sixteenth is the measured crossover
    (wide entries at random places, widths 2 to 7): the template takes
    0.36-0.45 of the place writer's time at a 64th, 0.92-1.00 at a 16th and
    1.19-1.25 at a 10th.  With template chunks of 2^15 entries, iter-wide's
    peak RSS read 52.2 and 67.1 MiB in two runs."""
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
    for r in range(0, nrows, 4 * step):
        x = data[r : r + 4 * step].astype(dt, order="C").ravel()
        big = x >= 10
        wide = np.count_nonzero(big)
        if 16 * wide <= x.size:
            # One '<u2' cell an entry: '0' + x, then ' '.  A wide entry's
            # cell gets \x01 for its digit, where %d writes the entry.
            cells = np.add(x, 0x2030, dtype="<u2", casting="unsafe")
            at = np.flatnonzero(big)
            cells[at] = 0x2001
            cells[ncols - 1 :: ncols] -= 0x1600  # ' ' becomes '\n'
            tmpl = cells.tobytes()
            if wide:
                tmpl = tmpl.replace(b"\x01", b"%d") % tuple(x[at].tolist())
            yield str(tmpl, "ascii")
            continue
        size = step * ncols
        for k in range(0, x.size, size):
            yield _format_places(x[k : k + size], big[k : k + size], ncols, width, powers)


def _format_places(x: np.ndarray, big: np.ndarray, ncols: int, width: int, powers) -> str:
    """The text of whole rows whose entries are x, flat, big = x >= 10, one
    place at a time: a few passes over its entries plus one pass per place
    above the units over its entries of two or more digits.  x is
    overwritten."""
    wide = np.count_nonzero(big)
    # The entries of two or more digits, as a slice or as an index.  A
    # slice costs width - 1 place passes over the whole chunk; an index
    # costs those passes over its entries plus about four passes of
    # gathers and scatters.  So take the slice when they are more than
    # (width - 1) / (width + 3) of the chunk: a fifth at width 2, one
    # half at width 5, three fifths at width 7.
    sel = slice(None) if (width + 3) * wide > (width - 1) * x.size else np.flatnonzero(big)
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
    # Each temporary goes once used, which keeps the chunk's peak within
    # the bound of test_format_memory_peak.
    del xs, pos, digit
    text[last] = np.add(x, ord("0"), dtype=np.uint8, casting="unsafe")
    last += 1
    text[last] = ord(" ")
    text[last[ncols - 1 :: ncols]] = ord("\n")
    del last
    return str(text[width:], "ascii")


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
    # A matrix without columns has blank rows, which format_matrix writes
    # and the loop above skips.
    if len(lines) != nrows and (ncols or lines):
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
    data = np.empty((0, ncols), dtype=np.int64)  # until a line holds ncols entries
    for row, (_, line) in enumerate(body):
        if line.translate(_DIGITS_AND_BLANKS):
            return None
        entries = np.fromstring(line, dtype=np.int64, sep=" ")
        if entries.size != ncols:
            return None
        if not row:
            data = np.empty((nrows, ncols), dtype=np.int64)
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
