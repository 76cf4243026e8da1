import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from zpscodes import (
    Matrix,
    Permutation,
    RingSpec,
    format_matrix,
    parity_check_iterative,
    parse_matrix,
    random_code,
    standard_form,
    verify_parity,
)
from zpscodes import matrix
from zpscodes.matrix import (
    _FORMAT_CHUNK,
    _REDUCE_FLOOR_MIN,
    ParseError,
    ShapeError,
    _carve,
    _exact_terms,
    _matmul_reduced,
    _parse_digits,
    _reduce_in_place,
    _tier,
    apply_col_permutation,
    dtype_for,
    extract_block,
    identity,
    insert_block,
    mat_add,
    mat_mul,
    mat_scalar,
    mat_transpose,
    zeros,
)
from zpscodes.minors import BlockMinorTable, _level_product
from zpscodes.zring import RingMismatchError

from helpers import chunk_spy, entrywise_parse_matrix, inverse, random_matrix, row_format_matrix
from oracles import sign

Z4 = RingSpec(2, 2)


def test_identity_multiplication():
    rng = random.Random(0)
    a = random_matrix(Z4, 2, 3, rng)
    assert mat_mul(identity(Z4, 2), a) == a


def test_mul_example():
    a = Matrix(Z4, [[1, 1], [0, 2]])
    b = Matrix(Z4, [[1], [1]])
    assert mat_mul(a, b) == Matrix(Z4, [[2], [2]])


def test_mul_associativity_randomized():
    rng = random.Random(1)
    for _ in range(30):
        ring = RingSpec(rng.choice([2, 3, 5]), rng.randint(1, 4))
        k, l, m, n = (rng.randint(1, 4) for _ in range(4))
        a = random_matrix(ring, k, l, rng)
        b = random_matrix(ring, l, m, rng)
        c = random_matrix(ring, m, n, rng)
        assert mat_mul(a, mat_mul(b, c)) == mat_mul(mat_mul(a, b), c)


def test_transpose_of_product():
    rng = random.Random(2)
    for _ in range(20):
        a = random_matrix(Z4, rng.randint(1, 4), rng.randint(1, 4), rng)
        b = random_matrix(Z4, a.ncols, rng.randint(1, 4), rng)
        assert mat_transpose(mat_mul(a, b)) == mat_mul(mat_transpose(b), mat_transpose(a))


def test_shape_and_ring_errors():
    with pytest.raises(ShapeError):
        mat_add(zeros(Z4, 1, 2), zeros(Z4, 2, 1))
    with pytest.raises(ShapeError):
        mat_mul(zeros(Z4, 1, 2), zeros(Z4, 3, 1))
    with pytest.raises(RingMismatchError):
        mat_add(zeros(Z4, 1, 1), zeros(RingSpec(3, 1), 1, 1))


def test_zero_dimension_matrices():
    e = zeros(Z4, 0, 3)
    assert mat_mul(e, zeros(Z4, 3, 2)).shape == (0, 2)
    assert mat_mul(zeros(Z4, 2, 0), zeros(Z4, 0, 3)) == zeros(Z4, 2, 3)


def test_insert_block():
    m = zeros(Z4, 3, 3)
    out = insert_block(m, 1, 1, identity(Z4, 2))
    assert out.tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 1]]
    # empty block is a no-op
    assert insert_block(m, 2, 2, zeros(Z4, 0, 0)) == m
    with pytest.raises(ShapeError):
        insert_block(m, 2, 2, identity(Z4, 2))


def test_block_round_trip():
    rng = random.Random(3)
    m = random_matrix(Z4, 4, 5, rng)
    block = extract_block(m, 1, 2, 2, 3)
    assert insert_block(m, 1, 2, block) == m


def test_permutation_basics():
    assert apply_col_permutation(zeros(Z4, 2, 3), Permutation.identity(3)) == zeros(Z4, 2, 3)
    a = Matrix(Z4, [[1, 2], [3, 0]])
    swapped = apply_col_permutation(a, Permutation([2, 1]))
    assert swapped.tolist() == [[2, 1], [0, 3]]
    with pytest.raises(ShapeError):
        apply_col_permutation(a, Permutation([1, 2, 3]))
    with pytest.raises(ShapeError):
        Permutation([1, 1, 3])


def test_permutation_round_trip_randomized():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 8)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        pi = Permutation(images)
        a = random_matrix(Z4, 3, n, rng)
        assert apply_col_permutation(apply_col_permutation(a, pi), inverse(pi)) == a
        assert inverse(inverse(pi)) == pi


def _python_inverse(images):
    inv = [0] * len(images)
    for pos, img in enumerate(images, start=1):
        inv[img - 1] = pos
    return tuple(inv)


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_permutation_matches_python_reference(n):
    images = list(range(1, n + 1))
    random.Random(n).shuffle(images)
    pi = Permutation(images)
    assert pi.images == tuple(images)
    assert all(type(x) is int for x in pi.images)
    assert pi.index.tolist() == [x - 1 for x in images]
    assert not pi.index.flags.writeable
    assert hash(pi) == hash(tuple(images))
    assert repr(pi) == f"Permutation({images})"
    # Any iterable of the images gives the same permutation.
    assert pi == Permutation(np.array(images, dtype=np.int32)) == Permutation(iter(images))
    inv = inverse(pi)
    assert inv.images == _python_inverse(images)
    assert inv == Permutation(_python_inverse(images))
    assert hash(inv) == hash(_python_inverse(images))
    assert inverse(inv) == pi
    if n > 1:
        assert pi != Permutation(images[1:] + images[:1])
    bad = []
    if n:
        bad += [[0] + images[1:], [n + 1] + images[1:]]
    if n > 1:
        bad.append(images[:-1] + images[:1])
    for wrong in bad:
        with pytest.raises(ShapeError):
            Permutation(wrong)
    with pytest.raises(ShapeError):
        Permutation(np.ones((1, 1), dtype=np.int64))


def test_permutation_sign():
    assert sign(Permutation.identity(4)) == 1
    assert sign(Permutation([2, 1, 3])) == -1
    assert sign(Permutation([3, 1, 2])) == 1


def test_text_format_round_trip():
    rng = random.Random(5)
    for ring in [Z4, RingSpec(3, 2), RingSpec(2, 1)]:
        m = random_matrix(ring, rng.randint(0, 3), rng.randint(1, 4), rng)
        again = parse_matrix(format_matrix(m))
        assert again == m
    # No columns: the header and k blank rows.
    for k in (0, 1, 3):
        m = zeros(Z4, k, 0)
        assert format_matrix(m) == f"2 2 {k} 0\n" + "\n" * k
        assert parse_matrix(format_matrix(m)) == m


def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_matrix("2 3 1 2\n1 9\n")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="expected 2 rows"):
        parse_matrix("2 2 2 2\n1 2\n")
    with pytest.raises(ParseError, match="line 2, column 2"):
        parse_matrix("2 2 1 2\n1 x\n")


def test_parse_skips_std_form_headers():
    text = "type: 3 1 1\nperm: 1 2 3\n2 2 2 3\n1 1 2\n0 2 2\n"
    assert parse_matrix(text) == Matrix(Z4, [[1, 1, 2], [0, 2, 2]])


# 1447^3 (10-digit entries) is the largest of these moduli stored as int64.
# 2^62, 3^21 and 1451^3 are stored as python ints; the formatter writes them
# through uint64, uint64 and uint32, and 2^62 has 19-digit entries.
FORMAT_RINGS = [(2, 1), (5, 2), (3, 10), (2, 26), (1447, 3), (2, 62), (3, 21), (1451, 3)]


def _digit_edges(m):
    """0, m - 1, and every 10^k - 1 and 10^k below m."""
    edges = {0, m - 1}
    for k in range(1, len(str(m)) + 1):
        edges.update(x for x in (10 ** (k - 1), 10 ** k - 1) if x < m)
    return sorted(edges)


@pytest.mark.parametrize("p,s", FORMAT_RINGS)
def test_format_matches_row_writer(p, s):
    ring = RingSpec(p, s)
    edges = _digit_edges(ring.modulus)
    k = len(edges)
    # Rows of the edge values, each row rotated one step further.
    square = np.array([edges[i:] + edges[:i] for i in range(k)], dtype=object)
    chunk_rows = _FORMAT_CHUNK // k
    shapes = [(0, k), (k, 0), (1, 1), (1, k), (k, 1), (2 * chunk_rows + 3, k)]
    for nrows, ncols in shapes:
        data = np.resize(square, (nrows, ncols)) if nrows * ncols else np.zeros((nrows, ncols))
        m = Matrix(ring, data)
        assert format_matrix(m) == row_format_matrix(m), (nrows, ncols)
    tall = Matrix(ring, np.resize(square, (_FORMAT_CHUNK + 5, 1)))
    assert format_matrix(tall) == row_format_matrix(tall)
    # Inputs that are not C-contiguous.
    base = Matrix(ring, np.resize(square, (3 * k, 2 * k))).data
    for view in (base.T, base[:, [2, 0, 1, 2 * k - 1]], base[1::2, ::3]):
        m = Matrix._of_reduced(ring, view)
        assert format_matrix(m) == row_format_matrix(m)
    # H-shaped: an identity beside zero blocks and a p-scaled identity, with
    # rows wider than one chunk, and with several rows a chunk.
    for rows, zero_cols in ((3, _FORMAT_CHUNK), (150, 150)):
        m = _identity_beside_zeros(ring, rows, zero_cols)
        assert format_matrix(m) == row_format_matrix(m), (rows, zero_cols)
    if ring.modulus > 10:
        m = _chunks_by_digit_count(ring)
        assert format_matrix(m) == row_format_matrix(m)


def _identity_beside_zeros(ring, rows, zero_cols):
    """[I | 0 | p I | three columns of digit edges] with the given rows."""
    eye = np.eye(rows, dtype=np.int64).astype(object)
    edges = np.resize(np.array(_digit_edges(ring.modulus), dtype=object), (rows, 3))
    zero = np.zeros((rows, zero_cols), dtype=object)
    return Matrix(ring, np.hstack([eye, zero, ring.p * eye, edges]))


# Chunks of 512 rows of 64 entries, exactly _FORMAT_CHUNK entries each.
_CHUNK_COLS = 64


def _chunks_by_digit_count(ring):
    """Three whole chunks: exactly half of the entries of two or more digits
    (index selection), then half + 1 (slice selection), then none.  The
    first two start with 10, whose leading zeros land on the spare bytes,
    and end every row with an entry of two or more digits."""
    m = ring.modulus
    multi = [v for v in _digit_edges(m) if v >= 10]
    single = list(range(min(m, 10)))
    size = _FORMAT_CHUNK
    assert size % _CHUNK_COLS == 0
    chunks = []
    for extra in (0, 1):
        # Odd positions hold the wide entries, row ends included; position
        # 0 takes the place of position 1, and position 2 is the extra one.
        wide = np.arange(size) % 2 == 1
        wide[[0, 1, 2]] = [True, False, extra == 1]
        assert np.count_nonzero(wide) == size // 2 + extra
        chunk = np.resize(np.array(single, dtype=object), size)
        chunk[wide] = np.resize(np.array(multi, dtype=object), np.count_nonzero(wide))
        chunk[0] = 10
        chunks.append(chunk)
    chunks.append(np.resize(np.array(single, dtype=object), size))
    return Matrix(ring, np.concatenate(chunks).reshape(-1, _CHUNK_COLS))


@pytest.mark.parametrize("p,s", [(p, s) for p, s in FORMAT_RINGS if p ** s > 10])
def test_format_at_switch_point(p, s):
    # Two whole chunks whose entries of two or more digits are exactly
    # (width - 1) / (width + 3) of the chunk, rounded down (index
    # selection), then one more (slice selection), at random places after
    # a leading 10.
    ring = RingSpec(p, s)
    m = ring.modulus
    width = len(str(m - 1))
    size = _FORMAT_CHUNK
    at = (width - 1) * size // (width + 3)
    multi = np.array([v for v in _digit_edges(m) if v >= 10], dtype=object)
    rng = random.Random(m)
    chunks = []
    for count in (at, at + 1):
        chunk = np.resize(np.arange(10, dtype=object), size)
        chunk[rng.sample(range(1, size), count - 1)] = np.resize(multi, count - 1)
        chunk[0] = 10
        chunks.append(chunk)
    mat = Matrix(ring, np.concatenate(chunks).reshape(-1, _CHUNK_COLS))
    assert format_matrix(mat) == row_format_matrix(mat)


@pytest.mark.parametrize("p,s", FORMAT_RINGS)
def test_format_sparse_chunks(p, s, monkeypatch):
    # Template chunks of 16 rows of 64 entries, four place chunks each.  A
    # chunk whose entries of two or more digits are at most a sixteenth of
    # it is written through a template: one wide entry, exactly a
    # sixteenth, then one more (the place writer), wide entries at every
    # row end, and none.  Then one column, and views that are not
    # C-contiguous.
    monkeypatch.setattr(matrix, "_FORMAT_CHUNK", 256)
    ring = RingSpec(p, s)
    m = ring.modulus
    multi = np.array([v for v in _digit_edges(m) if v >= 10] or [m - 1], dtype=object)
    rng = random.Random(m)

    def chunk(places):
        out = np.array([rng.randrange(min(m, 10)) for _ in range(1024)], dtype=object)
        out[places] = np.resize(multi, len(places))
        return out

    # Over 2^1 the wide places get m - 1, a single digit.
    sparse = [[], rng.sample(range(1024), 1), rng.sample(range(1024), 64),
              rng.sample(range(1024), 65), list(range(63, 1024, 64)), []]
    data = np.concatenate([chunk(places) for places in sparse]).reshape(-1, 64)
    mat = Matrix(ring, data)
    assert format_matrix(mat) == row_format_matrix(mat)
    column = Matrix(ring, np.concatenate([chunk(sparse[-2]), chunk([])]).reshape(-1, 1))
    assert format_matrix(column) == row_format_matrix(column)
    for view in (mat.data.T, mat.data[:, [5, 0, 63, 2]], mat.data[1::2, ::3]):
        m_view = Matrix._of_reduced(ring, view)
        assert format_matrix(m_view) == row_format_matrix(m_view)


def _corpus_text(tokens, ncols=3):
    """A 5^2 matrix text whose entries, in reading order, are tokens
    padded with valid entries."""
    body = list(tokens) + ["1"] * (-len(tokens) % ncols)
    rows = [" ".join(body[i : i + ncols]) for i in range(0, len(body), ncols)]
    return f"5 2 {len(rows)} {ncols}\n" + "\n".join(rows) + "\n"


def _parse_outcome(parse, text):
    try:
        return ("ok", parse(text))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


ACCEPTED_TOKENS = ["+3", "-0", "1_0", "\u0663", "\uff10", "24"]
REJECTED_TOKENS = ["0x1", "1.0", "1__0", "-1", "25", str(2 ** 63), str(10 ** 30)]


@pytest.mark.parametrize("token", ACCEPTED_TOKENS + REJECTED_TOKENS)
def test_parse_token_corpus(token):
    for position in (0, 4, 8):
        tokens = ["2"] * 9
        tokens[position] = token
        text = _corpus_text(tokens)
        want = _parse_outcome(entrywise_parse_matrix, text)
        assert _parse_outcome(parse_matrix, text) == want
        assert (want[0] == "ok") == (token in ACCEPTED_TOKENS)
        if want[0] == "error":
            assert want[2:] == (2 + position // 3, 1 + position % 3)


def test_parse_corpus_tabs_and_error_order():
    tabbed = "5 2 2 3\n1\t+3\t\u0663\n\t0 1_0  24\n"
    assert parse_matrix(tabbed) == entrywise_parse_matrix(tabbed)
    assert parse_matrix(tabbed).tolist() == [[1, 3, 3], [0, 10, 24]]
    # The first bad line wins, whether its fault is an entry or the count.
    for text in ("5 2 2 3\n1 x 1\n1 1\n", "5 2 2 3\n1 1\n1 x 1\n", "5 2 2 3\n1 1 1\n1 1 -1\n"):
        want = _parse_outcome(entrywise_parse_matrix, text)
        assert want[0] == "error"
        assert _parse_outcome(parse_matrix, text) == want


@pytest.mark.parametrize("p,s", [(3, 21), (2, 62)])
def test_parse_python_int_ring(p, s):
    m = RingSpec(p, s).modulus
    text = f"{p} {s} 1 3\n0 {m - 1} {10 ** 9}\n"
    got = parse_matrix(text)
    assert got.data.dtype == object
    assert got == entrywise_parse_matrix(text)
    assert got.tolist() == [[0, m - 1, 10 ** 9]]
    for bad in (str(m), str(2 ** 63), str(-(2 ** 63) - 1)):
        text = f"{p} {s} 1 2\n0 {bad}\n"
        want = _parse_outcome(entrywise_parse_matrix, text)
        assert want[0] == "error" and want[2:] == (2, 2)
        assert _parse_outcome(parse_matrix, text) == want


def _digit_text(p, s, rows, sep=" "):
    lines = [f"{p} {s} {len(rows)} {len(rows[0]) if rows else 0}"]
    lines.extend(sep.join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("p,s", [(2, 4), (3, 10), (3, 21), (2, 62)])
def test_digit_reader_matches_entrywise(p, s):
    m = RingSpec(p, s).modulus
    rng = random.Random(f"digits:{p}^{s}")
    for nrows, ncols in [(1, 1), (7, 11), (40, 3)]:
        rows = [[rng.randrange(m) for _ in range(ncols)] for _ in range(nrows)]
        rows[0][0] = m - 1
        for sep in (" ", "\t", " \t  "):
            text = _digit_text(p, s, rows, sep)
            assert parse_matrix(text) == entrywise_parse_matrix(text)
        # The digit reader itself answers on such a body.
        body = [(i + 2, " ".join(map(str, row))) for i, row in enumerate(rows)]
        assert _parse_digits(iter(body), nrows, ncols, m).tolist() == rows


def test_digit_reader_long_tokens():
    # Leading zeros, tokens of 20 digits and more, and 2^63, which numpy
    # reads as 2^63 - 1: the range test refuses it and the entrywise reader
    # names it.
    for token, value in [("0" * 25 + "1", 1), ("0" * 19 + "15", 15), ("0" * 30, 0)]:
        text = f"2 4 2 2\n{token} 3\n\t4\t{token}\n"
        assert parse_matrix(text).tolist() == [[value, 3], [4, value]]
        assert parse_matrix(text) == entrywise_parse_matrix(text)
    for token in (str(2 ** 63), "9" * 20, "1" + "0" * 25, str(2 ** 64 + 1)):
        for p, s in [(2, 4), (2, 62), (3, 39)]:
            text = f"{p} {s} 2 2\n1 2\n3 {token}\n"
            want = _parse_outcome(entrywise_parse_matrix, text)
            assert want[0] == "error" and want[2:] == (3, 2)
            assert _parse_outcome(parse_matrix, text) == want


def test_digit_reader_entry_count_errors():
    for line in ("1 2 3 4", "1 2", "123", ""):
        text = f"5 2 3 3\n1 1 1\n{line}\n2 2 2\n"
        want = _parse_outcome(entrywise_parse_matrix, text)
        assert want[0] == "error"
        assert _parse_outcome(parse_matrix, text) == want
    # A missing or an extra line: the row count is named, at the header.
    for text in ("5 2 3 3\n1 1 1\n2 2 2\n", "5 2 1 3\n1 1 1\n2 2 2\n"):
        want = _parse_outcome(entrywise_parse_matrix, text)
        assert want[0] == "error" and want[2] == 1
        assert _parse_outcome(parse_matrix, text) == want
    # A header that claims far more than the text holds is refused by count.
    with pytest.raises(ParseError, match="expected 10000000000 rows"):
        parse_matrix("2 2 10000000000 10000000000\n1\n")
    # A header whose column count the first line does not hold is refused
    # by that line, before anything of the header's size is allocated.
    with pytest.raises(ParseError, match="expected 10000000000000 entries, found 2") as exc:
        parse_matrix("2 1 1 10000000000000\n1 0\n")
    assert exc.value.line == 2


def test_digit_reader_falls_back_late():
    # Only line 200 leaves the digit-only form; the entrywise reader reads
    # the body.
    rng = random.Random(12)
    rows = [[rng.randrange(25) for _ in range(6)] for _ in range(240)]
    lines = _digit_text(5, 2, rows).splitlines()
    lines[199] = "+3 " + lines[199].split(" ", 1)[1]
    text = "\n".join(lines) + "\n"
    got = parse_matrix(text)
    assert got == entrywise_parse_matrix(text)
    assert got.data[198, 0] == 3
    # Other line breaks than "\n" are cut as str.splitlines() cuts them.
    for brk in ("\r\n", "\r", "\x0c", "\u2028"):
        other = text.replace("\n", brk)
        assert parse_matrix(other) == got


def test_digit_reader_no_rows_or_columns():
    # Rows without columns are blank lines, which may also be left out.
    for text, shape in [("2 4 0 5\n", (0, 5)), ("2 4 0 0\n", (0, 0)), ("2 62 0 3\n# x\n", (0, 3)),
                        ("2 4 3 0\n\n\n\n", (3, 0)), ("2 4 3 0\n", (3, 0))]:
        got = parse_matrix(text)
        assert got.shape == shape
        assert got == entrywise_parse_matrix(text)


# The tracemalloc peak of parse_matrix on the input of
# test_parse_memory_peak when the body was read by one int() pass over its
# tokens, measured with CPython 3.11 and numpy 2.4.  The int64 result alone
# is 1.37 MiB.
INT_PASS_PARSE_PEAK = 1_925_802


def test_parse_memory_peak():
    # The digit reader holds the lines, the result and one line's entries:
    # no more than the int() pass held.  A whole-body byte tokenizer with
    # an int64 cumsum per byte peaked at 9.2 MiB.
    rng = random.Random(3)
    rows = [[rng.randrange(16) for _ in range(600)] for _ in range(300)]
    text = _digit_text(2, 4, rows)
    parse_matrix(text)
    tracemalloc.start()
    try:
        parse_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= INT_PASS_PARSE_PEAK


# The tracemalloc peaks of format_matrix on the inputs of
# test_format_memory_peak when every entry took width divide passes and
# width byte scatters, measured with CPython 3.11 and numpy 2.4.
DENSE_FORMAT_PEAK = 1_009_901
H_FORMAT_PEAK = 4_113_220


def _format_peak(m):
    format_matrix(m)
    tracemalloc.start()
    try:
        format_matrix(m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_format_memory_peak():
    # A dense 150 x 200 matrix over 3^13 is one chunk of 7-digit entries;
    # the H of a code of type (2,) * 10, n = 1000, over 3^10 is 998 x 1000,
    # 98 % single digits.
    rng = random.Random(12)
    ring = RingSpec(3, 13)
    dense = Matrix(ring, [[rng.randrange(ring.modulus) for _ in range(200)] for _ in range(150)])
    assert _format_peak(dense) <= DENSE_FORMAT_PEAK
    sf = random_code(RingSpec(3, 10), 1000, (2,) * 10, seed=12)
    h = parity_check_iterative(sf).h_unpermuted
    assert h.shape == (998, 1000)
    assert _format_peak(h) <= H_FORMAT_PEAK


HEADER_ERRORS = [
    ("x 2 1 1", 1, "bad header field"),
    ("2 y 1 1", 2, "bad header field"),
    ("2 2 z 1", 3, "bad header field"),
    ("2 2 1 1.0", 4, "bad header field"),
    ("4 2 1 1", 1, "not prime"),
    ("4 0 1 1", 1, "not prime"),
    ("1000000007 3 1 1", 2, "does not fit"),
    ("2 0 1 1", 2, "must be >= 1"),
    ("2 63 1 1", 2, "does not fit"),
    ("2 1000000000 1 1", 2, "does not fit"),
    ("2 2 -1 1", 3, "negative dimensions"),
    ("2 2 1 -1", 4, "negative dimensions"),
]


@pytest.mark.parametrize("header,column,message", HEADER_ERRORS)
def test_header_errors_name_their_column(header, column, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_matrix(header + "\n0\n")
    assert (info.value.line, info.value.column) == (1, column)
    assert str(info.value).startswith(f"line 1, column {column}: ")


def test_of_reduced_wraps_without_copy():
    ring = RingSpec(3, 2)
    arr = np.array([[1, 8], [0, 5]], dtype=np.int64)
    m = Matrix._of_reduced(ring, arr.T)
    assert np.shares_memory(m.data, arr)
    assert not m.data.flags.writeable
    assert m == Matrix(ring, [[1, 0], [8, 5]])
    big = RingSpec(3, 21)
    assert Matrix._of_reduced(big, arr).data.dtype == object
    with pytest.raises(ShapeError):
        Matrix._of_reduced(ring, np.zeros(3, dtype=np.int64))


def test_scalar():
    a = Matrix(Z4, [[1, 2], [3, 1]])
    assert mat_scalar(3, a).tolist() == [[3, 2], [1, 3]]


def test_storage_rule_boundary():
    # (m - 1)^2 < 2^63 holds for m = 55103^2 and fails for m = 55109^2.
    for p, dtype in [(55103, np.int64), (55109, object)]:
        ring = RingSpec(p, 2)
        m = ring.modulus
        a = Matrix(ring, [[m - 1, m - 2]])
        assert a.data.dtype == dtype
        assert Matrix(ring, [[-1, 2 * m - 2]]) == a
        assert _reduce_in_place((m - 1) * a.data, m).tolist() == [[1, 2]]
        assert _matmul_reduced(a.data.T, a.data, ring).tolist() == [[1, 2], [2, 4]]
        assert _reduce_in_place(a.data + a.data, m).tolist() == [[m - 2, m - 4]]


# Moduli of int64 storage, from 2 to the largest int64 prime; the powers of
# two take the mask.
REDUCE_MODULI = [2, 2 ** 4, 2 ** 26, 2 ** 31, 3 ** 10, 1447 ** 3, 55103 ** 2, 3037000493]


def _reduce_edges(m):
    """0, +-1, +-(m - 1), +-(m - 1)^2, values within m of -2^63 and of
    2^63 - 1, and random int64 values."""
    lo, hi = -(2 ** 63), 2 ** 63 - 1
    edges = [0, 1, -1, m - 1, 1 - m, (m - 1) ** 2, -((m - 1) ** 2)]
    edges += [lo, lo + 1, lo + m // 2, lo + m - 1, hi, hi - m + 1]
    rng = random.Random(m)
    edges += [rng.randint(lo, hi) for _ in range(50)]
    return edges


@pytest.mark.parametrize("m", REDUCE_MODULI)
def test_reduce_matches_python_mod(m):
    edges = _reduce_edges(m)
    # Short arrays take %, long ones floor division, where q * m wraps for
    # the entries near -2^63; a power of two takes the mask at every size.
    for size in (len(edges), _REDUCE_FLOOR_MIN, 3 * _REDUCE_FLOOR_MIN + 1):
        values = [edges[i % len(edges)] for i in range(size)]
        arr = np.array(values, dtype=np.int64).reshape(-1, 1)
        out = _reduce_in_place(arr, m)
        assert out is arr and out.dtype == np.int64
        assert out.ravel().tolist() == [x % m for x in values]


def test_reduce_writes_through_views():
    rng = np.random.default_rng(5)
    base = rng.integers(-(2 ** 62), 2 ** 62, size=(80, 90))
    # Floor division, then the mask.
    for m in (3 ** 10, 2 ** 31):
        for index in (np.s_[:, 7:60], np.s_[::2, ::3], np.s_[3, :]):
            arr = base.copy()
            view = arr[index]
            want = arr.copy()
            want[index] = base[index] % m
            _reduce_in_place(view, m)
            assert np.array_equal(arr, want)
        # A column-major array, reduced whole.
        arr = np.asfortranarray(base)
        _reduce_in_place(arr, m)
        assert np.array_equal(arr, base % m)


def test_kernels_leave_operands_unchanged():
    rng = random.Random(8)
    for ring in (RingSpec(2, 4), RingSpec(3, 13), RingSpec(55103, 2), RingSpec(3, 39)):
        a = random_matrix(ring, 40, 50, rng).data.copy()
        b = random_matrix(ring, 50, 60, rng).data.copy()
        c = random_matrix(ring, 40, 60, rng).data.copy()
        saved = [x.copy() for x in (a, b, c)]
        prod = _matmul_reduced(a, b, ring)
        assert prod.tolist() == _python_product(a, b, ring.modulus)
        plus_c = _matmul_reduced(a, b, ring, c)
        assert plus_c.tolist() == ((prod.astype(object) + c) % ring.modulus).tolist()
        table = BlockMinorTable(standard_form(Matrix(ring, a[:1])))
        total = table._counted_add(prod, c, wide=False)
        assert total is not prod and total is not c
        assert total.tolist() == ((prod.astype(object) + c) % ring.modulus).tolist()
        for before, after in zip(saved, (a, b, c)):
            assert np.array_equal(before, after)
        g, h = Matrix(ring, a), Matrix(ring, b.T)
        g_data, h_data = g.data.copy(), h.data.copy()
        verify_parity(g, h)
        assert np.array_equal(g.data, g_data) and np.array_equal(h.data, h_data)


class _ModOnly(int):
    """A Python int that refuses floor division."""

    def __floordiv__(self, other):
        raise AssertionError("floor division on a Python-int array")


@pytest.mark.parametrize("p,s", [(55109, 2), (3, 39)])
def test_reduce_object_rings_use_mod(p, s):
    m = RingSpec(p, s).modulus
    edges = [0, 1, -1, m - 1, -(m - 1) ** 2, (m - 1) ** 2 * 5, -(2 ** 100) - 3]
    values = [edges[i % len(edges)] for i in range(_REDUCE_FLOOR_MIN + 2)]
    arr = np.array([_ModOnly(x) for x in values], dtype=object).reshape(-1, 3)
    # _reduce_in_place returns its array, and writes through a view.
    copy = arr.copy()
    got = _reduce_in_place(copy, m)
    assert got is copy and got.dtype == object
    assert got.ravel().tolist() == [x % m for x in values]
    view = arr[:, 1:]
    _reduce_in_place(view, m)
    want = np.array(values, dtype=object).reshape(-1, 3)
    want[:, 1:] %= m
    assert arr.tolist() == want.tolist()

def _python_product(a, b, m):
    return [
        [sum(int(x) * int(y) for x, y in zip(row, col)) % m for col in zip(*b)]
        for row in a
    ]


def _check_product_edge(p, s, k_edge, below, above):
    # k_edge is the largest inner dimension whose partial sums the dtype
    # below holds exactly; at k_edge + 1 the product takes the dtype above.
    ring = RingSpec(p, s)
    m = ring.modulus
    assert _tier((m - 1) ** 2, k_edge) is below
    assert _tier((m - 1) ** 2, k_edge + 1) is above
    digits = np.finfo(below).nmant + 1  # 24 for float32, 53 for float64
    for k in (k_edge, k_edge + 1):
        # Entries m - 1, and m - 2 in the last place where that makes the
        # entries of the exact product past the bound odd sums.
        a = np.full((2, k), m - 1, dtype=np.int64)
        if (k_edge + 1) * (m - 1) ** 2 % 2 == 0:
            a[:, -1] = m - 2
        exact = sum(int(x) * int(x) for x in a[0])
        assert (exact < 2 ** digits) == (k == k_edge)
        if k > k_edge:
            # The dtype below would round it: past 2^digits it holds only
            # even integers.
            assert exact % 2 == 1
            assert int(below(exact)) != exact
        got = _matmul_reduced(a, a.T.copy(), ring)
        assert got.dtype == np.int64
        assert got.tolist() == _python_product(a.tolist(), a.T.tolist(), m)


@pytest.mark.parametrize("p,s,k_float", [(2, 26, 2), (3, 16, 4)])
def test_float_tier_boundary(p, s, k_float):
    _check_product_edge(p, s, k_float, np.float64, np.int64)


# (m - 1)^2 * k_float < 2^24 <= (m - 1)^2 * (k_float + 1).
@pytest.mark.parametrize("p,s,k_float", [(2, 4, 74565), (3, 5, 286), (2, 12, 1)])
def test_float32_tier_boundary(p, s, k_float):
    _check_product_edge(p, s, k_float, np.float32, np.float64)


@pytest.mark.parametrize("p,s,tier", [(2, 4, np.float32), (3, 10, np.float64)])
def test_kernel_converts_a_large_operand_in_panels(p, s, tier, monkeypatch):
    # With _PANEL_BYTES at w columns of the float copy of b, b goes through
    # panels of w columns: 3w - 1, 3w and 3w + 1 columns take 3, 3 and 4
    # panels, and at w = 1 each column is a panel.  b is column-major, as
    # H^T in verify_parity, or row-major; a is converted once.
    ring = RingSpec(p, s)
    m, rng = ring.modulus, random.Random(p)
    rows, k = 8, 40
    for w, widths in [(5, (14, 15, 16)), (1, (13,))]:
        monkeypatch.setattr(matrix, "_PANEL_BYTES", k * w * np.dtype(tier).itemsize)
        for cols in widths:
            assert _tier((m - 1) ** 2, k) is tier
            a = random_matrix(ring, rows, k, rng).data
            bt = random_matrix(ring, cols, k, rng).data
            for b in (bt.T, bt.T.copy()):
                chunks = []
                got = _matmul_reduced(a.view(chunk_spy(chunks)), b, ring)
                assert got.dtype == np.int64 and got.tolist() == _python_product(a, b, m)
                assert chunks == [(k, np.dtype(tier))] * -(-cols // w)


# Int64 rings at the chunk rule's edges, with their chunk width, the int64
# terms of (m - 1)^2 on m - 1 (2^63 for a power of two, which has no bound),
# and a Python-int ring.
KERNEL_RINGS = [(3, 16, 4977), (3, 19, 6), (55103, 2, 1), (3037000493, 1, 1), (2, 31, 2 ** 63),
                (3, 39, None)]


@pytest.mark.parametrize("p,s,headroom", KERNEL_RINGS)
def test_kernel_matches_python_ints(p, s, headroom):
    ring = RingSpec(p, s)
    m, storage = ring.modulus, dtype_for(ring)
    # Without a bound every product is one chunk.
    unbounded = headroom in (None, 2 ** 63)
    ks = [0, 1, 2, 65] if unbounded else [0, 1, headroom, headroom + 1, 3 * headroom + 2]
    for k in ks:
        a = np.full((3, k), m - 1, dtype=storage)
        # (columns of the product, width of c): none, the product's shape,
        # zero width.
        for cols, width in [(4, None), (4, 4), (0, 0)]:
            b = np.full((k, cols), m - 1, dtype=storage)
            c = None
            if width is not None:
                c = np.arange(3 * width, dtype=storage).reshape(3, width) + (m - 12)
            chunks = []
            got = _matmul_reduced(a.view(chunk_spy(chunks)), b, ring, c)
            want = a.astype(object) @ b.astype(object)
            if c is not None:
                want += c.astype(object)
            assert got.dtype == storage and got.shape == (3, cols)
            assert got.tolist() == (want % m).tolist()
            # Python ints, never the floats of an empty float product.
            assert storage is not object or all(type(x) is int for x in got.ravel())
            # A float product, as at k <= 4 over 3^16, is one chunk.
            tier = np.dtype(_tier((m - 1) ** 2, k))
            size = max(k, 1) if unbounded or tier.kind == "f" else headroom
            widths = [min(size, k - k0) for k0 in range(0, max(k, 1), size)]
            assert chunks == [(w, tier) for w in widths]


# An exact level of the block-minor forest, minors._level_product, writing
# into a float out, with b held in work in out's dtype, on each float tier:
# float32 (2^4) and float64 (3^13).  work is written only once b has been
# read, so it may hold b, and the product allocates nothing that grows with
# it: adding c takes a buffer of numpy's iterator, at most 8192 entries, a
# quarter of this product.  The kernel, given c tiled to the product's
# shape, gives the same product reduced.
@pytest.mark.parametrize("p,s,k,tier", [(2, 4, 64, np.float32), (3, 13, 64, np.float64)])
def test_kernel_into_out_and_work(p, s, k, tier):
    ring = RingSpec(p, s)
    m, rows, width, cols = ring.modulus, 16, 64, 2048
    rng = np.random.default_rng(k)
    a, b, c = (rng.integers(0, m, shape) for shape in ((rows, k), (k, cols), (rows, width)))
    # Every partial sum, below k (m - 1)^2 + m, is exact in tier.
    assert _tier((m - 1) ** 2, k) is tier
    work = np.empty(k * cols + rows * cols)
    held = _carve(work, (k, cols), tier)
    held[...] = b
    fa, out = a.astype(tier), np.empty((rows, cols), tier)
    tracemalloc.start()
    try:
        _level_product(fa, held, c, out, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = a.astype(object) @ b.astype(object) + np.tile(c.astype(object), (1, cols // width))
    assert out.astype(np.int64).tolist() == want.tolist()
    assert (want % m).tolist() == _matmul_reduced(a, b, ring, np.tile(c, cols // width)).tolist()
    assert peak < out.nbytes // 2


# A float level is exact and left as it is: the integer product plus c on
# each block, here with partial sums up to 4 * 2^20 + 2^22 in float32 and
# 4 * 2^46 + 2^48 in float64.
@pytest.mark.parametrize("dtype,bits", [(np.float32, 10), (np.float64, 23)])
def test_exact_float_level_is_not_reduced(dtype, bits):
    rng = np.random.default_rng(bits)
    rows, k, width, blocks = 3, 4, 5, 8
    a = rng.integers(-(2 ** bits), 2 ** bits, (rows, k), endpoint=True)
    b = rng.integers(-(2 ** bits), 2 ** bits, (k, blocks * width), endpoint=True)
    c = rng.integers(-(2 ** (2 * bits + 2)), 2 ** (2 * bits + 2), (rows, width))
    a[0], b[:, 0], c[0, 0] = 2 ** bits, 2 ** bits, 2 ** (2 * bits + 2)
    out, work = np.empty((rows, blocks * width), dtype), np.empty(rows * blocks * width)
    _level_product(a.astype(dtype), b.astype(dtype), c, out, work)
    assert np.array_equal(out.astype(np.int64), a @ b + np.tile(c, blocks))
    assert out[0, 0] == 4 * 2 ** (2 * bits) + 2 ** (2 * bits + 2)


def test_float_level_allocates_nothing_that_grows():
    # Adding c takes a buffer of numpy's iterator, at most 8192 entries, a
    # quarter of this product.  Entries in (-3^13, 3^13) keep every partial
    # sum below 24 * 3^26 + 3^13 < 2^46: the float64 level is exact.
    m, rows, k, width, cols = 3 ** 13, 16, 24, 8, 2048
    rng = np.random.default_rng(9)
    a, b, c = (rng.integers(1 - m, m, shape) for shape in ((rows, k), (k, cols), (rows, width)))
    out, work = np.empty((rows, cols)), np.empty(rows * cols)
    fa, fb, fc = (x.astype(np.float64) for x in (a, b, c))
    tracemalloc.start()
    try:
        _level_product(fa, fb, fc, out, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes // 2
    assert np.array_equal(out.astype(np.int64), a @ b + np.tile(c, cols // width))


# The exactness rule against Python ints, for each type of its table.
# Terms of magnitude term on a sum of magnitude start: the largest term, a
# quarter of the limit, which divides it, terms near a fifth and a 37th of
# it, no term, and standard_form's updates, (m - 1)^2 on m - 1.
EXACT_LIMITS = {np.float32: 2 ** 24, np.float64: 2 ** 53, np.int8: 2 ** 7, np.int16: 2 ** 15,
                np.int32: 2 ** 31, np.int64: 2 ** 63}

# Every p^s < 2^63 for these primes, and the storage edge: 3037000500 is the
# largest m with (m - 1)^2 < 2^63, 3037000507 the smallest prime past it.
RULE_MODULI = [p ** s for p in (2, 3, 5, 7, 31, 37, 8191, 8209, 55103, 3037000493)
               for s in range(1, 64) if p ** s < 2 ** 63] + [3037000500, 3037000501, 3037000507]


def _parent_headroom(m, dtype):
    top = 2 ** (8 * np.dtype(dtype).itemsize - 1)
    if m & (m - 1):
        return max((top - m) // (m - 1) ** 2, 0)
    return 2 ** 63 if m < top else 0


def _parent_storage(m):
    return np.int64 if m <= math.isqrt(2 ** 63 - 1) + 1 else object


# The parent's tier of a product of 4096 multiply-adds or more, the size
# from which it let a product run in a float type.
def _parent_product_dtype(m, k):
    bound = (m - 1) ** 2 * k
    if _parent_storage(m) is object:
        return object
    if bound >= 2 ** 53:
        return np.int64
    return np.float32 if bound < 2 ** 24 else np.float64


@pytest.mark.parametrize("dtype", list(EXACT_LIMITS), ids=lambda d: np.dtype(d).name)
def test_exact_terms_rule(dtype):
    limit = EXACT_LIMITS[dtype]
    # Every integer of magnitude below limit is exact in dtype, limit + 1 is
    # not: a float rounds it, an integer type wraps it.
    if np.dtype(dtype).kind == "f":
        assert int(dtype(limit - 1)) == limit - 1 and int(dtype(limit + 1)) != limit + 1
    else:
        assert np.iinfo(dtype).max == limit - 1 and np.iinfo(dtype).min == -limit
    cases = [(limit - 1, 0), (limit // 4, 0), (limit // 5 - 1, 3), (limit // 37 + 1, limit // 9),
             (0, 0)]
    cases += [((m - 1) ** 2, m - 1) for m in (3, 16, 31, 37, 8191, 8209) if (m - 1) ** 2 < limit]
    for term, start in cases:
        n = _exact_terms(dtype, term, start)
        assert start + n * max(term, 1) < limit <= start + (n + 1) * max(term, 1)
        if n < 100:
            # n terms after start, added and subtracted in dtype, are exact.
            steps = np.array([start, *[term] * n], dtype)
            for sign in (1, -1):
                sums = np.cumsum(sign * steps, dtype=dtype)
                assert [int(x) for x in sums] == [sign * (start + i * term) for i in range(n + 1)]
    # A power of two m below an integer type's limit bounds nothing: the
    # type wraps modulo a multiple of m.  A float type takes no exception.
    for m in (2, 16, 2 ** 7, 2 ** 31):
        got = _exact_terms(dtype, (m - 1) ** 2, m - 1, m)
        if np.dtype(dtype).kind == "i" and m < limit:
            assert got == 2 ** 63
            # -(m - 1)^2 as the type holds it, then 300 of them summed.
            term = (limit - (m - 1) ** 2) % (2 * limit) - limit
            wrapped = np.full(300, term, dtype).cumsum(dtype=dtype)
            assert (wrapped & (m - 1)).tolist() == [-(i + 1) * (m - 1) ** 2 % m for i in range(300)]
        else:
            assert got == max((limit - m) // (m - 1) ** 2, 0)
    # The parent's three rules, written out by hand, on RULE_MODULI:
    # standard_form's and the kernel chunk's headroom, the product tier,
    # Python ints for no int64 ring, and the storage.
    assert len(RULE_MODULI) == 191
    for m in RULE_MODULI:
        if np.dtype(dtype).kind == "i":
            assert _exact_terms(dtype, (m - 1) ** 2, m - 1, m) == _parent_headroom(m, dtype), m
        for k in (1, 2, 7, 286, 287, 10 ** 6):
            want, got = _parent_product_dtype(m, k), _tier((m - 1) ** 2, k)
            assert (got is dtype) == (want is dtype), (m, k)
            assert dtype is not np.int64 or got is want, (m, k)
        if dtype is np.int64:
            assert dtype_for(SimpleNamespace(modulus=m)) is _parent_storage(m), m
    if dtype is np.int64:
        assert dtype_for(RingSpec(3037000493, 1)) is np.int64
        assert dtype_for(RingSpec(3037000507, 1)) is object


def test_verify_parity_witness_at_float_tier():
    ring = RingSpec(2, 4)
    m = ring.modulus
    rng = random.Random(7)
    g = random_matrix(ring, 40, 60, rng)
    h = parity_check_iterative(standard_form(g)).h_unpermuted
    assert _tier((m - 1) ** 2, g.ncols) is np.float32
    assert verify_parity(g, h) == (True, None)
    bad = h.data.copy()
    for _ in range(2):
        r, c = rng.randrange(h.nrows), rng.randrange(h.ncols)
        bad[r, c] = (bad[r, c] + 1 + rng.randrange(m - 1)) % m
    product = _python_product(g.data, bad.T, m)
    witness = next(
        (i + 1, j + 1) for i, row in enumerate(product) for j, x in enumerate(row) if x
    )
    assert verify_parity(g, Matrix(ring, bad)) == (False, witness)
