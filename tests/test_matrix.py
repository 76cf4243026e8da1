import random

import numpy as np
import pytest

from zpscodes import (
    Matrix,
    Permutation,
    RingSpec,
    apply_col_permutation,
    format_matrix,
    identity,
    insert_block,
    mat_add,
    mat_mul,
    mat_scalar,
    mat_transpose,
    parity_check_iterative,
    parse_matrix,
    standard_form,
    verify_parity,
    zeros,
)
from zpscodes.matrix import (
    _FORMAT_CHUNK,
    FLOAT_MIN_MACS,
    ParseError,
    ShapeError,
    _matmul_reduced,
    _product_dtype,
    extract_block,
)
from zpscodes.zring import RingMismatchError

from helpers import entrywise_parse_matrix, random_matrix, row_format_matrix

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
        assert apply_col_permutation(apply_col_permutation(a, pi), pi.inverse()) == a
        assert pi.inverse().inverse() == pi


def test_permutation_sign():
    assert Permutation.identity(4).sign() == 1
    assert Permutation([2, 1, 3]).sign() == -1
    assert Permutation([3, 1, 2]).sign() == 1


def test_text_format_round_trip():
    rng = random.Random(5)
    for ring in [Z4, RingSpec(3, 2), RingSpec(2, 1)]:
        m = random_matrix(ring, rng.randint(0, 3), rng.randint(1, 4), rng)
        again = parse_matrix(format_matrix(m))
        assert again == m


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
        assert mat_scalar(m - 1, a).tolist() == [[1, 2]]
        assert mat_mul(mat_transpose(a), a).tolist() == [[1, 2], [2, 4]]
        assert mat_add(a, a).tolist() == [[m - 2, m - 4]]


def _python_product(a, b, m):
    return [
        [sum(int(x) * int(y) for x, y in zip(row, col)) % m for col in zip(*b)]
        for row in a
    ]


@pytest.mark.parametrize("p,s,k_float", [(2, 26, 2), (3, 16, 4)])
def test_float_tier_boundary(p, s, k_float):
    # k_float is the largest inner dimension with k (m - 1)^2 < 2^53.
    ring = RingSpec(p, s)
    m = ring.modulus
    outer = 64  # outer * k * outer multiply-adds pass the size gate
    assert outer * outer * k_float >= FLOAT_MIN_MACS
    assert _product_dtype(m, k_float, outer * outer * k_float) is np.float64
    assert _product_dtype(m, k_float + 1, outer * outer * (k_float + 1)) is np.int64
    for k in (k_float, k_float + 1):
        # Entries m - 1, and m - 2 in the last place when p is odd, so that
        # past the bound each entry of the exact product is an odd sum.
        a = np.full((outer, k), m - 1, dtype=np.int64)
        if p % 2:
            a[:, -1] = m - 2
        exact = sum(int(x) * int(x) for x in a[0])
        assert (exact < 2 ** 53) == (k == k_float)
        if k > k_float:
            # float64 would round it: above 2^53 it holds only even integers.
            assert exact % 2 == 1
            assert int(float(exact)) != exact
        got = _matmul_reduced(a, a.T.copy(), ring)
        assert got.dtype == np.int64
        assert np.all(got == exact % m)


def test_float_tier_size_gate():
    ring = RingSpec(2, 4)
    m = ring.modulus
    rng = random.Random(6)
    # 16 x 16 x 16 is exactly FLOAT_MIN_MACS multiply-adds; one row fewer
    # falls below the gate.
    assert 16 * 16 * 16 == FLOAT_MIN_MACS
    for rows, dtype in [(15, np.int64), (16, np.float64)]:
        assert _product_dtype(m, 16, rows * 16 * 16) is dtype
        a = random_matrix(ring, rows, 16, rng).data
        b = random_matrix(ring, 16, 16, rng).data
        assert _matmul_reduced(a, b, ring).tolist() == _python_product(a, b, m)


def test_verify_parity_witness_at_float_tier():
    ring = RingSpec(2, 4)
    m = ring.modulus
    rng = random.Random(7)
    g = random_matrix(ring, 40, 60, rng)
    h = parity_check_iterative(standard_form(g)).h_unpermuted
    assert _product_dtype(m, g.ncols, g.nrows * g.ncols * h.nrows) is np.float64
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
