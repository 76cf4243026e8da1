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
    FLOAT_MIN_MACS,
    ParseError,
    ShapeError,
    _matmul_reduced,
    _product_dtype,
    extract_block,
)
from zpscodes.zring import RingMismatchError

from helpers import random_matrix

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
