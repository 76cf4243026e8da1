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
    parse_matrix,
    zeros,
)
from zpscodes.matrix import ParseError, ShapeError, extract_block
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
