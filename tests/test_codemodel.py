import itertools
import random

import numpy as np
import pytest

from zpscodes import (
    CodeSpec,
    Matrix,
    RingSpec,
    cardinality,
    codes_equal,
    dual_type,
    enumerate_codewords,
    identity,
    is_member,
    zeros,
)
from zpscodes.codemodel import ENUMERATION_BUDGET
from zpscodes.matrix import BlockLayout, ShapeError
from zpscodes.zring import DomainError, RingMismatchError

from helpers import random_matrix, random_type, row_span_set

Z4 = RingSpec(2, 2)


def test_zero_code_enumeration():
    code = CodeSpec(zeros(Z4, 0, 3))
    words = enumerate_codewords(code)
    assert words.shape == (1, 3)
    assert not words.any()


def test_eight_word_example():
    # generated by (1,1,2) and (0,2,2): the 8-element quaternary code
    code = CodeSpec(Matrix(Z4, [[1, 1, 2], [0, 2, 2]]))
    words = {tuple(int(x) for x in w) for w in enumerate_codewords(code)}
    assert words == row_span_set(code.generators)
    assert len(words) == 8 == cardinality(code.layout, 2)


def test_enumeration_duplicate_free():
    rng = random.Random(200)
    for _ in range(15):
        p, s = rng.choice([(2, 1), (2, 2), (3, 2), (2, 3)])
        ring = RingSpec(p, s)
        n = rng.randint(1, 4)
        code = CodeSpec(random_matrix(ring, rng.randint(0, n + 1), n, rng))
        words = enumerate_codewords(code)
        unique = {tuple(int(x) for x in w) for w in words}
        assert len(unique) == words.shape[0] == cardinality(code.layout, p)
        assert unique == row_span_set(code.generators)


def test_enumeration_budget():
    code = CodeSpec(identity(RingSpec(2, 3), 8))  # 8^8 = 2^24 codewords
    with pytest.raises(DomainError):
        enumerate_codewords(code)
    assert ENUMERATION_BUDGET == 2 ** 20


@pytest.mark.parametrize("p,s,group", [(3, 39, 30), (5, 27, 27)])
def test_enumeration_exact_on_large_moduli(p, s, group):
    # One generator of valuation group - 1: coefficients times entries
    # overflow int64 products.
    ring = RingSpec(p, s)
    m = ring.modulus
    rng = random.Random(s)
    u = [p ** (group - 1) * rng.randrange(1, m) % m for _ in range(3)]
    u[0] = p ** (group - 1)
    words = enumerate_codewords(CodeSpec(Matrix(ring, [u])))
    want = {tuple(c * x % m for x in u) for c in range(p ** (s - group + 1))}
    assert {tuple(int(x) for x in w) for w in words} == want
    assert words.shape[0] == len(want)


def test_cardinality_formula_values():
    assert cardinality(BlockLayout(3, (1, 1)), 2) == 8
    assert cardinality(BlockLayout(10, (2, 1, 1)), 3) == 3 ** 9
    assert cardinality(BlockLayout(5, (0, 0)), 2) == 1


def test_membership_agrees_with_enumeration():
    rng = random.Random(201)
    for _ in range(10):
        p, s = rng.choice([(2, 2), (3, 1), (2, 3)])
        ring = RingSpec(p, s)
        n = rng.randint(1, 3)
        if ring.modulus ** n > 2 ** 12:
            n = 2
        code = CodeSpec(random_matrix(ring, rng.randint(0, n), n, rng))
        words = {tuple(int(x) for x in w) for w in enumerate_codewords(code)}
        for v in itertools.product(range(ring.modulus), repeat=n):
            assert is_member(code, v) == (v in words)


def test_membership_closure_spot_checks():
    rng = random.Random(202)
    ring = RingSpec(3, 2)
    code = CodeSpec(random_matrix(ring, 3, 6, rng))
    words = enumerate_codewords(code)
    m = ring.modulus
    for _ in range(50):
        a = words[rng.randrange(words.shape[0])]
        b = words[rng.randrange(words.shape[0])]
        assert is_member(code, (a + b) % m)
        assert is_member(code, (-a) % m)


def test_codes_equal_basic():
    a = CodeSpec(Matrix(Z4, [[1, 1, 2], [0, 2, 2]]))
    # redundant generating set of the same code
    b = CodeSpec(Matrix(Z4, [[1, 1, 2], [0, 2, 2], [2, 2, 0], [1, 3, 0]]))
    assert codes_equal(a, b)
    c = CodeSpec(Matrix(Z4, [[1, 0, 0]]))
    assert not codes_equal(a, c)


def test_codes_equal_rejects_mismatched_ambient():
    a = CodeSpec(zeros(Z4, 0, 3))
    with pytest.raises(RingMismatchError):
        codes_equal(a, CodeSpec(zeros(RingSpec(3, 2), 0, 3)))
    with pytest.raises(ShapeError):
        codes_equal(a, CodeSpec(zeros(Z4, 0, 4)))


def test_codes_equal_randomized_shuffles():
    rng = random.Random(203)
    for _ in range(15):
        p, s = rng.choice([(2, 2), (2, 3), (3, 2)])
        ring = RingSpec(p, s)
        n = rng.randint(1, 5)
        gens = random_matrix(ring, rng.randint(1, n), n, rng)
        code = CodeSpec(gens)
        # same rows, shuffled plus a random row combination appended
        rows = gens.tolist()
        rng.shuffle(rows)
        coeffs = [rng.randrange(ring.modulus) for _ in range(gens.nrows)]
        combo = [
            sum(c * int(x) for c, x in zip(coeffs, col)) % ring.modulus
            for col in gens.data.T
        ]
        other = CodeSpec(Matrix(ring, rows + [combo]))
        assert codes_equal(code, other)
        # cross-check against the closure oracle when the spans stay small
        bumped = gens.data.copy()
        bumped[rng.randrange(gens.nrows), rng.randrange(n)] += 1
        changed = CodeSpec(Matrix(ring, bumped % ring.modulus))
        if ring.modulus ** n <= 2 ** 12:
            assert codes_equal(code, changed) == (
                row_span_set(gens) == row_span_set(changed.generators)
            )


def test_dual_type_total_matches_cardinality_quotient():
    rng = random.Random(204)
    for _ in range(20):
        p = rng.choice([2, 3])
        s = rng.randint(1, 4)
        n = rng.randint(s, 8)
        layout = BlockLayout(n, random_type(n, s, rng))
        dt = dual_type(layout)
        assert dt.n == n and dt.s == s
        assert cardinality(dt, p) == p ** (s * n) // cardinality(layout, p)
