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
    identity,
    parity_check_bruteforce,
    parity_check_iterative,
    parity_check_minors,
    random_code,
    standard_form,
    verify_parity,
    z4_parity_check,
    zeros,
)
from zpscodes.matrix import BlockLayout
from zpscodes.paritycheck import BudgetExceededError
from zpscodes.zring import DomainError

from helpers import gh_transpose_is_zero, random_matrix, random_type, rows_as_set, row_span_set

Z4 = RingSpec(2, 2)
Z4_EXAMPLE = Matrix(Z4, [[1, 1, 2], [0, 2, 2]])


def test_quaternary_hand_example():
    sf = standard_form(Z4_EXAMPLE)
    result = parity_check_minors(sf)
    assert rows_as_set(result.h) == {(3, 3, 1), (2, 2, 0)}
    ok, _ = verify_parity(sf.matrix, result.h)
    assert ok
    dual = parity_check_bruteforce(Z4_EXAMPLE)
    assert rows_as_set(dual) == row_span_set(result.h_unpermuted)


def test_methods_identical_on_example():
    sf = standard_form(Z4_EXAMPLE)
    assert parity_check_minors(sf).h == parity_check_iterative(sf).h


def test_s1_classical_layout():
    # H = (-A^T | Id) for s = 1
    ring = RingSpec(3, 1)
    sf = standard_form(Matrix(ring, [[1, 0, 2, 1], [0, 1, 1, 2]]))
    result = parity_check_iterative(sf)
    a = np.array([[2, 1], [1, 2]])
    want = np.hstack([(-a.T) % 3, np.eye(2, dtype=np.int64)])
    assert np.array_equal(result.h.data, want)
    assert result.counters.total_block_ops() == 0


def test_s3_block_structure_example():
    # Block pattern of the s = 3 transposed parity-check matrix.
    ring = RingSpec(2, 3)
    rng = random.Random(60)
    code = random_code(ring, 7, (1, 2, 1), 123)
    sf = code.standard
    result = parity_check_minors(sf)
    layout = sf.layout
    n, t = layout.n, layout.total
    ht = result.h.data.T
    from zpscodes.stdform import extract_blocks
    from zpscodes import mat_mul

    blk = extract_blocks(sf)
    m = ring.modulus
    a12, a13, a14 = blk[(1, 2)].data, blk[(1, 3)].data, blk[(1, 4)].data
    a23, a24, a34 = blk[(2, 3)].data, blk[(2, 4)].data, blk[(3, 4)].data
    h11 = (-(a12 @ a23 @ a34 + a14 - a12 @ a24 - a13 @ a34)) % m
    h21 = (a23 @ a34 - a24) % m
    h31 = (-a34) % m
    h12 = (2 * (a12 @ a23 - a13)) % m
    h22 = (-2 * a23) % m
    h13 = (-4 * a12) % m
    t1, t2, t3 = layout.t
    rows = np.cumsum([0, t1, t2, t3])
    want = np.zeros((n, n - t1), dtype=np.int64)
    want[rows[0]:rows[1], :n - t] = h11
    want[rows[1]:rows[2], :n - t] = h21
    want[rows[2]:rows[3], :n - t] = h31
    want[t:, :n - t] = np.eye(n - t)
    c = n - t
    want[rows[0]:rows[1], c:c + t3] = h12
    want[rows[1]:rows[2], c:c + t3] = h22
    want[rows[2]:rows[3], c:c + t3] = 2 * np.eye(t3)
    c += t3
    want[rows[0]:rows[1], c:c + t2] = h13
    want[rows[1]:rows[2], c:c + t2] = 4 * np.eye(t2)
    assert np.array_equal(ht, want)


@pytest.mark.parametrize("trial", range(25))
def test_methods_entrywise_equal_randomized(trial):
    rng = random.Random(1000 + trial)
    p = rng.choice([2, 3, 5])
    s = rng.randint(1, 6)
    ring = RingSpec(p, s)
    n = rng.randint(s, 12)
    code = random_code(ring, n, random_type(n, s, rng), rng.randrange(2 ** 30))
    res_m = parity_check_minors(code.standard)
    res_i = parity_check_iterative(code.standard)
    assert res_m.h == res_i.h
    assert res_m.h_unpermuted == res_i.h_unpermuted


# Odd moduli above 2^31.5, where an int64 product of two entries overflows.
# Minors costs 2^s block ops, so it runs only at small s.
@pytest.mark.parametrize("p,s,constructions", [
    pytest.param(2147483647, 2, (parity_check_minors, parity_check_iterative), id="(2^31-1)^2"),
    pytest.param(46337, 4, (parity_check_minors, parity_check_iterative), id="46337^4"),
    pytest.param(3, 21, (parity_check_iterative,), id="3^21"),
    pytest.param(3, 39, (parity_check_iterative,), id="3^39"),
    pytest.param(7, 22, (parity_check_iterative,), id="7^22"),
])
def test_parity_exact_on_large_moduli(p, s, constructions):
    ring = RingSpec(p, s)
    n = s + 2
    for seed in range(5):
        code = random_code(ring, n, (1,) * s, seed)
        hs = [construct(code.standard).h_unpermuted for construct in constructions]
        for h in hs:
            assert h.nrows == n - 1
            assert gh_transpose_is_zero(code.generators, h)
        assert all(h == hs[0] for h in hs)


def test_bruteforce_trivial_codes():
    ring = RingSpec(2, 2)
    # zero code: dual is the whole ambient space
    dual = parity_check_bruteforce(zeros(ring, 0, 2))
    assert dual.nrows == 16
    # full code: dual is {0}
    dual = parity_check_bruteforce(identity(ring, 2))
    assert dual.nrows == 1
    assert not dual.data.any()


def test_bruteforce_budget():
    ring = RingSpec(2, 6)
    with pytest.raises(BudgetExceededError):
        parity_check_bruteforce(zeros(ring, 0, 5))  # 64^5 = 2^30


def test_dual_type_examples():
    assert dual_type(BlockLayout(10, (2, 1, 1))).t == (6, 1, 1)
    assert dual_type(BlockLayout(4, (4,))).t == (0,)
    layout = BlockLayout(9, (1, 2, 3))
    assert dual_type(layout).t == (3, 3, 2)
    # row count of H equals the dual type total
    code = random_code(RingSpec(2, 3), 9, (1, 2, 3), 7)
    h = parity_check_iterative(code.standard).h
    assert h.nrows == dual_type(layout).total


def test_verify_parity_failure_certificate():
    ring = Z4
    one = Matrix(ring, [[1]])
    ok, witness = verify_parity(one, one)
    assert not ok and witness == (1, 1)


def test_verify_detects_corruption():
    rng = random.Random(70)
    for _ in range(10):
        n = rng.randint(2, 5)
        gens = random_matrix(Z4, rng.randint(1, n), n, rng)
        sf = standard_form(gens)
        h = parity_check_minors(sf).h
        ok, _ = verify_parity(sf.matrix, h)
        assert ok
        if h.nrows == 0 or not sf.matrix.data.any():
            continue
        # corrupt one entry that meets a nonzero generator column
        cols = [c for c in range(n) if sf.matrix.data[:, c].any()]
        c = rng.choice(cols)
        r = rng.randrange(h.nrows)
        bad = h.data.copy()
        delta = rng.randrange(1, 4)
        bad[r, c] = (bad[r, c] + delta) % 4
        bad_h = Matrix(Z4, bad)
        ok2, witness = verify_parity(sf.matrix, bad_h)
        # recheck against brute force: corrupted row must leave the dual
        # whenever the product became nonzero
        if not ok2:
            dual = rows_as_set(parity_check_bruteforce(sf.matrix))
            assert tuple(int(x) for x in bad[r]) not in dual


def test_z4_construction_matches_minors_code():
    rng = random.Random(80)
    for _ in range(30):
        n = rng.randint(1, 6)
        gens = random_matrix(Z4, rng.randint(0, n), n, rng)
        sf = standard_form(gens)
        h_z4 = z4_parity_check(sf)
        h_min = parity_check_minors(sf).h
        assert codes_equal(CodeSpec(h_z4), CodeSpec(h_min))


def test_z4_without_order_two_part():
    # T = 0: the RT term vanishes
    sf = standard_form(Matrix(Z4, [[1, 0, 3, 1], [0, 1, 2, 2]]))
    assert sf.layout.t == (2, 0)
    h = z4_parity_check(sf)
    s_blk = np.array([[3, 1], [2, 2]])
    want = np.hstack([(-s_blk.T) % 4, np.eye(2, dtype=np.int64)])
    assert np.array_equal(h.data, want)


def test_z4_requires_quaternary_ring():
    ring = RingSpec(3, 2)
    sf = standard_form(zeros(ring, 0, 2))
    with pytest.raises(DomainError):
        z4_parity_check(sf)


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 2)])
def test_dual_span_equals_bruteforce(p, s):
    ring = RingSpec(p, s)
    rng = random.Random(90 + p + s)
    for _ in range(10):
        n = rng.randint(1, 4)
        gens = random_matrix(ring, rng.randint(0, n + 1), n, rng)
        sf = standard_form(gens)
        for construct in (parity_check_minors, parity_check_iterative):
            h = construct(sf).h_unpermuted
            assert row_span_set(h) == rows_as_set(parity_check_bruteforce(gens))


def test_cardinality_product_identity():
    rng = random.Random(95)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        s = rng.randint(1, 5)
        n = rng.randint(s, 10)
        layout = BlockLayout(n, random_type(n, s, rng))
        assert cardinality(layout, p) * cardinality(dual_type(layout), p) == p ** (s * n)


def test_double_dual_recovers_code():
    rng = random.Random(96)
    for _ in range(15):
        p, s = rng.choice([(2, 2), (3, 2), (2, 3)])
        ring = RingSpec(p, s)
        n = rng.randint(1, 8)
        gens = random_matrix(ring, rng.randint(0, n), n, rng)
        code = CodeSpec(gens)
        h = parity_check_iterative(code.standard).h_unpermuted
        hh = parity_check_iterative(standard_form(h)).h_unpermuted
        assert codes_equal(code, CodeSpec(hh))


def test_counters_deterministic():
    code = random_code(RingSpec(3, 5), 20, (2,) * 5, 42)
    first = parity_check_minors(code.standard).counters
    second = parity_check_minors(code.standard).counters
    assert (first.big_mults, first.big_adds, first.small_mults, first.small_adds) == (
        second.big_mults, second.big_adds, second.small_mults, second.small_adds
    )
    assert first.hist == second.hist


def test_degenerate_full_length_type():
    # n - t = 0: the wide column group is empty
    ring = RingSpec(2, 2)
    code = random_code(ring, 3, (2, 1), 5)
    result = parity_check_minors(code.standard)
    assert result.h.nrows == dual_type(code.layout).total == 1
    ok, _ = verify_parity(code.standard.matrix, result.h)
    assert ok
