import random
import tracemalloc

import numpy as np
import pytest

from zpscodes import (
    Matrix,
    OpCounters,
    RingSpec,
    dual_type,
    format_matrix,
    parity_check_bruteforce,
    parity_check_iterative,
    parity_check_minors,
    parse_matrix,
    predicted_counts_iterative,
    predicted_counts_minors,
    random_code,
    standard_form,
    verify_parity,
)
from zpscodes import matrix, minors, paritycheck, stdform
from zpscodes.matrix import (
    BlockLayout, Permutation, ShapeError, apply_col_permutation, dtype_for, identity, zeros,
)
from zpscodes.stdform import StandardForm, extract_blocks
from zpscodes.paritycheck import BudgetExceededError
from zpscodes.zring import DomainError

from codemodel import CodeSpec, cardinality, codes_equal
from helpers import (
    DEGENERATE_CASES,
    chunk_spy,
    degenerate_type,
    gh_transpose_is_zero,
    inverse,
    miscount_big_mults,
    random_matrix,
    random_type,
    rows_as_set,
    row_span_set,
    sequential_standard_form,
    tree_minor,
    unimodular_row_mix,
)
from oracles import z4_parity_check

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
    assert result.counters == OpCounters()


@pytest.mark.parametrize("construct", [parity_check_minors, parity_check_iterative])
@pytest.mark.parametrize("p,n,t", [
    pytest.param(2, 7, (1, 2, 1), id="2^3"),
    pytest.param(2, 5, (1, 0, 1), id="2^3-t2=0"),
    pytest.param(2, 4, (1, 2, 1), id="2^3-n=t"),
    pytest.param(1451, 7, (1, 2, 1), id="1451^3"),
])
def test_s3_block_structure_example(construct, p, n, t):
    # Block pattern of the s = 3 transposed parity-check matrix, written out
    # by hand with python-int blocks: where each p^(j-1)-scaled block lands.
    ring = RingSpec(p, 3)
    sf = random_code(ring, n, t, 123)
    result = construct(sf)
    blk = {key: b.data.astype(object) for key, b in extract_blocks(sf).items()}
    m = ring.modulus
    a12, a13, a14 = blk[(1, 2)], blk[(1, 3)], blk[(1, 4)]
    a23, a24, a34 = blk[(2, 3)], blk[(2, 4)], blk[(3, 4)]
    h11 = -(a12 @ a23 @ a34 + a14 - a12 @ a24 - a13 @ a34)
    h21 = a23 @ a34 - a24
    h31 = -a34
    h12 = p * (a12 @ a23 - a13)
    h22 = -p * a23
    h13 = -p * p * a12
    t1, t2, t3 = t
    w = n - sum(t)
    rows = np.cumsum([0, t1, t2, t3])
    want = np.zeros((n, n - t1), dtype=object)
    want[rows[0]:rows[1], :w] = h11
    want[rows[1]:rows[2], :w] = h21
    want[rows[2]:rows[3], :w] = h31
    want[rows[3]:, :w] = np.eye(w, dtype=np.int64)
    c = w
    want[rows[0]:rows[1], c:c + t3] = h12
    want[rows[1]:rows[2], c:c + t3] = h22
    want[rows[2]:rows[3], c:c + t3] = p * np.eye(t3, dtype=np.int64)
    c += t3
    want[rows[0]:rows[1], c:c + t2] = h13
    want[rows[1]:rows[2], c:c + t2] = p * p * np.eye(t2, dtype=np.int64)
    assert result.h.data.T.tolist() == (want % m).tolist()


@pytest.mark.parametrize("trial", range(25))
def test_methods_entrywise_equal_randomized(trial):
    rng = random.Random(1000 + trial)
    p = rng.choice([2, 3, 5])
    s = rng.randint(1, 6)
    ring = RingSpec(p, s)
    n = rng.randint(s, 12)
    code = random_code(ring, n, random_type(n, s, rng), rng.randrange(2 ** 30))
    res_m = parity_check_minors(code)
    res_i = parity_check_iterative(code)
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
        hs = [construct(code).h_unpermuted for construct in constructions]
        for h in hs:
            assert h.nrows == n - 1
            assert gh_transpose_is_zero(code.matrix, h)
        assert all(h == hs[0] for h in hs)


def _arbitrary_generators(ring, n, rng):
    """Rows of random valuations, redundant combinations of them and a zero
    row, shuffled, with random entries in every column: not a standard
    form."""
    m = ring.modulus
    scales = [ring.p ** rng.randrange(ring.s) for _ in range(7)]
    base = [[c * rng.randrange(m) % m for _ in range(n)] for c in scales]
    combos = [[sum(c * row[j] for c, row in zip(coeffs, base)) % m for j in range(n)]
              for coeffs in ([rng.randrange(m) for _ in base] for _ in range(3))]
    rows = base + combos + [[0] * n]
    rng.shuffle(rows)
    return Matrix(ring, np.array(rows, dtype=object))


# At each storage edge: the largest int64 prime, the largest p^2 stored as
# int64, 2^26 where (m - 1)^2 * 2 < 2^53 still takes the float64 tier, and
# rings stored as python ints, up to the largest prime below 2^63 and 2^62,
# whose 19-digit entries the formatter writes through uint64.
@pytest.mark.parametrize("p,s", [(3037000493, 1), (55103, 2), (2, 26), (55109, 2), (3, 39),
                                 (9223372036854775783, 1), (2, 62)])
@pytest.mark.parametrize("seed", range(3))
def test_arbitrary_generators_at_storage_edges(p, s, seed):
    ring = RingSpec(p, s)
    rng = random.Random(f"edges:{p}^{s}:{seed}")
    n = 14
    g = _arbitrary_generators(ring, n, rng)
    sf = standard_form(g)
    constructions = [parity_check_iterative] + ([parity_check_minors] if s <= 8 else [])
    hs = [construct(sf) for construct in constructions]
    for result in hs:
        assert result.h.nrows == n - sf.layout.t[0]
        assert gh_transpose_is_zero(g, result.h_unpermuted)
        assert gh_transpose_is_zero(sf.matrix, result.h)
    assert all(result.h == hs[0].h for result in hs)
    assert all(parse_matrix(format_matrix(result.h)) == result.h for result in hs)


def _layout_cases(s):
    """(id, n, t): all t_i = 1 with n - t = 2, a zero t_i first, in the
    middle and last, and n = t."""
    ones = [1] * s
    cases = [("full", s + 2, ones)]
    for name, at in (("t1=0", 0), ("tmid=0", s // 2), ("ts=0", s - 1)):
        t = ones.copy()
        t[at] = 0
        cases.append((name, s + 1, t))
    cases.append(("n=t", s, ones))
    return cases


def _per_group_counts(n, t, pairs):
    """(big, small) block pairs from the closed form pairs(c) of one column
    group, c = s + 1 - j the length of group j's block chain, summed over
    the groups of nonzero width: n - t for j = 1, t_{s+2-j} for j >= 2.
    With every width nonzero these are the paper's totals."""
    s = len(t)
    big = pairs(s) if n > sum(t) else 0
    small = sum(pairs(s + 1 - j) for j in range(2, s + 1) if t[s + 1 - j])
    return big, small


def _minors_pairs(c):
    return 2 ** c - 1 - c


def _iterative_pairs(c):
    return c * (c - 1) // 2


# Odd and even p, int64 storage (2^4, 3^13) and python ints (3^21, 1451^3).
# Minors at s = 21 is over MINORS_BUDGET, so there it must refuse and only
# the iterative side is checked.
@pytest.mark.parametrize("p,s,case", [
    pytest.param(p, s, case, id=f"{p}^{s}-{case[0]}")
    for p, s in ((2, 4), (3, 13), (3, 21), (1451, 3))
    for case in _layout_cases(s)
])
def test_methods_differential(p, s, case, monkeypatch):
    _, n, t = case
    ring = RingSpec(p, s)
    code = random_code(ring, n, t, p * 1000 + s)
    # Shuffle the columns so the standard form has a nontrivial permutation.
    rng = random.Random(p + s + n)
    order = list(range(n))
    rng.shuffle(order)
    generators = Matrix(ring, code.matrix.data[:, order])
    sf = standard_form(generators)
    assert sf.layout.t == tuple(t)
    constructions = [(parity_check_iterative, _iterative_pairs)]
    if predicted_counts_minors(s)[0] <= paritycheck.MINORS_BUDGET:
        constructions.append((parity_check_minors, _minors_pairs))
    else:
        with pytest.raises(BudgetExceededError):
            parity_check_minors(sf)
    results = []
    for construct, pairs in constructions:
        result = construct(sf)
        results.append(result)
        assert gh_transpose_is_zero(generators, result.h_unpermuted)
        big, small = _per_group_counts(n, t, pairs)
        c = result.counters
        assert (c.big_mults, c.big_adds, c.small_mults, c.small_adds) == (big, big, small, small)
    assert all(r.h == results[0].h for r in results)
    assert all(r.h_unpermuted == results[0].h_unpermuted for r in results)
    # The counter self-test still sees a wide product recorded twice.
    miscount_big_mults(monkeypatch)
    for construct, pairs in constructions:
        big, _ = _per_group_counts(n, t, pairs)
        assert construct(sf).counters.big_mults == 2 * big


def test_per_group_counts_sum_to_paper_totals():
    for s in range(1, 13):
        ones = (1,) * s
        assert _per_group_counts(s + 1, ones, _minors_pairs) == predicted_counts_minors(s)
        assert _per_group_counts(s + 1, ones, _iterative_pairs) == predicted_counts_iterative(s)


def test_minors_budget(monkeypatch):
    # s = 16 (AC9) is well inside the budget.
    code = random_code(RingSpec(2, 16), 18, (1,) * 16, 3)
    result = parity_check_minors(code)
    assert result.h == parity_check_iterative(code).h
    # 2^62 - 63 big pairs: refused before the table is built.
    def no_work(sf, counters):
        raise AssertionError("table built over the budget")

    monkeypatch.setattr(paritycheck, "BlockMinorTable", no_work)
    with pytest.raises(BudgetExceededError):
        parity_check_minors(standard_form(Matrix(RingSpec(2, 62), [[1, 1]])))


def test_minors_budget_boundary(monkeypatch):
    # 2^s - 1 - s equal to the budget runs; one more s is refused.
    monkeypatch.setattr(paritycheck, "MINORS_BUDGET", 2 ** 4 - 1 - 4)
    parity_check_minors(random_code(RingSpec(2, 4), 6, (1,) * 4, 0))
    with pytest.raises(BudgetExceededError):
        parity_check_minors(random_code(RingSpec(2, 5), 7, (1,) * 5, 0))


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_minors_memory_within_tree_budget():
    # The level arrays of the minors recursion stay within their budget: its
    # peak exceeds the iterative construction's on the same code (which both
    # spend mostly on H) by at most minors._TREE_BYTES, and its largest tree
    # alone, temporaries included, peaks below twice the budget.
    s = 16
    code = random_code(RingSpec(3, s), 1000, (2,) * s, 7950)
    peak_minors = _traced_peak(parity_check_minors, code)
    peak_iterative = _traced_peak(parity_check_iterative, code)
    assert peak_minors - peak_iterative <= minors._TREE_BYTES
    table = minors.BlockMinorTable(code)
    assert _traced_peak(tree_minor, table, 1, s) < 2 * minors._TREE_BYTES


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
    h = parity_check_iterative(code).h
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
    first = parity_check_minors(code).counters
    second = parity_check_minors(code).counters
    assert (first.big_mults, first.big_adds, first.small_mults, first.small_adds) == (
        second.big_mults, second.big_adds, second.small_mults, second.small_adds
    )
    assert first.hist == second.hist


@pytest.mark.parametrize("case", DEGENERATE_CASES)
@pytest.mark.parametrize("p,s", [(2, 2), (2, 4), (3, 5), (55109, 2)])
def test_degenerate_types_both_constructions(p, s, case):
    ring = RingSpec(p, s)
    n, t = degenerate_type(case, s)
    code = random_code(ring, n, t, 17)
    dual = dual_type(code.layout)
    assert dual == BlockLayout(n, (n - sum(t),) + tuple(reversed(t[1:])))
    assert cardinality(code.layout, p) * cardinality(dual, p) == p ** (s * n)
    h = parity_check_minors(code).h
    assert h == parity_check_iterative(code).h
    assert h.shape == (dual.total, n)
    assert gh_transpose_is_zero(code.matrix, h)
    # H generates a code of the dual type.
    assert standard_form(h).layout == dual
    # The same code with shuffled columns, in both coordinate systems: the
    # standard form's, and the caller's generators.
    order = list(range(n))
    random.Random(17).shuffle(order)
    g = Matrix(ring, code.matrix.data[:, order])
    sf = standard_form(g)
    assert sf.layout == code.layout
    assert standard_form(unimodular_row_mix(g, random.Random(17))) == sf
    results = [parity_check_minors(sf), parity_check_iterative(sf)]
    for result in results:
        assert gh_transpose_is_zero(sf.matrix, result.h)
        assert gh_transpose_is_zero(g, result.h_unpermuted)
    assert results[0].h_unpermuted == results[1].h_unpermuted


# The degenerate grid, plus two rings stored as Python ints, where minors
# runs only within its budget.
@pytest.mark.parametrize("case", DEGENERATE_CASES)
@pytest.mark.parametrize("p,s", [(2, 2), (2, 4), (3, 5), (55109, 2), (3, 21), (1451, 3)])
def test_h_is_built_from_h_unpermuted(p, s, case):
    ring = RingSpec(p, s)
    n, t = degenerate_type(case, s)
    code = random_code(ring, n, t, 23)
    order = list(range(n))
    random.Random(23).shuffle(order)
    g = Matrix(ring, code.matrix.data[:, order])
    sf = standard_form(g)
    constructions = [parity_check_iterative]
    if predicted_counts_minors(s)[0] <= paritycheck.MINORS_BUDGET:
        constructions.append(parity_check_minors)
    for construct in constructions:
        result = construct(sf)
        assert "h" not in vars(result)  # not built until read
        h, hu = result.h, result.h_unpermuted
        assert result.h is h
        assert h == apply_col_permutation(hu, sf.perm)
        assert hu == apply_col_permutation(h, inverse(sf.perm))
        for m in (h, hu):
            assert m.data.dtype == dtype_for(ring)
            assert not m.data.flags.writeable
            assert m.data.flags.c_contiguous
        assert gh_transpose_is_zero(sf.matrix, h)
        assert gh_transpose_is_zero(g, hu)


# A StandardForm whose matrix or permutation does not fit its layout: one
# row too many (without the check, both constructions return an H with
# G H^T != 0), one too few, and a permutation of the wrong degree.
@pytest.mark.parametrize("case", ["extra row", "short matrix", "perm degree"])
@pytest.mark.parametrize("construct", [parity_check_minors, parity_check_iterative])
def test_standard_form_must_fit_its_layout(construct, case):
    code = random_code(Z4, 6, (2, 1), 5)
    data, perm = code.matrix.data, code.perm
    if case == "extra row":
        data = np.vstack([data, np.ones((1, 6), np.int64)])
    elif case == "short matrix":
        data = data[:-1]
    else:
        perm = Permutation.identity(5)
    with pytest.raises(ShapeError, match="do not fit the type"):
        construct(StandardForm(Matrix(Z4, data), code.layout, perm))


def test_iterative_stores_only_the_computed_rows_of_ht():
    # Only the first t rows of H^T depend on the code: the construction holds
    # them and h_unpermuted, written once, and frees the rows when it returns.
    # Holding all n rows of H^T, or a second copy of H, costs n x (n - t_1).
    code = random_code(RingSpec(3, 10), 1000, (2,) * 10, 8101)
    layout = code.layout
    rows_bytes = layout.total * (layout.n - layout.t[0]) * 8
    held = []

    def construct(sf):
        held.append(parity_check_iterative(sf))
        held.append(tracemalloc.get_traced_memory()[0])

    peak = _traced_peak(construct, code)
    result, current = held
    h = result.h_unpermuted.data
    assert h.flags.c_contiguous
    assert peak <= h.nbytes + 2 * rows_bytes
    assert current < h.nbytes + rows_bytes


def test_iterative_is_one_kernel_call_per_row_group(monkeypatch):
    # The back-substitution makes one product-kernel call per row group,
    # whichever module calls the kernel, and still counts the paper's
    # per-block recurrence.
    calls, kernel = [], paritycheck._matmul_reduced

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return kernel(*args, **kwargs)

    for module in (paritycheck, minors, stdform, matrix):
        monkeypatch.setattr(module, "_matmul_reduced", spy)
    s = 10
    code = random_code(RingSpec(3, s), 1000, (2,) * s, 7)
    c = parity_check_iterative(code).counters
    assert 0 < len(calls) <= s
    big, small = predicted_counts_iterative(s)
    assert (c.big_mults, c.big_adds, c.small_mults, c.small_adds) == (big, big, small, small)


def test_generic_gen_products_run_in_float32(monkeypatch):
    # Shaped like the generic-gen benchmark over Z_16: a random standard
    # form with redundant rows added, mixed by unit triangular matrices, rows
    # and columns shuffled.  Every partial sum of every product is below
    # 15^2 * 240 < 2^24, so each panel flush of standard_form and the
    # product of verify_parity run exactly in float32.
    ring = RingSpec(2, 4)
    m, rng = ring.modulus, np.random.default_rng(17)
    base = random_code(ring, 240, (20,) * 4, 17).matrix.data
    rows = np.vstack([base, rng.integers(0, m, (20, len(base))) @ base % m])
    square = (len(rows), len(rows))
    for strict in (np.tril(rng.integers(0, m, square), -1), np.triu(rng.integers(0, m, square), 1)):
        rows = (rows + strict @ rows) % m
    rows = rows[rng.permutation(len(rows))][:, rng.permutation(rows.shape[1])]
    g = Matrix(ring, rows)

    def spy_on(module):
        chunks, kernel = [], module._matmul_reduced
        spy_type = chunk_spy(chunks)
        monkeypatch.setattr(module, "_matmul_reduced",
                            lambda a, b, ring, c=None: kernel(a.view(spy_type), b, ring, c))
        return chunks

    flushes = spy_on(stdform)
    sf = standard_form(g)
    want = sequential_standard_form(g)
    assert (sf.matrix, sf.layout, sf.perm) == (want.matrix, want.layout, want.perm)
    assert len(flushes) >= 4
    assert {dtype for _, dtype in flushes} == {np.dtype(np.float32)}
    h = parity_check_iterative(sf).h_unpermuted
    products = spy_on(paritycheck)
    assert verify_parity(g, h) == (True, None)
    assert products == [(240, np.dtype(np.float32))]
