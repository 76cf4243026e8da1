import itertools
import random
import tracemalloc

import numpy as np

import pytest

from zpscodes import (
    BlockMinorTable,
    Matrix,
    OpCounters,
    Permutation,
    RingSpec,
    det_structured_laplace,
    det_structured_sum,
    enumerate_restricted,
    j_set,
    mat_mul,
)
from zpscodes import minors
from zpscodes.bench import random_code
from zpscodes.matrix import BlockLayout, ShapeError, identity
from zpscodes.stdform import extract_blocks
from zpscodes.minors import is_restricted
from zpscodes.zring import DomainError

from helpers import chunk_spy, cofactor_det, node_by_node_minor, random_matrix, structured_matrix


def brute_restricted(n):
    """Oracle: filter the full symmetric group by the defining condition."""
    out = []
    for images in itertools.permutations(range(1, n + 1)):
        if all(images[h - 1] >= h - 1 for h in range(1, n + 1)):
            out.append(Permutation(images))
    return out


def test_degree_three_members():
    got = {perm.images for perm in enumerate_restricted(3)}
    # Id, (1,2), (2,3), (1,3,2)
    assert got == {(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2)}


def test_degree_one():
    assert [perm.images for perm in enumerate_restricted(1)] == [(1,)]
    with pytest.raises(DomainError):
        enumerate_restricted(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_count_is_power_of_two(n):
    assert len(enumerate_restricted(n)) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_matches_filtered_enumeration(n):
    ours = sorted(perm.images for perm in enumerate_restricted(n))
    brute = sorted(perm.images for perm in brute_restricted(n))
    assert ours == brute
    # and the output is lexicographically ordered already
    assert [perm.images for perm in enumerate_restricted(n)] == ours


def test_j_set_examples():
    assert j_set(Permutation([2, 1, 3])) == (1, 3)  # (1,2) with n=3
    assert j_set(Permutation.identity(4)) == (1, 2, 3, 4)
    # (1,4,3,2): 1->4, 4->3, 3->2, 2->1
    assert j_set(Permutation([4, 1, 2, 3])) == (1,)


@pytest.mark.parametrize("j", range(1, 9))
def test_consecutive_index_lemma(j):
    # successive elements of J satisfy h_{k+1} = sigma(h_k) + 1
    for sigma in enumerate_restricted(j):
        js = j_set(sigma)
        for a, b in zip(js, js[1:]):
            assert b == sigma(a) + 1


def test_membership_predicate():
    assert is_restricted(Permutation([2, 1, 3]))
    assert not is_restricted(Permutation([3, 2, 1]))


def test_det_symbolic_3x3_identity():
    # |A| = a11 a22 a33 - a12 a33 - a11 a23 + a13, checked by evaluation
    rng = random.Random(21)
    ring = RingSpec(3, 2)
    m = ring.modulus
    for _ in range(10):
        a = {key: rng.randrange(m) for key in ["11", "12", "13", "22", "23", "33"]}
        mat = Matrix(ring, [
            [a["11"], a["12"], a["13"]],
            [1, a["22"], a["23"]],
            [0, 1, a["33"]],
        ])
        want = (
            a["11"] * a["22"] * a["33"] - a["12"] * a["33"] - a["11"] * a["23"] + a["13"]
        ) % m
        assert det_structured_sum(mat) == want
        assert det_structured_laplace(mat) == want


def test_det_hand_example_mod9():
    ring = RingSpec(3, 2)
    a = Matrix(ring, [[2, 5, 7], [1, 4, 8], [0, 1, 3]])
    # cofactor oracle gives 24 - 15 - 16 + 7 = 0 mod 9
    assert cofactor_det(a.tolist(), 9) == 0
    assert det_structured_sum(a) == 0
    assert det_structured_laplace(a) == 0


def test_det_size_one():
    ring = RingSpec(2, 3)
    assert det_structured_sum(Matrix(ring, [[5]])) == 5
    assert det_structured_laplace(Matrix(ring, [[5]])) == 5


def test_det_shape_validation():
    ring = RingSpec(2, 2)
    with pytest.raises(DomainError):
        det_structured_sum(Matrix(ring, [[1, 2], [2, 3]]))  # subdiagonal not 1
    with pytest.raises(DomainError):
        det_structured_laplace(Matrix(ring, [[0, 1, 2], [1, 0, 1], [1, 1, 0]]))


@pytest.mark.parametrize("ring", [RingSpec(2, 2), RingSpec(3, 4), RingSpec(2, 6)],
                         ids=lambda r: f"{r.p}^{r.s}")
def test_det_methods_match_cofactor_oracle(ring):
    rng = random.Random(ring.modulus)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = structured_matrix(ring, n, rng)
        want = cofactor_det(a.tolist(), ring.modulus)
        assert det_structured_sum(a) == want
        assert det_structured_laplace(a) == want


def random_block_table(ring, s, n, rng, counters=None, t=None):
    """Random stripped block map for type t, or for a type drawn with every
    t_i >= 0."""
    if t is None:
        t = [rng.randint(0, 3) for _ in range(s)]
        while sum(t) > n:
            t[rng.randrange(s)] = 0
    layout = BlockLayout(n, t)
    blocks = {}
    for i in range(1, s + 1):
        for j in range(i + 1, s + 2):
            cols = layout.group(j)
            blocks[(i, j)] = random_matrix(ring, layout.t[i - 1], cols.stop - cols.start, rng)
    return BlockMinorTable(blocks, layout, counters)


def test_block_minor_conventions():
    rng = random.Random(30)
    ring = RingSpec(2, 2)
    table = random_block_table(ring, 2, 6, rng)
    t1 = table.layout.t[0]
    o0 = table.block_minor_rec(1, 0)
    assert o0.shape == (t1, t1)
    assert o0.tolist() == [[1 if r == c else 0 for c in range(t1)] for r in range(t1)]
    assert table.block_minor_rec(1, 1) == table.block(1, 2)
    assert table.block_minor_sum(1, 1) == table.block(1, 2)


# 3^21 and 1451^3 store entries as python ints, so the oracle's Matrix ops
# and the recursion's raw-array kernel meet both storage rules.  1447^3 is
# the largest odd cube stored as int64: a product with inner dimension >= 2
# must switch to python ints.  The sum over restricted permutations doubles
# per order: orders stop at 6.
@pytest.mark.parametrize("s,ring,t", [
    *(pytest.param(s, None, None, id=str(s)) for s in range(1, 7)),
    pytest.param(3, RingSpec(1447, 3), None, id="1447^3"),
    pytest.param(21, RingSpec(3, 21), None, id="3^21"),
    pytest.param(3, RingSpec(1451, 3), None, id="1451^3"),
    pytest.param(3, RingSpec(1451, 3), (0, 2, 0), id="1451^3-t1=t3=0"),
])
def test_block_minor_rec_matches_sum(s, ring, t):
    rng = random.Random(40 + s)
    if ring is None:
        ring = RingSpec(rng.choice([2, 3]), s) if s <= 4 else RingSpec(2, s)
    for _ in range(8):
        table = random_block_table(ring, s, 3 * s + rng.randint(0, 4), rng, t=t)
        for i in range(1, s + 1):
            for j in range(0, min(s + 2 - i, 7)):
                assert table.block_minor_rec(i, j) == table.block_minor_sum(i, j)


def test_two_by_two_block_minor_formula():
    # O_2^(s-1) = A_{s-1,s} A_{s,s+1} - A_{s-1,s+1}
    rng = random.Random(50)
    ring = RingSpec(3, 3)
    table = random_block_table(ring, 3, 9, rng)
    a, b, c = table.block(2, 3), table.block(3, 4), table.block(2, 4)
    got = table.block_minor_sum(2, 2)
    assert np.array_equal(got.data, (mat_mul(a, b).data - c.data) % ring.modulus)


def test_order_four_block_minor_has_eight_terms():
    # the signed expansion over the 8 restricted permutations of degree 4
    rng = random.Random(51)
    ring = RingSpec(2, 4)
    table = random_block_table(ring, 4, 12, rng)
    blk = table.block
    m = ring.modulus
    terms = [
        (+1, mat_mul(mat_mul(mat_mul(blk(1, 2), blk(2, 3)), blk(3, 4)), blk(4, 5))),
        (-1, mat_mul(mat_mul(blk(1, 2), blk(2, 3)), blk(3, 5))),
        (-1, mat_mul(mat_mul(blk(1, 2), blk(2, 4)), blk(4, 5))),
        (+1, mat_mul(blk(1, 2), blk(2, 5))),
        (-1, mat_mul(mat_mul(blk(1, 3), blk(3, 4)), blk(4, 5))),
        (+1, mat_mul(blk(1, 3), blk(3, 5))),
        (+1, mat_mul(blk(1, 4), blk(4, 5))),
        (-1, blk(1, 5)),
    ]
    acc = sum(sign * term.data for sign, term in terms) % m
    assert np.array_equal(table.block_minor_sum(1, 4).data, acc)
    assert np.array_equal(table.block_minor_rec(1, 4).data, acc)


def test_order_zero_minor_of_the_free_group():
    # O(s + 1) of order 0 is the identity on the free group, of width n - t.
    ring = RingSpec(3, 3)
    code = random_code(ring, 10, (1, 2, 1), 1)
    table = BlockMinorTable(extract_blocks(code.standard), code.standard.layout)
    assert table.block_minor_rec(4, 0) == identity(ring, 6)
    assert table.block_minor_sum(4, 0) == identity(ring, 6)
    # n = t: the free group has width 0.
    table = random_block_table(ring, 3, 6, random.Random(55), t=(1, 2, 3))
    assert table.block_minor_rec(4, 0).shape == (0, 0)
    assert table.block_minor_sum(4, 0) == table.block_minor_rec(4, 0)
    assert table.block_minor_rec(3, 1).shape == (3, 0)


def test_block_minor_range_errors():
    rng = random.Random(52)
    table = random_block_table(RingSpec(2, 2), 2, 6, rng)
    with pytest.raises(DomainError):
        table.block_minor_rec(1, 3)
    with pytest.raises(DomainError):
        table.block_minor_sum(0, 1)


def test_counted_kernel_rejects_nonconformable():
    table = random_block_table(RingSpec(2, 2), 2, 6, random.Random(53))

    def z(rows, cols):
        return np.zeros((rows, cols), dtype=np.int64)

    bad = [
        lambda: table._counted_mul(z(2, 3), z(2, 4), True),
        lambda: table._counted_mul(z(2, 2), z(3, 6), True),
        lambda: table._counted_add(z(2, 6), z(2, 3), True),
        lambda: table._counted_add(z(2, 6), z(3, 6), True),
        # The fused level product: inner dimension, leaf rows, leaf width.
        lambda: table._level_product(z(2, 3), z(2, 6), z(2, 3), 2),
        lambda: table._level_product(z(3, 2), z(2, 6), z(2, 3), 2),
        lambda: table._level_product(z(2, 2), z(2, 6), z(2, 4), 2),
        lambda: table._level_product(z(2, 2), z(2, 6), z(2, 3), 3),
    ]
    for call in bad:
        with pytest.raises(ShapeError):
            call()
    assert table.counters == OpCounters()
    assert table._level_product(z(2, 0), z(0, 6), z(2, 3), 2).shape == (2, 6)
    assert table.counters == OpCounters()
    assert table._counted_add(z(2, 6), z(2, 6), True).shape == (2, 6)
    assert table._counted_mul(z(2, 2), z(2, 6), True).shape == (2, 6)
    assert table.counters.hist == {("add", 2, 6): 1, ("mul", 2, 2, 6): 1}


def test_record_count_equals_repeated_records():
    once, repeated = OpCounters(), OpCounters()
    for wide in (True, False):
        once.record_mul(2, 3, 5, wide, count=7)
        once.record_add(2, 5, wide, count=7)
        for _ in range(7):
            repeated.record_mul(2, 3, 5, wide)
            repeated.record_add(2, 5, wide)
    assert once == repeated
    assert once.hist == {("mul", 2, 3, 5): 14, ("add", 2, 5): 14}


def _minors_at_budget(table, monkeypatch, tree_bytes):
    """Every _minor_rec(i, j), j >= 1, with its own counters, at the given
    per-strip budget."""
    monkeypatch.setattr(minors, "_TREE_BYTES", tree_bytes)
    s, out = table.layout.s, {}
    for i in range(1, s + 1):
        for j in range(1, s + 2 - i):
            table.counters = OpCounters()
            out[(i, j)] = (table._minor_rec(i, j), table.counters)
    return out


def _node_by_node(table):
    """node_by_node_minor for every (i, j), j >= 1, with its own counters."""
    s, out = table.layout.s, {}
    for i in range(1, s + 1):
        for j in range(1, s + 2 - i):
            table.counters = OpCounters()
            out[(i, j)] = (node_by_node_minor(table, i, j), table.counters)
    return out


# Budget 0 takes the node-by-node top at every node with entries, 2^62
# evaluates every tree in one strip, and 600 bytes (2^16 on 3^13, where the
# order-13 trees get strips of one column) mixes strips of several widths
# with node-by-node tops.  1447^3 stores int64 but multiplies in python
# ints; 3^21 and 1451^3 store python ints.  Types put t_i = 0 first, in the
# middle and last, and n = t.
@pytest.mark.parametrize("ring,n,t", [
    *(pytest.param(ring, n, t, id=f"{ring.p}^{ring.s}-{n}-{t}")
      for ring in (RingSpec(2, 4), RingSpec(1447, 3), RingSpec(3, 21), RingSpec(1451, 3))
      for n, t in ((12, (0, 2, 1, 3, 2)), (12, (2, 1, 0, 2, 3)), (11, (3, 2, 1, 2, 0)),
                   (8, (2, 1, 3, 2)))),
    pytest.param(RingSpec(3, 13), 200, (2,) * 13, id="3^13-minors-deep"),
])
def test_levels_match_node_by_node(ring, n, t, monkeypatch):
    table = random_block_table(ring, len(t), n, random.Random(54 + n), t=t)
    node = _node_by_node(table)
    for tree_bytes in (0, 600, 1 << 16, 2 ** 62):
        got = _minors_at_budget(table, monkeypatch, tree_bytes)
        for key, (arr, counters) in node.items():
            assert got[key][0].dtype == arr.dtype, key
            assert np.array_equal(got[key][0], arr), key
            assert got[key][1] == counters, key
    assert table.block_minor_rec(1, len(t)) == Matrix(ring, node[(1, len(t))][0])


def _strip_widths(table, monkeypatch):
    """Leaf widths that _level_product is called with."""
    widths, level_product = [], minors.BlockMinorTable._level_product

    def spy(self, rows, children, leaf, count):
        widths.append(leaf.shape[1])
        return level_product(self, rows, children, leaf, count)

    monkeypatch.setattr(minors.BlockMinorTable, "_level_product", spy)
    return widths


# Tree (1, 4) over t = (2, 1, 2, 1) has 2 + 1 + 2*2 + 1*4 = 11 nodes, 88
# bytes a column, and four levels.  Its leaf is 7 columns wide, or 0 when
# n = t, which still runs (and counts) one empty strip.
@pytest.mark.parametrize("n,tree_bytes,strips", [
    pytest.param(13, 88 * 3, [3, 3, 1], id="3-does-not-divide-7"),
    pytest.param(13, 88 * 7 - 1, [6, 1], id="6-of-7"),
    pytest.param(13, 88 * 7, [7], id="leaf-width"),
    pytest.param(13, 2 ** 62, [7], id="unbounded"),
    pytest.param(13, 88, [1] * 7, id="one-column"),
    pytest.param(6, 2 ** 62, [0], id="width-0"),
])
def test_strip_edges(n, tree_bytes, strips, monkeypatch):
    ring = RingSpec(3, 4)
    table = random_block_table(ring, 4, n, random.Random(56), t=(2, 1, 2, 1))
    want = node_by_node_minor(table, 1, 4)
    counters, table.counters = table.counters, OpCounters()
    monkeypatch.setattr(minors, "_TREE_BYTES", tree_bytes)
    widths = _strip_widths(table, monkeypatch)
    got = table._minor_rec(1, 4)
    assert widths == [w for w in strips for _ in range(4)]
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert table.counters == counters


def test_strips_count_python_int_bytes(monkeypatch):
    # Over 11^10, stored as python ints, an entry holds an 8-byte pointer
    # and an int object of up to 32 bytes (CPython 3.11, 64-bit).  A column
    # of tree (1, 10) at t_i = 2, 1024 nodes, takes 40 KiB, so 1 MiB gives
    # strips of 25 of its leaf's 60 columns; at 8 bytes an entry it was one
    # strip of 60.
    table = random_block_table(RingSpec(11, 10), 10, 80, random.Random(60), t=(2,) * 10)
    want = node_by_node_minor(table, 1, 10)
    counters, table.counters = table.counters, OpCounters()
    monkeypatch.setattr(minors, "_TREE_BYTES", 1 << 20)
    widths = _strip_widths(table, monkeypatch)
    got = table._minor_rec(1, 10)
    assert widths == [w for w in (25, 25, 10) for _ in range(10)]
    assert got.dtype == want.dtype == object and np.array_equal(got, want)
    assert table.counters == counters


def test_deep_tree_evaluates_its_root_over_recursed_children(monkeypatch):
    # At 87 bytes one column of tree (1, 4) (88 bytes) passes the budget:
    # its root alone is one level product over whole children, each child
    # tree evaluated by its own call in strips of its own.
    table = random_block_table(RingSpec(3, 4), 4, 13, random.Random(56), t=(2, 1, 2, 1))
    want = node_by_node_minor(table, 1, 4)
    counters, table.counters = table.counters, OpCounters()
    monkeypatch.setattr(minors, "_TREE_BYTES", 87)
    calls, minor_rec = [], minors.BlockMinorTable._minor_rec

    def spy(self, i, j):
        calls.append((i, j))
        return minor_rec(self, i, j)

    monkeypatch.setattr(minors.BlockMinorTable, "_minor_rec", spy)
    widths = _strip_widths(table, monkeypatch)
    got = table._minor_rec(1, 4)
    assert calls == [(1, 4), (2, 3), (3, 2), (4, 1)]
    assert widths[-1] == 7 and widths.count(7) == 2  # the root, and tree (4, 1)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert table.counters == counters


def test_deep_tree_memory_within_budget(monkeypatch):
    # One column of an order-18 tree at t_i = 2 takes 2^18 nodes * 8 bytes,
    # twice the budget, so it recurses at its top; its level arrays stay
    # within the budget, temporaries included, below twice it.
    s = 18
    table = random_block_table(RingSpec(3, s), s, 2 * s + 8, random.Random(59), t=(2,) * s)
    tracemalloc.start()
    try:
        got = table._minor_rec(1, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * minors._TREE_BYTES
    monkeypatch.setattr(minors, "_TREE_BYTES", 2 ** 62)
    assert np.array_equal(got, table._minor_rec(1, s))


def test_wide_inner_dimension_stays_int64(monkeypatch):
    # (m - 1)^2 * 6 < 2^63 - m < (m - 1)^2 * 7 at m = 3^19: a level product
    # whose inner dimension is 7 or more goes in int64 chunks of at most 6,
    # never in python ints.
    ring = RingSpec(3, 19)
    table = random_block_table(ring, 5, 16, random.Random(57), t=(2, 3, 2, 3, 1))
    chunks, matmul_reduced = [], minors._matmul_reduced
    spy_type = chunk_spy(chunks)

    def spy(a, b, ring, c=None):
        return matmul_reduced(a.view(spy_type), b, ring, c)

    monkeypatch.setattr(minors, "_matmul_reduced", spy)
    for i in range(1, 6):
        table.counters = OpCounters()
        got = table._minor_rec(i, 6 - i)
        counters, table.counters = table.counters, OpCounters()
        want = node_by_node_minor(table, i, 6 - i)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want) and counters == table.counters
    assert {dtype for _, dtype in chunks} == {np.dtype(np.int64)}
    assert max(k for k, _ in chunks) == 6


def test_malformed_blocks_raise_before_counting():
    table = random_block_table(RingSpec(2, 3), 3, 9, random.Random(58), t=(1, 2, 1))
    table.blocks[(1, 3)] = table.blocks[(1, 3)][:, :0]
    with pytest.raises(ShapeError):
        table._minor_rec(1, 3)
    assert table.counters == OpCounters()
