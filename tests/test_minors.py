import itertools
import random
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np

import pytest

from zpscodes import (
    Matrix,
    OpCounters,
    Permutation,
    RingSpec,
    parity_check_iterative,
    parity_check_minors,
    random_code,
)
from zpscodes import minors
from zpscodes.matrix import BlockLayout, ShapeError, dtype_for, identity, mat_mul
from zpscodes.minors import BlockMinorTable
from zpscodes.stdform import StandardForm, extract_blocks
from zpscodes.zring import DomainError

from helpers import (
    block_table,
    chunk_spy,
    cofactor_det,
    group_width,
    node_by_node_minor,
    random_matrix,
    structured_matrix,
    tree_minor,
)
from oracles import (
    block,
    block_minor_sum,
    det_structured_laplace,
    det_structured_sum,
    enumerate_restricted,
    is_restricted,
    j_set,
    table_blocks,
)


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
            assert b == sigma.images[a - 1] + 1


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
    """A table of random stripped blocks, entries from all of [0, p^s), for
    type t, or for a type drawn with every t_i >= 0."""
    if t is None:
        t = [rng.randint(0, 3) for _ in range(s)]
        while sum(t) > n:
            t[rng.randrange(s)] = 0
    layout = BlockLayout(n, t)
    blocks = {}
    for i in range(1, s + 1):
        for j in range(i + 1, s + 2):
            blocks[(i, j)] = random_matrix(ring, layout.t[i - 1], group_width(layout, j), rng).data
    return block_table(ring, layout, blocks, counters)


def canonical_table(ring, n, t, seed):
    """The table of random_code's standard form, each entry of A(a, b)
    below p^(b-a)."""
    return BlockMinorTable(random_code(ring, n, t, seed))


def test_block_minor_conventions():
    rng = random.Random(30)
    ring = RingSpec(2, 2)
    table = random_block_table(ring, 2, 6, rng)
    t1 = table.layout.t[0]
    o0 = block_minor_sum(table, 1, 0)
    assert o0.shape == (t1, t1)
    assert o0.tolist() == [[1 if r == c else 0 for c in range(t1)] for r in range(t1)]
    assert np.array_equal(tree_minor(table, 1, 1), table_blocks(table)[(1, 2)])
    assert block_minor_sum(table, 1, 1) == block(table, 1, 2)


# 3^21 and 1451^3 store entries as python ints, so the recursion's kernel
# meets both storage rules.  1447^3 is the largest odd cube stored as int64:
# a product with inner dimension >= 2 must go in int64 chunks of one.  The
# sum over restricted permutations doubles per order: orders stop at 6.
# block_minor_rec(i, i + j, out) leaves (-1)^(i+j-a) O(a, i + j) in row
# group a of out, a = i..i+j-1.  Order 0 has no forest: its minor, the
# identity, is block_minor_sum's alone.
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
        layout, m = table.layout, ring.modulus
        for i in range(1, s + 1):
            for j in range(1, min(s + 2 - i, 7)):
                rows = slice(layout.group(i).start, layout.group(i + j).start)
                width = group_width(layout, i + j)
                out = np.zeros((rows.stop - rows.start, width), dtype_for(ring))
                table.block_minor_rec(i, i + j, out)
                for a in range(i, i + j):
                    want = block_minor_sum(table, a, i + j - a).data
                    group = layout.group(a)
                    got = out[group.start - rows.start : group.stop - rows.start]
                    assert np.array_equal(got, want if (i + j - a) % 2 == 0 else (-want) % m)


def test_two_by_two_block_minor_formula():
    # O_2^(s-1) = A_{s-1,s} A_{s,s+1} - A_{s-1,s+1}
    rng = random.Random(50)
    ring = RingSpec(3, 3)
    table = random_block_table(ring, 3, 9, rng)
    a, b, c = block(table, 2, 3), block(table, 3, 4), block(table, 2, 4)
    got = block_minor_sum(table, 2, 2)
    assert np.array_equal(got.data, (mat_mul(a, b).data - c.data) % ring.modulus)


def test_order_four_block_minor_has_eight_terms():
    # the signed expansion over the 8 restricted permutations of degree 4
    rng = random.Random(51)
    ring = RingSpec(2, 4)
    table = random_block_table(ring, 4, 12, rng)
    blk, m = partial(block, table), ring.modulus
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
    assert np.array_equal(block_minor_sum(table, 1, 4).data, acc)
    assert np.array_equal(tree_minor(table, 1, 4), acc)


def test_order_zero_minor_of_the_free_group():
    # O(s + 1) of order 0 is the identity on the free group, of width n - t.
    ring = RingSpec(3, 3)
    sf = random_code(ring, 10, (1, 2, 1), 1)
    table = BlockMinorTable(sf)
    assert block_minor_sum(table, 4, 0) == identity(ring, 6)
    # n = t: the free group has width 0.
    table = random_block_table(ring, 3, 6, random.Random(55), t=(1, 2, 3))
    assert block_minor_sum(table, 4, 0).shape == (0, 0)
    assert tree_minor(table, 3, 1).shape == (3, 0)


def test_block_minor_range_errors():
    rng = random.Random(52)
    table = random_block_table(RingSpec(2, 2), 2, 6, rng)
    with pytest.raises(DomainError):
        block_minor_sum(table, 0, 1)


def test_counted_kernel_rejects_nonconformable():
    table = random_block_table(RingSpec(2, 2), 2, 6, random.Random(53))

    def z(rows, cols):
        return np.zeros((rows, cols), dtype=np.int64)

    bad = [
        lambda: table._counted_mul(z(2, 3), z(2, 4), True),
        lambda: table._counted_mul(z(2, 2), z(3, 6), True),
        lambda: table._counted_add(z(2, 6), z(2, 3), True),
        lambda: table._counted_add(z(2, 6), z(3, 6), True),
    ]
    for call in bad:
        with pytest.raises(ShapeError):
            call()
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


def _trees(table):
    """Every tree (i, i + j), j >= 1, alone, with its own counters."""
    s, out = table.layout.s, {}
    for i in range(1, s + 1):
        for j in range(1, s + 2 - i):
            table.counters = OpCounters()
            out[(i, j)] = (tree_minor(table, i, j), table.counters)
    return out


def _node_by_node(table):
    """node_by_node_minor for every (i, j), j >= 1, with its own counters."""
    s, out = table.layout.s, {}
    for i in range(1, s + 1):
        for j in range(1, s + 2 - i):
            table.counters = OpCounters()
            out[(i, j)] = (node_by_node_minor(table, i, j), table.counters)
    return out


def _node_group(node, end, m):
    """Column group end from _node_by_node's minors: the signed minors
    (-1)^(end-a) O(a, end) of the trees a = 1..end-1, stacked, and their
    counters summed."""
    trees = [node[(a, end - a)] for a in range(1, end)]
    signed = [arr if (end - a) % 2 == 0 else (-arr) % m for a, (arr, _) in enumerate(trees, 1)]
    fields = ("big_mults", "big_adds", "small_mults", "small_adds")
    counters = [c for _, c in trees]
    return np.vstack(signed), OpCounters(*(sum(getattr(c, f) for c in counters) for f in fields),
                                         sum((c.hist for c in counters), Counter()))


def _group(table, end):
    """The column-group pass block_minor_rec(1, end, out) with its own
    counters.  out is a column slice of a wider array, strided as a column
    group of H^T is."""
    width = group_width(table.layout, end)
    wider = np.zeros((table.layout.group(end).start, width + 2), dtype_for(table.ring))
    table.counters = OpCounters()
    assert table.block_minor_rec(1, end, wider[:, 1 : width + 1]) is None
    assert not wider[:, 0].any() and not wider[:, -1].any()
    return wider[:, 1 : width + 1], table.counters


# Budget 0 splits every forest with entries down to its order-1 forests,
# 2^62 evaluates every forest in one strip, and 600 bytes (2^16 on 3^13,
# where the order-13 forests get strips of one column) mixes strips of
# several widths with splits.  Entries drawn from all of [0, m) keep the
# forests of 2^4, 1447^3 and 1451^3 exact, and split those of 3^21 and of
# the higher orders of 3^13 wherever a bound passes 2^53.  1447^3 stores
# int64 and multiplies in int64 chunks of one; 3^21 and 1451^3 store python
# ints.  Types put t_i = 0 first, in the middle and last, and n = t;
# (0, 2, 1, 3, 2) has a column group of width 1.
@pytest.mark.parametrize("ring,n,t", [
    *(pytest.param(ring, n, t, id=f"{ring.p}^{ring.s}-{n}-{t}")
      for ring in (RingSpec(2, 4), RingSpec(1447, 3), RingSpec(3, 21), RingSpec(1451, 3))
      for n, t in ((12, (0, 2, 1, 3, 2)), (12, (2, 1, 0, 2, 3)), (11, (3, 2, 1, 2, 0)),
                   (8, (2, 1, 3, 2)))),
    pytest.param(RingSpec(3, 13), 200, (2,) * 13, id="3^13-minors-deep"),
])
def test_levels_match_node_by_node(ring, n, t, monkeypatch):
    node = _node_by_node(random_block_table(ring, len(t), n, random.Random(54 + n), t=t))
    groups = {end: _node_group(node, end, ring.modulus) for end in range(2, len(t) + 2)}
    for tree_bytes in (0, 600, 1 << 16, 2 ** 62):
        monkeypatch.setattr(minors, "_TREE_BYTES", tree_bytes)
        # The same table, planned anew under this budget.
        table = random_block_table(ring, len(t), n, random.Random(54 + n), t=t)
        got = _trees(table)
        for key, (arr, counters) in node.items():
            assert got[key][0].dtype == arr.dtype, key
            assert np.array_equal(got[key][0], arr), key
            assert got[key][1] == counters, key
        for end, (arr, counters) in groups.items():
            got = _group(table, end)
            assert got[0].dtype == arr.dtype, (tree_bytes, end)
            assert np.array_equal(got[0], arr), (tree_bytes, end)
            assert got[1] == counters, (tree_bytes, end)


def _spy_products(monkeypatch, record):
    """Call record(exact, factor, children, terms, result) after each product
    of a forest, in order: a level, by _level_product, exact, its result the
    level; a split's root, by the kernel, reduced in the storage."""
    level_product, kernel = minors._level_product, minors._matmul_reduced

    def level_spy(factor, children, terms, level, stack):
        level_product(factor, children, terms, level, stack)
        record(True, factor, children, terms, level)

    def root_spy(factor, children, ring, terms):
        result = kernel(factor, children, ring, terms)
        record(False, factor, children, terms, result)
        return result

    monkeypatch.setattr(minors, "_level_product", level_spy)
    monkeypatch.setattr(minors, "_matmul_reduced", root_spy)


def _strip_widths(table, monkeypatch):
    """Leaf widths of the level and root products."""
    widths = []
    _spy_products(monkeypatch, lambda _exact, _factor, _children, terms, _result:
                  widths.append(terms.shape[1]))
    return widths


def _check_group(table, end):
    """Column group end of table against the node-by-node oracle: equal
    minors and counters."""
    want = _node_group(_node_by_node(table), end, table.ring.modulus)
    got = _group(table, end)
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
    assert got[1] == want[1]


# Forest (1, 5) over t = (2, 1, 2, 1) computes three levels of 2*4 + 1*2 +
# 2*1 = 12 nodes (its leaf level of 1*8 is never computed), and its largest
# children stack or level, level 3's, has 2*4 = 8 rows: 20 entries.  A
# canonical 3^4 table bounds every minor below 2^24, so they are float32,
# 80 bytes a column.  Its leaf is 7 columns wide, or 0 when n = t, which
# runs no strip but still counts its nodes.
@pytest.mark.parametrize("n,tree_bytes,strips", [
    pytest.param(13, 80 * 3, [3, 3, 1], id="3-does-not-divide-7"),
    pytest.param(13, 80 * 7 - 1, [6, 1], id="6-of-7"),
    pytest.param(13, 80 * 7, [7], id="leaf-width"),
    pytest.param(13, 2 ** 62, [7], id="unbounded"),
    pytest.param(13, 80, [1] * 7, id="one-column"),
    pytest.param(6, 2 ** 62, [], id="width-0"),
])
def test_strip_edges(n, tree_bytes, strips, monkeypatch):
    monkeypatch.setattr(minors, "_TREE_BYTES", tree_bytes)
    table = canonical_table(RingSpec(3, 4), n, (2, 1, 2, 1), 56)
    assert set(table._plan(1, 5)[2].values()) == {np.dtype(np.float32)}
    widths = _strip_widths(table, monkeypatch)
    _check_group(table, 5)
    assert widths == [w for w in strips for _ in range(3)]


# Over Python ints, 3^20 and 11^10, a canonical table's forests hold exact
# minors as an int64 table's do: every level product is a float level, the
# forests of 3^20 too big for one column or past 2^53 split off their first
# trees, whose root products run in Python ints, and the exact minors reach
# H^T through int64, never as Python floats.
@pytest.mark.parametrize("ring,n,split", [
    pytest.param(RingSpec(3, 20), 45, [21], id="3^20"),
    pytest.param(RingSpec(11, 10), 80, [], id="11^10"),
])
def test_exact_levels_over_python_ints(ring, n, split, monkeypatch):
    s = ring.s
    sf = random_code(ring, n, (2,) * s, 60)
    table = BlockMinorTable(sf)
    assert dtype_for(ring) is object
    assert [end for end in range(3, s + 2) if table._plan(1, end)[2] is None] == split
    assert table._plan(2, s + 1)[2]
    levels = _level_spy(monkeypatch)
    res = parity_check_minors(sf)
    assert {dtype.kind for exact, dtype, *_ in levels if exact} == {"f"}
    assert {dtype for exact, dtype, *_ in levels if not exact} <= {np.dtype(object)}
    assert res.h.data.dtype == object and {type(x) for x in res.h.data.flat} == {int}
    assert res.h == parity_check_iterative(sf).h


# The leaf level's nodes skip the product by the identity, so none reaches
# the kernel: no level product has inner dimension 0.  Every level, strip and
# column group of a table works in the table's one workspace: the children
# it stacks and the level it writes.  parity_check_minors reaches each column
# group through block_minor_rec(1, end, out), which leaves the signed
# minors of the group's trees in out.  3^13 has order-13 trees, 2^4 a mixed
# type, 11^10 python ints.
@pytest.mark.parametrize("ring,n,t", [
    pytest.param(RingSpec(3, 13), 40, (2,) * 13, id="3^13"),
    pytest.param(RingSpec(2, 4), 12, (2, 1, 3, 1), id="2^4"),
    pytest.param(RingSpec(11, 10), 80, (2,) * 10, id="11^10"),
])
def test_leaf_level_skipped_and_one_stack_per_table(ring, n, t, monkeypatch):
    sf = random_code(ring, n, t, 61)
    calls, groups = [], {}
    level_product, block_minor_rec = minors._level_product, minors.BlockMinorTable.block_minor_rec

    def product_spy(factor, children, terms, level, stack):
        level_product(factor, children, terms, level, stack)
        calls.append((stack.base, children, level))  # stack: a slice of the workspace

    def minor_spy(self, low, end, out):
        got = block_minor_rec(self, low, end, out)
        groups[(low, end)] = out.copy()  # a view of H^T, scaled once filled
        return got

    monkeypatch.setattr(minors, "_level_product", product_spy)
    monkeypatch.setattr(minors.BlockMinorTable, "block_minor_rec", minor_spy)
    res = parity_check_minors(sf)
    work = calls[0][0]
    assert all(call[0] is work for call in calls)
    assert all(children.shape[0] > 0 and np.shares_memory(children, work)
               and np.shares_memory(level, work) for _, children, level in calls)
    ref, layout = BlockMinorTable(sf), sf.layout
    assert len(groups) == sum(1 for w in (n - sum(t), *t[1:]) if w)
    for (low, end), got in groups.items():
        assert low == 1
        for a in range(1, end):
            want = node_by_node_minor(ref, a, end - a)
            want = want if (end - a) % 2 == 0 else (-want) % ring.modulus
            block = got[layout.group(a)]
            assert block.dtype == want.dtype and np.array_equal(block, want), (end, a)
    assert res.counters == ref.counters
    assert res.h == parity_check_iterative(sf).h


def test_one_level_product_per_group_level_and_strip(monkeypatch):
    # minors-deep: 3^13, n = 200, t = (2,) * 13.  Column group end runs its
    # levels end - 2..1 as one forest, level a with 2^(a-1) nodes, on strips
    # of its width from the budget on the bytes of the forest's levels and of
    # its largest children stack, each level in its own dtype: 4 bytes an
    # entry where the bound from a on is below 2^24, 8 where not.  Each
    # (level, strip) is one level product, whose children and output live in
    # the table's workspace.
    ring, n, t = RingSpec(3, 13), 200, (2,) * 13
    sf = random_code(ring, n, t, 62)
    blocks, want = {key: blk.data for key, blk in extract_blocks(sf).items()}, 0
    for end in range(2, len(t) + 2):
        width = n - sum(t) if end == len(t) + 1 else t[end - 1]
        bound = _bounds_by_hand(blocks, t, end)
        assert max(bound.values()) < 2 ** 53
        size = {a: 4 if max(bound[b] for b in range(a, end)) < 2 ** 24 else 8
                for a in range(1, end - 1)}
        if end == len(t) + 1:
            assert [a for a in size if size[a] == 4] == list(range(5, 13))
        levels = sum((t[a - 1] << (a - 1)) * size[a] for a in range(1, end - 1))
        stack = max(((max(sum(t[a : end - 1]), t[a - 1]) << (a - 1)) * size[a]
                     for a in range(1, end - 1)), default=0)
        strip = max(1, minors._TREE_BYTES // max(levels + stack, 8))
        want += -(-width // strip) * (end - 2)
    assert want == 174  # 9 strips of 21 of the wide group's 12 levels, and 66
    calls, level_product = [], minors._level_product

    def spy(factor, children, terms, level, stack):
        level_product(factor, children, terms, level, stack)
        # stack is a slice of the table's workspace, level another.
        calls.append(np.shares_memory(children, stack.base) and np.shares_memory(level, stack.base))

    monkeypatch.setattr(minors, "_level_product", spy)
    res = parity_check_minors(sf)
    assert len(calls) == want and all(calls)
    assert res.h == parity_check_iterative(sf).h


def test_deep_tree_evaluates_its_root_over_recursed_children(monkeypatch):
    # At 35 bytes one column of forest (1, 5) (80 bytes, see
    # test_strip_edges) passes the budget, and so does one of forest (2, 5)
    # (5 level rows and a 4-row stack in float32, 36 bytes): each splits into
    # the forest of its other trees and its first tree, one full-width root
    # product over a forest of its own.  Forest (3, 5) (16 bytes) runs in
    # strips of 2.
    table = canonical_table(RingSpec(3, 4), 13, (2, 1, 2, 1), 56)
    monkeypatch.setattr(minors, "_TREE_BYTES", 35)
    calls, forest = [], minors.BlockMinorTable.block_minor_rec

    def spy(self, low, end, out):
        calls.append(low)
        return forest(self, low, end, out)

    monkeypatch.setattr(minors.BlockMinorTable, "block_minor_rec", spy)
    widths = _strip_widths(table, monkeypatch)
    _check_group(table, 5)
    assert calls == [1, 2, 3, 3, 2, 3, 3]
    forest_3 = [2, 2, 2, 1]
    tree_2 = forest_3 + [7]
    assert widths == forest_3 + tree_2 + forest_3 + tree_2 + [7]


# A table plans each forest once: every call of _plan for one (low, end)
# returns the plan that the first found, and no two forests share one.  At
# 35 bytes forest (1, 5) splits as in the test above, so forests (2, 5) and
# (3, 5) run, twice each; the workspace plans (1, end) for every end.
def test_each_forest_planned_once(monkeypatch):
    table = canonical_table(RingSpec(3, 4), 13, (2, 1, 2, 1), 56)
    monkeypatch.setattr(minors, "_TREE_BYTES", 35)
    plans, plan = {}, minors.BlockMinorTable._plan

    def spy(self, low, end):
        got = plan(self, low, end)
        plans.setdefault((low, end), []).append(got)
        return got

    monkeypatch.setattr(minors.BlockMinorTable, "_plan", spy)
    for end in range(2, 6):
        _check_group(table, end)
    assert set(plans) == {(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 5)}
    assert all(got is calls[0] for calls in plans.values() for got in calls)
    assert len({id(calls[0]) for calls in plans.values()}) == len(plans)
    assert min(len(plans[key]) for key in ((1, 5), (2, 5), (3, 5))) > 1


def test_deep_tree_memory_within_budget(monkeypatch):
    # Forest (1, 19) of a canonical 3^18 table at t_i = 2 has levels 1 to 9
    # in float64 and 10 to 17 in float32: one column takes 2^18 - 2 level rows
    # and a 2^17-row stack, 1.5 times the budget, so tree (1, 19) is one root
    # product over its children, forest (2, 19), which takes 0.75 times it a
    # column and runs in strips of one.  The level arrays stay within the
    # budget, temporaries included, below twice it.  A table plans once, so
    # the unbounded evaluation takes a table of its own.
    s = 18
    table = canonical_table(RingSpec(3, s), 2 * s + 8, (2,) * s, 59)
    assert table._plan(1, s + 1)[0] == 0 and table._plan(2, s + 1)[0] == 1
    tracemalloc.start()
    try:
        got = tree_minor(table, 1, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * minors._TREE_BYTES
    monkeypatch.setattr(minors, "_TREE_BYTES", 2 ** 62)
    table = canonical_table(RingSpec(3, s), 2 * s + 8, (2,) * s, 59)
    assert table._plan(2, s + 1)[0] > 1
    assert np.array_equal(got, tree_minor(table, 1, s))


def _bounds_by_hand(blocks, t, end):
    """U(a), a < end, as Python ints: the largest magnitude that the signed
    minor M(a) of order end - a can reach as a plain integer, from the
    largest entry of each block, U(a) = sum over a < b < end of t_b
    max A(a, b) U(b), plus max A(a, end)."""
    top = {key: int(np.max(blk, initial=0)) for key, blk in blocks.items()}
    bound = {}
    for a in range(end - 1, 0, -1):
        bound[a] = top[(a, end)] + sum(t[b - 1] * top[(a, b)] * bound[b] for b in range(a + 1, end))
    return bound


def _expected_levels(table, end):
    """The dtypes of the levels a = 1..end-2 of forest (1, end) by the rule,
    for any ring and any reduced blocks: exact while the bound stays below
    2^53, float32 where the bound from a on is below 2^24; None when no
    float type holds the forest, which splits."""
    bound = _bounds_by_hand(table_blocks(table), table.layout.t, end)
    if max(bound.values()) >= 2 ** 53:
        return None
    return {a: np.dtype(np.float32 if max(bound[b] for b in range(a, end)) < 2 ** 24
                        else np.float64) for a in range(1, end - 1)}


def _level_spy(monkeypatch):
    """(exact, dtype, lowest, highest) of each product of the forest: a level
    product, _level_product, is exact, into a float level, left unreduced;
    a split's root product, by the kernel, is reduced in the storage."""
    levels = []

    def record(exact, _factor, _children, _terms, result):
        levels.append((exact, result.dtype, result.min(initial=0), result.max(initial=0)))

    _spy_products(monkeypatch, record)
    return levels


# Canonical blocks, as random_code's standard form leaves them, get exact
# float levels: the kernel leaves a float out unreduced, and a level
# is float32 where the bound allows.  So do all-zero blocks, whose bound is
# 0, against the node-by-node oracle too.  Blocks drawn from all of [0, m)
# are bounded as they are: exact where the bound allows, and split where it
# passes 2^53, as on the higher orders over 401^3, 409^3, 3^15 and 3^16,
# down to root products in int64, which the kernel reduces into [0, m).  So
# each product is an exact float level or a split's root in the storage.
@pytest.mark.parametrize("p,s,t,zero", [
    pytest.param(401, 3, (1, 1, 1), False, id="401^3"),
    pytest.param(409, 3, (1, 1, 1), False, id="409^3"),
    pytest.param(3, 15, (1,) * 15, False, id="3^15"),
    pytest.param(3, 16, (1,) * 16, False, id="3^16"),
    pytest.param(2, 3, (2, 1, 2), False, id="2^3"), pytest.param(3, 3, (2, 1, 2), False, id="3^3"),
    pytest.param(3, 4, (2, 2, 2, 2), True, id="3^4-zero"),
])
def test_levels_exact_or_storage(p, s, t, zero, monkeypatch):
    ring, n = RingSpec(p, s), 20
    m, levels = ring.modulus, _level_spy(monkeypatch)
    sf = random_code(ring, n, t, 63)
    if zero:  # only the diagonal blocks p^(i-1) Id are left
        data = sf.matrix.data.copy()
        for i in range(1, s + 1):
            data[sf.layout.group(i), sf.layout.group(i + 1).start :] = 0
        sf = StandardForm(Matrix(ring, data), sf.layout, sf.perm)
    table = BlockMinorTable(sf)
    want = {end: _expected_levels(table, end) for end in range(2, s + 2)}
    assert None not in want.values()
    for end, dtypes in want.items():
        assert table._plan(1, end)[2] == dtypes, end
    assert parity_check_minors(sf).h == parity_check_iterative(sf).h
    assert {exact for exact, *_ in levels} == {True}
    assert {dtype for _, dtype, _, _ in levels} == {d for ds in want.values() for d in ds.values()}
    bound = max(max(_bounds_by_hand(table_blocks(table), t, end).values()) for end in want)
    assert all(-bound <= low and high <= bound for *_, low, high in levels)
    if zero:
        assert bound == 0 and set(levels) == {(True, np.dtype(np.float32), 0, 0)}
        for end in want:
            _check_group(table, end)
    # Entries drawn from all of [0, m), against the node-by-node oracle.
    table = random_block_table(ring, s, n, random.Random(64), t=t)
    node = _node_by_node(table)
    levels.clear()
    split = set()
    for end in range(2, s + 2):
        dtypes = _expected_levels(table, end)
        assert table._plan(1, end)[2] == dtypes, end
        if dtypes is None:
            split.add(end)
        got = _group(table, end)
        want = _node_group(node, end, m)
        assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0]), end
        assert got[1] == want[1], end
    assert bool(split) == (m > 81)
    assert {(exact, dtype.kind) for exact, dtype, _, _ in levels} == (
        {(True, "f"), (False, "i")} if split else {(True, "f")})
    # Each split forest runs at least one root product, in the storage.
    roots = [(dtype, low, high) for exact, dtype, low, high in levels if not exact]
    assert len(roots) >= len(split)
    assert all(dtype == np.int64 and 0 <= low and high < m for dtype, low, high in roots)


def _tuned_table(ring, t, free, fill, target):
    """A canonical table of type t, with a free group of width free, whose
    forest (1, s + 1) has U(1) = target exactly: every entry of A(a, b),
    a >= 2, is min(fill, p^(b-a) - 1), and the entries of A(1, b) are one
    value a block, chosen greedily, b = 2..s + 1."""
    p, s = ring.p, len(t)
    layout = BlockLayout(sum(t) + free, t)
    widths = (*t, free)
    blocks = {(a, b): np.full((t[a - 1], widths[b - 1]), min(fill, p ** (b - a) - 1), np.int64)
              for a in range(1, s + 1) for b in range(a + 1, s + 2)}
    bound, rest = _bounds_by_hand(blocks, t, s + 1), target
    for b in range(2, s + 2):
        weight = t[b - 1] * bound[b] if b <= s else 1
        x = min(p ** (b - 1) - 1, rest // weight) if weight else 0
        blocks[(1, b)][...] = x
        rest -= weight * x
    assert rest == 0
    assert _bounds_by_hand(blocks, t, s + 1)[1] == target
    return block_table(ring, layout, blocks)


def _check_wide_group(table):
    """Column group s + 1 of table against the node-by-node oracle, its
    trees only."""
    s, m = table.layout.s, table.ring.modulus
    node = {}
    for a in range(1, s + 1):
        table.counters = OpCounters()
        node[(a, s + 1 - a)] = (node_by_node_minor(table, a, s + 1 - a), table.counters)
    want = _node_group(node, s + 1, m)
    got = _group(table, s + 1)
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
    assert got[1] == want[1]


# Level 1 of forest (1, 7) over 37^6, its children's bounds below 2^24: its
# own bound at 2^24 - 1 makes it float32, at 2^24 float64.  Over 13^8 and
# 3^13 at t_i = 12 the bound at 2^53 - 1 keeps the forest exact (float64 at
# the top), and at 2^53 no float type holds it: it splits off tree 1, whose
# root product runs in int64, the storage.  3^13 at k = 144 is small enough
# that float64 could hold residues, but levels hold only exact minors.
@pytest.mark.parametrize("p,s,ell,fill,target,level", [
    pytest.param(37, 6, 2, 1, 2 ** 24 - 1, np.float32, id="2^24-1"),
    pytest.param(37, 6, 2, 1, 2 ** 24, np.float64, id="2^24"),
    pytest.param(13, 8, 12, 13 ** 8, 2 ** 53 - 1, np.float64, id="2^53-1"),
    pytest.param(13, 8, 12, 13 ** 8, 2 ** 53, None, id="2^53"),
    pytest.param(3, 13, 12, 2, 2 ** 53 - 1, np.float64, id="3^13-2^53-1"),
    pytest.param(3, 13, 12, 2, 2 ** 53, None, id="3^13-2^53"),
])
def test_exact_levels_at_their_bounds(p, s, ell, fill, target, level, monkeypatch):
    table = _tuned_table(RingSpec(p, s), (ell,) * s, 2, fill, target)
    levels, want = _level_spy(monkeypatch), level and np.dtype(level)
    assert (table._plan(1, s + 1)[2] or {1: None})[1] == want
    assert (_expected_levels(table, s + 1) or {1: None})[1] == want
    assert table._plan(2, s + 1)[2]
    _check_wide_group(table)
    # Level 1 is the last product of each strip, and tree 1's root product
    # the last of a split.
    assert levels[-1][:2] == ((True, want) if want else (False, np.dtype(np.int64)))
    assert sum(not exact for exact, *_ in levels) == (0 if want else 1)


def test_exact_level_over_a_child_past_float32(monkeypatch):
    # Level 1 is bounded by 1000, but its child, level 2, above 2^24: level 1
    # is float64, not float32.
    table = _tuned_table(RingSpec(37, 6), (2,) * 6, 2, 37 ** 6, 1000)
    bound = _bounds_by_hand(table_blocks(table), table.layout.t, 7)
    assert bound[1] == 1000 and 2 ** 24 < bound[2] < 2 ** 53
    levels = _level_spy(monkeypatch)
    assert table._plan(1, 7)[2][1] == np.dtype(np.float64) == _expected_levels(table, 7)[1]
    _check_wide_group(table)
    assert (levels[-1][0], levels[-1][1]) == (True, np.dtype(np.float64))


# Canonical tables of random_code: 3^16 at t_i = 1, and 1447^3, the largest
# odd cube stored in int64, each against the node-by-node oracle.  An entry
# of A(1, 2) raised to p, just outside its canonical range, is bounded as it
# is, and the levels stay exact; raised to p^s - 1, it takes U(1) past 2^53,
# and forest (1, s + 1) splits off tree 1, whose children stay exact.
@pytest.mark.parametrize("ring,n,t", [
    pytest.param(RingSpec(3, 16), 18, (1,) * 16, id="3^16"),
    pytest.param(RingSpec(1447, 3), 10, (2, 2, 2), id="1447^3"),
])
def test_exact_levels_of_canonical_tables(ring, n, t, monkeypatch):
    sf = random_code(ring, n, t, 65)
    blocks = {key: blk.data for key, blk in extract_blocks(sf).items()}
    table = BlockMinorTable(sf)
    want = _expected_levels(table, len(t) + 1)
    assert want and table._plan(1, len(t) + 1)[2] == want
    levels = _level_spy(monkeypatch)
    _check_wide_group(table)
    assert {exact for exact, *_ in levels} == {True}
    assert {dtype for _, dtype, _, _ in levels} == set(want.values())
    storage, end = np.dtype(dtype_for(ring)), len(t) + 1
    for entry, split in ((ring.p, False), (ring.modulus - 1, True)):
        bumped = blocks[(1, 2)].copy()
        bumped[0, 0] = entry
        table = block_table(ring, sf.layout, {**blocks, (1, 2): bumped})
        want = _expected_levels(table, end)
        assert table._plan(1, end)[2] == want and (want is None) == split
        assert table._plan(2, end)[2]
        levels.clear()
        _check_wide_group(table)
        assert [dtype for exact, dtype, *_ in levels if not exact] == [storage] * split


def test_wide_inner_dimension_stays_int64(monkeypatch):
    # (m - 1)^2 * 6 < 2^63 - m < (m - 1)^2 * 7 at m = 3^19: a level product
    # whose inner dimension is 7 or more goes in int64 chunks of at most 6,
    # never in python ints.
    ring = RingSpec(3, 19)
    table = random_block_table(ring, 5, 16, random.Random(57), t=(2, 3, 2, 3, 1))
    chunks, matmul_reduced = [], minors._matmul_reduced
    spy_type = chunk_spy(chunks)

    def spy(a, b, ring, *rest):
        return matmul_reduced(a.view(spy_type), b, ring, *rest)

    monkeypatch.setattr(minors, "_matmul_reduced", spy)
    for i in range(1, 6):
        table.counters = OpCounters()
        got = tree_minor(table, i, 6 - i)
        counters, table.counters = table.counters, OpCounters()
        want = node_by_node_minor(table, i, 6 - i)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want) and counters == table.counters
    assert {dtype for _, dtype in chunks} == {np.dtype(np.int64)}
    assert max(k for k, _ in chunks) == 6


def test_minors_kernel_work_equals_counted_mults(monkeypatch):
    # The minors construction does the work the paper counts, no less: the
    # multiply-adds of its kernel calls sum to the counted products' a*b*c.
    # On minors-deep every product is an exact level; a split costs nothing
    # more either, its root products included: 3^12 at t_i = 20, whose
    # widest forests pass 2^53, and 3^20 over Python ints, n = 45, whose
    # widest passes it and whose deep forests pass the budget too.
    macs, roots = [], []

    def record(exact, a, b, _terms, _result):
        macs.append(a.shape[0] * a.shape[1] * b.shape[1])
        roots.append(not exact)

    _spy_products(monkeypatch, record)
    for ring, n, t, want, split in ((RingSpec(3, 13), 200, (2,) * 13, 5_756_688, 0),
                                    (RingSpec(3, 12), 400, (20,) * 12, 293_448_000, 4),
                                    (RingSpec(3, 20), 45, (2,) * 20, 29_358_020, 11)):
        macs.clear()
        roots.clear()
        hist = parity_check_minors(random_code(ring, n, t, 7)).counters.hist
        counted = sum(key[1] * key[2] * key[3] * count for key, count in hist.items()
                      if key[0] == "mul")
        assert sum(macs) == counted == want and sum(roots) == split, ring


# Entries of 2^40 drawn from all of [0, m) at t_i = 1: the bound of forest
# (1, 41), near 2^1600, passes float64's range.  _bounds clamps each U at
# 2^53, so no inf or nan appears, every forest of order 2 or more splits,
# and its trees, at small orders, equal the node-by-node oracle.
def test_exact_bound_clamped_past_float64_range():
    ring, s = RingSpec(2, 40), 40
    table = random_block_table(ring, s, s + 2, random.Random(66), t=(1,) * s)
    assert _bounds_by_hand(table_blocks(table), table.layout.t, s + 1)[1] > 2 ** 1024
    assert all(0 <= x <= 2 ** 53 for row in table._bounds for x in row)
    assert max(table._bounds[s + 1]) == 2 ** 53
    for end in range(2, s + 2):
        assert table._plan(1, end)[2] == _expected_levels(table, end)
    for i in range(1, s + 1):
        for j in range(1, min(4, s + 2 - i)):
            table.counters = OpCounters()
            got, counters, table.counters = tree_minor(table, i, j), table.counters, OpCounters()
            want = node_by_node_minor(table, i, j)
            assert got.dtype == want.dtype and np.array_equal(got, want) and counters == table.counters

