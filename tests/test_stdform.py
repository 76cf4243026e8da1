import random
import tracemalloc

import numpy as np
import pytest

from zpscodes import BlockLayout, Matrix, Permutation, RingSpec, random_code, standard_form
from zpscodes import stdform
from zpscodes.matrix import (ShapeError, _exact_terms, _matmul_reduced, apply_col_permutation,
                             dtype_for, zeros)
from zpscodes.stdform import PANEL_WIDTH, _flush, extract_blocks

from codemodel import CodeSpec, cardinality, is_member
from helpers import (
    DEGENERATE_CASES,
    check_against_sequential,
    degenerate_type,
    every_matrix,
    inverse,
    random_matrix,
    row_span_set,
    sequential_standard_form,
    unimodular_row_mix,
)
from oracles import reconstruct, reduced_associated

Z4 = RingSpec(2, 2)


def test_hand_reduction_example():
    sf = standard_form(Matrix(Z4, [[2, 2], [1, 0]]))
    assert sf.matrix == Matrix(Z4, [[1, 0], [0, 2]])
    assert sf.layout.t == (1, 1)
    assert sf.perm == Permutation.identity(2)
    # both row spans are the same 8-element subgroup
    assert row_span_set(sf.matrix) == row_span_set(Matrix(Z4, [[2, 2], [1, 0]]))
    assert len(row_span_set(sf.matrix)) == 8


def test_pivot_column_swap():
    sf = standard_form(Matrix(Z4, [[2, 1]]))
    assert sf.matrix == Matrix(Z4, [[1, 2]])
    assert sf.layout.t == (1, 0)
    assert sf.perm == Permutation([2, 1])
    # span equality under the permutation
    permuted_input = apply_col_permutation(Matrix(Z4, [[2, 1]]), sf.perm)
    assert row_span_set(permuted_input) == row_span_set(sf.matrix)


def test_already_standard_is_fixed_point():
    g = Matrix(Z4, [[1, 1, 2], [0, 2, 2]])
    sf = standard_form(g)
    assert sf.matrix == g
    assert sf.perm == Permutation.identity(3)
    again = standard_form(sf.matrix)
    assert again.matrix == sf.matrix
    assert again.layout == sf.layout


def test_empty_and_zero_inputs():
    sf = standard_form(zeros(Z4, 0, 4))
    assert sf.layout.t == (0, 0)
    assert sf.matrix.shape == (0, 4)
    sf = standard_form(zeros(Z4, 3, 4))
    assert sf.layout.t == (0, 0)


def _standard_form_shape_ok(sf):
    """Structural invariants of the standard form."""
    layout = sf.layout
    ring = sf.matrix.ring
    p = ring.p
    data = sf.matrix.data
    for i in range(1, layout.s + 1):
        group = layout.group(i)
        rows = data[group]
        ti = layout.t[i - 1]
        scale = p ** (i - 1)
        # zero left of the diagonal block, scaled identity on it
        block = rows[:, : group.start]
        if block.size and block.any():
            return False
        diag = rows[:, group]
        if not np.array_equal(diag, scale * np.eye(ti, dtype=data.dtype)):
            return False
        # whole row group is a multiple of p^(i-1)
        if np.any(rows % scale):
            return False
    return True


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 2), (2, 3), (5, 1)])
def test_randomized_span_preservation(p, s):
    ring = RingSpec(p, s)
    rng = random.Random(100 * p + s)
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(0, n + 1)
        gens = random_matrix(ring, k, n, rng)
        sf = standard_form(gens)
        assert _standard_form_shape_ok(sf)
        permuted = apply_col_permutation(gens, sf.perm)
        span_in = row_span_set(permuted)
        span_out = row_span_set(sf.matrix)
        assert span_in == span_out
        # type formula matches the enumerated cardinality
        assert len(span_out) == cardinality(sf.layout, p)


def test_type_invariance_across_generating_sets():
    rng = random.Random(11)
    ring = RingSpec(2, 3)
    for _ in range(10):
        n = rng.randint(2, 5)
        gens = random_matrix(ring, rng.randint(1, n), n, rng)
        sf = standard_form(gens)
        # add redundant rows: random combinations of existing rows
        extra = []
        for _ in range(3):
            coeffs = [rng.randrange(ring.modulus) for _ in range(gens.nrows)]
            extra.append([
                sum(c * int(x) for c, x in zip(coeffs, col)) % ring.modulus
                for col in gens.data.T
            ])
        fat = Matrix(ring, gens.tolist() + extra)
        assert standard_form(fat).layout.t == sf.layout.t


def test_extract_blocks_shapes_and_reconstruction():
    rng = random.Random(12)
    for _ in range(15):
        p, s = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        ring = RingSpec(p, s)
        n = rng.randint(s, 7)
        sf = standard_form(random_matrix(ring, rng.randint(1, n), n, rng))
        blocks = extract_blocks(sf)
        layout = sf.layout
        for (i, j), block in blocks.items():
            assert block.nrows == layout.t[i - 1]
            assert block.ncols == (layout.t[j - 1] if j <= layout.s else layout.n - layout.total)
        assert reconstruct(sf) == sf.matrix


def test_block_layout_groups():
    layout = BlockLayout(9, (2, 0, 3))
    groups = [layout.group(j) for j in range(1, 5)]
    assert groups == [slice(0, 2), slice(2, 2), slice(2, 5), slice(5, 9)]
    assert BlockLayout(4, (3, 1)).group(3) == slice(4, 4)  # n = t
    for j in (0, 5):
        with pytest.raises(ShapeError):
            layout.group(j)


def test_panel_buffer_fits_the_columns():
    # 10^13 rows and no column: the panel buffer has as many columns as the
    # matrix, none, not nrows x 2 PANEL_WIDTH entries.
    rows = Matrix(Z4, np.zeros((10 ** 13, 0), np.int64))
    tracemalloc.start()
    try:
        sf = standard_form(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sf.matrix.shape == (0, 0) and sf.layout == BlockLayout(0, (0, 0))
    assert peak < 1 << 20


def test_zero_row_group_gives_empty_blocks():
    ring = RingSpec(2, 2)
    sf = standard_form(Matrix(ring, [[1, 0, 1]]))
    assert sf.layout.t == (1, 0)
    blocks = extract_blocks(sf)
    assert blocks[(2, 3)].shape == (0, 2)


def test_reduced_associated_s2_structure():
    # [[A12, A13], [Id, A23]]
    g = Matrix(Z4, [[1, 0, 1, 1, 2], [0, 1, 0, 1, 3], [0, 0, 2, 0, 2]])
    sf = standard_form(g)
    assert sf.layout.t == (2, 1)
    blocks = extract_blocks(sf)
    gra = reduced_associated(sf)
    assert gra.shape == (3, 3)
    assert gra.tolist()[0] == blocks[(1, 2)].tolist()[0] + blocks[(1, 3)].tolist()[0]
    assert gra.tolist()[2][0] == 1  # Id_{t_2}
    assert gra.tolist()[2][1:] == blocks[(2, 3)].tolist()[0]


def test_reduced_associated_s3_structure():
    ring = RingSpec(2, 3)
    rng = random.Random(13)
    sf = standard_form(random_matrix(ring, 4, 6, rng))
    layout = sf.layout
    gra = reduced_associated(sf)
    assert gra.shape == (layout.total, layout.n - layout.t[0])
    # identity blocks sit one group left of the diagonal
    blocks = extract_blocks(sf)
    for i in range(2, layout.s + 1):
        group = layout.group(i)
        sub = gra.data[group, group.start - layout.t[0] : group.stop - layout.t[0]]
        assert np.array_equal(sub, np.eye(layout.t[i - 1], dtype=sub.dtype))


def test_reduced_associated_s1_single_block():
    ring = RingSpec(3, 1)
    sf = standard_form(Matrix(ring, [[1, 2, 1]]))
    gra = reduced_associated(sf)
    assert gra == extract_blocks(sf)[(1, 2)]


def test_membership_both_directions_after_reduction():
    rng = random.Random(14)
    ring = RingSpec(2, 2)
    for _ in range(10):
        n = rng.randint(2, 5)
        gens = random_matrix(ring, rng.randint(1, n), n, rng)
        sf = standard_form(gens)
        code = CodeSpec(gens, standard=sf)
        unperm = apply_col_permutation(sf.matrix, inverse(sf.perm))
        for row in unperm.data:
            assert is_member(code, row)
        roundtrip = CodeSpec(unperm)
        for row in gens.data:
            assert is_member(roundtrip, row)


# On both sides of each switch of standard_form's working type, the first
# of int8, int16 and int32 whose matrix._exact_terms reaches PANEL_WIDTH, else
# int64: the largest modulus each type takes and the smallest past it, for
# a power of two and for an odd modulus.  No odd modulus takes int8.
TYPE_EDGES = {
    "2^6": (RingSpec(2, 6), np.int8),
    "2^7": (RingSpec(2, 7), np.int16),
    "2^14": (RingSpec(2, 14), np.int16),
    "2^15": (RingSpec(2, 15), np.int32),
    "2^30": (RingSpec(2, 30), np.int32),
    "2^31": (RingSpec(2, 31), np.int64),
    "3^1": (RingSpec(3, 1), np.int16),
    "31^1": (RingSpec(31, 1), np.int16),
    "37^1": (RingSpec(37, 1), np.int32),
    "8191^1": (RingSpec(8191, 1), np.int32),
    "8209^1": (RingSpec(8209, 1), np.int64),
}

DIFF_RINGS = {
    "2^1": RingSpec(2, 1),
    "2^4": RingSpec(2, 4),
    "3^5": RingSpec(3, 5),
    "5^3": RingSpec(5, 3),
    "1447^3": RingSpec(1447, 3),  # the largest odd cube stored as int64
    # 2^26 takes int32; then the working type's edges, where 2^31, in
    # int64, is reduced through the mask at the flush only.
    "2^26": RingSpec(2, 26),
    **{ring_id: ring for ring_id, (ring, _) in TYPE_EDGES.items()},
    # int64 buffers reduced inside a panel: every 6 updates (3^19, where
    # no wrap mod a power of two hides a missed reduction) and after every
    # update (the largest int64 prime).
    "3^19": RingSpec(3, 19),
    "3037000493": RingSpec(3037000493, 1),
    "3^21": RingSpec(3, 21),  # python ints
    "1451^3": RingSpec(1451, 3),  # python ints
}


def _scaled_rows(ring, count, ncols, valuations, rng):
    rows = []
    for _ in range(count):
        scale = ring.p ** rng.choice(valuations)
        rows.append([scale * rng.randrange(ring.modulus) % ring.modulus for _ in range(ncols)])
    return rows


def _differential_case(kind, ring, rng):
    """Generator rows that drive the blocked elimination down one path."""
    p, s, m = ring.p, ring.s, ring.modulus
    w = PANEL_WIDTH
    if kind == "panels":
        # More pivots than one panel; random entries make row swaps in the
        # middle of a panel common.
        return [[rng.randrange(m) for _ in range(w + 30)] for _ in range(w + 12)]
    if kind == "beyond-window":
        # Three pivots, then no entry of valuation 0 left in the window: the
        # next pivot column lies past it and is found only after a flush.
        ncols = 2 * w + 8
        rows = [[rng.randrange(m) for _ in range(ncols)] for _ in range(3)]
        rows += [
            [p * rng.randrange(m) % m if c < w + 8 else rng.randrange(m) for c in range(ncols)]
            for _ in range(12)
        ]
        return rows
    if kind == "far-beyond":
        # As beyond-window, but the next pivot column lies more than two
        # chunks of PANEL_WIDTH columns past the window, and rows of
        # valuation >= 1 are left at the end of stage 0, whose last search
        # then crosses every chunk without a hit.
        ncols, gap = 5 * w + 8, 3 * w + 8
        rows = [[rng.randrange(m) for _ in range(ncols)] for _ in range(3)]
        rows += [
            [p * rng.randrange(m) % m if c < gap else rng.randrange(m) for c in range(ncols)]
            for _ in range(6)
        ]
        rows += [[p * rng.randrange(m) % m for _ in range(ncols)] for _ in range(5)]
        rng.shuffle(rows)
        return rows
    if kind == "stages":
        # Rows of every valuation: a stage ends inside a panel's window.
        return _scaled_rows(ring, w + 8, w + 24, list(range(s)), rng)
    if kind == "redundant":
        base = _scaled_rows(ring, 20, w + 16, list(range(s)), rng)
        combos = []
        for _ in range(16):
            coeffs = [rng.randrange(m) for _ in base]
            combos.append([sum(a * row[c] for a, row in zip(coeffs, base)) % m
                           for c in range(w + 16)])
        rows = base + combos + [[0] * (w + 16)] * 3
        rng.shuffle(rows)
        return rows
    if kind == "gaps":
        # Valuations 1 and s - 1 only: t_1 = 0, and t_i = 0 between them.
        return _scaled_rows(ring, w + 4, w + 20, [min(1, s - 1), s - 1], rng)
    if kind == "square":
        # n = t: unit upper triangular with its columns shuffled.
        k = w + 6
        rows = [[1 if c == r else rng.randrange(m) if c > r else 0 for c in range(k)]
                for r in range(k)]
        order = list(range(k))
        rng.shuffle(order)
        return [[row[c] for c in order] for row in rows]
    if kind == "mixed":
        # Shaped like generic-gen: rows of every valuation, redundant rows
        # as combinations of them, all rows mixed by a random invertible
        # matrix (a product of elementary row operations), rows and columns
        # shuffled, and more than four panels of pivots.
        k, ncols = 4 * w + 12, 4 * w + 40
        base = np.array(_scaled_rows(ring, k, ncols, list(range(s)), rng), dtype=object)
        coeffs = np.array([[rng.randrange(m) for _ in range(k)] for _ in range(16)], dtype=object)
        rows = np.vstack([base, coeffs @ base % m])
        for _ in range(3):
            for i in range(len(rows)):
                j = rng.randrange(len(rows) - 1)
                j += j >= i
                rows[i] = (rows[i] + rng.randrange(m) * rows[j]) % m
        rows = rows[rng.sample(range(len(rows)), len(rows))]
        return rows[:, rng.sample(range(ncols), ncols)]
    if kind == "worst":
        # Each update of the first panel takes (m - 1)^2 from column 0 of X
        # in the last rows, the most a panel's headroom allows: pivot row 0
        # is (m - 1) e_0, pivot row r > 0 has m - 1 in column 0 and 1 in
        # column r, and the last rows have m - 1 in every pivot column, so
        # every quotient and every normalized X[r, 0] is m - 1.  Random
        # columns past the window carry X into the flush.
        head = [[m - 1] + [int(c == r) for c in range(1, w)] for r in range(w)]
        head += [[m - 1] * w for _ in range(4)]
        return [row + [rng.randrange(m) for _ in range(16)] for row in head]
    if kind == "no-rows":
        return np.zeros((0, 12), dtype=np.int64)
    if kind == "no-cols":
        return np.zeros((12, 0), dtype=np.int64)
    raise ValueError(kind)


DIFF_KINDS = ["panels", "beyond-window", "far-beyond", "stages", "redundant", "gaps",
              "square", "mixed", "worst", "no-rows", "no-cols"]


@pytest.mark.parametrize("kind", DIFF_KINDS)
@pytest.mark.parametrize("ring_id", list(DIFF_RINGS))
def test_blocked_matches_sequential(ring_id, kind):
    ring = DIFF_RINGS[ring_id]
    rng = random.Random(f"{ring_id}:{kind}")
    rows = _differential_case(kind, ring, rng)
    g = Matrix(ring, np.array(rows, dtype=object))
    got = standard_form(g)
    want = sequential_standard_form(g)
    assert got.matrix == want.matrix
    assert got.matrix.data.dtype == want.matrix.data.dtype
    assert got.layout == want.layout
    assert got.perm == want.perm
    # The standard form depends on the code and its column order only.
    assert standard_form(unimodular_row_mix(g, rng)) == got
    if kind == "mixed":
        assert sum(got.layout.t) > 4 * PANEL_WIDTH


def _check_canonical(ring, rows, rng):
    """standard_form(U G) == standard_form(G) in matrix, layout and perm, for
    G the rows with four redundant rows appended and its columns shuffled,
    and U a random unit lower times unit upper triangular matrix mod p^s,
    then a row shuffle.  U G is taken by the product kernel."""
    m, storage = ring.modulus, dtype_for(ring)
    base = np.array(rows, dtype=object)
    coeffs = np.array([[rng.randrange(m) for _ in base] for _ in range(4)], dtype=object)
    g = np.vstack([base, coeffs @ base % m])
    g = g[:, rng.sample(range(g.shape[1]), g.shape[1])].astype(storage)
    r = len(g)
    draws = np.array([rng.randrange(m) for _ in range(2 * r * r)], dtype=object).reshape(2, r, r)
    one = np.eye(r, dtype=np.int64).astype(object)
    lower = (np.tril(draws[0], -1) + one).astype(storage)
    upper = (np.triu(draws[1], 1) + one).astype(storage)
    mixed = _matmul_reduced(lower, _matmul_reduced(upper, g, ring), ring)[rng.sample(range(r), r)]
    want, got = standard_form(Matrix(ring, g)), standard_form(Matrix(ring, mixed))
    assert got.matrix == want.matrix and got.matrix.data.dtype == want.matrix.data.dtype
    assert got.layout == want.layout
    assert got.perm == want.perm


# The standard form depends on the code and its column order only, as a
# Howell form does: on the rings and generators of
# test_blocked_matches_sequential, and on the degenerate types.
@pytest.mark.parametrize("kind", DIFF_KINDS)
@pytest.mark.parametrize("ring_id", list(DIFF_RINGS))
def test_standard_form_is_canonical(ring_id, kind):
    ring = DIFF_RINGS[ring_id]
    rng = random.Random(f"canonical:{ring_id}:{kind}")
    _check_canonical(ring, _differential_case(kind, ring, rng), rng)


@pytest.mark.parametrize("ring_id", list(TYPE_EDGES))
def test_headroom_picks_each_working_type(ring_id, monkeypatch):
    ring, want = TYPE_EDGES[ring_id]
    m = ring.modulus
    types = [np.int8, np.int16, np.int32, np.int64]
    # standard_form runs in the first type with a panel's headroom, the
    # updates by (m - 1)^2 that it takes on an entry of [0, m) (see
    # tests/test_matrix.py::test_exact_terms_rule), int64 at the latest;
    # every scalar it combines with the buffer, p^(v+1), the mask and the
    # unit inverse, is at most m, so it fits.
    headroom = {d: _exact_terms(d, (m - 1) ** 2, m - 1, m) for d in types}
    assert next(d for d in types if d is np.int64 or headroom[d] >= PANEL_WIDTH) is want
    assert m <= np.iinfo(want).max
    seen, flush = set(), stdform._flush
    monkeypatch.setattr(stdform, "_flush", lambda work, *args: seen.add(work.dtype) or flush(work, *args))
    rng = random.Random(ring_id)
    g = Matrix(ring, np.array(_differential_case("stages", ring, rng), dtype=object))
    assert standard_form(g) == sequential_standard_form(g)
    assert seen == {np.dtype(want)}


# Every generator matrix of a small scope (ROADMAP item 5), in int8 and in
# int16; tests/exhaustive.py runs larger shapes by hand.
@pytest.mark.parametrize("p,s,shape", [(2, 2, (2, 3)), (3, 2, (2, 2))])
def test_every_small_generator_matrix(p, s, shape):
    rng = random.Random(f"every:{p}^{s}")
    for g in every_matrix(RingSpec(p, s), *shape):
        check_against_sequential(g, rng)


@pytest.mark.parametrize("case", DEGENERATE_CASES)
@pytest.mark.parametrize("p,s", [(2, 2), (2, 4), (3, 5), (55109, 2)])
def test_standard_form_is_canonical_on_degenerate_types(p, s, case):
    ring = RingSpec(p, s)
    n, t = degenerate_type(case, s)
    rng = random.Random(f"canonical:{p}^{s}:{case}")
    _check_canonical(ring, random_code(ring, n, t, 29).matrix.data, rng)


@pytest.mark.parametrize("p,s", [(3, 13), (1447, 3), (55109, 2), (3, 39)])
def test_flush_reduces_through_views(p, s):
    # _flush updates the columns right of the window through a view of
    # work, for int64 and Python-int storage alike: every entry must come
    # back reduced and equal to the product over the integers.
    ring = RingSpec(p, s)
    m = ring.modulus
    rng = random.Random(f"flush:{p}^{s}")
    nrows, ncols, r0, k, wend = 30, 70, 4, 5, 9
    rows = [[rng.randrange(m) for _ in range(ncols)] for _ in range(nrows)]
    ops = [[rng.randrange(m) for _ in range(PANEL_WIDTH)] for _ in range(nrows)]
    work = np.array(rows, dtype=dtype_for(ring), order="F")
    x = np.array(ops, dtype=dtype_for(ring), order="F")
    _flush(work, x, r0, k, wend, ring)
    for r in range(nrows):
        d = [ops[r][i] - (r == r0 + i) for i in range(k)]
        want = rows[r][:wend] + [
            (rows[r][c] + sum(d[i] * rows[r0 + i][c] for i in range(k))) % m
            for c in range(wend, ncols)
        ]
        assert [int(v) for v in work[r]] == want
        assert [int(v) for v in x[r]] == [0] * k + ops[r][k:]
