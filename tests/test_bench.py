import csv
import io
import random
import struct
from hashlib import blake2b

import pytest

from zpscodes import (
    RingSpec,
    parity_check_iterative,
    parity_check_minors,
    predicted_counts_iterative,
    predicted_counts_minors,
    random_code,
    run_suite,
)
from zpscodes import bench
from zpscodes.bench import CSV_COLUMNS, CounterMismatchError, _hash_draws, derive_seed
from zpscodes.stdform import standard_form
from zpscodes.zring import DomainError

from helpers import miscount_big_mults


def test_predicted_counts_small_cases():
    assert predicted_counts_minors(1) == (0, 0)
    assert predicted_counts_minors(2) == (1, 0)
    assert predicted_counts_minors(3) == (4, 1)
    assert predicted_counts_minors(4) == (11, 5)
    assert predicted_counts_iterative(1) == (0, 0)
    assert predicted_counts_iterative(2) == (1, 0)
    assert predicted_counts_iterative(3) == (3, 1)
    assert predicted_counts_iterative(4) == (6, 4)


def test_hash_draws_match_one_hash_per_index(monkeypatch):
    # The draws random_code has always made: one blake2b of the packed
    # (seed, i, j, index) for each index.
    def keyed(seed, i, j, index, bound):
        digest = blake2b(struct.pack("<qqqq", seed, i, j, index), digest_size=16).digest()
        return int.from_bytes(digest, "little") % bound

    for seed, i, j, count, bound in [(0, 1, 2, 7, 2), (-5, 3, 11, 40, 3 ** 9),
                                     (2 ** 62, 1, 4, 3, 2 ** 62), (9, 2, 3, 0, 5)]:
        want = [keyed(seed, i, j, k, bound) for k in range(count)]
        assert _hash_draws(seed, i, j, count, bound) == want
    # A bound of 1 or less draws nothing.
    monkeypatch.setattr(bench, "blake2b", None)
    assert _hash_draws(3, 1, 2, 4, 1) == [0] * 4


def test_predictions_match_instrumented_runs():
    for p, s in [(2, 2), (2, 5), (3, 4), (2, 7)]:
        ring = RingSpec(p, s)
        sf = random_code(ring, 3 * s + 2, (2,) * s, 99)
        for construct, predict in [
            (parity_check_minors, predicted_counts_minors),
            (parity_check_iterative, predicted_counts_iterative),
        ]:
            c = construct(sf).counters
            big, small = predict(s)
            assert (c.big_mults, c.big_adds) == (big, big)
            assert (c.small_mults, c.small_adds) == (small, small)


def test_random_code_is_standard_and_deterministic():
    ring = RingSpec(3, 3)
    a = random_code(ring, 10, (2, 1, 2), 7)
    b = random_code(ring, 10, (2, 1, 2), 7)
    assert a == b
    assert a.layout.t == (2, 1, 2)
    assert a.perm.images == tuple(range(1, 11))
    # already in standard form: reduction is the identity
    assert standard_form(a.matrix) == a


def test_random_code_seed_sensitivity():
    ring = RingSpec(2, 3)
    rng = random.Random(300)
    distinct = 0
    for _ in range(100):
        s1, s2 = rng.randrange(2 ** 40), rng.randrange(2 ** 40)
        if s1 == s2:
            continue
        a = random_code(ring, 8, (1, 1, 1), s1)
        b = random_code(ring, 8, (1, 1, 1), s2)
        if a.matrix != b.matrix:
            distinct += 1
    assert distinct >= 95


def test_derive_seed_spreads_trials():
    seeds = {derive_seed(42, t) for t in range(64)}
    assert len(seeds) == 64


def test_run_suite_row_count_and_csv():
    buf = io.StringIO()
    records = run_suite(2, [2, 3], [1], [8, 12], trials=3, seed=5, out=buf)
    assert len(records) == 2 * 2 * 2 * 3  # methods x s x n x trials
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == len(records) + 1
    # deterministic apart from wall time
    buf2 = io.StringIO()
    run_suite(2, [2, 3], [1], [8, 12], trials=3, seed=5, out=buf2)
    rows2 = list(csv.reader(io.StringIO(buf2.getvalue())))
    drop_wall = lambda r: r[:7] + r[8:]
    assert [drop_wall(r) for r in rows] == [drop_wall(r) for r in rows2]


def test_run_suite_rejects_short_lengths():
    with pytest.raises(DomainError):
        run_suite(2, [4], [2], [8], trials=1, seed=0)


def test_counter_fault_is_detected(monkeypatch):
    miscount_big_mults(monkeypatch)
    with pytest.raises(CounterMismatchError):
        run_suite(2, [2], [1], [5], trials=1, seed=0)


def test_iterative_counts_grow_with_s():
    prev = predicted_counts_iterative(2)
    for s in range(3, 20):
        cur = predicted_counts_iterative(s)
        assert cur[0] > prev[0] and cur[1] > prev[1]
        prev = cur


def test_scalar_weighted_ratio_growth():
    # For fixed ell and n, the scalar-op ratio minors/iterative grows by at
    # least 1.5x per unit of s once s >= 8.
    ell, n = 2, 1000
    def scalar_ops(s, predict):
        big, small = predict(s)
        wide = n - s * ell
        return big * (ell * ell * wide + ell * wide) + small * (ell ** 3 + ell * ell)

    prev = None
    for s in range(8, 17):
        ratio = scalar_ops(s, predicted_counts_minors) / scalar_ops(s, predicted_counts_iterative)
        if prev is not None:
            assert ratio >= 1.5 * prev
        prev = ratio
