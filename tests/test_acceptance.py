"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
with the measured quantities.  Criteria are numbered AC1-AC10.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from zpscodes import (
    Matrix,
    RingSpec,
    dual_type,
    parity_check_bruteforce,
    parity_check_iterative,
    parity_check_minors,
    predicted_counts_iterative,
    predicted_counts_minors,
    random_code,
    standard_form,
    verify_parity,
)

from codemodel import CodeSpec, cardinality, codes_equal
from helpers import cofactor_det, random_matrix, random_type, rows_as_set, row_span_set
from oracles import (
    det_structured_laplace,
    det_structured_sum,
    enumerate_restricted,
    j_set,
    z4_parity_check,
)

AC1_GRID = [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)]


def _report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


def _ac1_trials():
    for p, s in AC1_GRID:
        rng = random.Random(7000 + 100 * p + s)
        for trial in range(50):
            n = rng.randint(1, 5)
            t = random_type(n, s, rng)
            yield p, s, random_code(RingSpec(p, s), n, t, rng.randrange(2 ** 32))


def test_ac1_oracle_equivalence():
    t0 = time.perf_counter()
    trials = 0
    for p, s, sf in _ac1_trials():
        m = sf.matrix.ring.modulus
        gens = sf.matrix
        brute = parity_check_bruteforce(gens)
        for construct in (parity_check_minors, parity_check_iterative):
            h = construct(sf).h_unpermuted
            # orthogonality puts span(H) inside the dual ...
            assert not (gens.data.astype(object) @ h.data.astype(object).T % m).any()
            # ... and matching cardinality makes the containment an equality
            span_size = cardinality(standard_form(h).layout, p)
            assert span_size == brute.nrows
            if m ** sf.layout.n <= 2 ** 16:
                assert row_span_set(h) == rows_as_set(brute)
        trials += 1
    elapsed = time.perf_counter() - t0
    _report("AC1", trials == 250 and elapsed < 120,
            f"{trials} trials, span(H) = brute-force dual for both methods, "
            f"{elapsed:.1f}s (< 120s)")


def test_ac2_entrywise_method_agreement():
    rng = random.Random(7100)
    agree = 0
    trials = 500
    for _ in range(trials):
        p = rng.choice([2, 3, 5, 7])
        s = rng.randint(1, 8)
        ring = RingSpec(p, s)
        n = rng.randint(max(s, 2), 64)
        sf = random_code(ring, n, random_type(n, s, rng), rng.randrange(2 ** 32))
        a = parity_check_minors(sf)
        b = parity_check_iterative(sf)
        if a.h.data.tobytes() == b.h.data.tobytes() and a.h_unpermuted == b.h_unpermuted:
            agree += 1
    _report("AC2", agree == trials,
            f"{agree}/{trials} byte-identical up to p=7, s=8, n=64")


def test_ac3_orthogonality_at_scale():
    ring = RingSpec(3, 10)
    worst = 0.0
    for trial in range(100):
        sf = random_code(ring, 1000, (2,) * 10, 7300 + trial)
        t0 = time.perf_counter()
        for construct in (parity_check_minors, parity_check_iterative):
            result = construct(sf)
            ok, witness = verify_parity(sf.matrix, result.h)
            assert ok, f"trial {trial}: nonzero product at {witness}"
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert elapsed < 60
    _report("AC3", True,
            f"100 codes (p=3, s=10, n=1000, l=2) verified GH^T = 0; "
            f"worst construction+verification {worst:.2f}s (< 60s)")


def test_ac4_dual_type():
    checked = 0
    for p, s, sf in _ac1_trials():
        layout = sf.layout
        want = dual_type(layout)
        h = parity_check_iterative(sf)
        assert h.h.nrows == want.total
        assert standard_form(h.h_unpermuted).layout.t == want.t
        assert cardinality(layout, p) * cardinality(want, p) == p ** (s * layout.n)
        checked += 1
    # the large-scale family from AC3: row count and scaling structure only
    ring = RingSpec(3, 10)
    for trial in range(3):
        sf = random_code(ring, 1000, (2,) * 10, 7300 + trial)
        want = dual_type(sf.layout)
        h = parity_check_iterative(sf).h
        assert h.nrows == want.total
        assert cardinality(sf.layout, 3) * cardinality(want, 3) == 3 ** (10 * 1000)
        checked += 1
    _report("AC4", True,
            f"{checked} trials: H has type (n; n-t, t_s..t_2) and "
            f"|C| |C_dual| = p^(sn)")


def test_ac5_exact_operation_counts():
    mismatches = []
    for s in range(2, 13):
        for ell in (1, 2, 3):
            n = s * ell + 3
            ring = RingSpec(2, s) if s != 4 else RingSpec(3, s)
            sf = random_code(ring, n, (ell,) * s, 7500 + s + ell)
            for construct, predict, name in [
                (parity_check_minors, predicted_counts_minors, "minors"),
                (parity_check_iterative, predicted_counts_iterative, "iterative"),
            ]:
                c = construct(sf).counters
                big, small = predict(s)
                got = (c.big_mults, c.big_adds, c.small_mults, c.small_adds)
                if got != (big, big, small, small):
                    mismatches.append((name, s, ell, got))
    _report("AC5", not mismatches,
            "instrumented pair counts equal 2^s-1-s / 2^s-1-s(s+1)/2 (minors) "
            f"and s(s-1)/2 / (s^3-3s^2+2s)/6 (iterative), s=2..12; "
            f"mismatches: {mismatches or 'none'}")


def test_ac6_restricted_permutation_combinatorics():
    for n in range(1, 13):
        assert len(enumerate_restricted(n)) == 2 ** (n - 1)
    for n in range(1, 9):
        brute = sorted(
            images
            for images in itertools.permutations(range(1, n + 1))
            if all(images[h - 1] >= h - 1 for h in range(1, n + 1))
        )
        assert sorted(perm.images for perm in enumerate_restricted(n)) == brute
    for j in range(1, 9):
        for sigma in enumerate_restricted(j):
            js = j_set(sigma)
            for a, b in zip(js, js[1:]):
                assert b == sigma.images[a - 1] + 1
    _report("AC6", True,
            "|restricted group| = 2^(n-1) for n <= 12, matches filtered "
            "enumeration for n <= 8; consecutive-index law holds for j <= 8")


def test_ac7_determinant_agreement():
    rings = [RingSpec(2, 2), RingSpec(2, 4), RingSpec(2, 6), RingSpec(3, 2),
             RingSpec(3, 4), RingSpec(5, 2), RingSpec(7, 2)]
    rng = random.Random(7700)
    from helpers import structured_matrix
    for _ in range(1000):
        ring = rng.choice(rings)
        n = rng.randint(1, 6)
        a = structured_matrix(ring, n, rng)
        want = cofactor_det(a.tolist(), ring.modulus)
        assert det_structured_sum(a) == want
        assert det_structured_laplace(a) == want
    # 3x3 symbolic identity, checked by evaluation
    ring = RingSpec(3, 2)
    m = ring.modulus
    for _ in range(10):
        e = {k: rng.randrange(m) for k in ["11", "12", "13", "22", "23", "33"]}
        mat = Matrix(ring, [[e["11"], e["12"], e["13"]],
                            [1, e["22"], e["23"]],
                            [0, 1, e["33"]]])
        want = (e["11"] * e["22"] * e["33"] - e["12"] * e["33"]
                - e["11"] * e["23"] + e["13"]) % m
        assert det_structured_sum(mat) == want
    _report("AC7", True,
            "1000 structured matrices (n <= 6, modulus <= 81): signed-sum, "
            "block-Laplace and cofactor oracle agree; 3x3 identity holds on "
            "10 evaluations")


def test_ac8_quaternary_compatibility():
    ring = RingSpec(2, 2)
    rng = random.Random(7800)
    for _ in range(100):
        n = rng.randint(1, 10)
        gens = random_matrix(ring, rng.randint(0, n), n, rng)
        sf = standard_form(gens)
        assert codes_equal(
            CodeSpec(z4_parity_check(sf)),
            CodeSpec(parity_check_minors(sf).h),
        )
    _report("AC8", True,
            "100 random quaternary codes (n <= 10): the (-(S+RT)^T | T^T | I; "
            "2R^T | 2I | 0) construction and the minors method generate "
            "equal codes")


def _ac9_closed_form_ratio(s, n, ell):
    """Minors/iterative P/S-weighted scalar ops from the paper's closed forms.

    A big pair is an ell x ell by ell x w product plus an ell x w sum, with
    w = n - s*ell; a small pair is an ell x ell product plus an ell x ell sum.
    Written out here, not taken from the library, so the oracle is independent.
    """
    w = n - s * ell
    big_cost = ell * ell * w + ell * w
    small_cost = ell ** 3 + ell ** 2
    minors = (2 ** s - 1 - s) * big_cost + (2 ** s - 1 - s * (s + 1) // 2) * small_cost
    iterative = (s * (s - 1) // 2) * big_cost + ((s ** 3 - 3 * s ** 2 + 2 * s) // 6) * small_cost
    return Fraction(minors, iterative)


def test_ac9_scaling_trend():
    n, ell = 1000, 2
    ring8, ring16 = RingSpec(3, 8), RingSpec(3, 16)

    def ratio(ring, s):
        sf = random_code(ring, n, (ell,) * s, 7900 + s)
        c_min = parity_check_minors(sf).counters
        c_it = parity_check_iterative(sf).counters
        return Fraction(c_min.total_scalar_ops(), c_it.total_scalar_ops())

    r8, r16 = ratio(ring8, 8), ratio(ring16, 16)
    growth = r16 / r8
    predicted = _ac9_closed_form_ratio(16, n, ell) / _ac9_closed_form_ratio(8, n, ell)
    ratio_ok = growth == predicted

    wins = 0
    for trial in range(10):
        sf = random_code(ring16, n, (ell,) * 16, 7950 + trial)
        t0 = time.perf_counter_ns()
        parity_check_minors(sf)
        t_min = time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        parity_check_iterative(sf)
        t_it = time.perf_counter_ns() - t0
        if t_it < t_min:
            wins += 1
    wall_ok = wins >= 9
    _report("AC9", ratio_ok and wall_ok,
            f"op ratio minors/iterative: {float(r8):.4f}x at s=8, "
            f"{float(r16):.3f}x at s=16; growth {float(growth):.3f} measured, "
            f"{float(predicted):.3f} from the closed forms "
            f"({'exactly equal' if ratio_ok else f'{growth} != {predicted}'}); "
            f"iterative faster in {wins}/10 wall-clock trials (needs >= 9)")


def test_ac10_double_dual():
    rng = random.Random(7999)
    for _ in range(100):
        p, s = rng.choice([(2, 2), (2, 3), (3, 2), (5, 2), (2, 4)])
        ring = RingSpec(p, s)
        n = rng.randint(1, 20)
        gens = random_matrix(ring, rng.randint(0, n), n, rng)
        code = CodeSpec(gens)
        h = parity_check_iterative(code.standard).h_unpermuted
        hh = parity_check_iterative(standard_form(h)).h_unpermuted
        assert codes_equal(code, CodeSpec(hh))
    _report("AC10", True,
            "100 random codes (n <= 20): the dual of the dual equals the "
            "original code by mutual generator membership")
