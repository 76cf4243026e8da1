import itertools
import random

import numpy as np
import pytest

from zpscodes import Matrix, RingSpec
from zpscodes.matrix import mat_add, mat_mul, mat_neg
from zpscodes.zring import DomainError, _is_prime, unit_inverse_int


def test_ringspec_validation():
    RingSpec(2, 1)
    RingSpec(7, 16)
    with pytest.raises(DomainError):
        RingSpec(4, 2)
    with pytest.raises(DomainError):
        RingSpec(1, 3)
    with pytest.raises(DomainError):
        RingSpec(3, 0)
    with pytest.raises(DomainError):
        RingSpec(2, 63)  # 2^63 does not fit


def test_is_prime_matches_sieve():
    bound = 10 ** 5
    sieve = np.ones(bound, dtype=bool)
    sieve[:2] = False
    for d in range(2, int(bound ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    assert [p for p in range(bound) if _is_prime(p)] == np.flatnonzero(sieve).tolist()


@pytest.mark.parametrize("value,prime", [
    (561, False),  # Carmichael
    (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),  # strong pseudoprime to bases 2 through 23
    (2 ** 61 - 1, True),
    ((2 ** 31 - 1) ** 2, False),
    (46337 ** 4, False),
])
def test_is_prime_large(value, prime):
    assert _is_prime(value) is prime


SMALL_RINGS = [RingSpec(2, 1), RingSpec(2, 3), RingSpec(3, 2), RingSpec(2, 6), RingSpec(7, 2)]


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: f"{r.p}^{r.s}")
def test_ring_axioms_exhaustive(ring):
    # The ring axioms on 1 x 1 matrices, against the array arithmetic the
    # package computes with.
    m = ring.modulus
    if m <= 16:
        triples = itertools.product(range(m), repeat=3)
    else:
        rng = random.Random(7)
        triples = [tuple(rng.randrange(m) for _ in range(3)) for _ in range(300)]
    for a, b, c in triples:
        ra, rb, rc = (Matrix(ring, [[x]]) for x in (a, b, c))
        assert mat_add(mat_add(ra, rb), rc) == mat_add(ra, mat_add(rb, rc))
        assert mat_mul(ra, mat_add(rb, rc)) == mat_add(mat_mul(ra, rb), mat_mul(ra, rc))
        assert mat_add(ra, mat_neg(ra)).tolist() == [[0]]


@pytest.mark.parametrize("ring", [RingSpec(2, 3), RingSpec(3, 2), RingSpec(5, 1)],
                         ids=lambda r: f"{r.p}^{r.s}")
def test_units_iff_valuation_zero(ring):
    m = ring.modulus
    for a in range(m):
        inverses = [b for b in range(m) if a * b % m == 1]
        assert bool(inverses) == (a % ring.p != 0)
        if inverses:
            assert [unit_inverse_int(a, ring)] == inverses
        else:
            with pytest.raises(DomainError):
                unit_inverse_int(a, ring)
