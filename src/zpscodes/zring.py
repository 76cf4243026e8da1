"""The ring Z_{p^s}: its description, its errors and unit inverses.

Elements are plain integers reduced into [0, p^s).  The ring is described
by a RingSpec which is validated once at construction and then shared (it
is immutable, so it can be passed around freely).
"""

from __future__ import annotations

from dataclasses import dataclass


class RingMismatchError(ValueError):
    """Raised when two operands belong to different rings."""


class DomainError(ValueError):
    """Raised when an argument is outside an operation's domain."""


# Miller-Rabin to these bases, the first 12 primes, is exact for every
# p < 3.18 * 10^23 (Sorenson and Webster, 2015), so for every p < 2^63.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """The ring Z_{p^s} for a prime p and exponent s >= 1."""

    p: int
    s: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise DomainError(f"p = {self.p} is not prime")
        if self.s < 1:
            raise DomainError(f"s = {self.s} must be >= 1")
        # p >= 2, so s >= 63 alone rules the ring out, before p^s is formed.
        if self.s >= 63 or self.p ** self.s >= 2 ** 63:
            raise DomainError(f"p^s = {self.p}^{self.s} does not fit in 64 bits")
        object.__setattr__(self, "_modulus", self.p ** self.s)

    @property
    def modulus(self) -> int:
        return self._modulus


def unit_inverse_int(value: int, ring: RingSpec) -> int:
    """Inverse of a unit; raises DomainError for non-units."""
    if value % ring.p == 0:
        raise DomainError(f"{value} is not a unit mod {ring.modulus}")
    return pow(value, -1, ring.modulus)
