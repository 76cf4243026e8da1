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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
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
        m = self.p ** self.s
        if m >= 2 ** 63:
            raise DomainError(f"p^s = {m} does not fit in 64 bits")
        object.__setattr__(self, "_modulus", m)

    @property
    def modulus(self) -> int:
        return self._modulus


def unit_inverse_int(value: int, ring: RingSpec) -> int:
    """Inverse of a unit; raises DomainError for non-units."""
    if value % ring.p == 0:
        raise DomainError(f"{value} is not a unit mod {ring.modulus}")
    return pow(value, -1, ring.modulus)
