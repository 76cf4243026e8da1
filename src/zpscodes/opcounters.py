"""Block-operation counters for the complexity model.

One block multiplication of an a x b by a b x c matrix costs P(a,b,c) = a*b*c
scalar multiplications; one block addition of a x b matrices costs
S(a,b) = a*b scalar additions.  Counters split block ops into "big" (target
in the wide n - t column group) and "small" (target in a t_i column group),
which is the split under which the closed-form totals are exact; the
predicted_counts_* functions give those totals.  Products by an order-0
identity minor are never performed, hence never counted.  Both
constructions count through record_node, count nodes of one shape at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .zring import DomainError


@dataclass
class OpCounters:
    big_mults: int = 0
    big_adds: int = 0
    small_mults: int = 0
    small_adds: int = 0
    hist: Counter = field(default_factory=Counter)

    def record_mul(self, a: int, b: int, c: int, wide: bool, count: int = 1) -> None:
        if wide:
            self.big_mults += count
        else:
            self.small_mults += count
        self.hist[("mul", a, b, c)] += count

    def record_add(self, a: int, b: int, wide: bool, count: int = 1) -> None:
        if wide:
            self.big_adds += count
        else:
            self.small_adds += count
        self.hist[("add", a, b)] += count

    def record_node(self, rows: int, inner, width: int, wide: bool, count: int = 1) -> None:
        """count nodes, each a term plus a rows x b by b x width product per b in inner."""
        for b in inner:
            self.record_mul(rows, b, width, wide, count)
        self.record_add(rows, width, wide, len(inner) * count)

    def total_scalar_ops(self) -> int:
        """P/S-weighted total: sum of a*b*c over products plus a*b over sums."""
        total = 0
        for key, count in self.hist.items():
            if key[0] == "mul":
                _, a, b, c = key
                total += a * b * c * count
            else:
                _, a, b = key
                total += a * b * count
        return total

    def summary(self) -> str:
        return (
            f"big: {self.big_mults} mults / {self.big_adds} adds; "
            f"small: {self.small_mults} mults / {self.small_adds} adds"
        )


def predicted_counts_minors(s: int) -> tuple:
    """(big pairs, small pairs) for the minors construction."""
    if s < 1:
        raise DomainError(f"s = {s} must be >= 1")
    return 2 ** s - 1 - s, 2 ** s - 1 - s * (s + 1) // 2


def predicted_counts_iterative(s: int) -> tuple:
    """(big pairs, small pairs) for the iterative construction."""
    if s < 1:
        raise DomainError(f"s = {s} must be >= 1")
    return s * (s - 1) // 2, (s ** 3 - 3 * s ** 2 + 2 * s) // 6
