"""Instrumented benchmark harness.

Runs both parity-check constructions over a parameter grid of random codes
of type (n; l, ..., l), records wall-clock time and exact block-operation
counters, verifies the counters against the closed-form predictions, and
emits CSV.  All randomness is counter-based (hash of seed and position), so
matrices and counters are bit-reproducible regardless of platform or
execution order.
"""

from __future__ import annotations

import csv
import struct
import time
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from .codemodel import CodeSpec
from .matrix import BlockLayout, Matrix, Permutation, dtype_for
from .opcounters import OpCounters
from .paritycheck import parity_check_iterative, parity_check_minors
from .stdform import StandardForm
from .zring import DomainError, RingSpec

CSV_COLUMNS = [
    "method", "p", "s", "n", "ell", "trial", "seed", "wall_ns",
    "big_mults", "big_adds", "small_mults", "small_adds",
]


class CounterMismatchError(AssertionError):
    """Instrumented counts disagree with the closed-form prediction; this is
    a correctness failure, not a benchmark artifact."""


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


def _hash_uniform(seed: int, i: int, j: int, index: int, bound: int) -> int:
    """Deterministic uniform draw from [0, bound) keyed by position."""
    if bound <= 1:
        return 0
    digest = blake2b(
        struct.pack("<qqqq", seed, i, j, index), digest_size=16
    ).digest()
    return int.from_bytes(digest, "little") % bound


def derive_seed(master_seed: int, trial: int) -> int:
    digest = blake2b(struct.pack("<qq", master_seed, trial), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def random_code(ring: RingSpec, n: int, type_vector, seed: int) -> CodeSpec:
    """A random code given directly by a standard-form generator matrix with
    canonical block entries (A_{i,j} entries below p^(j-i) for pivot column
    groups, below p^(s-i+1) for the free group)."""
    layout = BlockLayout(n, type_vector)
    p, s = ring.p, ring.s
    if layout.s != s:
        raise DomainError(f"type vector length {layout.s} != s = {s}")
    g = np.zeros((layout.total, n), dtype=dtype_for(ring))
    for i in range(1, s + 1):
        scale = p ** (i - 1)
        r0 = layout.row_offset(i)
        ti = layout.t[i - 1]
        for r in range(ti):
            g[r0 + r, layout.col_offset(i) + r] = scale
        for j in range(i + 1, s + 2):
            c0 = layout.col_offset(j)
            w = layout.group_width(j)
            bound = p ** (j - i) if j <= s else p ** (s - i + 1)
            for r in range(ti):
                for c in range(w):
                    g[r0 + r, c0 + c] = scale * _hash_uniform(seed, i, j, r * w + c, bound)
    matrix = Matrix(ring, g)
    sf = StandardForm(matrix, layout, Permutation.identity(n))
    return CodeSpec(matrix, standard=sf)


@dataclass(frozen=True)
class BenchRecord:
    method: str
    p: int
    s: int
    n: int
    ell: int
    trial: int
    seed: int
    wall_ns: int
    counters: OpCounters

    def row(self) -> list:
        c = self.counters
        return [
            self.method, self.p, self.s, self.n, self.ell, self.trial,
            self.seed, self.wall_ns,
            c.big_mults, c.big_adds, c.small_mults, c.small_adds,
        ]


_METHODS = {"minors": parity_check_minors, "iterative": parity_check_iterative}
_PREDICTIONS = {"minors": predicted_counts_minors, "iterative": predicted_counts_iterative}


def _verify_counters(method: str, s: int, counters: OpCounters) -> None:
    big, small = _PREDICTIONS[method](s)
    got = (counters.big_mults, counters.big_adds, counters.small_mults, counters.small_adds)
    if got != (big, big, small, small):
        raise CounterMismatchError(
            f"{method} s={s}: predicted big/small pairs ({big}, {small}), "
            f"instrumented mults/adds {got}"
        )


def run_suite(p: int, s_values, ell_values, n_values, trials: int, seed: int,
              out=None) -> list:
    """Run the full grid and return BenchRecords (also written as CSV rows to
    out, a path or file object, when given).  Counters are checked against
    the predictions before anything is emitted."""
    ring_cache = {}
    records = []
    for s in s_values:
        ring = ring_cache.setdefault(s, RingSpec(p, s))
        for ell in ell_values:
            for n in n_values:
                if n <= s * ell:
                    # The count predictions assume a nonempty free column group.
                    raise DomainError(f"n = {n} too short for type ({ell},)*{s}")
                for trial in range(trials):
                    code = random_code(ring, n, (ell,) * s, derive_seed(seed, trial))
                    for method, construct in _METHODS.items():
                        t0 = time.perf_counter_ns()
                        result = construct(code.standard)
                        wall = time.perf_counter_ns() - t0
                        _verify_counters(method, s, result.counters)
                        records.append(BenchRecord(
                            method, p, s, n, ell, trial, seed, wall, result.counters
                        ))
    records.sort(key=lambda r: (r.method, r.p, r.s, r.n, r.ell, r.trial))
    if out is not None:
        if hasattr(out, "write"):
            _write_csv(out, records)
        else:
            with open(out, "w", newline="") as fh:
                _write_csv(fh, records)
    return records


def _write_csv(fh, records) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.row())
