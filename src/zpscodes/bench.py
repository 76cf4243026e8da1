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
from itertools import product

import numpy as np

from .matrix import BlockLayout, Matrix, Permutation, dtype_for
from .opcounters import OpCounters, predicted_counts_iterative, predicted_counts_minors
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


def _hash_draws(seed: int, i: int, j: int, count: int, bound: int) -> list:
    """Deterministic uniform draws from [0, bound), draw k keyed by
    (seed, i, j, k): a 16-byte blake2b of the four packed as little-endian
    int64, mod bound.  The (seed, i, j) prefix is hashed once and its state
    copied for each k.  Nothing is hashed when bound <= 1."""
    if bound <= 1:
        return [0] * count
    prefix = blake2b(struct.pack("<qqq", seed, i, j), digest_size=16)
    copy, pack, from_bytes = prefix.copy, struct.Struct("<q").pack, int.from_bytes
    draws = []
    for k in range(count):
        h = copy()
        h.update(pack(k))
        draws.append(from_bytes(h.digest(), "little") % bound)
    return draws


def derive_seed(master_seed: int, trial: int) -> int:
    digest = blake2b(struct.pack("<qq", master_seed, trial), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def random_code(ring: RingSpec, n: int, type_vector, seed: int) -> StandardForm:
    """A random standard form with the identity permutation: row group i is
    p^(i-1) (0, Id, A_{i,i+1}, ..., A_{i,s+1}), the identity at column group
    i, with canonical block entries (A_{i,j} entries below p^(j-i) for pivot
    column groups, below p^(s-i+1) for the free group)."""
    layout = BlockLayout(n, type_vector)
    p, s = ring.p, ring.s
    if layout.s != s:
        raise DomainError(f"type vector length {layout.s} != s = {s}")
    g = np.zeros((layout.total, n), dtype=dtype_for(ring))
    for i in range(1, s + 1):
        rows = g[layout.group(i)]
        np.fill_diagonal(rows[:, layout.group(i)], 1)
        for j in range(i + 1, s + 2):
            cols = layout.group(j)
            shape = (layout.t[i - 1], cols.stop - cols.start)
            bound = p ** (j - i) if j <= s else p ** (s - i + 1)
            # Entry (r, c) is draw r * width + c of the block.
            draws = _hash_draws(seed, i, j, shape[0] * shape[1], bound)
            rows[:, cols] = np.array(draws, dtype=object).reshape(shape)
        rows *= p ** (i - 1)
    return StandardForm(Matrix._of_reduced(ring, g), layout, Permutation.identity(n))


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
    out, a path or file object, when given).  The whole grid is checked
    before the first construction runs.  Counters are checked against the
    predictions before anything is emitted."""
    if trials < 1:
        raise DomainError(f"trials = {trials} must be >= 1")
    grid = list(product([RingSpec(p, s) for s in s_values], ell_values, n_values))
    for ring, ell, n in grid:
        if ell < 1:
            raise DomainError(f"ell = {ell} must be >= 1")
        if n <= ring.s * ell:
            # The count predictions assume a nonempty free column group.
            raise DomainError(f"n = {n} too short for type ({ell},)*{ring.s}")
    records = []
    for ring, ell, n in grid:
        s = ring.s
        for trial in range(trials):
            sf = random_code(ring, n, (ell,) * s, derive_seed(seed, trial))
            for method, construct in _METHODS.items():
                t0 = time.perf_counter_ns()
                result = construct(sf)
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
