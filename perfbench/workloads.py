"""Workload definitions and the seeded input generator.

The generator is self-contained: it uses only numpy and hashlib, never the
zpscodes package, so an edit to the library cannot change the inputs.  Each
input is the text of a generator matrix in the library's matrix format
(header ``p s nrows ncols``, then one row per line).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    s: int
    n: int
    t: tuple
    method: str
    # Codes per second of --seconds: fixes the code count of a run (and so
    # the rank of its tail percentile) independently of how fast the program
    # under test is.  Measured on the library as first benchmarked.
    rate: float
    # Redundant rows appended as random combinations of the base rows; when
    # nonzero the rows are also mixed by a random invertible matrix.
    redundant: int = 0

    @property
    def modulus(self) -> int:
        return self.p ** self.s

    @property
    def t1(self) -> int:
        return self.t[0]


WORKLOADS = {
    w.name: w
    for w in (
        # Tiny block algebra; assembling H^T and formatting H dominate.
        Workload("iter-wide", 3, 10, 1000, (2,) * 10, "iterative", rate=1.0),
        # About 16k small block ops: per-op overhead of the recursion dominates.
        Workload("minors-deep", 3, 13, 200, (2,) * 13, "minors", rate=1.9),
        # Redundant, mixed generators: standard_form and verify_parity dominate.
        Workload("generic-gen", 2, 4, 600, (60,) * 4, "iterative", rate=1.0, redundant=60),
        # Modulus above 2^31.5: the python-int paths and the mat_scalar overflow.
        Workload("bigmod", 3, 30, 80, (1,) * 30, "iterative", rate=5.0),
    )
}


class Stream:
    """Deterministic uniform integers keyed by (seed, label), from SHAKE-256."""

    def __init__(self, seed: int, label: str):
        self.key = f"{seed}:{label}".encode()

    def ints(self, label: str, count: int, bound: int) -> np.ndarray:
        """count uniform draws from [0, bound) as int64 (bound < 2^63)."""
        raw = hashlib.shake_256(self.key + b":" + label.encode()).digest(8 * count)
        return (np.frombuffer(raw, dtype="<u8") % np.uint64(bound)).astype(np.int64)

    def permutation(self, label: str, n: int) -> np.ndarray:
        return np.argsort(self.ints(label, n, 2 ** 63), kind="stable")


def canonical_standard_form(w: Workload, rng: Stream) -> np.ndarray:
    """A standard-form generator of type t: row group i holds p^(i-1)*Id in
    column group i and p^(i-1)*A_{i,j} to its right, with A_{i,j} entries
    below p^(j-i) (pivot groups) or p^(s-i+1) (the free group)."""
    p, s, n, t = w.p, w.s, w.n, w.t
    starts = np.concatenate(([0], np.cumsum(t)))
    g = np.zeros((int(starts[-1]), n), dtype=np.int64)
    for i in range(1, s + 1):
        r0, ti = int(starts[i - 1]), t[i - 1]
        scale = p ** (i - 1)
        g[r0 : r0 + ti, r0 : r0 + ti] = scale * np.eye(ti, dtype=np.int64)
        for j in range(i + 1, s + 2):
            c0 = int(starts[j - 1])
            width = t[j - 1] if j <= s else n - int(starts[-1])
            bound = p ** (j - i) if j <= s else p ** (s - i + 1)
            block = rng.ints(f"A{i},{j}", ti * width, bound).reshape(ti, width)
            g[r0 : r0 + ti, c0 : c0 + width] = scale * block
    return g


def _matmul_mod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    bound = (m - 1) ** 2 * max(a.shape[1], 1)
    if bound < 2 ** 53:  # every partial sum is an integer exact in float64
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % m
    if bound < 2 ** 63:
        return (a @ b) % m
    return ((a.astype(object) @ b.astype(object)) % m).astype(np.int64)


def make_generator(w: Workload, seed: int, index: int) -> np.ndarray:
    """The index-th generator matrix of workload w for seed (int64, entries
    reduced mod p^s).  It generates a code of type t."""
    m = w.modulus
    rng = Stream(seed, f"{w.name}:{index}")
    g = canonical_standard_form(w, rng)
    if w.redundant:
        k = g.shape[0]
        combos = rng.ints("redundant", w.redundant * k, m).reshape(w.redundant, k)
        g = np.vstack([g, _matmul_mod(combos, g, m)])
        rows = g.shape[0]
        lower = np.tril(rng.ints("lower", rows * rows, m).reshape(rows, rows), -1)
        upper = np.triu(rng.ints("upper", rows * rows, m).reshape(rows, rows), 1)
        eye = np.eye(rows, dtype=np.int64)
        mix = _matmul_mod(lower + eye, upper + eye, m)  # determinant 1
        g = _matmul_mod(mix, g, m)
        g = g[rng.permutation("rows", rows)]
    return g[:, rng.permutation("cols", w.n)]


def matrix_text(g: np.ndarray, p: int, s: int) -> str:
    lines = [f"{p} {s} {g.shape[0]} {g.shape[1]}"]
    lines.extend(" ".join(map(str, row)) for row in g.tolist())
    return "\n".join(lines) + "\n"

