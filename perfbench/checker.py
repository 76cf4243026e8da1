"""Independent checks of one pipeline output.

Nothing here uses zpscodes: the parity-check text is read back with numpy,
G·Hᵀ is computed exactly on the benchmark's own copy of the generator, and
the closed-form block-operation counts are re-derived from the paper.
"""

from __future__ import annotations

import numpy as np


def closed_form_pairs(method: str, s: int) -> tuple:
    """(big, small) multiply-add pairs of each construction for a given s."""
    if method == "minors":
        return 2 ** s - 1 - s, 2 ** s - 1 - s * (s + 1) // 2
    return s * (s - 1) // 2, (s ** 3 - 3 * s ** 2 + 2 * s) // 6


def read_matrix(text: str) -> tuple:
    """(p, s, entries) of matrix text; raises ValueError when malformed."""
    header, _, body = text.partition("\n")
    p, s, nrows, ncols = (int(x) for x in header.split())
    entries = np.fromstring(body, dtype=np.int64, sep=" ") if body.strip() else np.zeros(0, np.int64)
    if entries.size != nrows * ncols:
        raise ValueError(f"expected {nrows}x{ncols} entries, read {entries.size}")
    return p, s, entries.reshape(nrows, ncols)


def product_is_zero(g: np.ndarray, h: np.ndarray, m: int) -> bool:
    """Exact test of G·Hᵀ ≡ 0 mod m: int64 when no partial sum can overflow,
    python ints otherwise."""
    n = g.shape[1]
    if (m - 1) ** 2 * max(n, 1) < 2 ** 63:
        prod = (g @ h.T) % m
    else:
        prod = (g.astype(object) @ h.T.astype(object)) % m
    return not np.any(prod != 0)


def check_code(w, g: np.ndarray, h_text: str, counts: tuple, reference_h=None) -> list:
    """Failed checks of one code, as short reasons (empty when it passes).

    g is the generator the benchmark generated, h_text the formatted H in
    the caller's coordinates, counts (big_mults, big_adds, small_mults,
    small_adds) from the result's counters.  reference_h, when given, is an
    H computed another way that must match entrywise.
    """
    failures = []
    p, s, h = read_matrix(h_text)
    if (p, s) != (w.p, w.s):
        failures.append("ring")
    if h.shape != (w.n - w.t1, w.n):
        failures.append("shape")
    elif h.size and (h.min() < 0 or h.max() >= w.modulus):
        failures.append("range")
    elif not product_is_zero(g, h, w.modulus):
        failures.append("GHt")
    big, small = closed_form_pairs(w.method, w.s)
    if tuple(counts) != (big, big, small, small):
        failures.append("counters")
    if reference_h is not None and not np.array_equal(reference_h, h):
        failures.append("methods-differ")
    return failures
