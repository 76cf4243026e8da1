"""Every generator matrix of a small scope through standard_form, run on
every pull request by CI, or by hand:

    python tests/exhaustive.py

Scope: every matrix of each shape up to 2 x 3 and 3 x 2 over Z_4, and of
each shape of at most 4 entries, up to 1 x 4, 2 x 2 and 4 x 1, over Z_8
and Z_9.  On each G: standard_form(G) equals the unblocked reduction of
helpers.sequential_standard_form in matrix, dtype, layout and
permutation; standard_form(U G) equals it for a random unimodular U; its
rows span the code of G with its columns permuted; and its type gives
that code's size.  Prints one line per ring and shape, and
stops at the first failure with its traceback.  Tier-1 runs the 2 x 3 grid
over Z_4 and the 2 x 2 grid over Z_9 (tests/test_stdform.py).
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zpscodes import RingSpec  # noqa: E402
from zpscodes.matrix import apply_col_permutation  # noqa: E402

from codemodel import cardinality  # noqa: E402
from helpers import check_against_sequential, every_matrix, row_span_set  # noqa: E402

# (p, s, the largest row count, the largest column count, the most entries)
SCOPE = [(2, 2, 3, 3, 6), (2, 3, 4, 4, 4), (3, 2, 4, 4, 4)]


def main() -> int:
    total = 0
    for p, s, max_rows, max_cols, max_entries in SCOPE:
        ring = RingSpec(p, s)
        shapes = [(r, c) for r in range(1, max_rows + 1) for c in range(1, max_cols + 1)
                  if r * c <= max_entries]
        for nrows, ncols in shapes:
            rng = random.Random(f"exhaustive:{p}^{s}:{nrows}x{ncols}")
            t0, count = time.perf_counter(), 0
            for g in every_matrix(ring, nrows, ncols):
                sf = check_against_sequential(g, rng)
                span = row_span_set(sf.matrix)
                assert span == row_span_set(apply_col_permutation(g, sf.perm)), g
                assert len(span) == cardinality(sf.layout, p), g
                count += 1
            total += count
            print(f"Z_{p ** s} {nrows} x {ncols}: {count} matrices pass "
                  f"({time.perf_counter() - t0:.1f} s)")
    print(f"all {total} matrices pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
