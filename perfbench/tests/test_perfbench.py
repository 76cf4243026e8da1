"""Tests of the benchmark itself: smoke runs, the checker and the tracer."""

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import zpscodes  # noqa: E402
from checker import check_code, closed_form_pairs, read_matrix  # noqa: E402
from harness import judge, request, run_workload, tail  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, make_generator, matrix_text  # noqa: E402

# Same generator kind and method as each workload, at a size that runs in
# well under a second per code.
TINY = {
    "iter-wide": dict(s=4, n=30, t=(2,) * 4),
    "minors-deep": dict(s=6, n=30, t=(2,) * 6),
    "generic-gen": dict(n=40, t=(4,) * 4, redundant=4),
    "bigmod": dict(n=40),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace):
    w = tiny(name)
    setup_src = None if trace else str(BENCH.parent / "src")
    result = run_workload(zpscodes, w, seed=3, ncodes=2, trace=trace, setup_src=setup_src)
    assert result["codes"] == 2
    assert result["attempted"] == (4 if trace else 2)
    e2e = result["end_to_end"]
    assert e2e["code_s.p50"] > 0 and e2e["peak_rss_mb"] > 0
    assert trace or e2e["setup_s"] > 0
    assert 0.0 <= e2e["fail_frac"] <= 1.0
    big, small = closed_form_pairs(w.method, w.s)
    assert result["counters"]["opcounters.big_pairs"] == big
    assert result["counters"]["opcounters.small_pairs"] == small
    if name != "bigmod":  # bigmod reports its failures as measured
        assert result["failed"] == 0, result["failures"]
    if trace:
        assert result["digests"]["traced_h"] == result["digests"]["h"]
        assert result["digests"]["traced_counters"] == result["digests"]["counters"]
        assert result["untraced_targets"] == []
        layers = result["per_layer"]
        assert layers["paritycheck.construct.s"] > 0
        assert layers["stdform.pivots"] == sum(w.t)
        if w.method == "minors":
            assert layers["minors.block_minor_rec.calls"] > 0


def test_generator_is_seeded_and_has_the_stated_type():
    w = tiny("generic-gen")
    text = matrix_text(make_generator(w, 5, 0), w.p, w.s)
    assert text == matrix_text(make_generator(w, 5, 0), w.p, w.s)
    assert text != matrix_text(make_generator(w, 6, 0), w.p, w.s)
    sf = zpscodes.standard_form(zpscodes.parse_matrix(text))
    assert sf.layout.t == w.t


def _passing_output(w):
    text = matrix_text(make_generator(w, 1, 0), w.p, w.s)
    outcome = judge(zpscodes, w, text, *request(zpscodes, text, w.method))
    assert outcome.failures == []
    out_text, counters, _, _ = request(zpscodes, text, w.method)[1]
    counts = (counters.big_mults, counters.big_adds, counters.small_mults, counters.small_adds)
    return read_matrix(text)[2], out_text, counts


def test_checker_flags_one_corrupted_entry():
    w = tiny("iter-wide")
    g, out_text, counts = _passing_output(w)
    assert check_code(w, g, out_text, counts) == []
    p, s, h = read_matrix(out_text)
    h = h.copy()
    h[0, 0] = (h[0, 0] + 1) % w.modulus
    assert check_code(w, g, matrix_text(h, p, s), counts) == ["GHt"]


def test_checker_flags_counter_off_by_one():
    w = tiny("minors-deep")
    g, out_text, counts = _passing_output(w)
    off = (counts[0], counts[1], counts[2] + 1, counts[3])
    assert check_code(w, g, out_text, off) == ["counters"]


def test_checker_flags_methods_that_differ():
    w = tiny("minors-deep")
    g, out_text, counts = _passing_output(w)
    reference = read_matrix(out_text)[2].copy()
    reference[-1, -1] ^= 1
    assert check_code(w, g, out_text, counts, reference) == ["methods-differ"]


def test_self_times_on_a_hand_built_tree():
    # 0: root [0, 100); 1: child [10, 40); 2: grandchild [15, 35) of 1;
    # 3: child [30, 60) overlapping 1; 4: child [90, 120) running past root.
    starts = [0, 10, 15, 30, 90]
    ends = [100, 40, 35, 60, 120]
    parents = [-1, 0, 1, 0, 0]
    got = self_times(starts, ends, parents).tolist()
    # root: children cover [10, 60) and [90, 100) -> 60 of 100.
    assert got == [40, 10, 20, 30, 30]


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(1, 26))  # 25 samples
    q, value = tail(xs)
    assert q == 60 and value == 15
    assert sum(1 for x in xs if x > value) == 10
    assert tail(range(5)) == (100, 4)
