"""Closed-loop load generator: one client, one thread, one code per request.

Each request is the pipeline a user runs through the library or the CLI:
parse_matrix -> standard_form -> parity_check_<method> -> h_unpermuted ->
verify_parity -> format_matrix.  Requests are timed one at a time; the
independent checks run between requests, outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

from checker import check_code, read_matrix
from tracer import Tracer
from workloads import make_generator, matrix_text

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
LOOP_CAP_S = 120.0  # stop starting new codes after this much loop time
SETUP_SAMPLES = 12  # fresh-interpreter imports per run, spread between codes


def pipeline(zp, text: str, method: str):
    g = zp.parse_matrix(text)
    sf = zp.standard_form(g)
    result = getattr(zp, f"parity_check_{method}")(sf)
    h = result.h_unpermuted
    ok, _ = zp.verify_parity(g, h)
    return zp.format_matrix(h), result.counters, ok, sf


@dataclass
class Outcome:
    seconds: float
    failures: list
    h_digest: str = ""
    counters_digest: str = ""
    counts: tuple = ()
    scalar_ops: int = 0


def counters_digest(counters) -> str:
    hist = sorted(counters.hist.items(), key=repr)
    fields = (counters.big_mults, counters.big_adds, counters.small_mults, counters.small_adds, hist)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def request(zp, text: str, method: str, root=None) -> tuple:
    """Run and time one request: (seconds, pipeline output or exception)."""
    t0 = time.perf_counter()
    try:
        produced = pipeline(zp, text, method) if root is None else root(pipeline, zp, text, method)
    except Exception as exc:  # a failed request is counted, not fatal
        produced = exc
    return time.perf_counter() - t0, produced


def judge(zp, w, text: str, seconds: float, produced) -> Outcome:
    """Check one request's output against its input text with the
    independent checker."""
    if isinstance(produced, Exception):
        return Outcome(seconds, [f"raised {type(produced).__name__}"])
    out_text, counters, ok, sf = produced
    counts = (counters.big_mults, counters.big_adds, counters.small_mults, counters.small_adds)
    reference = None
    if w.method == "minors":
        reference = zp.parity_check_iterative(sf).h_unpermuted.data
    try:
        failures = check_code(w, read_matrix(text)[2], out_text, counts, reference)
    except ValueError:
        failures = ["unreadable"]
    if not ok:
        failures.append("verify_parity")
    return Outcome(
        seconds, failures,
        hashlib.sha256(out_text.encode()).hexdigest(), counters_digest(counters),
        counts, counters.total_scalar_ops(),
    )


def counter_figures(outcomes) -> dict:
    """Exact block-op counts of the first code that produced counters (every
    code of a workload has the same s, so the checker holds them equal)."""
    first = next((o for o in outcomes if o.counts), None)
    big, _, small, _ = first.counts if first else (0, 0, 0, 0)
    return {
        "opcounters.big_pairs": big,
        "opcounters.small_pairs": small,
        "opcounters.scalar_ops": first.scalar_ops if first else 0,
    }


def tail(samples) -> tuple:
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank.  With too few samples
    the maximum is returned as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100, xs[-1]
    q = 100 * (n - TAIL_BEYOND) // n
    return q, xs[max(1, math.ceil(q * n / 100)) - 1]


def combined(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def code_count(w, seconds: float) -> int:
    return max(TAIL_BEYOND + 1, round(w.rate * seconds))


def run_workload(zp, w, seed: int, ncodes: int, trace: bool = False, spans_path=None,
                 setup_src=None) -> dict:
    """Run ncodes generated codes of workload w.  With trace, each code runs
    untraced and then traced, per-layer figures come from the traced
    requests, and the spans are written to spans_path when given.  With
    setup_src, the import time of the library found there is sampled
    between codes, so the samples span the run."""
    texts = [matrix_text(make_generator(w, seed, i), w.p, w.s) for i in range(ncodes + 1)]
    request(zp, texts[-1], w.method)  # warm-up on a code outside the run
    setup = []
    if setup_src is not None:
        import_seconds(setup_src)  # fills the caches a CLI call finds warm
    stride = max(1, ncodes // SETUP_SAMPLES)

    tracer = Tracer(zp) if trace else None
    plain, traced, layers = [], [], []
    loop_start = time.perf_counter()
    for i, text in enumerate(texts[:-1]):
        if time.perf_counter() - loop_start > LOOP_CAP_S:
            break
        outcome = judge(zp, w, text, *request(zp, text, w.method))
        plain.append(outcome)
        if tracer is not None:
            with tracer.code() as root:
                seconds, produced = request(zp, text, w.method, root)
            again = judge(zp, w, text, seconds, produced)
            if (again.h_digest, again.counters_digest) != (outcome.h_digest, outcome.counters_digest):
                again.failures.append("trace-digest")
            traced.append(again)
            layers.append(tracer.layer_metrics(tracer.batches[-1]))
        if setup_src is not None and i % stride == 0 and len(setup) < SETUP_SAMPLES:
            setup.append(import_seconds(setup_src))

    outcomes = plain + traced
    failed = sum(1 for o in outcomes if o.failures)
    times = [o.seconds for o in plain]
    q, tail_value = tail(times)
    verified = sum(1 for o in plain if not o.failures)
    result = {
        "workload": w.name,
        "seed": seed,
        "codes": len(plain),
        "attempted": len(outcomes),
        "failed": failed,
        "failures": dict(Counter(f for o in outcomes for f in o.failures)),
        "tail_percentile": q,
        "code_seconds": times,
        "counters": counter_figures(plain),
        "digests": {
            "input": combined(hashlib.sha256(t.encode()).hexdigest() for t in texts[: len(plain)]),
            "h": combined(o.h_digest for o in plain),
            "counters": combined(o.counters_digest for o in plain),
        },
        "code_digests": [[o.h_digest, o.counters_digest] for o in plain],
        "end_to_end": {
            "code_s.p50": statistics.median(times),
            "code_s.tail": tail_value,
            "verified_per_s": verified / sum(times),
            "fail_frac": sum(1 for o in plain if o.failures) / len(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if setup:
        result["end_to_end"]["setup_s"] = statistics.median(setup)
    if tracer is not None:
        result["digests"]["traced_h"] = combined(o.h_digest for o in traced)
        result["digests"]["traced_counters"] = combined(o.counters_digest for o in traced)
        # median_low keeps each figure one actually measured (counts stay whole).
        per_layer = {key: statistics.median_low(d[key] for d in layers) for key in layers[0]}
        per_layer.update(result["counters"])
        per_layer["trace.overhead_s"] = (
            statistics.median(o.seconds for o in traced) - statistics.median(times)
        )
        result["per_layer"] = per_layer
        result["untraced_targets"] = tracer.missing
        if spans_path is not None:
            tracer.dump(spans_path)
    return result


def import_seconds(src: str) -> float:
    """Time of `import zpscodes` (numpy included) in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import zpscodes; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip())
