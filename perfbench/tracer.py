"""Span tracing of the zpscodes modules, installed from outside the package.

While installed, every traced function is replaced, at each module attribute
that refers to it, by a wrapper that records a span: name, start, end and
parent.  Spans live in memory, one batch per code, and are dumped when the
run ends.  Nothing in the package itself is edited.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_CONSTRUCT = ("paritycheck.parity_check_minors", "paritycheck.parity_check_iterative")
# Block algebra and Hᵀ assembly: the direct children of a construction span.
_ALGEBRA = ("minors.block_minor_rec", "minors._counted_mul", "minors._counted_add", "matrix.mat_neg")
_ASSEMBLE = ("matrix.insert_block", "matrix.mat_scalar", "matrix.identity", "matrix.mat_transpose")


def _object_mul(args, _out) -> int:
    """1 when the modulus and inner dimension force the python-int product."""
    a = args[0]
    m, k = a.ring.modulus, a.ncols
    return int(k > 0 and (m > 2 ** 62 or (m - 1) ** 2 * k >= 2 ** 63))


# (span name, module, attribute path, per-call count computed from the call)
TARGETS = (
    ("matrix.Matrix", "matrix", "Matrix.__init__", lambda args, _out: args[0].data.nbytes),
    ("matrix.zeros", "matrix", "zeros", None),
    ("matrix.identity", "matrix", "identity", None),
    ("matrix.mat_add", "matrix", "mat_add", None),
    ("matrix.mat_neg", "matrix", "mat_neg", None),
    ("matrix.mat_scalar", "matrix", "mat_scalar", None),
    ("matrix.mat_mul", "matrix", "mat_mul", _object_mul),
    ("matrix.mat_transpose", "matrix", "mat_transpose", None),
    ("matrix.insert_block", "matrix", "insert_block", lambda args, _out: args[0].data.nbytes),
    ("matrix.extract_block", "matrix", "extract_block", None),
    ("matrix.apply_col_permutation", "matrix", "apply_col_permutation", None),
    ("matrix.parse_matrix", "matrix", "parse_matrix", None),
    ("matrix.format_matrix", "matrix", "format_matrix", None),
    ("stdform.standard_form", "stdform", "standard_form", lambda _args, out: out.layout.total),
    ("stdform.extract_blocks", "stdform", "extract_blocks", None),
    ("minors.block_minor_rec", "minors", "BlockMinorTable.block_minor_rec", None),
    ("minors._counted_mul", "minors", "BlockMinorTable._counted_mul", None),
    ("minors._counted_add", "minors", "BlockMinorTable._counted_add", None),
    ("paritycheck.parity_check_minors", "paritycheck", "parity_check_minors", None),
    ("paritycheck.parity_check_iterative", "paritycheck", "parity_check_iterative", None),
    ("paritycheck.verify_parity", "paritycheck", "verify_parity", None),
    ("opcounters.record_mul", "opcounters", "OpCounters.record_mul", None),
    ("opcounters.record_add", "opcounters", "OpCounters.record_add", None),
)
ROOT = "code"
LAYERS = ("matrix", "stdform", "minors", "paritycheck", "opcounters")


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of its interval that its children
    cover (the union of their intervals, clipped to the parent's)."""
    starts, ends, parents = (np.asarray(x, dtype=np.int64) for x in (starts, ends, parents))
    covered = np.zeros(len(starts), dtype=np.int64)
    reached = {}  # parent -> end of the covered part so far
    for i in np.argsort(starts, kind="stable").tolist():
        p = int(parents[i])
        if p < 0:
            continue
        lo = max(int(starts[i]), reached.get(p, int(starts[p])))
        hi = min(int(ends[i]), int(ends[p]))
        if hi > lo:
            covered[p] += hi - lo
            reached[p] = hi
    return ends - starts - covered


class Tracer:
    """Records spans of one code at a time while installed."""

    def __init__(self, package):
        self.package = package
        self.table = [name for name, *_ in TARGETS] + [ROOT]
        self._id = {name: i for i, name in enumerate(self.table)}
        self._spans = ([], [], [], [], [])  # name id, parent, start, end, count
        self._errors = []
        self._stack = [-1]
        self._patches = []
        self.missing = []
        self.batches = []  # one tuple of arrays per finished code

    def _wrap(self, fn, name: str, count):
        names, parents, starts, ends, counts = self._spans
        errors, stack, clock = self._errors, self._stack, time.perf_counter_ns
        name_id = self._id[name]

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            counts.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counts[idx] = count(args, out)
            return out

        return traced

    def _modules(self):
        prefix = self.package.__name__
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == prefix or key.startswith(prefix + "."))]

    def install(self) -> None:
        self.missing = []
        modules = self._modules()
        for name, modname, path, count in TARGETS:
            module = sys.modules.get(f"{self.package.__name__}.{modname}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, count)
            owners = [owner] if owner_name else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    @contextmanager
    def code(self):
        """Install the wrappers and record the enclosed request as one code."""
        self.install()
        try:
            yield self._wrap(lambda fn, *args: fn(*args), ROOT, None)
        finally:
            self.uninstall()
            self._finish_code()

    def _finish_code(self) -> None:
        arrays = tuple(np.array(col, dtype=np.int64) for col in self._spans)
        errors = np.array(self._errors, dtype=np.int64)
        for col in self._spans:
            col.clear()
        self._errors.clear()
        self.batches.append(arrays + (errors,))

    def layer_metrics(self, batch) -> dict:
        """Per-layer figures of one traced code (seconds, counts, bytes)."""
        names, parents, starts, ends, counts, errors = batch
        ids = self._id
        dur = ends - starts
        parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)
        construct = np.isin(names, [ids[n] for n in _CONSTRUCT])
        in_construct = np.isin(parents, np.flatnonzero(construct))

        def mask(*span_names):
            return np.isin(names, [ids[n] for n in span_names])

        def seconds(selected) -> float:
            return float(dur[selected].sum()) / 1e9

        def inclusive(name) -> float:
            # Outermost calls only, so recursion is not counted twice.
            return seconds(mask(name) & (parent_names != ids[name]))

        rec = mask("minors.block_minor_rec")
        out = {
            "matrix.parse_matrix.s": inclusive("matrix.parse_matrix"),
            "matrix.format_matrix.s": inclusive("matrix.format_matrix"),
            "matrix.insert_block.calls": int(mask("matrix.insert_block").sum()),
            "matrix.insert_block.s": inclusive("matrix.insert_block"),
            "matrix.insert_block.bytes": int(counts[mask("matrix.insert_block")].sum()),
            "matrix.Matrix.calls": int(mask("matrix.Matrix").sum()),
            "matrix.Matrix.s": inclusive("matrix.Matrix"),
            "matrix.Matrix.bytes": int(counts[mask("matrix.Matrix")].sum()),
            "matrix.mat_mul.calls": int(mask("matrix.mat_mul").sum()),
            "matrix.mat_mul.s": inclusive("matrix.mat_mul"),
            "matrix.mat_mul.object_calls": int(counts[mask("matrix.mat_mul")].sum()),
            "matrix.mat_add.s": inclusive("matrix.mat_add"),
            "matrix.mat_neg.s": inclusive("matrix.mat_neg"),
            "matrix.mat_scalar.s": inclusive("matrix.mat_scalar"),
            "stdform.standard_form.s": inclusive("stdform.standard_form"),
            "stdform.pivots": int(counts[mask("stdform.standard_form")].sum()),
            "stdform.extract_blocks.s": inclusive("stdform.extract_blocks"),
            "minors.block_minor_rec.calls": int(rec.sum()),
            "minors.block_minor_rec.self_s": float(self_times(starts, ends, parents)[rec].sum()) / 1e9,
            "paritycheck.construct.s": seconds(construct),
            "paritycheck.algebra.s": seconds(in_construct & mask(*_ALGEBRA)),
            "paritycheck.assemble.s": seconds(in_construct & mask(*_ASSEMBLE)),
            "paritycheck.unpermute.s": seconds(in_construct & mask("matrix.apply_col_permutation")),
            "paritycheck.verify_parity.s": inclusive("paritycheck.verify_parity"),
            "opcounters.record.s": inclusive("opcounters.record_mul") + inclusive("opcounters.record_add"),
        }
        # An exception counts against every module it leaves.
        layer_of = [name.split(".")[0] for name in self.table]
        raised = defaultdict(int)
        for idx in errors.tolist():
            here, parent = int(names[idx]), int(parents[idx])
            if parent < 0 or layer_of[int(names[parent])] != layer_of[here]:
                raised[layer_of[here]] += 1
        for layer in LAYERS:
            out[f"{layer}.errors"] = raised[layer]
        return out

    def dump(self, path: Path) -> None:
        """Write every recorded span (per code: local indices) to an npz file."""
        if not self.batches:
            return
        columns = list(zip(*(batch[:5] for batch in self.batches)))
        code = np.concatenate([np.full(len(b[0]), i, dtype=np.int64) for i, b in enumerate(self.batches)])
        np.savez_compressed(
            path, table=np.array(self.table), code=code,
            **{key: np.concatenate(col) for key, col in
               zip(("name", "parent", "start", "end", "count"), columns)},
        )
