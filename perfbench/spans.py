"""Span tracing of relcalc's public functions, installed from outside.

``install`` wraps each function listed in ``LAYERS`` and rebinds the name
in every relcalc module that holds it (``classify`` inside ``decompose``,
the engines inside ``cli._MODES``, and so on), and wraps the numpy/scipy
factorization entry points that relcalc calls through module attributes.
A span records its name, start, end, parent span and operation id; spans
stay in memory and are written out by the caller when the run ends.

Factorization calls are recorded only inside a relcalc span, so the
benchmark's own reference computations are not counted.  Each gets a
flop count computed from its input shape (Golub & Van Loan operation
counts; a complex flop counts as four real ones), which is an estimate
of the work requested, not a hardware measurement.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

# relcalc module -> public functions traced.  Names in CLASS_METHODS are
# methods of the class named there; the rest are module functions.
LAYERS = {
    "subspace": ["span", "intersect", "sum", "complement", "gap", "contains"],
    "relation": ["adjoint", "add", "compose", "restrict", "restrict_domain", "deficiency",
                 "image", "classify", "classify_point", "graph_parts"],
    "ztransform": ["z_transform", "z_properties_check"],
    "invariance": ["reduction_gap", "reduction_certificates", "is_invariant", "compress",
                   "adjoint_within"],
    "decompose": ["nfl_decompose", "dissipative_decompose", "symmetric_wold_decompose",
                  "maximalize_contraction"],
    "shiftmodel": ["run_shift_example", "window_gap", "spectral_window_probe"],
    "io": ["load_relation_document", "decomposition_document", "emit_relation"],
    "cli": ["main"],
}
CLASS_METHODS = {
    "subspace": ("Subspace", {"span", "intersect", "sum", "complement", "gap", "contains"}),
    "relation": ("Relation", {"adjoint", "add", "compose", "restrict", "restrict_domain",
                              "deficiency", "image", "graph_parts"}),
}
ENGINES = ["nfl_decompose", "dissipative_decompose", "symmetric_wold_decompose"]
LINALG = ["svd", "qr", "qr_pivoted", "eigh", "eigvalsh", "solve"]
# relcalc's _REDUCE_ABOVE_ROWS: tall inputs above it take the thin-QR path.
SPLIT_ROWS = 64


def _svd_flops(a, full_matrices=True, compute_uv=True, **_):
    m, n = a.shape[-2:]
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        return 4 * m * n * n - 4 * n ** 3 / 3
    if full_matrices:
        return 4 * m * m * n + 22 * n ** 3
    return 6 * m * n * n + 11 * n ** 3


def _qr_flops(a, *_, **__):
    # Householder factorization plus forming the thin Q.
    m, n = a.shape[-2:]
    k = min(m, n)
    return 4 * k * k * (max(m, n) - k / 3)


def _eigh_flops(a, *_, **__):
    return 9 * a.shape[-1] ** 3


def _eigvalsh_flops(a, *_, **__):
    return 4 * a.shape[-1] ** 3 / 3


def _solve_flops(a, b, *_, **__):
    n = a.shape[-1]
    rhs = b.shape[-1] if np.ndim(b) > 1 else 1
    return 2 * n ** 3 / 3 + 2 * n * n * rhs


_FLOPS = {
    "svd": _svd_flops,
    "qr": _qr_flops,
    "qr_pivoted": _qr_flops,
    "eigh": _eigh_flops,
    "eigvalsh": _eigvalsh_flops,
    "solve": _solve_flops,
}


class Tracer:
    """Spans and counters of one process; ``op`` tags new spans."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.stack = []
        self.op = None
        self.counters = defaultdict(float)

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def wrap_linalg(self, short, fn):
        flops = _FLOPS[short]
        counters = self.counters
        inner = self.wrap(f"linalg.{short}", fn)

        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            a = np.asarray(args[0])
            counters[f"linalg.{short}.flops_computed"] += \
                flops(a, *args[1:], **kwargs) * (4 if np.iscomplexobj(a) else 1)
            side = "over" if a.shape[-2] > SPLIT_ROWS else "at_most"
            counters[f"linalg.calls_{side}_{SPLIT_ROWS}_rows"] += 1
            return inner(*args, **kwargs)

        return traced

    # -- aggregation ------------------------------------------------------

    def mark(self):
        """Position to aggregate from, taken before a round."""
        return len(self.spans), dict(self.counters)

    def aggregate(self, since):
        """Calls, self time and counters of the spans recorded after ``since``."""
        first, counters_before = since
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for offset, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[first + offset]
        counters = {k: v - counters_before.get(k, 0.0) for k, v in self.counters.items()}
        return calls, self_s, counters


def install(tracer: Tracer) -> None:
    """Wrap the traced functions and rebind them everywhere in relcalc."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "relcalc" or name.startswith("relcalc."))]

    def rebind(original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = replacement

    def count_iterations(engine):
        key = f"decompose.{engine}.iterations"

        def after(_args, _kwargs, result):
            tracer.counters[key] += result.iterations
        return after

    for layer, names in LAYERS.items():
        mod = sys.modules[f"relcalc.{layer}"]
        cls_name, methods = CLASS_METHODS.get(layer, (None, set()))
        for name in names:
            span = f"{layer}.{name}"
            if name in methods:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    setattr(cls, name, classmethod(tracer.wrap(span, raw.__func__)))
                else:
                    setattr(cls, name, tracer.wrap(span, raw))
                continue
            original = getattr(mod, name)
            after = count_iterations(name) if name in ENGINES else None
            rebind(original, tracer.wrap(span, original, after))

    for short, owner, attr in (("svd", np.linalg, "svd"), ("qr", np.linalg, "qr"),
                               ("qr_pivoted", scipy.linalg, "qr"),
                               ("eigh", np.linalg, "eigh"),
                               ("eigvalsh", np.linalg, "eigvalsh"),
                               ("solve", np.linalg, "solve")):
        setattr(owner, attr, tracer.wrap_linalg(short, getattr(owner, attr)))


def metric_names():
    """Every per-layer metric, in a stable order, with its unit."""
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            out += [(f"{layer}.{name}.calls", "count"), (f"{layer}.{name}.self_s", "s")]
            if name in ENGINES:
                out.append((f"decompose.{name}.iterations", "count"))
    out += [("io.bytes_read", "B"), ("io.bytes_written", "B")]
    for short in LINALG:
        out += [(f"linalg.{short}.calls", "count"), (f"linalg.{short}.self_s", "s"),
                (f"linalg.{short}.flops_computed", "flop")]
    out += [(f"linalg.calls_over_{SPLIT_ROWS}_rows", "count"),
            (f"linalg.calls_at_most_{SPLIT_ROWS}_rows", "count"),
            ("trace.wall_s", "s")]
    return out
