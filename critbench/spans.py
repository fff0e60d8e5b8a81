"""In-memory span tracer that times critlocus layers from outside.

``Tracer.install`` wraps public functions and methods of the critlocus
modules in place: a function is replaced under every module attribute that
holds it (so ``critlocus.complexes.kernel_basis`` is patched as well as
``critlocus.linalg.kernel_basis``), a method is replaced on its class.
Each wrapped call records one span ``(name, start, end, parent, item)``;
spans stay in memory until ``write`` dumps them.  ``uninstall`` restores
every original.

``layer_metrics`` turns the spans and counters of one traced run into the
per-layer figures named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute) -- the attribute is a function name or
# "Class.method".  Span names double as the layer prefixes of the metrics.
SPAN_TARGETS = (
    ("cli.main", "cli", "main"),
    ("linalg.rank", "linalg", "DenseMatrix.rank"),
    ("linalg.matmul", "linalg", "DenseMatrix.matmul"),
    ("linalg.kernel", "linalg", "kernel_basis"),
    # rref outside kernel_basis (solve, row_space_basis) counts as a kernel
    ("linalg.kernel", "linalg", "rref"),
    ("complexes.evaluate_at", "complexes", "FreeComplex.evaluate_at"),
    ("complexes.homology_dims", "complexes", "FreeComplex.homology_dims"),
    ("complexes.homology_reps", "complexes", "homology_representatives"),
    ("complexes.check_at_point", "complexes", "ChainMap.check_at_point"),
    ("complexes.check_symbolic", "complexes", "ChainMap.check_symbolic"),
    ("complexes.symmatrix_matmul", "complexes", "SymMatrix.matmul"),
    ("points.oracle", "points", "koszul_ext_oracle"),
    ("family.ext_dims_at", "family", "ext_dims_at"),
    ("family.trace_pairing", "family", "trace_pairing_matrix"),
    ("family.endomorphism_model", "family", "EndomorphismModel.__init__"),
    ("family.universal_family", "family", "build_universal_family"),
    ("family.leibniz", "family", "DModuleAction.leibniz_report"),
    ("family.comparison_map", "family", "build_comparison_map"),
    ("potential.build", "potential", "MatrixCdga.__init__"),
    ("potential.build", "potential", "CotangentModel.__init__"),
    ("potential.flatness", "potential", "CotangentModel.flatness_report"),
    ("potential.superpotential", "potential", "verify_superpotential_identities"),
    ("superpoly.derivation_apply", "superpoly", "Derivation.apply"),
    ("toric.cover", "toric", "verify_cover_property"),
)


def self_time(span, children) -> float:
    """Span duration minus the part of it that child spans cover."""
    start, end = span
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(children):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, item id)
        self.counters = {}
        self.item = None
        self._stack = []  # (span index, name) of the calls still open
        self._restore = []

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def inside(self, name) -> bool:
        """True when the innermost open span is called ``name``."""
        return bool(self._stack) and self._stack[-1][1] == name

    # -- wrapping -----------------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.item)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _counter(self, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer, args, result)
            return result

        return wrapper

    def _patch(self, cl, module, attr, make):
        mod = getattr(cl, module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self._restore.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "critlocus" or name.startswith("critlocus.")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._restore.append((m, key, original))
                    setattr(m, key, wrapped)

    def install(self, cl):
        """Wrap every target in the critlocus modules held by ``cl``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module, attr in SPAN_TARGETS:
            after = _AFTER.get((module, attr))
            self._patch(cl, module, attr, lambda fn, n=name, a=after: self._span(n, fn, a))
        self._patch(
            cl, "complexes", "FreeComplex.__init__", lambda fn: self._counter(fn, _count_fill)
        )

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                [
                    {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "item": s[4]}
                    for s in self.spans
                ],
                fh,
            )


# -- counters filled after wrapped calls ------------------------------------------


def _count_rank(tracer, args, result):
    m = args[0]
    tracer.count("rank.entries", m.rows * m.cols)


def _count_matmul(tracer, args, result):
    a, b = args[0], args[1]
    f = a.field
    nonzero = sum(1 for row in a.data for x in row if not f.is_zero(x))
    tracer.count("matmul.mults", nonzero * b.cols)


def _count_kernel(tracer, args, result):
    # a kernel basis computed for homology_representatives is the list of
    # cycles offered to its span
    if tracer.inside("complexes.homology_reps"):
        tracer.count("reps.offered", len(result))


def _count_reps(tracer, args, result):
    cx, k = args[0], args[1]
    tracer.count("reps.kept", len(result))
    if not cx.rank(k + 1):
        # no differential out of degree k: every basis vector is a cycle
        tracer.count("reps.offered", cx.rank(k))


def _count_comparison(tracer, args, result):
    record = result[1]
    if record.get("search"):
        tracer.count("comparison.searches")
        tracer.count("comparison.survivors", record["numeric_survivors"])


def _count_cover(tracer, args, result):
    tracer.count("cover.successes", result["successes"])
    tracer.count("cover.trials", result["trials"])


def _count_fill(tracer, args, result):
    cx = args[0]
    if not cx.symbolic:
        return
    for m in list(cx.diff.values()) + list(cx.twist.values()):
        tracer.count("fill.entries", m.rows * m.cols)
        tracer.count("fill.nonzero", sum(1 for row in m.data for p in row if not p.is_zero()))


_AFTER = {
    ("linalg", "DenseMatrix.rank"): _count_rank,
    ("linalg", "DenseMatrix.matmul"): _count_matmul,
    ("linalg", "kernel_basis"): _count_kernel,
    ("complexes", "homology_representatives"): _count_reps,
    ("family", "build_comparison_map"): _count_comparison,
    ("toric", "verify_cover_property"): _count_cover,
}


# -- per-layer metrics -------------------------------------------------------------

# Per-layer metric name -> (unit, kind, span name or counter keys).  "s" and
# "calls" sum the outermost spans of a name, "self_s" subtracts the time of
# direct children, "ratio" divides two counters, "count" is one counter.
LAYER_METRICS = {
    "linalg.rank.calls": ("count", "calls", "linalg.rank"),
    "linalg.rank.s": ("s", "s", "linalg.rank"),
    "linalg.rank.entries": ("count-computed", "count", "rank.entries"),
    "linalg.kernel.calls": ("count", "calls", "linalg.kernel"),
    "linalg.kernel.s": ("s", "s", "linalg.kernel"),
    "linalg.eliminations_per_point": ("count", "per_item", ("linalg.rank", "linalg.kernel")),
    "linalg.matmul.calls": ("count", "calls", "linalg.matmul"),
    "linalg.matmul.s": ("s", "s", "linalg.matmul"),
    "linalg.matmul.mults": ("count-computed", "count", "matmul.mults"),
    "complexes.evaluate_at.calls": ("count", "calls", "complexes.evaluate_at"),
    "complexes.evaluate_at.s": ("s", "s", "complexes.evaluate_at"),
    "complexes.homology_dims.s": ("s", "s", "complexes.homology_dims"),
    "complexes.homology_reps.s": ("s", "s", "complexes.homology_reps"),
    "complexes.reps_kept_ratio": ("ratio", "ratio", ("reps.kept", "reps.offered")),
    "complexes.check_at_point.s": ("s", "s", "complexes.check_at_point"),
    "complexes.check_symbolic.s": ("s", "s", "complexes.check_symbolic"),
    "complexes.symmatrix_matmul.s": ("s", "s", "complexes.symmatrix_matmul"),
    "complexes.symbolic_fill": ("ratio", "ratio", ("fill.nonzero", "fill.entries")),
    "points.oracle.s": ("s", "s", "points.oracle"),
    "scalars.prime_warnings": ("count", "count", "prime_warnings"),
    "family.ext_dims_at.self_s": ("s", "self_s", "family.ext_dims_at"),
    "family.trace_pairing.s": ("s", "s", "family.trace_pairing"),
    "family.endomorphism_model.s": ("s", "s", "family.endomorphism_model"),
    "family.universal_family.s": ("s", "s", "family.universal_family"),
    "family.leibniz.s": ("s", "s", "family.leibniz"),
    "family.comparison_map.s": ("s", "s", "family.comparison_map"),
    "family.comparison.survivors": ("count", "ratio", ("comparison.survivors", "comparison.searches")),
    "potential.build_s": ("s", "s", "potential.build"),
    "potential.flatness_s": ("s", "s", "potential.flatness"),
    "potential.superpotential_s": ("s", "s", "potential.superpotential"),
    "superpoly.derivation_apply.calls": ("count", "calls", "superpoly.derivation_apply"),
    "superpoly.derivation_apply.s": ("s", "s", "superpoly.derivation_apply"),
    "toric.cover.s": ("s", "s", "toric.cover"),
    "toric.cover.success_ratio": ("ratio", "ratio", ("cover.successes", "cover.trials")),
    "cli.main.self_s": ("s", "self_s", "cli.main"),
}


def _span_totals(spans):
    """Per (name, phase): calls and time of the spans not nested in one of
    the same name, and self time of all of them.  The phase is "setup" for
    spans of the set-up and "items" otherwise."""
    children = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    totals = {}
    for idx, (name, start, end, parent, item) in enumerate(spans):
        phase = "setup" if item == "setup" else "items"
        t = totals.setdefault((name, phase), {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["self_s"] += self_time((start, end), children.get(idx, ()))
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:  # not nested in a span of the same name
            t["calls"] += 1
            t["s"] += end - start
    return totals


def layer_metrics(spans, setup_counters, counters, passes, items_per_pass, overhead_frac):
    """Per-layer figures for one set-up plus one pass over the corpus.

    ``setup_counters`` is a snapshot of the counters taken when the traced
    set-up ended; ``counters`` holds the totals at the end of the run.
    Span times and counts of the items are divided by ``passes``.
    """
    totals = _span_totals(spans)

    def span_value(name, kind):
        setup = totals.get((name, "setup"), {}).get(kind, 0)
        items = totals.get((name, "items"), {}).get(kind, 0)
        return setup + items / passes

    def counter(key):
        setup = setup_counters.get(key, 0)
        return setup + (counters.get(key, 0) - setup) / passes

    out = {}
    for metric, (unit, kind, source) in LAYER_METRICS.items():
        if kind in ("s", "calls", "self_s"):
            value = span_value(source, kind)
        elif kind == "per_item":
            calls = sum(totals.get((name, "items"), {}).get("calls", 0) for name in source)
            value = calls / passes / items_per_pass
        elif kind == "ratio":
            den = counter(source[1])
            value = counter(source[0]) / den if den else 0.0
        else:
            value = counter(source)
        out[metric] = {"value": value, "unit": unit}
    out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "ratio"}
    return out
