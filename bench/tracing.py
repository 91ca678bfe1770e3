"""Layer tracing for the traced run, from outside the program.

``Tracer.install`` wraps public functions of the core modules and rebinds the
wrapper under every name, in every ``funcspace`` module, that refers to the
original function; ``from .kernels import gram`` in ``multipliers`` is
therefore traced as well as ``kernels.gram``.  ``from_json`` class methods are
wrapped on their class.  Each wrapped call records a span with its parent
span; ``kernel_eval``, which runs once per Gram entry and per node of the
kernel expression, is only counted.  Self time is a span's duration minus the
durations of its child spans (calls in one thread nest, so children never
overlap).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter

SPANNED = {
    "kernels": ("kernel_from_json", "fn_from_json", "gram", "hermitian_from_upper", "psd_check"),
    "multipliers": ("sampled_mult_norm", "contraction_check"),
    "hardy_pick": ("pick_min_norm", "pick_feasible", "separability_probe", "carleson_seq"),
    "geometry": ("lip_point_norm", "lip_dual_pair_norm", "submult_ratio"),
    "realization": (
        "build_g",
        "choose_b",
        "build_model",
        "very_independence_check",
        "topology_probe",
        "point_eval_rank",
        "coefficient_roundtrip",
    ),
}
CLASS_PARSERS = (
    ("geometry", "EuclideanPointSet"),
    ("geometry", "MetricSpace"),
    ("geometry", "SampledFunction"),
    ("hardy_pick", "PickProblem"),
)
COUNTED = (("kernels", "kernel_eval"),)
ROOT = "cli.run"
METRIC_SPACE = "geometry.MetricSpace.from_json"


class Tracer:
    """Spans ``(op, span_id, parent_id, name, start, end)`` and call counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self.op = -1
        self.report_bytes = 0
        self.metric_space_peak = 0

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (self.op, sid, parent, name, start, end)

        return traced

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _peak_memory(self, fn):
        """Record the traced allocation peak of each call (metric space validation)."""

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.metric_space_peak = max(self.metric_space_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def run_op(self, op_index: int, call):
        """Run ``call`` as the root span of one operation."""
        self.op = op_index
        return self._wrap(ROOT, call)()

    def reset(self) -> None:
        """Forget what was recorded so far (the warm-up)."""
        self.spans.clear()
        self.counts.clear()
        self.report_bytes = 0
        self.metric_space_peak = 0

    # -- installing ------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "funcspace" and not mod_name.startswith("funcspace."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import funcspace.cli  # noqa: F401  (loads every core module)

        core = {name: sys.modules[f"funcspace.{name}"] for name in SPANNED}
        for mod_name, names in SPANNED.items():
            for name in names:
                fn = getattr(core[mod_name], name)
                self._rebind(fn, self._wrap(f"{mod_name}.{name}", fn))
        for mod_name, name in COUNTED:
            fn = getattr(core[mod_name], name)
            self._rebind(fn, self._count(f"{mod_name}.{name}", fn))
        for mod_name, cls_name in CLASS_PARSERS:
            cls = getattr(core[mod_name], cls_name)
            fn = cls.__dict__["from_json"].__func__
            span = f"{mod_name}.{cls_name}.from_json"
            if span == METRIC_SPACE:
                fn = self._peak_memory(fn)
            setattr(cls, "from_json", classmethod(self._wrap(span, fn)))

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, import_modules: int) -> dict:
        spans = [s for s in self.spans if s is not None]
        roots = [s for s in spans if s[3] == ROOT]
        ops = len(roots)
        child_time = Counter()
        for s in spans:
            if s[2] is not None:
                child_time[s[2]] += s[5] - s[4]
        busy, self_busy, calls = Counter(), Counter(), Counter()
        for s in spans:
            busy[s[3]] += s[5] - s[4]
            self_busy[s[3]] += s[5] - s[4] - child_time[s[1]]
            calls[s[3]] += 1
        by_id = {s[1]: s for s in spans}
        solve_checks = sum(1 for s in spans if s[3] == "kernels.psd_check" and s[2] is not None and by_id[s[2]][3] == "hardy_pick.pick_min_norm")

        def per_op_ms(counter, name):
            return 1e3 * counter[name] / ops

        return {
            "import.modules": import_modules,
            "cli.self_ms": per_op_ms(self_busy, ROOT),
            "cli.report_kib": self.report_bytes / 1024 / ops,
            "kernels.kernel_eval_calls": self.counts["kernels.kernel_eval"] / ops,
            "kernels.gram_ms": per_op_ms(busy, "kernels.gram"),
            "kernels.hermitian_from_upper_ms": per_op_ms(busy, "kernels.hermitian_from_upper"),
            "kernels.psd_check_calls": calls["kernels.psd_check"] / ops,
            "kernels.psd_check_ms": per_op_ms(busy, "kernels.psd_check"),
            "multipliers.sampled_mult_norm_self_ms": per_op_ms(self_busy, "multipliers.sampled_mult_norm"),
            "multipliers.contraction_check_self_ms": per_op_ms(self_busy, "multipliers.contraction_check"),
            "hardy_pick.pick_min_norm_self_ms": per_op_ms(self_busy, "hardy_pick.pick_min_norm"),
            "hardy_pick.psd_checks_per_solve": solve_checks / max(calls["hardy_pick.pick_min_norm"], 1),
            "hardy_pick.separability_probe_ms": per_op_ms(busy, "hardy_pick.separability_probe"),
            "geometry.metric_space_ms": per_op_ms(busy, METRIC_SPACE),
            "geometry.metric_space_peak_mib": self.metric_space_peak / 2**20,
            "geometry.submult_ratio_ms": per_op_ms(busy, "geometry.submult_ratio"),
            "realization.build_model_ms": per_op_ms(busy, "realization.build_model"),
            "realization.coefficient_roundtrip_ms": per_op_ms(busy, "realization.coefficient_roundtrip"),
            "realization.very_independence_check_ms": per_op_ms(busy, "realization.very_independence_check"),
        }

    def dump(self) -> dict:
        """Spans and counts as JSON-ready lists, for the trace file."""
        return {
            "fields": ["op", "span", "parent", "name", "start_s", "end_s"],
            "spans": [list(s) for s in self.spans if s is not None],
            "counts": dict(self.counts),
        }
