"""Outside-in tracing of wcontact's public entry points.

The tracer never edits the package.  It resolves every target to its original
function object first, then finds every binding of that object: the defining
module, the modules that copied it with ``from .groebner import ...``, the
package namespace, and class aliases such as ``Poly.__rmul__``.  Each binding
is replaced by one wrapper that records a span, and :meth:`Tracer.uninstall`
puts every original back.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the index
of the enclosing span (-1 for none) and ``op`` the id of the benchmark
operation it belongs to.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import CODIM4_TASKS

OP_SPAN = "op"


def _len_terms(x) -> int:
    terms = getattr(x, "terms", None)
    return 1 if terms is None else len(terms)


def _coeff_bits(basis) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for g in basis for c in g.terms.values()), default=0)


def _gb_attrs(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"gens_in": len(args[0]), "basis_out": len(result),
            "terms_out": sum(len(g.terms) for g in result),
            "coeff_bits": _coeff_bits(result)}


def _certify_attrs(args, kwargs, result, exc):
    ideal = args[0]
    # certify doubles its order until it succeeds or reaches the cap
    return {"order": ideal.cap if exc is not None else ideal.truncation,
            "failed": int(exc is not None)}


def _verify_attrs(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"rejected": result.rejected, "drawn":
            result.rejected + len(result.samples)}


# (module, attribute path, span name, attrs(args, kwargs, result, exc)).
# The span of jobs.run_task is named after the task it runs.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("wcontact.groebner", "gb_buchberger", "groebner.gb", _gb_attrs),
    ("wcontact.groebner", "normal_form", "groebner.nf",
     lambda a, k, r, e: None if e else {"zero": int(r.is_zero())}),
    ("wcontact.groebner", "radical_membership", "groebner.radical", None),
    ("wcontact.poly", "Poly.__mul__", "poly.mul",
     lambda a, k, r, e: None if e else {
         "term_pairs": _len_terms(a[0]) * _len_terms(a[1]),
         "terms_out": len(r.terms)}),
    ("wcontact.poly", "Poly.subs", "poly.subs", None),
    ("wcontact.series", "series_invert", "series.invert", None),
    ("wcontact.series", "TruncatedSeries.__mul__", "series.mul",
     lambda a, k, r, e: None if e else {"kept": len(r.body.terms)}),
    ("wcontact.series", "weierstrass_prepare_x", "series.weierstrass", None),
    ("wcontact.series", "LocalIdeal.certify", "series.certify",
     _certify_attrs),
    ("wcontact.series", "LocalIdeal.reduce", "series.reduce", None),
    ("wcontact.linalg", "MatrixQ.rref", "linalg.rref",
     lambda a, k, r, e: {"entries": a[0].nrows * a[0].ncols}),
    ("wcontact.nondegeneracy", "phi_map", "nondegeneracy.phi", None),
    ("wcontact.nondegeneracy", "check_condition_star", "nondegeneracy.star",
     None),
    ("wcontact.nondegeneracy", "check_relaxed_condition",
     "nondegeneracy.relaxed", None),
    ("wcontact.families", "ContactFamily.__init__", "families.init", None),
    ("wcontact.families", "StrataPreservingChange.__init__",
     "families.change_init", None),
    ("wcontact.families", "to_normal_form", "families.normal_form", None),
    ("wcontact.families", "to_distinguished", "families.distinguished",
     None),
    ("wcontact.families", "multiply_unit", "families.multiply_unit", None),
    ("wcontact.families", "apply_change", "families.apply_change", None),
    ("wcontact.families", "family_from_basis", "families.from_basis", None),
    ("wcontact.charts", "relative_hilb_equations", "charts.relhilb", None),
    ("wcontact.charts", "lift_chart_equivalence", "charts.lift_equiv", None),
    ("wcontact.charts", "verify_membership_equivalence", "charts.verify",
     _verify_attrs),
    ("wcontact.geometry", "singular_locus_ideal", "geometry.sing", None),
    ("wcontact.geometry", "variety_equal", "geometry.variety_eq", None),
    ("wcontact.geometry", "nested_singularity_report", "geometry.nested",
     None),
    ("wcontact.jobs", "parse_job", "jobs.parse", None),
    ("wcontact.jobs", "run_task", "jobs.task", None),
)

LAYERS = ("groebner", "poly", "series", "linalg", "nondegeneracy",
          "families", "charts", "geometry", "jobs")


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) \
            else getattr(obj, part)
    return obj


def _namespaces():
    """Every wcontact module, and every class those modules define."""
    for name, mod in list(sys.modules.items()):
        if name != "wcontact" and not name.startswith("wcontact."):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    """Installs span-recording wrappers on every binding of the targets."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op = -1
        self._bindings: List[Tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        if self._bindings:
            raise RuntimeError("tracer already installed")
        originals = {}
        for module, path, span, attrs in TARGETS:
            fn = _resolve(module, path)
            originals[id(fn)] = (fn, self._wrap(fn, span, attrs))
        bindings = []
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                if id(value) in originals and \
                        originals[id(value)][0] is value:
                    bindings.append((ns, attr, value))
        for ns, attr, value in bindings:
            setattr(ns, attr, originals[id(value)][1])
        self._bindings = bindings
        return self

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._bindings):
            setattr(ns, attr, value)
        self._bindings = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name: str, attrs):
        spans, stack = self.spans, self._stack
        task_span = name == "jobs.task"

        def traced(*args, **kwargs):
            span = [f"jobs.task.{args[1]}" if task_span else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                if attrs is not None:
                    span[5] = attrs(args, kwargs, None, exc)
                raise
            span[2] = perf_counter()
            stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result, None)
            return result

        return functools.update_wrapper(traced, fn)

    def run_op(self, op_id: int, fn: Callable[[], Any]):
        """Run one benchmark operation under a root span."""
        self._op = op_id
        return self._wrap(fn, OP_SPAN, None)()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- per-layer metrics --------------------------------------------------------

def _spec(name: str) -> Tuple[str, str, str]:
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("_s"):
        unit = "s"
    elif suffix in ("share", "zero_ratio", "reject_ratio", "kept_ratio"):
        unit = "ratio"
    elif suffix == "coeff_bits_max":
        unit = "bit"
    elif suffix == "order_reached":
        unit = "order"
    else:
        unit = "count"
    better = "higher" if suffix == "kept_ratio" else "lower"
    return name, unit, better




class _Stats:
    __slots__ = ("calls", "self_s", "total_s", "max_s", "attrs")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0   # spans with no enclosing span of the same name
        self.max_s = 0.0
        self.attrs: Dict[str, List] = defaultdict(list)


def _elapsed(start: float, end: float) -> float:
    return end - start


def span_stats(spans: List[list], duration=_elapsed) -> Dict[str, _Stats]:
    """Per span name: calls, self, total and longest time, and attributes.
    ``duration(start, end)`` turns a span's clock readings into seconds."""
    durations = [duration(span[1], span[2]) for span in spans]
    child_time = [0.0] * len(spans)
    for span, dur in zip(spans, durations):
        if span[3] >= 0:
            child_time[span[3]] += dur
    stats: Dict[str, _Stats] = defaultdict(_Stats)
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        st = stats[name]
        dur = durations[i]
        st.calls += 1
        st.self_s += dur - child_time[i]
        st.max_s = max(st.max_s, dur)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st.total_s += dur
        for key, value in (attrs or {}).items():
            st.attrs[key].append(value)
    # terms of the untruncated products that series.mul then truncated
    for name, start, end, parent, _, attrs in spans:
        if name == "poly.mul" and attrs and parent >= 0 \
                and spans[parent][0] == "series.mul":
            stats["series.mul"].attrs["full"].append(attrs["terms_out"])
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[list], traced_wall: float,
                  untraced_wall: float, untraced_raw: float,
                  duration=_elapsed) -> Dict[str, float]:
    """Every per-layer metric, by name, from the spans of one traced pass,
    its time and the scaled and unscaled time of an untraced pass;
    ``duration`` as for :func:`span_stats`."""
    st = span_stats(spans, duration)

    def attr(name, key, agg=sum):
        values = st[name].attrs.get(key, []) if name in st else []
        return agg(values) if values else 0

    def get(name, field):
        return getattr(st[name], field) if name in st else 0

    gb, nf = "groebner.gb", "groebner.nf"
    out = {
        "groebner.gb.calls": get(gb, "calls"),
        "groebner.gb.self_s": get(gb, "self_s"),
        "groebner.gb.max_call_s": get(gb, "max_s"),
        "groebner.gb.gens_in": attr(gb, "gens_in"),
        "groebner.gb.basis_out": attr(gb, "basis_out"),
        "groebner.gb.terms_out": attr(gb, "terms_out"),
        "groebner.gb.coeff_bits_max": attr(gb, "coeff_bits", max),
        "groebner.nf.calls": get(nf, "calls"),
        "groebner.nf.self_s": get(nf, "self_s"),
        "groebner.nf.zero_ratio": _ratio(attr(nf, "zero"), get(nf, "calls")),
        "groebner.radical.calls": get("groebner.radical", "calls"),
        "groebner.radical.total_s": get("groebner.radical", "total_s"),
        "poly.mul.calls": get("poly.mul", "calls"),
        "poly.mul.self_s": get("poly.mul", "self_s"),
        "poly.mul.term_pairs": attr("poly.mul", "term_pairs"),
        "poly.mul.terms_out": attr("poly.mul", "terms_out"),
        "poly.subs.calls": get("poly.subs", "calls"),
        "poly.subs.self_s": get("poly.subs", "self_s"),
        "series.invert.calls": get("series.invert", "calls"),
        "series.invert.self_s": get("series.invert", "self_s"),
        "series.mul.kept_ratio": _ratio(attr("series.mul", "kept"),
                                        attr("series.mul", "full")),
        "series.weierstrass.total_s": get("series.weierstrass", "total_s"),
        "series.certify.calls": get("series.certify", "calls"),
        "series.certify.self_s": get("series.certify", "self_s"),
        "series.certify.order_reached": attr("series.certify", "order", max),
        "series.certify.failed": attr("series.certify", "failed"),
        "series.reduce.calls": get("series.reduce", "calls"),
        "series.reduce.self_s": get("series.reduce", "self_s"),
        "linalg.rref.calls": get("linalg.rref", "calls"),
        "linalg.rref.self_s": get("linalg.rref", "self_s"),
        "linalg.rref.entries": attr("linalg.rref", "entries"),
        "nondegeneracy.phi.total_s": get("nondegeneracy.phi", "total_s"),
        "nondegeneracy.star.total_s": get("nondegeneracy.star", "total_s"),
        "nondegeneracy.relaxed.total_s":
            get("nondegeneracy.relaxed", "total_s"),
        "charts.relhilb.total_s": get("charts.relhilb", "total_s"),
        "charts.lift_equiv.total_s": get("charts.lift_equiv", "total_s"),
        "charts.verify.calls": get("charts.verify", "calls"),
        "charts.verify.self_s": get("charts.verify", "self_s"),
        "charts.verify.reject_ratio": _ratio(attr("charts.verify", "rejected"),
                                             attr("charts.verify", "drawn")),
        "geometry.sing.total_s": get("geometry.sing", "total_s"),
        "geometry.variety_eq.total_s": get("geometry.variety_eq", "total_s"),
        "geometry.nested.self_s": get("geometry.nested", "self_s"),
        "jobs.parse.total_s": get("jobs.parse", "total_s"),
    }
    for task in CODIM4_TASKS:
        out[f"jobs.task.{task}.total_s"] = get(f"jobs.task.{task}", "total_s")
    # a layer's total is the outermost of its spans: families spans nest
    families = [s for s in spans if s[0].startswith("families.")]
    out["families.total_s"] = sum(
        duration(start, end) for name, start, end, parent, _, _ in families
        if not _inside_layer(spans, parent, "families"))
    layer_self = defaultdict(float)
    for name, s in st.items():
        layer_self[name.split(".", 1)[0]] += s.self_s
    for layer in LAYERS:
        out[f"{layer}.share"] = _ratio(layer_self[layer], traced_wall)
    out["groebner.gb.share"] = _ratio(get(gb, "self_s"), traced_wall)
    out["poly.mul.share"] = _ratio(get("poly.mul", "self_s"), traced_wall)
    out["series.certify.share"] = _ratio(get("series.certify", "self_s"),
                                         traced_wall)
    out["other.share"] = 1.0 - sum(out[f"{layer}.share"] for layer in LAYERS)
    out["spans"] = len(spans)
    out["traced_wall_s"] = traced_wall
    out["untraced_wall_s"] = untraced_wall
    out["untraced_raw_wall_s"] = untraced_raw
    out["tracing_overhead_s"] = traced_wall - untraced_wall
    return out


def _inside_layer(spans, parent: int, layer: str) -> bool:
    while parent >= 0:
        if spans[parent][0].startswith(layer + "."):
            return True
        parent = spans[parent][3]
    return False


# every per-layer metric in the order reported; an empty trace has them all
PER_LAYER = [_spec(name) for name in layer_metrics([], 1.0, 1.0, 1.0)]
