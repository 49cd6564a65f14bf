"""Line-oriented job files: declarations of polynomials, families, ideals and
charts, followed by named tasks; execution produces one deterministic report.

Grammar (one directive per line, '#' starts a comment):

    seed N
    trunc N
    vars x y
    params s t
    poly NAME = expression
    family NAME = contact EXPRESSION
    family NAME = interior EXPRESSION
    ideal NAME = expr, expr, ...
    chart NAME = staircase expr, expr order ORDER [names a,b,c]
    task NAME = OP arg ...

Every name must be defined on an earlier line than any reference to it, and
each task needs the arguments its operation reads; both are validated before
any task runs.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from .charts import (GroebnerStratumChart, generic_chart,
                     lift_chart_equivalence, lift_contact, lift_interior,
                     relative_hilb_equations, verify_membership_equivalence)
from .errors import JobError, WContactError
from .families import ContactFamily
from .geometry import (AffineScheme, nested_singularity_report,
                       singular_locus_ideal, tangent_space_dim, variety_equal)
from .groebner import gb_buchberger, normal_form
from .nondegeneracy import (check_condition_star, check_relaxed_condition,
                            delta_map, phi_map, psi_map)
from .poly import Poly, PolyRing, TermOrder, canonical_form
from .series import (DEFAULT_TRUNCATION, LocalIdeal, delta_invariant,
                     milnor_number, tjurina_number)


def poly_json(p: Poly, order: Optional[TermOrder] = None) -> Dict[str, str]:
    text, scale = canonical_form(p, order)
    return {"canonical": text, "scale": str(scale)}


def _fraction_str(x: Fraction) -> str:
    return str(x)


class JobContext:
    """Named definitions accumulated while reading a job file."""

    def __init__(self):
        self.seed = 0
        self.trunc = DEFAULT_TRUNCATION
        self.vars: Tuple[str, ...] = ("x", "y")
        self.params: Tuple[str, ...] = ()
        self.polys: Dict[str, Poly] = {}
        self.families: Dict[str, ContactFamily] = {}
        self.ideals: Dict[str, List[Poly]] = {}
        self.charts: Dict[str, GroebnerStratumChart] = {}
        self.task_results: Dict[str, Any] = {}
        self.tasks: List[Tuple[str, str, List[str]]] = []

    def ring(self) -> PolyRing:
        return PolyRing(self.vars + self.params)

    def full_ring(self) -> PolyRing:
        """Ring including every chart parameter declared so far."""
        names = list(self.vars + self.params)
        for ch in self.charts.values():
            for n in ch.param_names:
                if n not in names:
                    names.append(n)
        return PolyRing(tuple(names))

    def names(self):
        return (set(self.polys) | set(self.families) | set(self.ideals)
                | set(self.charts) | {t[0] for t in self.tasks})

    def sub_seed(self, task_name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{task_name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")


def parse_job(text: str) -> JobContext:
    ctx = JobContext()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _parse_line(ctx, line)
        except WContactError as exc:
            # keep the type and attributes, such as a ParseError's position
            exc.args = (f"line {lineno}: {exc}",)
            raise
        except Exception as exc:
            raise JobError(f"line {lineno}: {exc}") from exc
    _validate_references(ctx)
    return ctx


def _parse_line(ctx: JobContext, line: str):
    head, _, rest = line.partition(" ")
    rest = rest.strip()
    if head == "seed":
        ctx.seed = int(rest)
    elif head == "trunc":
        ctx.trunc = int(rest)
    elif head == "vars":
        ctx.vars = tuple(rest.replace(",", " ").split())
    elif head == "params":
        ctx.params = tuple(rest.replace(",", " ").split())
    elif head in ("poly", "family", "ideal", "chart", "task"):
        name, _, body = rest.partition("=")
        name = name.strip()
        body = body.strip()
        if not name or not body:
            raise JobError(f"malformed {head} directive")
        if name in ctx.names():
            raise JobError(f"duplicate name {name!r}")
        ring = ctx.full_ring()
        if head == "poly":
            ctx.polys[name] = ring.parse(body)
        elif head == "family":
            kind, _, expr = body.partition(" ")
            if kind not in ("contact", "interior"):
                raise JobError(f"family kind must be contact or interior")
            E = ctx.ring().parse(expr.strip())
            ctx.families[name] = ContactFamily(
                E, ctx.params, kind, x=ctx.vars[0], y=ctx.vars[1])
        elif head == "ideal":
            ctx.ideals[name] = [ring.parse(g) for g in body.split(",")]
        elif head == "chart":
            ctx.charts[name] = _parse_chart(ctx, body)
        else:
            op, *args = body.split()
            _check_task_args(op, args)
            ctx.tasks.append((name, op, args))
    else:
        raise JobError(f"unknown directive {head!r}")


# the number of arguments each task operation reads by position, and the
# keyword whose next argument it reads as an integer ('codim' has no default)
_TASK_ARITY = {
    "chart": 1, "hilb-eq": 2, "phi": 2, "delta": 2, "psi": 2, "star": 2,
    "relaxed": 2, "lift": 2, "lift-prime": 2, "verify-corr": 2,
    "lift-equiv": 2, "sing": 1, "variety-eq": 2, "nested": 2, "colength": 1,
    "milnor": 1, "tjurina": 1, "delta-inv": 2, "gb": 1, "nf": 2,
}
_TASK_INT_KEYWORD = {"verify-corr": "samples", "sing": "codim",
                     "nested": "codim"}


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _check_task_args(op: str, args: List[str]):
    """Reject a task whose arguments run_task cannot read; an unknown
    operation is left to fail its own task."""
    need = _TASK_ARITY.get(op, 0)
    if len(args) < need:
        raise JobError(f"task {op!r} needs {need} argument(s), "
                       f"got {len(args)}")
    keyword = _TASK_INT_KEYWORD.get(op)
    if keyword in args:
        i = args.index(keyword) + 1
        if i == len(args) or not _is_int(args[i]):
            raise JobError(f"task {op!r}: {keyword!r} needs an integer")
    elif keyword == "codim":
        raise JobError(f"task {op!r} needs 'codim N'")
    if op == "delta-inv" and not _is_int(args[1]):
        raise JobError(f"task {op!r}: the branch count must be an integer")


def _parse_chart(ctx: JobContext, body: str) -> GroebnerStratumChart:
    if not body.startswith("staircase "):
        raise JobError("chart body must start with 'staircase'")
    body = body[len("staircase "):]
    stair_text, _, tail = body.partition(" order ")
    if not tail:
        raise JobError("chart needs an 'order' clause")
    tail = tail.strip()
    names = None
    if " names " in tail:
        order_text, _, names_text = tail.partition(" names ")
        names = [n.strip() for n in names_text.split(",") if n.strip()]
    else:
        order_text = tail
    geo_ring = PolyRing(ctx.vars)
    stair = [geo_ring.parse(m) for m in stair_text.split(",")]
    order = TermOrder.parse(order_text.strip())
    return generic_chart(stair, order, param_names=names,
                         geo_vars=(ctx.vars[0], ctx.vars[1]))


def _validate_references(ctx: JobContext):
    """Reject forward or cyclic references before running anything."""
    defined = set(ctx.polys) | set(ctx.families) | set(ctx.ideals) \
        | set(ctx.charts)
    for name, op, args in ctx.tasks:
        for a in args:
            if a in {t[0] for t in ctx.tasks} and a not in defined:
                raise JobError(
                    f"task {name!r} references {a!r} before its definition")
        defined.add(name)


# -- task execution --------------------------------------------------------

def _local_ideal(ctx: JobContext, gens: List[Poly]) -> LocalIdeal:
    return LocalIdeal(gens, variables=(ctx.vars[0], ctx.vars[1]),
                      truncation=ctx.trunc)


def _phi_report_json(rep) -> Dict[str, Any]:
    return {
        "rank": rep.rank,
        "quotient_dimension": rep.quotient_dimension,
        "surjective": rep.surjective,
        "cokernel_monomials": rep.cokernel_monomials,
        "matrix": [[str(x) for x in row] for row in rep.matrix.rows],
        "row_labels": rep.matrix.row_labels,
        "col_labels": rep.matrix.col_labels,
    }


def _get_family(ctx, name):
    if name not in ctx.families:
        raise JobError(f"unknown family {name!r}")
    return ctx.families[name]


def _get_chart(ctx, name) -> GroebnerStratumChart:
    if name not in ctx.charts:
        raise JobError(f"unknown chart {name!r}")
    return ctx.charts[name]


def _get_poly(ctx, name) -> Poly:
    if name not in ctx.polys:
        raise JobError(f"unknown polynomial {name!r}")
    return ctx.polys[name]


def _get_gens(ctx, name) -> List[Poly]:
    if name in ctx.ideals:
        return ctx.ideals[name]
    if name in ctx.task_results:
        res = ctx.task_results[name]
        if isinstance(res, dict) and "_polys" in res:
            return res["_polys"]
    raise JobError(f"unknown ideal {name!r}")


def run_task(ctx: JobContext, name: str, op: str, args: List[str]
             ) -> Dict[str, Any]:
    order = None
    if op == "chart":
        ch = _get_chart(ctx, args[0])
        return {
            "staircase": [str(ch.ring.monomial(ch._embed(m)))
                          for m in ch.staircase],
            "colength": ch.colength,
            "parameters": list(ch.param_names),
            "generic_generators": [str(g) for g in ch.generic_generators],
            "stratum_equations": [poly_json(q) for q in ch.stratum_equations],
            "stratum_codimension": len(ch.stratum_equations),
        }
    if op == "hilb-eq":
        F = _get_family(ctx, args[0])
        ch = _get_chart(ctx, args[1])
        rel = relative_hilb_equations(F, ch)
        return {
            "equations": [poly_json(q) for q in rel.equations],
            "stratum_equations": [poly_json(q) for q in rel.stratum_equations],
            "family_parameters": list(rel.family_params),
            "chart_parameters": list(rel.chart_params),
            "_polys": rel.all_equations(),
        }
    if op in ("phi", "delta", "psi"):
        F = _get_family(ctx, args[0])
        I = _local_ideal(ctx, _get_gens(ctx, args[1]))
        if op == "phi":
            return _phi_report_json(phi_map(F, I, ctx.trunc))
        if op == "delta":
            return _phi_report_json(delta_map(F, I))
        M = psi_map(F, I, ctx.trunc)
        return {"rank": M.rank(), "nrows": M.nrows,
                "row_labels": M.row_labels}
    if op == "star":
        F = _get_family(ctx, args[0])
        I = _local_ideal(ctx, _get_gens(ctx, args[1]))
        pair = [(F, I)]
        rep = (check_condition_star(pair, (), ctx.trunc)
               if F.kind == "contact"
               else check_condition_star((), pair, ctx.trunc))
        return {
            "rank": rep.rank,
            "target_dimension": rep.target_dimension,
            "parameter_dimension": rep.parameter_dimension,
            "surjective": rep.surjective,
            "relative_dimension": rep.relative_dimension,
        }
    if op == "relaxed":
        F = _get_family(ctx, args[0])
        I = _local_ideal(ctx, _get_gens(ctx, args[1]))
        rep = check_relaxed_condition(F, I, ctx.trunc)
        return {
            "surjective": rep.surjective,
            "phi_rank": rep.phi_rank,
            "stacked_rank": rep.stacked_rank,
            "quotient_dimension": rep.quotient_dimension,
            "enlarged_quotient_dimension": rep.enlarged_quotient_dimension,
        }
    if op in ("lift", "lift-prime"):
        F = _get_family(ctx, args[0])
        gens = _get_gens(ctx, args[1])
        lifted = (lift_contact(F, gens) if op == "lift"
                  else lift_interior(F, gens))
        return {
            "generators": [str(g) for g in lifted.generators],
            "graph_relation": str(lifted.graph_relation),
            "kind": lifted.kind,
            "base_z": str(lifted.base_z),
        }
    if op == "verify-corr":
        F = _get_family(ctx, args[0])
        gens = (ctx.charts[args[1]].generic_generators
                if args[1] in ctx.charts else _get_gens(ctx, args[1]))
        samples = int(args[args.index("samples") + 1]) \
            if "samples" in args else 25
        rep = verify_membership_equivalence(
            F, gens, samples=samples, seed=ctx.sub_seed(name))
        return {
            "kind": rep.kind,
            "samples": len(rep.samples),
            "rejected": rep.rejected,
            "seed": rep.seed,
            "ok": rep.ok,
            "counterexamples": [vars(s) for s in rep.counterexamples],
        }
    if op == "lift-equiv":
        F = _get_family(ctx, args[0])
        ch = _get_chart(ctx, args[1])
        rep = lift_chart_equivalence(F, ch)
        return {
            "termwise_equal": rep.termwise_equal,
            "localized_ideal_equal": rep.localized_ideal_equal,
            "unit": rep.unit,
            "pulled_back": rep.pulled_back,
            "base_equations": rep.base_equations,
            "ok": rep.ok,
        }
    if op == "sing":
        gens = _get_gens(ctx, args[0])
        codim = int(args[args.index("codim") + 1])
        ring = gens[0].ring
        ambient = tuple(sorted(
            {v for g in gens for v in g.variables_used()},
            key=ring.variables.index))
        S = AffineScheme(ambient, [g.map_to(PolyRing(ambient)) for g in gens],
                         expected_codim=codim)
        sing = singular_locus_ideal(S)
        return {"generators": [poly_json(g) for g in sing],
                "ambient": list(ambient),
                "_polys": sing}
    if op == "variety-eq":
        a = _get_gens(ctx, args[0])
        b = _get_gens(ctx, args[1])
        ring = a[0].ring
        return {"equal": variety_equal(a, [g.map_to(ring) for g in b])}
    if op == "nested":
        gens = _get_gens(ctx, args[0])
        locus = _get_gens(ctx, args[1])
        codim = int(args[args.index("codim") + 1])
        ring = gens[0].ring
        ambient = tuple(sorted(
            {v for g in gens for v in g.variables_used()},
            key=ring.variables.index))
        S = AffineScheme(ambient, [g.map_to(PolyRing(ambient)) for g in gens],
                         expected_codim=codim)
        rep = nested_singularity_report(
            S, [g.map_to(S.ring) for g in locus])
        return {
            "span_variables": list(rep.span_variables),
            "residual_equations": rep.residual_equations,
            "span_dimension": rep.span_dimension,
            "expected_dimension": rep.expected_dimension,
            "tangent_dim_at_origin": rep.tangent_dim_at_origin,
            "quadratic_rank": rep.quadratic_rank,
            "a1_at_origin": rep.a1_at_origin,
            "no_linear_factor_over_Q": rep.no_linear_factor_over_Q,
            "trivial": rep.trivial,
        }
    if op == "colength":
        I = _local_ideal(ctx, _get_gens(ctx, args[0])).certify()
        return {"colength": I.colength,
                "quotient_basis": [str(I.ring.monomial(b))
                                   for b in I.quotient_basis]}
    if op in ("milnor", "tjurina", "delta-inv"):
        p = _get_poly(ctx, args[0])
        if op == "milnor":
            return {"milnor": milnor_number(p, (ctx.vars[0], ctx.vars[1]))}
        if op == "tjurina":
            varlist = tuple(args[1].split(",")) if len(args) > 1 \
                else tuple(p.variables_used())
            return {"tjurina": tjurina_number(p, varlist)}
        r = int(args[1])
        return {"delta": delta_invariant(p, r)}
    if op == "gb":
        gens = _get_gens(ctx, args[0])
        order = TermOrder.parse(" ".join(args[1:])) if len(args) > 1 \
            else TermOrder.degrevlex(gens[0].ring.variables)
        G = gb_buchberger(gens, order)
        return {"generators": [poly_json(g, order) for g in G]}
    if op == "nf":
        p = _get_poly(ctx, args[0])
        gens = _get_gens(ctx, args[1])
        order = TermOrder.parse(" ".join(args[2:])) if len(args) > 2 \
            else TermOrder.degrevlex(gens[0].ring.variables)
        G = gb_buchberger([g.map_to(p.ring) for g in gens], order)
        return {"normal_form": poly_json(normal_form(p, G), order)}
    raise JobError(f"unknown task operation {op!r}")


def run_job(text: str, include_timing: bool = False) -> Dict[str, Any]:
    """Execute a job and return the report object (not yet serialized)."""
    import time
    ctx = parse_job(text)
    results: Dict[str, Any] = {}
    failures = 0
    for name, op, args in ctx.tasks:
        t0 = time.monotonic()
        try:
            res = run_task(ctx, name, op, args)
            ctx.task_results[name] = res
            out = {k: v for k, v in res.items() if not k.startswith("_")}
            entry = {"op": op, "ok": True, "result": out}
        except WContactError as exc:
            failures += 1
            entry = {"op": op, "ok": False,
                     "error": {"type": type(exc).__name__,
                               "message": str(exc)}}
        if include_timing:
            entry["elapsed_s"] = round(time.monotonic() - t0, 3)
        results[name] = entry
    report = {
        "seed": ctx.seed,
        "truncation": ctx.trunc,
        "tasks": {k: results[k] for k in sorted(results)},
        "failed_tasks": failures,
    }
    return report


def report_to_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"
