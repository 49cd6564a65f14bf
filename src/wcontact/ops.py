"""The operation table: every operation of the command line and of job files,
the arguments it takes, and the one handler that computes its report.

An argument's kind says what it is; cli reads each kind from flags and jobs
from a task line (the README lists both forms).  An 'ideal' loses its zero
generators and must keep one, while 'gens' is taken as written; every count,
int and trunc is at least 1; a job may list 'listed-vars' at the end of a
task line.  call() runs a handler on the typed values and returns its report;
keys starting with '_' stay out of it ('_polys' passes polynomials on to the
later tasks of a job).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .charts import (lift_chart_equivalence, lift_contact, lift_interior,
                     relative_hilb_equations, verify_membership_equivalence)
from .errors import Unsupported, UsageError, WContactError
from .families import to_distinguished
from .geometry import (AffineScheme, nested_singularity_report,
                       singular_locus_ideal, tangent_space_dim, variety_equal)
from .groebner import gb_buchberger, normal_form
from .nondegeneracy import (check_condition_star, check_relaxed_condition,
                            delta_map, phi_map, psi_map)
from .poly import Poly, TermOrder, canonical_form
from .series import (DEFAULT_TRUNCATION, LocalIdeal, delta_invariant,
                     milnor_number, tjurina_number)

REQUIRED = object()
GEO = "x,y"  # a vars default: x,y on the command line, (x, y) of a job


class Arg(NamedTuple):
    kind: str
    name: str                    # the handler's keyword and the flag
    default: Any = REQUIRED


class Op(NamedTuple):
    handler: Callable[..., Dict[str, Any]]
    args: Tuple[Arg, ...]
    help: Optional[str]


OPS: Dict[str, Op] = {}


def op(name: str, *args: Arg, help: Optional[str] = None):
    def register(handler):
        OPS[name] = Op(handler, args, help)
        return handler
    return register


# -- argument checks shared by both front ends --------------------------------

def positive(n: int) -> int:
    if n < 1:
        raise UsageError("must be at least 1")
    return n


def nonzero(gens: List[Poly]) -> List[Poly]:
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise UsageError("no nonzero generator")
    return gens


def parse_order(text: str) -> TermOrder:
    try:
        return TermOrder.parse(text)
    except (ValueError, WContactError) as exc:
        raise UsageError(str(exc)) from None


def known_order(order: Optional[TermOrder], ring) -> Optional[TermOrder]:
    """The order, if any; one naming a variable outside the ring is a usage
    error of the 'order' argument."""
    for v in order.priority if order else ():
        if v not in ring.variables:
            raise UsageError(f"{v!r} is not a variable of {ring!r}", "order")
    return order


def parse_point(text: str) -> Dict[str, Fraction]:
    point = {}
    for part in filter(None, text.split(",")):
        name, _, val = map(str.strip, part.partition("="))
        if name in point:
            raise UsageError(f"{name!r} is given twice")
        try:
            point[name] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{part.strip()!r} is not name=rational") from None
    return point


def call(op: Op, values: Dict[str, Any]) -> Dict[str, Any]:
    """The handler's result; a ValueError of the library code it calls, an
    input the operation does not handle, becomes Unsupported."""
    try:
        return op.handler(**values)
    except ValueError as exc:
        raise Unsupported(str(exc)) from exc


def public(result: Dict[str, Any]) -> Dict[str, Any]:
    """The report: the result without its '_' keys."""
    return {k: v for k, v in result.items() if not k.startswith("_")}


# -- report encoders ----------------------------------------------------------

def poly_json(p: Poly, order: Optional[TermOrder] = None) -> Dict[str, str]:
    text, scale = canonical_form(p, order)
    return {"canonical": text, "scale": str(scale)}


def _fields(rep, *names: str) -> Dict[str, Any]:
    return {n: getattr(rep, n) for n in names}


def _map_report(rep) -> Dict[str, Any]:
    return {**_fields(rep, "rank", "quotient_dimension", "surjective",
                      "cokernel_monomials"),
            "matrix": [[str(x) for x in row] for row in rep.matrix.rows],
            "row_labels": rep.matrix.row_labels,
            "col_labels": rep.matrix.col_labels}


def _lift_report(lifted) -> Dict[str, Any]:
    return {"generators": [str(g) for g in lifted.generators],
            "graph_relation": str(lifted.graph_relation),
            "kind": lifted.kind,
            "base_z": str(lifted.base_z)}


def _local(family, ideal) -> LocalIdeal:
    return LocalIdeal(ideal, variables=family.geo_vars())


# -- the operations -----------------------------------------------------------

FAMILY = Arg("family", "family")
IDEAL_ON = (FAMILY, Arg("ideal", "ideal"))  # an ideal of O_{x,y}
ORDER = Arg("order", "order", None)


@op("gb", Arg("ideal", "gens"), ORDER, help="reduced Groebner basis")
def gb(gens, order):
    order = known_order(order, gens[0].ring) \
        or TermOrder.degrevlex(gens[0].ring.variables)
    return {"generators": [poly_json(g, order)
                           for g in gb_buchberger(gens, order)]}


@op("nf", Arg("poly", "poly"), Arg("ideal", "gens"), ORDER,
    help="normal form modulo an ideal")
def nf(poly, gens, order):
    order = known_order(order, poly.ring) \
        or TermOrder.degrevlex(gens[0].ring.variables)
    G = gb_buchberger([g.map_to(poly.ring) for g in gens], order)
    return {"normal_form": poly_json(normal_form(poly, G), order)}


@op("colength", Arg("ideal", "gens"), Arg("vars", "vars", GEO),
    help="certified local colength")
def colength(gens, vars):
    I = LocalIdeal(gens, variables=vars).certify()
    return {"colength": I.colength,
            "quotient_basis": [str(I.ring.monomial(b))
                               for b in I.quotient_basis]}


@op("prepare", FAMILY, Arg("trunc", "trunc", DEFAULT_TRUNCATION),
    help="Weierstrass preparation in x")
def prepare(family, trunc):
    family.require_contact()
    D = to_distinguished(family, trunc)
    return {"w": family.w, "prepared": str(D.E), "f": str(D.f),
            "g": str(D.g), "truncation": trunc}


@op("phi", *IDEAL_ON)
def phi(family, ideal):
    return _map_report(phi_map(family, _local(family, ideal)))


@op("delta", *IDEAL_ON)
def delta(family, ideal):
    return _map_report(delta_map(family, _local(family, ideal)))


@op("psi", *IDEAL_ON)
def psi(family, ideal):
    M = psi_map(family, _local(family, ideal))
    return {"rank": M.rank(), "nrows": M.nrows, "row_labels": M.row_labels}


@op("star", *IDEAL_ON)
def star(family, ideal):
    pair = [(family, _local(family, ideal))]
    rep = (check_condition_star(pair) if family.kind == "contact"
           else check_condition_star((), pair))
    return _fields(rep, "rank", "target_dimension", "parameter_dimension",
                   "surjective", "relative_dimension")


@op("relaxed", *IDEAL_ON)
def relaxed(family, ideal):
    rep = check_relaxed_condition(family, _local(family, ideal))
    return _fields(rep, "surjective", "phi_rank", "stacked_rank",
                   "quotient_dimension", "enlarged_quotient_dimension")


@op("chart", Arg("chart", "chart"), help="Groebner stratum chart")
def chart(chart):
    return {"staircase": [str(chart.ring.monomial(chart._embed(m)))
                          for m in chart.staircase],
            "colength": chart.colength,
            "parameters": list(chart.param_names),
            "generic_generators": [str(g) for g in chart.generic_generators],
            "stratum_equations": [poly_json(q)
                                  for q in chart.stratum_equations],
            "stratum_codimension": len(chart.stratum_equations)}


@op("hilb-eq", FAMILY, Arg("chart", "chart"),
    help="relative Hilbert scheme equations")
def hilb_eq(family, chart):
    rel = relative_hilb_equations(family, chart)
    return {"equations": [poly_json(q) for q in rel.equations],
            "stratum_equations": [poly_json(q)
                                  for q in rel.stratum_equations],
            "family_parameters": list(rel.family_params),
            "chart_parameters": list(rel.chart_params),
            "_polys": rel.all_equations()}


@op("lift", FAMILY, Arg("gens", "ideal"))
def lift(family, ideal):
    return _lift_report(lift_contact(family, ideal))


@op("lift-prime", FAMILY, Arg("gens", "ideal"))
def lift_prime(family, ideal):
    return _lift_report(lift_interior(family, ideal))


@op("verify-corr", FAMILY, Arg("chart-or-ideal", "ideal"),
    Arg("int", "samples", 25), Arg("seed", "seed", 0),
    help="membership-equivalence sampling")
def verify_corr(family, ideal, samples, seed):
    rep = verify_membership_equivalence(family, ideal, samples=samples,
                                        seed=seed)
    return {"kind": rep.kind, "samples": len(rep.samples),
            "rejected": rep.rejected, "seed": rep.seed, "ok": rep.ok,
            "counterexamples": [vars(s) for s in rep.counterexamples]}


@op("lift-equiv", FAMILY, Arg("chart", "chart"),
    help="exact chart-level lift equivalence")
def lift_equiv(family, chart):
    return _fields(lift_chart_equivalence(family, chart), "termwise_equal",
                   "localized_ideal_equal", "unit", "pulled_back",
                   "base_equations", "ok")


@op("sing", Arg("ideal", "eqs"), Arg("vars", "vars"), Arg("int", "codim"),
    help="singular locus ideal")
def sing(eqs, vars, codim):
    generators = singular_locus_ideal(AffineScheme(vars, eqs, codim))
    return {"generators": [poly_json(g) for g in generators],
            "ambient": list(vars),
            "_polys": generators}


@op("tangent", Arg("ideal", "eqs"), Arg("vars", "vars"),
    Arg("int", "codim", None), Arg("point", "point", {}),
    help="tangent space dimension at a point")
def tangent(eqs, vars, codim, point):
    for v in point:
        if v not in vars:
            raise UsageError(f"{v!r} is not one of the variables "
                             f"{', '.join(vars)}", "point")
    return {"tangent_dimension":
            tangent_space_dim(AffineScheme(vars, eqs, codim), point)}


@op("variety-eq", Arg("gens", "a"), Arg("gens", "b"),
    help="equality of vanishing loci")
def variety_eq(a, b):
    return {"equal": variety_equal(a, b)}


@op("nested", Arg("ideal", "eqs"), Arg("gens", "ideal"), Arg("vars", "vars"),
    Arg("int", "codim"), help="nested singularity structure of a locus")
def nested(eqs, ideal, vars, codim):
    rep = nested_singularity_report(AffineScheme(vars, eqs, codim), ideal)
    return {"span_variables": list(rep.span_variables),
            **_fields(rep, "residual_equations", "span_dimension",
                      "expected_dimension", "tangent_dim_at_origin",
                      "quadratic_rank", "a1_at_origin",
                      "no_linear_factor_over_Q", "trivial")}


@op("milnor", Arg("poly", "poly"), Arg("vars", "vars", GEO))
def milnor(poly, vars):
    return {"milnor": milnor_number(poly, vars)}


@op("tjurina", Arg("poly", "poly"), Arg("listed-vars", "vars"))
def tjurina(poly, vars):
    return {"tjurina": tjurina_number(poly, vars)}


@op("delta-inv", Arg("poly", "poly"), Arg("count", "branches"),
    Arg("vars", "vars", GEO))
def delta_inv(poly, branches, vars):
    return {"milnor": milnor_number(poly, vars), "branches": branches,
            "delta": delta_invariant(poly, branches, vars)}
