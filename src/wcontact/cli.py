"""Command-line interface: one subcommand per library operation, each writing
a single JSON (or plain-text) report to stdout or --out."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import jobs
from .charts import (generic_chart, lift_chart_equivalence, lift_contact,
                     lift_interior, relative_hilb_equations,
                     verify_membership_equivalence)
from .errors import ParseError, UsageError, WContactError
from .families import ContactFamily, to_distinguished
from .geometry import (AffineScheme, nested_singularity_report,
                       singular_locus_ideal, tangent_space_dim, variety_equal)
from .groebner import gb_buchberger, normal_form
from .jobs import poly_json
from .nondegeneracy import (check_condition_star, check_relaxed_condition,
                            delta_map, phi_map, psi_map)
from .poly import Poly, PolyRing, TermOrder, canonical_form
from .series import (DEFAULT_TRUNCATION, LocalIdeal, delta_invariant,
                     milnor_number, tjurina_number, weierstrass_prepare_x)


def load_family(path: str) -> ContactFamily:
    """Read a .fam file: a vars line, a params line, an optional kind line,
    and the equation expression."""
    vars_: Tuple[str, ...] = ("x", "y")
    params: Tuple[str, ...] = ()
    kind = "contact"
    expr = None
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("vars "):
                vars_ = tuple(line.split()[1:])
            elif line.startswith("params "):
                params = tuple(line.split()[1:])
            elif line.startswith("params"):
                params = ()
            elif line.startswith("kind "):
                kind = line.split()[1]
            else:
                if expr is not None:
                    raise ParseError("multiple expression lines in family file")
                expr = line
    if expr is None:
        raise ParseError("family file has no expression line")
    ring = PolyRing(vars_ + params)
    return ContactFamily(ring.parse(expr), params, kind,
                         x=vars_[0], y=vars_[1])


def _parse_gens(text: str, ring: PolyRing) -> List[Poly]:
    return [ring.parse(part) for part in text.split(",") if part.strip()]


def _vars_ring(text: str) -> PolyRing:
    """The ring of a comma-separated --vars list."""
    try:
        return PolyRing(v.strip() for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--vars: {exc}") from None


def _family_arg(args) -> ContactFamily:
    return load_family(args.family)


def _ideal_for(F: ContactFamily, text: str) -> LocalIdeal:
    gens = _parse_gens(text, PolyRing((F.x, F.y)))
    return LocalIdeal(gens, variables=(F.x, F.y), truncation=args_trunc)


args_trunc = DEFAULT_TRUNCATION


def _phi_json(rep):
    return {
        "rank": rep.rank,
        "quotient_dimension": rep.quotient_dimension,
        "surjective": rep.surjective,
        "cokernel_monomials": rep.cokernel_monomials,
        "matrix": [[str(x) for x in row] for row in rep.matrix.rows],
        "row_labels": rep.matrix.row_labels,
        "col_labels": rep.matrix.col_labels,
    }


def _build_chart(args, geo_vars: Tuple[str, str] = ("x", "y")):
    ring = PolyRing(geo_vars)
    stair = _parse_gens(args.chart, ring)
    order = TermOrder.parse(args.order) if args.order \
        else TermOrder.lex((geo_vars[1], geo_vars[0]))
    names = args.chart_params.split(",") if getattr(args, "chart_params", None) \
        else None
    return generic_chart(stair, order, param_names=names, geo_vars=geo_vars)


def _parse_point(text: str) -> Dict[str, Fraction]:
    point = {}
    if not text:
        return point
    for part in text.split(","):
        name, _, val = part.partition("=")
        point[name.strip()] = Fraction(val.strip())
    return point


def _emit(obj, args) -> None:
    if args.format == "text":
        out = _render_text(obj)
    else:
        out = json.dumps(obj, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _render_text(obj, indent: str = "") -> str:
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.append(_render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(_render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}- {v}")
    else:
        lines.append(f"{indent}{obj}")
    return "\n".join(line for line in lines if line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcontact",
        description="Exact computations for families of w-contact curve "
                    "equations and their Hilbert-scheme lifts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trunc", type=int, default=DEFAULT_TRUNCATION)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timings (non-deterministic)")
        p.set_defaults(subparser=p)  # for usage errors found after parsing
        return p

    p = add("gb", help="reduced Groebner basis")
    p.add_argument("--gens", required=True)
    p.add_argument("--vars", required=True)
    p.add_argument("--order")

    p = add("nf", help="normal form modulo an ideal")
    p.add_argument("--poly", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--vars", required=True)
    p.add_argument("--order")

    p = add("colength", help="certified local colength")
    p.add_argument("--gens", required=True)
    p.add_argument("--vars", default="x,y")

    p = add("prepare", help="Weierstrass preparation in x")
    p.add_argument("--family", required=True)

    for name in ("phi", "delta", "psi", "star", "relaxed"):
        p = add(name)
        p.add_argument("--family", required=True)
        p.add_argument("--ideal", required=True)

    p = add("chart", help="Groebner stratum chart")
    p.add_argument("--chart", required=True,
                   help="comma-separated staircase monomials")
    p.add_argument("--order")
    p.add_argument("--chart-params")

    p = add("hilb-eq", help="relative Hilbert scheme equations")
    p.add_argument("--family", required=True)
    p.add_argument("--chart", required=True)
    p.add_argument("--order")
    p.add_argument("--chart-params")

    for name in ("lift", "lift-prime"):
        p = add(name)
        p.add_argument("--family", required=True)
        p.add_argument("--ideal", required=True)

    p = add("verify-corr", help="membership-equivalence sampling")
    p.add_argument("--family", required=True)
    p.add_argument("--ideal", help="comma-separated generators (x,y ring)")
    p.add_argument("--chart", help="staircase; generic chart generators")
    p.add_argument("--order")
    p.add_argument("--chart-params")
    p.add_argument("--samples", type=int, default=25)

    p = add("sing", help="singular locus ideal")
    p.add_argument("--eqs", required=True)
    p.add_argument("--vars", required=True)
    p.add_argument("--codim", type=int, required=True)

    p = add("tangent", help="tangent space dimension at a point")
    p.add_argument("--eqs", required=True)
    p.add_argument("--vars", required=True)
    p.add_argument("--codim", type=int)
    p.add_argument("--point", default="")

    p = add("variety-eq", help="equality of vanishing loci")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--vars", required=True)

    p = add("milnor")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", default="x,y")

    p = add("tjurina")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", required=True)

    p = add("delta-inv")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", default="x,y")
    p.add_argument("--branches", type=int, required=True)

    p = add("run", help="execute a job file")
    p.add_argument("jobfile")

    return parser


def _dispatch(args) -> Tuple[dict, int]:
    global args_trunc
    args_trunc = args.trunc
    cmd = args.command
    ring = _vars_ring(args.vars) if "vars" in args else None

    if cmd in ("gb", "nf"):
        p = ring.parse(args.poly) if cmd == "nf" else None
        gens = [g for g in _parse_gens(args.gens, ring) if not g.is_zero()]
        if not gens:
            raise UsageError("--gens: no nonzero generator")
        order = TermOrder.parse(args.order) if args.order \
            else TermOrder.degrevlex(ring.variables)
        G = gb_buchberger(gens, order)
        if cmd == "gb":
            return {"generators": [poly_json(g, order) for g in G]}, 0
        return {"normal_form": poly_json(normal_form(p, G), order)}, 0

    if cmd == "colength":
        I = LocalIdeal(_parse_gens(args.gens, ring),
                       variables=ring.variables,
                       truncation=args.trunc).certify()
        return {"colength": I.colength,
                "quotient_basis": [str(I.ring.monomial(b))
                                   for b in I.quotient_basis]}, 0

    if cmd == "prepare":
        F = _family_arg(args)
        F.require_contact()
        D = to_distinguished(F, args.trunc)
        return {"w": F.w,
                "prepared": str(D.E),
                "f": str(D.f),
                "g": str(D.g),
                "truncation": args.trunc}, 0

    if cmd in ("phi", "delta", "psi", "star", "relaxed"):
        F = _family_arg(args)
        I = _ideal_for(F, args.ideal)
        if cmd == "phi":
            return _phi_json(phi_map(F, I, args.trunc)), 0
        if cmd == "delta":
            return _phi_json(delta_map(F, I)), 0
        if cmd == "psi":
            M = psi_map(F, I, args.trunc)
            return {"rank": M.rank(), "nrows": M.nrows,
                    "row_labels": M.row_labels}, 0
        if cmd == "star":
            pair = [(F, I)]
            rep = (check_condition_star(pair, (), args.trunc)
                   if F.kind == "contact"
                   else check_condition_star((), pair, args.trunc))
            return {"rank": rep.rank,
                    "target_dimension": rep.target_dimension,
                    "parameter_dimension": rep.parameter_dimension,
                    "surjective": rep.surjective,
                    "relative_dimension": rep.relative_dimension}, 0
        rep = check_relaxed_condition(F, I, args.trunc)
        return {"surjective": rep.surjective,
                "phi_rank": rep.phi_rank,
                "stacked_rank": rep.stacked_rank,
                "quotient_dimension": rep.quotient_dimension,
                "enlarged_quotient_dimension":
                    rep.enlarged_quotient_dimension}, 0

    if cmd == "chart":
        ch = _build_chart(args)
        return {"staircase": [str(ch.ring.monomial(ch._embed(m)))
                              for m in ch.staircase],
                "colength": ch.colength,
                "parameters": list(ch.param_names),
                "generic_generators": [str(g) for g in ch.generic_generators],
                "stratum_equations": [poly_json(q)
                                      for q in ch.stratum_equations]}, 0

    if cmd == "hilb-eq":
        F = _family_arg(args)
        ch = _build_chart(args, (F.x, F.y))
        rel = relative_hilb_equations(F, ch)
        return {"equations": [poly_json(q) for q in rel.equations],
                "stratum_equations": [poly_json(q)
                                      for q in rel.stratum_equations],
                "family_parameters": list(rel.family_params),
                "chart_parameters": list(rel.chart_params)}, 0

    if cmd in ("lift", "lift-prime"):
        F = _family_arg(args)
        gens = _parse_gens(args.ideal, PolyRing((F.x, F.y)))
        lifted = (lift_contact(F, gens) if cmd == "lift"
                  else lift_interior(F, gens))
        return {"generators": [str(g) for g in lifted.generators],
                "graph_relation": str(lifted.graph_relation),
                "kind": lifted.kind,
                "base_z": str(lifted.base_z)}, 0

    if cmd == "verify-corr":
        F = _family_arg(args)
        if args.chart:
            gens = _build_chart(args, (F.x, F.y)).generic_generators
        elif args.ideal:
            gens = _parse_gens(args.ideal, PolyRing((F.x, F.y)))
        else:
            raise ParseError("verify-corr needs --ideal or --chart")
        rep = verify_membership_equivalence(F, gens, samples=args.samples,
                                            seed=args.seed)
        return {"kind": rep.kind,
                "samples": len(rep.samples),
                "rejected": rep.rejected,
                "seed": rep.seed,
                "ok": rep.ok,
                "counterexamples": [vars(s) for s in rep.counterexamples]}, \
            0 if rep.ok else 1

    if cmd in ("sing", "tangent"):
        S = AffineScheme(ring.variables, _parse_gens(args.eqs, ring),
                         expected_codim=args.codim)
        if cmd == "sing":
            sing = singular_locus_ideal(S)
            return {"generators": [poly_json(g) for g in sing]}, 0
        point = _parse_point(args.point)
        return {"tangent_dimension": tangent_space_dim(S, point)}, 0

    if cmd == "variety-eq":
        return {"equal": variety_equal(_parse_gens(args.a, ring),
                                       _parse_gens(args.b, ring))}, 0

    if cmd in ("milnor", "tjurina", "delta-inv"):
        p = ring.parse(args.poly)
        if cmd == "tjurina":
            return {"tjurina": tjurina_number(p, ring.variables)}, 0
        mu = milnor_number(p, ring.variables)
        if cmd == "milnor":
            return {"milnor": mu}, 0
        return {"milnor": mu,
                "branches": args.branches,
                "delta": delta_invariant(p, args.branches)}, 0

    if cmd == "run":
        with open(args.jobfile) as fh:
            text = fh.read()
        if args.seed:
            text = text + f"\nseed {args.seed}\n"
        report = jobs.run_job(text, include_timing=args.timing)
        return report, 0 if report["failed_tasks"] == 0 else 1

    raise AssertionError(f"unhandled command {cmd}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _dispatch(args)
    except UsageError as exc:
        args.subparser.print_usage(sys.stderr)
        print(f"{args.subparser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except WContactError as exc:
        report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        _emit(report, args)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
