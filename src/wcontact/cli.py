"""Command-line interface: one subcommand per entry of the operation table,
and ``run`` for job files; each writes a single JSON (or plain-text) report
to stdout or --out."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Any, Dict, Optional, Sequence, Tuple

from . import jobs
from .charts import GroebnerStratumChart
from .errors import ParseError, UsageError, WContactError
from .families import ContactFamily
from .ops import (OPS, REQUIRED, Op, call, known_order, nonzero, parse_order,
                  parse_point, positive, public)
from .poly import PolyRing, TermOrder


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
            head, _, rest = line.partition(" ")
            if head == "vars":
                vars_ = tuple(rest.split())
                if len(vars_) != 2:
                    raise ParseError("the vars line needs two names")
            elif head == "params":
                params = tuple(rest.split())
            elif head == "kind":
                kind = rest.strip()
                if kind not in ("contact", "interior"):
                    raise ParseError(f"family kind must be contact or "
                                     f"interior, not {kind!r}")
            elif expr is not None:
                raise ParseError("multiple expression lines in family file")
            else:
                expr = line
    if expr is None:
        raise ParseError("family file has no expression line")
    ring = PolyRing(vars_ + params)
    return ContactFamily(ring.parse(expr), params, kind,
                         x=vars_[0], y=vars_[1])


def _emit(obj, args) -> None:
    text = _render_text(obj) if args.format == "text" \
        else json.dumps(obj, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


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


# -- subcommands from the operation table -------------------------------------

def _flags(op: Op):
    """The (flag, add_argument keywords) pairs of an op's subcommand."""
    kinds = {a.kind for a in op.args}
    if kinds & {"ideal", "gens", "poly"} and \
            not kinds & {"family", "vars", "listed-vars"}:
        yield "--vars", {"required": True}  # the ring polynomials are read in
    for a in op.args:
        if a.kind in ("chart", "chart-or-ideal"):
            if a.kind == "chart-or-ideal":
                yield "--ideal", {"help": "comma-separated generators"}
            yield "--chart", {"required": a.kind == "chart",
                              "help": "comma-separated staircase monomials"}
            yield "--order", {}
            yield "--chart-params", {}
        else:
            required = a.default is REQUIRED
            yield f"--{a.name}", {
                "required": required,
                "default": None if required else a.default,
                "type": int if a.kind in ("int", "count", "trunc", "seed")
                else str}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcontact",
        description="Exact computations for families of w-contact curve "
                    "equations and their Hilbert-scheme lifts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timings (non-deterministic)")
        p.set_defaults(subparser=p)  # for usage errors found after parsing
        return p

    for name, op in OPS.items():
        p = add(name, op.help)
        for flag, kwargs in _flags(op):
            p.add_argument(flag, **kwargs)
    run = add("run", "execute a job file")
    run.add_argument("jobfile")
    run.add_argument("--seed", type=int, default=0,
                     help="replace the job's seed line")
    return parser


@contextmanager
def _flag(name: str):
    """Report a value the operation cannot use as a usage error of --name,
    unless the error already names its argument."""
    try:
        yield
    except (WContactError, ValueError) as exc:
        raise UsageError(str(exc), getattr(exc, "arg", None) or name) from None


def _inputs(op: Op, args) -> Dict[str, Any]:
    """The handler's typed inputs, read from the subcommand's flags.
    Polynomials are read in the family's (x, y) ring, else in --vars."""
    values: Dict[str, Any] = {}
    family = ring = None
    if op.args[0].kind == "family":
        with _flag("family"):
            family = values["family"] = load_family(args.family)
        ring = PolyRing(family.geo_vars())
    elif "vars" in args:
        with _flag("vars"):
            ring = PolyRing(v.strip() for v in args.vars.split(","))
    for a in op.args:
        if a.name not in values:
            with _flag(a.name):
                values[a.name] = _read(a, args, ring, family)
    return values


def _chart(args, family) -> GroebnerStratumChart:
    geo = family.geo_vars() if family else ("x", "y")
    geo_ring = PolyRing(geo)
    stair = nonzero([geo_ring.parse(t) for t in args.chart.split(",")
                     if t.strip()])
    with _flag("order"):
        order = known_order(parse_order(args.order), geo_ring) if args.order \
            else TermOrder.lex((geo[1], geo[0]))
    names = args.chart_params.split(",") if args.chart_params else None
    return GroebnerStratumChart(stair, order, names, geo)


def _read(a, args, ring: Optional[PolyRing], family) -> Any:
    kind, value = a.kind, getattr(args, a.name)
    if kind == "chart" or kind == "chart-or-ideal" and args.chart:
        chart = _chart(args, family)
        return chart if kind == "chart" else chart.generic_generators
    if kind in ("ideal", "gens", "chart-or-ideal"):
        if value is None:
            raise UsageError("needed when --chart is not given")
        gens = [ring.parse(t) for t in value.split(",") if t.strip()]
        return nonzero(gens) if kind == "ideal" else gens
    if kind == "poly":
        return ring.parse(value)
    if kind in ("vars", "listed-vars"):
        return ring.variables
    if kind in ("order", "point"):
        parse = parse_order if kind == "order" else parse_point
        return parse(value) if value else a.default
    return value if value is None or kind == "seed" else positive(value)


def _refuse(args, message: str) -> int:
    """Report a usage error of the subcommand on stderr; exit code 2."""
    args.subparser.print_usage(sys.stderr)
    print(f"{args.subparser.prog}: error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # e.g. --trunc on a subcommand that derives its orders
        return _refuse(args, f"{extra[0]}: not an argument of {args.command}")
    try:
        if args.command == "run":
            with open(args.jobfile) as fh:
                text = fh.read()
            if args.seed:
                text = text + f"\nseed {args.seed}\n"
            report = jobs.run_job(text, include_timing=args.timing)
            code = 1 if report["failed_tasks"] else 0
        else:
            op = OPS[args.command]
            report = public(call(op, _inputs(op, args)))
            code = 1 if report.get("ok") is False else 0
    except UsageError as exc:
        flag = f"--{exc.arg}: " if exc.arg else ""
        return _refuse(args, f"{flag}{exc}")
    except WContactError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              args)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
