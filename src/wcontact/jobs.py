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

A task's operation and arguments are those of the operation table
(wcontact.ops): the names it reads, then keyword pairs such as 'codim 2' or
'samples 25', then an order ('gb I lex y>x') or a variable list ('tjurina P
x,y,z').  Every name must be defined on an earlier line than any reference
to it, and each task needs the arguments its operation reads; both are
validated before any task runs.  The trunc line is the truncation order of
'prepare' tasks; every other order is derived from the input.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List, Tuple

from .charts import GroebnerStratumChart
from .errors import JobError, UsageError, WContactError
from .families import ContactFamily
from .ops import (GEO, OPS, REQUIRED, Op, nonzero, parse_point, positive,
                  public)
from .poly import Poly, PolyRing, TermOrder
from .series import DEFAULT_TRUNCATION


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
        except UsageError as exc:  # a value the directive cannot use
            raise JobError(f"line {lineno}: {exc}") from None
        except WContactError as exc:
            # keep the type and attributes, such as a ParseError's position
            exc.args = (f"line {lineno}: {exc}",)
            raise
    _validate_references(ctx)
    return ctx


def _parse_line(ctx: JobContext, line: str):
    head, _, rest = line.partition(" ")
    rest = rest.strip()
    if head == "seed":
        ctx.seed = _integer(rest, "seed", check=int)
    elif head == "trunc":
        ctx.trunc = _integer(rest, "trunc")
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
            E = PolyRing(ctx.vars + ctx.params).parse(expr.strip())
            ctx.families[name] = ContactFamily(E, ctx.params, kind,
                                               *_geo_vars(ctx))
        elif head == "ideal":
            ctx.ideals[name] = [ring.parse(g) for g in body.split(",")]
        elif head == "chart":
            ctx.charts[name] = _parse_chart(ctx, body)
        else:
            op, *args = body.split()
            if op in OPS:  # an unknown operation fails its own task
                _read_task(op, args)
            ctx.tasks.append((name, op, args))
    else:
        raise JobError(f"unknown directive {head!r}")


# the argument kinds a task names, and where a job keeps each named kind
_NAMED = ("family", "ideal", "gens", "chart", "chart-or-ideal", "poly")
_TABLES = {"family": ("families", "family"), "chart": ("charts", "chart"),
           "poly": ("polys", "polynomial")}


def _integer(text: str, what: str, problem: str = "must be an integer",
             check=positive) -> int:
    try:
        return check(int(text))
    except ValueError:
        raise JobError(f"{what} {problem}") from None
    except UsageError as exc:
        raise JobError(f"{what} {exc}") from None


def _read_task(op: str, tokens: List[str]) -> Dict[str, Any]:
    """A task's arguments by handler keyword, as the operation table reads
    them: names after the operation, then keyword pairs such as 'codim 2',
    then an order or a variable list.  Names stay unresolved."""
    args = OPS[op].args
    named = [a for a in args if a.kind in _NAMED or a.kind == "count"]
    if len(tokens) < len(named):
        raise JobError(f"task {op!r} needs {len(named)} argument(s), "
                       f"got {len(tokens)}")
    values = dict(zip((a.name for a in named), tokens))
    rest = tokens[len(named):]
    try:
        for a in args:  # keyword pairs first; what is left is an order or vars
            if a.kind == "int" and a.name in rest:
                i = rest.index(a.name)
                values[a.name] = _integer(
                    "".join(rest[i + 1:i + 2]), f"task {op!r}: {a.name!r}",
                    "needs an integer")
                del rest[i:i + 2]
            elif a.kind == "point" and a.name in rest:
                i = rest.index(a.name)
                values[a.name] = parse_point("".join(rest[i + 1:i + 2]))
                del rest[i:i + 2]
            elif a.kind in ("int", "point") and a.default is REQUIRED:
                raise JobError(f"task {op!r} needs '{a.name} N'")
            elif a.kind in ("int", "point"):
                values[a.name] = a.default
        for a in args:
            if a.kind == "count":
                values[a.name] = _integer(values[a.name],
                                          f"task {op!r}: {a.name!r}")
            elif a.kind == "order" and rest:
                values[a.name] = TermOrder.parse(" ".join(rest))
                rest = []
            elif a.kind == "listed-vars" and rest:
                values[a.name] = PolyRing(rest.pop(0).split(",")).variables
    except UsageError as exc:
        raise JobError(f"task {op!r}: {exc}") from None
    if rest:
        raise JobError(f"task {op!r}: unexpected {' '.join(rest)!r}")
    return values


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
    ring = PolyRing(ctx.vars + ctx.params)
    stair = [ring.parse(m) for m in stair_text.split(",")]
    order = TermOrder.parse(order_text.strip())
    return GroebnerStratumChart(stair, order, names, _geo_vars(ctx))


def _geo_vars(ctx: JobContext) -> Tuple[str, str]:
    if len(ctx.vars) < 2:
        raise JobError("the vars line needs at least two names")
    return ctx.vars[:2]


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

def _gens(ctx: JobContext, name: str) -> List[Poly]:
    if name in ctx.ideals:
        return ctx.ideals[name]
    res = ctx.task_results.get(name)
    if isinstance(res, dict) and "_polys" in res:
        return res["_polys"]
    raise JobError(f"unknown ideal {name!r}")


def _resolve(ctx: JobContext, task: str, op: Op, a, values) -> Any:
    """One argument's value: a name looked up, a context value, or the
    value read from the task line."""
    value = values.get(a.name)
    if a.kind in _TABLES:
        table, what = _TABLES[a.kind]
        if value not in getattr(ctx, table):
            raise JobError(f"unknown {what} {value!r}")
        return getattr(ctx, table)[value]
    if a.kind == "chart-or-ideal" and value in ctx.charts:
        return ctx.charts[value].generic_generators
    if a.kind in ("gens", "chart-or-ideal"):
        return _gens(ctx, value)
    if a.kind == "ideal":
        try:
            return nonzero(_gens(ctx, value))
        except UsageError as exc:
            raise JobError(f"ideal {value!r}: {exc}") from None
    if a.kind == "trunc":
        return ctx.trunc
    if a.kind == "seed":
        return ctx.sub_seed(task)
    if a.kind == "vars" and a.default == GEO:
        return tuple(ctx.vars[:2])
    if a.kind in ("vars", "listed-vars") and value is None:
        # the variables the first polynomial argument uses, in ring order
        first = next(values[b.name] for b in op.args
                     if b.kind in ("ideal", "gens", "poly"))
        polys = first if isinstance(first, list) else [first]
        used = {v for p in polys for v in p.variables_used()}
        return tuple(v for v in polys[0].ring.variables if v in used)
    return value


def run_task(ctx: JobContext, name: str, op: str, args: List[str]
             ) -> Dict[str, Any]:
    if op not in OPS:
        raise JobError(f"unknown task operation {op!r}")
    spec = OPS[op]
    values = _read_task(op, args)
    for a in spec.args:
        values[a.name] = _resolve(ctx, name, spec, a, values)
    try:
        return spec.handler(**values)
    except UsageError as exc:  # a value only the handler can check
        raise JobError(f"task {op!r}: {exc.arg}: {exc}") from None


def run_job(text: str, include_timing: bool = False) -> Dict[str, Any]:
    """Execute a job and return the report object (not yet serialized)."""
    ctx = parse_job(text)
    results: Dict[str, Any] = {}
    failures = 0
    for name, op, args in ctx.tasks:
        t0 = time.monotonic()
        try:
            res = run_task(ctx, name, op, args)
            ctx.task_results[name] = res
            entry = {"op": op, "ok": True, "result": public(res)}
        except WContactError as exc:
            failures += 1
            entry = {"op": op, "ok": False,
                     "error": {"type": type(exc).__name__,
                               "message": str(exc)}}
        if include_timing:
            entry["elapsed_s"] = round(time.monotonic() - t0, 3)
        results[name] = entry
    return {"seed": ctx.seed, "truncation": ctx.trunc,
            "tasks": {k: results[k] for k in sorted(results)},
            "failed_tasks": failures}
