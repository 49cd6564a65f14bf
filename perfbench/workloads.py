"""The benchmark's workloads: inputs built from a seed, the operations of one
pass, and an exact check for the outcome of every operation.

Every call into the package goes through a module attribute looked up at call
time (``series.tjurina_number``, never a name imported once), so the tracer's
replacement bindings are the ones that run while it is installed.

wcontact is imported only by :func:`import_package`, so that a fresh
interpreter can time the import as part of the set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "out"

# The shipped job, run at the workload seed.  At the job's own seed the
# whole report must match the bytes recorded at the commit that defined the
# benchmark; at every seed, so must the report without its seed-dependent
# parts (the top-level "seed" and the sampled "correspondence" task).
JOB_FILE = SRC / "wcontact" / "data" / "codim4.job"
JOB_SEED = 20260823
JOB_REPORT_SHA256 = \
    "b4db4276950861ea9b6ca6fc141d6080f483b6fc8f3d8c5da1408abe92e34197"
JOB_INVARIANT_SHA256 = \
    "264f27a83424a8b19a02d006a50e2a8653b30b16a205b1ab791a4d8687beae8f"
CODIM4_TASKS = ("chart_c", "equations", "star_check", "relaxed_check",
                "singular_locus", "sing_matches", "nested_a1", "lift_ideal",
                "lift_equivalence", "correspondence")
GOLDEN_EQUATIONS = (
    "s*m^3 + t*m^3 + s*k*m + k^2*m + m^3 + 2*s*m*n + 2*t*m*n"
    " + t*k + s*l + 2*k*l + 2*m*n",
    "s*m^2*n + t*m^2*n + s*k*n + k^2*n + m^2*n + s*n^2 + t*n^2"
    " + t*l + l^2 + n^2",
)
CHART_VARS = ("s", "t", "k", "l", "m", "n")

CODIM4_FAMILY = "(y^2+x^4)+s*x*(y+x^3)+t*(y+x^4)"
WEIERSTRASS_E = "x^4+2*x^6+3*x*y^2-2*s*x^5-y"
WEIERSTRASS_W, WEIERSTRASS_N = 4, 12
NOT_ISOLATED = "x*y*s"
# (a, b) of the semi-quasi-homogeneous germs y^a + x^b + higher terms; the
# shapes are fixed so that the seed moves coefficients, not the cost class
SQH_SHAPES = ((2, 3), (2, 5), (2, 9), (3, 4), (3, 5), (3, 7), (3, 8),
              (3, 10), (4, 5), (4, 6), (4, 7), (5, 6))
SQH_COEFFS = (1, 2, 3, -1, -2, -3, Fraction(1, 2), Fraction(-2, 3))
UNIT_RESCALINGS = 20
COORDINATE_CHANGES = 10
PHI_RANK = 2  # rank of Phi for the codim-4 family on <y, x^2>

SAMPLING_IDEALS = (("y", "x^2"), ("x", "y"), ("y - x^2", "x^3"))
SAMPLING_CHARTS = (("y", "x^2"), ("y", "x^3"), ("y^2", "x*y", "x^2"))
SAMPLING_ROUNDS = 11
SAMPLES_PER_CALL = 5


class BenchError(Exception):
    """The benchmark cannot run here: no package source, or a wrong one."""


def import_package() -> None:
    """Import wcontact from this checkout's src/ and nowhere else."""
    if not (SRC / "wcontact" / "__init__.py").is_file():
        raise BenchError(f"no wcontact package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wcontact
    import wcontact.cli  # noqa: F401  (loads every module before tracing)
    found = Path(wcontact.__file__).resolve().parent
    if found != SRC / "wcontact":
        raise BenchError(f"imported wcontact from {found}, not from {SRC}")


@dataclass
class Op:
    """One operation: ``run`` calls the package and returns its result;
    ``check`` gets that result and the exception raised (or None) and
    returns None when the outcome is exactly right, else the reason."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Optional[BaseException]], Optional[str]]


def _expect_result(test: Callable[[Any], Optional[str]]):
    def check(result, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        return test(result)
    return check


def _sub_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _up_to_scale(a, b) -> bool:
    if set(a.terms) != set(b.terms):
        return False
    return len({b.terms[e] / a.terms[e] for e in a.terms}) == 1


# -- codim4 ------------------------------------------------------------------

def job_text(seed: int) -> str:
    lines = JOB_FILE.read_text().splitlines()
    if not any(line.startswith("seed ") for line in lines):
        raise BenchError(f"{JOB_FILE} has no seed line")
    return "\n".join(f"seed {seed}" if line.startswith("seed ") else line
                     for line in lines) + "\n"


def invariant_digest(report: Dict[str, Any]) -> str:
    """Digest of the report without the parts the job seed changes."""
    rest = {k: v for k, v in report.items() if k != "seed"}
    rest["tasks"] = {k: v for k, v in report["tasks"].items()
                     if k != "correspondence"}
    return hashlib.sha256(json.dumps(rest, indent=2).encode()).hexdigest()


def check_codim4_report(code: int, data: bytes, seed: int) -> Optional[str]:
    from wcontact import poly
    if code != 0:
        return f"wcontact run exited {code}"
    report = json.loads(data)
    tasks = report["tasks"]
    if sorted(tasks) != sorted(CODIM4_TASKS):
        return f"tasks {sorted(tasks)}"
    bad = [name for name, entry in tasks.items() if not entry["ok"]]
    if bad or report["failed_tasks"]:
        return f"tasks not ok: {bad}"
    ring = poly.PolyRing(CHART_VARS)
    rel = tasks["equations"]["result"]
    got = [ring.parse(q["canonical"])
           for q in rel["equations"] + rel["stratum_equations"]]
    golden = [ring.parse(q) for q in GOLDEN_EQUATIONS]
    if len(got) != len(golden) or not all(
            any(_up_to_scale(g, q) for q in got) for g in golden):
        return "chart equations differ from the golden pair"
    flags = {"sing_matches": "equal", "star_check": "surjective",
             "correspondence": "ok", "lift_equivalence": "ok"}
    for task, flag in flags.items():
        if tasks[task]["result"][flag] is not True:
            return f"{task}.{flag} is not true"
    if invariant_digest(report) != JOB_INVARIANT_SHA256:
        return "report differs from the recorded one outside the sampled task"
    if seed == JOB_SEED and \
            hashlib.sha256(data).hexdigest() != JOB_REPORT_SHA256:
        return "report bytes differ from the recorded digest"
    return None


def codim4_inputs(seed: int) -> Dict[str, Any]:
    from wcontact import jobs
    text = job_text(seed)
    jobs.parse_job(text)  # a malformed job fails here, before any timing
    WORK.mkdir(exist_ok=True)
    path = WORK / f"codim4-{seed}.job"
    path.write_text(text)
    return {"seed": seed, "text": text, "job": path,
            "report": WORK / f"codim4-{seed}.json"}


def codim4_ops(inp: Dict[str, Any]) -> List[Op]:
    from wcontact import cli

    def run():
        # a report left by an earlier pass must not stand in for this one's
        inp["report"].unlink(missing_ok=True)
        code = cli.main(["run", str(inp["job"]), "--out", str(inp["report"])])
        return code, inp["report"].read_bytes()

    return [Op("run codim4.job", run, _expect_result(
        lambda result: check_codim4_report(*result, inp["seed"])))]


def codim4_digest(inp: Dict[str, Any]) -> str:
    return inp["text"]


# -- germs -------------------------------------------------------------------

def sqh_germ(rng: random.Random, a: int, b: int, ring):
    """y^a + x^b plus one to three terms strictly above the Newton diagonal."""
    above = [(i, j) for i in range(b + 1) for j in range(a + 1)
             if i * a + j * b > a * b]
    f = ring.parse(f"y^{a} + x^{b}")
    for i, j in rng.sample(above, rng.randint(1, 3)):
        f = f + ring.monomial((i, j), Fraction(rng.choice(SQH_COEFFS)))
    return f


def germs_inputs(seed: int) -> Dict[str, Any]:
    from wcontact import families, poly, series
    rng = random.Random(seed)
    xys = poly.PolyRing(("x", "y", "s"))
    geo = poly.PolyRing(("x", "y"))
    rst = poly.PolyRing(("x", "y", "s", "t"))
    family = families.ContactFamily.contact(rst.parse(CODIM4_FAMILY),
                                            ("s", "t"))
    ideal = series.LocalIdeal([rst.parse("y"), rst.parse("x^2")],
                              variables=("x", "y"))
    units = []
    for _ in range(UNIT_RESCALINGS):
        h = rst.zero()
        for _ in range(rng.randint(0, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 1), 0, 0)
            h = h + poly.Poly(rst, {e: Fraction(rng.randint(-3, 3))})
        c = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
        units.append((rst.one() + rst.var("y") * h) * c)
    changes = []
    x, y = rst.var("x"), rst.var("y")
    for _ in range(COORDINATE_CHANGES):
        a = rng.choice([1, 2, -1, Fraction(1, 2), Fraction(-2, 3)])
        b = rng.choice([1, -1, 2, Fraction(3, 2)])
        changes.append((x * a + y * rng.randint(-2, 2)
                        + x ** 2 * rng.randint(-1, 1),
                        y * b + x * y * rng.randint(-2, 2)))
    return {
        "E": xys.parse(WEIERSTRASS_E),
        "not_isolated": xys.parse(NOT_ISOLATED),
        "germs": [(a, b, sqh_germ(rng, a, b, geo)) for a, b in SQH_SHAPES],
        "family": family, "ideal": ideal, "units": units, "changes": changes,
    }


def check_weierstrass(E, w: int, N: int, u, P) -> Optional[str]:
    """u*P = E mod m^(N+1), P monic of x-degree w with lower coefficients in
    the ideal of the other variables, u a unit; m is the maximal ideal."""
    from wcontact import series
    ring = E.ring
    xi = ring.index("x")
    m = ring.variables
    if u.body.constant_term() == 0:
        return "u is not a unit"
    lhs = series.truncate_poly(u.body * P, m, N)
    if lhs != series.truncate_poly(E, m, N):
        return "u*P differs from E modulo m^(N+1)"
    lead = tuple(w if i == xi else 0 for i in range(ring.nvars))
    if P.terms.get(lead) != 1 or any(e[xi] > w or (e[xi] == w and e != lead)
                                     for e in P.terms):
        return "P is not monic of x-degree w"
    if any(e[xi] < w and sum(e) == e[xi] for e in P.terms):
        return "a lower coefficient of P has a nonzero constant term"
    return None


def local_tjurina_oracle(f, mu: int) -> int:
    """dim Q[x,y]/(f, f_x, f_y, m^mu) from a global Groebner basis: the
    local algebra has length tau <= mu, so m^mu already lies in the local
    ideal and the quotient is local."""
    from wcontact import groebner, poly
    ring = f.ring
    gens = [f, f.partial("x"), f.partial("y")]
    gens += [ring.monomial((k, mu - k)) for k in range(mu + 1)]
    basis = groebner.gb_buchberger(
        gens, poly.TermOrder.degrevlex(ring.variables))
    return groebner.standard_monomials(basis).dimension


def germs_ops(inp: Dict[str, Any]) -> List[Op]:
    from wcontact import errors, families, nondegeneracy, series
    E = inp["E"]
    ops = []

    def weierstrass():
        return series.weierstrass_prepare_x(
            E, WEIERSTRASS_W, N=WEIERSTRASS_N, small=("y", "s"))

    ops.append(Op("weierstrass_prepare_x", weierstrass,
                  _expect_result(lambda r: check_weierstrass(
                      E, WEIERSTRASS_W, WEIERSTRASS_N, *r))))

    def not_isolated():
        f = inp["not_isolated"]
        return series.tjurina_number(f, f.ring.variables)

    def expect_not_isolated(result, exc):
        if isinstance(exc, errors.NotIsolated):
            return None
        return f"expected NotIsolated, got {exc!r} / {result!r}"

    ops.append(Op("tjurina x*y*s", not_isolated, expect_not_isolated))

    for a, b, f in inp["germs"]:
        mu = (a - 1) * (b - 1)
        ops.append(Op(
            f"milnor SQH({a},{b}) {f}",
            lambda f=f: series.milnor_number(f, ("x", "y")),
            _expect_result(lambda r, mu=mu: None if r == mu
                           else f"mu = {r}, expected {mu}")))
        ops.append(Op(
            f"tjurina SQH({a},{b}) {f}",
            lambda f=f: series.tjurina_number(f, ("x", "y")),
            _expect_result(lambda r, f=f, mu=mu: (
                None if r == local_tjurina_oracle(f, mu)
                else f"tau = {r} disagrees with the global-basis oracle"))))

    F, I = inp["family"], inp["ideal"]
    for u in inp["units"]:
        ops.append(Op(
            f"phi after unit {u}",
            lambda u=u: nondegeneracy.phi_map(families.multiply_unit(F, u), I),
            _expect_result(lambda r: (
                None if r.rank == PHI_RANK and r.surjective
                else f"phi rank {r.rank}, surjective {r.surjective}"))))

    for xim, yim in inp["changes"]:
        def star(xim=xim, yim=yim):
            change = families.StrataPreservingChange(xim, yim)
            G = families.apply_change(F, change, truncation=14)
            moved = series.LocalIdeal(
                [g.subs({"x": xim, "y": yim}) for g in I.generators],
                variables=("x", "y"))
            return nondegeneracy.check_condition_star([(G, moved)])

        ops.append(Op(
            f"star after change x->{xim}, y->{yim}", star,
            _expect_result(lambda r: (
                None if r.surjective and r.relative_dimension == 0
                else f"surjective {r.surjective}, "
                     f"relative dimension {r.relative_dimension}"))))
    return ops


def germs_digest(inp: Dict[str, Any]) -> str:
    parts = [str(inp["E"]), str(inp["not_isolated"])]
    parts += [f"{a},{b}: {f}" for a, b, f in inp["germs"]]
    parts += [str(u) for u in inp["units"]]
    parts += [f"{xim} | {yim}" for xim, yim in inp["changes"]]
    return "\n".join(parts)


# -- sampling ----------------------------------------------------------------

def sampling_families(rst):
    from wcontact import families
    out = []
    for w in (2, 3, 4, 5):
        E = rst.parse(f"(y^2+x^{w}) + s*x*(y+x^{max(w - 1, 1)})"
                      f" + t*(y+x^{w})")
        out.append(families.ContactFamily.contact(E, ("s", "t"),
                                                  expected_w=w))
    out.append(families.ContactFamily.interior(
        rst.parse("y^2 + x^3 + s*y + t*x^2"), ("s", "t")))
    out.append(families.ContactFamily.interior(
        rst.parse("x*y + s*x^3 + t*y^2"), ("s", "t")))
    return out


def sampling_inputs(seed: int) -> Dict[str, Any]:
    from wcontact import charts, poly
    rst = poly.PolyRing(("x", "y", "s", "t"))
    geo = poly.PolyRing(("x", "y"))
    lex = poly.TermOrder.parse("lex y>x")
    ideals = [[geo.parse(g) for g in gens] for gens in SAMPLING_IDEALS]
    for stair in SAMPLING_CHARTS:
        chart = charts.GroebnerStratumChart([geo.parse(m) for m in stair],
                                            lex)
        ideals.append(list(chart.generic_generators))
    calls = []
    for rnd in range(SAMPLING_ROUNDS):
        for fi in range(6):
            for ii in range(len(ideals)):
                calls.append((fi, ii, _sub_seed(seed, f"{rnd}:{fi}:{ii}")))
    return {"families": sampling_families(rst), "ideals": ideals,
            "calls": calls}


def check_sampling(report) -> Optional[str]:
    if len(report.samples) != SAMPLES_PER_CALL:
        return f"{len(report.samples)} samples"
    if not report.ok:
        return f"counterexamples {report.counterexamples}"
    if not all(s.elimination_ok for s in report.samples):
        return "elimination did not recover the curve ideal"
    return None


def sampling_ops(inp: Dict[str, Any]) -> List[Op]:
    from wcontact import charts
    ops = []
    for fi, ii, sub in inp["calls"]:
        F, gens = inp["families"][fi], inp["ideals"][ii]
        ops.append(Op(
            f"verify family {fi} ideal {ii} seed {sub}",
            lambda F=F, gens=gens, sub=sub:
                charts.verify_membership_equivalence(
                    F, gens, samples=SAMPLES_PER_CALL, seed=sub),
            _expect_result(check_sampling)))
    return ops


def sampling_digest(inp: Dict[str, Any]) -> str:
    parts = [str(F.E) for F in inp["families"]]
    parts += [", ".join(map(str, gens)) for gens in inp["ideals"]]
    parts += [f"{fi} {ii} {sub}" for fi, ii, sub in inp["calls"]]
    return "\n".join(parts)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Dict[str, Any]]
    ops: Callable[[Dict[str, Any]], List[Op]]
    describe: Callable[[Dict[str, Any]], str]

    def inputs_digest(self, inp: Dict[str, Any]) -> str:
        return hashlib.sha256(self.describe(inp).encode()).hexdigest()


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("codim4", codim4_inputs, codim4_ops, codim4_digest),
    Workload("germs", germs_inputs, germs_ops, germs_digest),
    Workload("sampling", sampling_inputs, sampling_ops, sampling_digest),
)}
