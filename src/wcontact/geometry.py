"""Jacobian criteria: singular loci of affine complete intersections,
tangent-space dimensions at rational points, and variety-equality tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import CertificationFailed, PointNotOnScheme, UnknownVariable
from .groebner import TermOrder, gb_buchberger, normal_form, radical_membership
from .linalg import MatrixQ
from .poly import Poly, PolyRing


class AffineScheme:
    """A closed subscheme of affine space cut out by polynomial equations."""

    __slots__ = ("variables", "equations", "expected_codim", "ring")

    def __init__(self, variables: Sequence[str], equations: Sequence[Poly],
                 expected_codim: Optional[int] = None):
        self.variables = tuple(variables)
        self.ring = PolyRing(self.variables)
        self.equations = [q.map_to(self.ring) for q in equations]
        if any(q.is_zero() for q in self.equations):
            raise ValueError("zero equation in scheme definition")
        self.expected_codim = expected_codim

    @property
    def ambient_dimension(self) -> int:
        return len(self.variables)

    def jacobian(self) -> List[List[Poly]]:
        return [[q.partial(v) for v in self.variables] for q in self.equations]

    def jacobian_at(self, point: Dict[str, Fraction]) -> MatrixQ:
        rows = []
        for q in self.equations:
            rows.append([q.partial(v).eval(point) for v in self.variables])
        return MatrixQ(rows, col_labels=list(self.variables))

    def contains_point(self, point: Dict[str, Fraction]) -> bool:
        return all(q.eval(point) == 0 for q in self.equations)

    def __repr__(self):
        return (f"<scheme in A^{self.ambient_dimension}: "
                f"{len(self.equations)} equations>")


def singular_locus_ideal(S: AffineScheme) -> List[Poly]:
    """The scheme's equations together with the c x c minors of its Jacobian,
    c being the expected codimension."""
    c = S.expected_codim
    if c is None:
        raise ValueError("singular locus needs the expected codimension")
    jac = S.jacobian()
    gens = list(S.equations)
    for rows in combinations(range(len(S.equations)), c):
        for cols in combinations(range(len(S.variables)), c):
            m = _poly_det([[jac[i][j] for j in cols] for i in rows])
            if not m.is_zero() and m not in gens:
                gens.append(m)
    return gens


def _poly_det(m: List[List[Poly]]) -> Poly:
    n = len(m)
    if n == 1:
        return m[0][0]
    ring = m[0][0].ring
    det = ring.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _poly_det(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def tangent_space_dim(S: AffineScheme, point: Dict[str, Fraction]) -> int:
    """Ambient dimension minus the Jacobian rank at an on-scheme point."""
    point = {v: Fraction(point.get(v, 0)) for v in S.variables}
    if not S.contains_point(point):
        bad = [str(q) for q in S.equations if q.eval(point) != 0]
        raise PointNotOnScheme(f"equations nonzero at the point: {bad}")
    return S.ambient_dimension - S.jacobian_at(point).rank()


def variety_equal(a_gens: Sequence[Poly], b_gens: Sequence[Poly]) -> bool:
    """V(A) = V(B) over the algebraic closure: every generator of each ideal
    lies in the radical of the other."""
    a_gens = [g for g in a_gens if not g.is_zero()]
    b_gens = [g for g in b_gens if not g.is_zero()]
    if not a_gens or not b_gens:
        return not a_gens and not b_gens
    ring = a_gens[0].ring
    b_in_ring = [g.map_to(ring) for g in b_gens]
    return (_all_in_radical(b_in_ring, a_gens)
            and _all_in_radical(a_gens, b_in_ring))


def _all_in_radical(targets: Sequence[Poly], gens: Sequence[Poly],
                    power_bound: int = 12) -> bool:
    """Each target lies in the radical of the ideal; one shared basis, with a
    cheap power test before the certified membership check."""
    ring = gens[0].ring
    order = TermOrder.degrevlex(ring.variables)
    gb = gb_buchberger(list(gens), order)
    basis = list(gb)
    for t in targets:
        p = ring.one()
        for _ in range(power_bound):
            p = p * t
            if normal_form(p, gb).is_zero():
                break
        else:
            if not radical_membership(t, basis):
                return False
    return True


def _quadratic_part_rank(p: Poly, span: Sequence[str]) -> int:
    """Rank of the symmetric matrix of the total-degree-2 part of p."""
    ring = p.ring
    idx = [ring.index(v) for v in span]
    n = len(span)
    M = [[Fraction(0)] * n for _ in range(n)]
    for e, c in p.terms.items():
        if sum(e) != 2:
            continue
        support = [i for i in idx if e[i]]
        if any(e[i] for i in range(ring.nvars) if i not in idx):
            continue
        if len(support) == 1:
            i = idx.index(support[0])
            M[i][i] += c
        else:
            i, j = idx.index(support[0]), idx.index(support[1])
            M[i][j] += c / 2
            M[j][i] += c / 2
    return MatrixQ(M).rank()


DIVISOR_BOUND = 10 ** 12
CANDIDATE_BOUND = 10 ** 4


def has_linear_factor(p: Poly, variables: Sequence[str]) -> bool:
    """Whether p, a polynomial in the span ``variables``, has a factor of
    total degree 1 over Q; zero and the constants have none.

    A linear factor involving v is, up to a scalar, v - L(x') with L affine
    over Q in the other span variables x', and it divides p exactly when
    p(L(x'), x') = 0.  For each v of degree d >= 1 in p, let c(x') be the
    leading coefficient of p in v, and p0 the first point of the grid
    {0..(m+1) deg c}^m (by largest coordinate; m = len(x')) at which c is
    nonzero, together with every p0 + e_j: such a point exists because
    c != 0.  At each of these points L(q) is a rational root of p(v, q), of
    degree d in v, found by the rational root theorem; so L(p0) and the
    slopes L(p0 + e_j) - L(p0) range over a finite set of candidates.  A
    candidate must vanish at one further point before p.subs({v: L}) checks
    it exactly.

    Bounds: the divisors enumerated are those of integers of absolute value
    at most DIVISOR_BOUND, and at most CANDIDATE_BOUND candidates are formed
    for each v.  Past either bound the test raises CertificationFailed
    rather than guess.  A variable of p outside the span raises
    UnknownVariable."""
    ring = p.ring
    span = [ring.index(v) for v in variables]
    for e in p.terms:
        stray = [ring.variables[i] for i, k in enumerate(e)
                 if k and i not in span]
        if stray:
            raise UnknownVariable(f"{stray[0]!r} is outside the span "
                                  f"{tuple(variables)}")
    return not p.is_constant() and any(
        _has_factor_in(p, i, [j for j in span if j != i]) for i in span)


def _has_factor_in(p: Poly, i: int, rest: List[int]) -> bool:
    """Whether p has a linear factor v - L(x') with v variable i of its ring
    and L affine in the variables ``rest``."""
    d = max(e[i] for e in p.terms)
    if d == 0:
        return False
    m = len(rest)
    bound = (m + 1) * max(sum(e[j] for j in rest)
                          for e in p.terms if e[i] == d)
    for p0 in _grid(m, bound):
        points = [p0] + [p0[:j] + (p0[j] + 1,) + p0[j + 1:] for j in range(m)]
        lines = [_restrict(p, i, d, rest, q) for q in points]
        if all(u[d] for u in lines):
            break
    roots = [_rational_roots(u) for u in lines]
    if prod(map(len, roots)) > CANDIDATE_BOUND:
        raise CertificationFailed(
            f"more than {CANDIDATE_BOUND} linear-factor candidates")
    probe = tuple(x + j + 2 for j, x in enumerate(p0))
    on_probe = _restrict(p, i, d, rest, probe)
    ring = p.ring
    for r0, *rs in product(*roots):
        slopes = [r - r0 for r in rs]
        at_probe = r0 + sum(a * (x - x0) for a, x, x0 in zip(slopes, probe, p0))
        if _horner(on_probe, at_probe):
            continue
        L = ring.const(r0 - sum(a * x0 for a, x0 in zip(slopes, p0)))
        for a, j in zip(slopes, rest):
            L = L + ring.var(ring.variables[j]) * a
        if p.subs({ring.variables[i]: L}).is_zero():
            return True
    return False


def _grid(m: int, bound: int):
    """The points of {0..bound}^m, by increasing largest coordinate."""
    for top in range(bound + 1):
        for q in product(range(top + 1), repeat=m):
            if max(q, default=0) == top:
                yield q


def _restrict(p: Poly, i: int, d: int, rest: List[int], point) -> List[Fraction]:
    """The coefficients of v^0 .. v^d in p(v, point), v being variable i."""
    coeffs = [Fraction(0)] * (d + 1)
    for e, c in p.terms.items():
        for j, x in zip(rest, point):
            if e[j]:
                c *= x ** e[j]
        coeffs[e[i]] += c
    return coeffs


def _horner(coeffs: Sequence, x):
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _rational_roots(coeffs: List[Fraction]) -> Set[Fraction]:
    """The rational roots of sum(coeffs[k] v^k), whose last coefficient is
    nonzero, by the rational root theorem."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    low = next(k for k, a in enumerate(ints) if a)
    roots = {Fraction(0)} if low else set()
    ints = ints[low:]
    if len(ints) == 2:
        roots.add(Fraction(-ints[0], ints[1]))
    elif len(ints) > 2:
        last, first = abs(ints[-1]), abs(ints[0])
        if max(last, first) > DIVISOR_BOUND:
            raise CertificationFailed(
                f"a rational root test needs the divisors of "
                f"{max(last, first)}, past {DIVISOR_BOUND}")
        for q in _divisors(last):
            for n in _divisors(first):
                if gcd(n, q) == 1:
                    roots.update(r for r in (Fraction(n, q), Fraction(-n, q))
                                 if not _horner(ints, r))
    return roots


def _divisors(n: int) -> List[int]:
    """The positive divisors of n >= 1, by trial division."""
    divs = [1]
    f = 2
    while f * f <= n:
        k = 0
        while n % f == 0:
            n //= f
            k += 1
        if k:
            divs = [q * f ** j for q in divs for j in range(k + 1)]
        f += 1
    return divs + [q * n for q in divs] if n > 1 else divs


@dataclass
class NestedSingularityReport:
    """Structure of a singular locus near the origin, inside its linear span."""

    span_variables: Tuple[str, ...]
    eliminated: Dict[str, str]           # variable -> substituted expression
    residual_equations: List[str]
    span_dimension: int
    expected_dimension: int
    tangent_dim_at_origin: int
    quadratic_rank: Optional[int]
    a1_at_origin: Optional[bool]
    no_linear_factor_over_Q: Optional[bool]
    trivial: bool = False


def nested_singularity_report(S: AffineScheme,
                              locus_gens: Sequence[Poly]
                              ) -> NestedSingularityReport:
    """Eliminate the linear generators of the locus, then analyse the residual
    equations in the remaining coordinates: tangent dimension at the origin and,
    for a residual hypersurface, the rank of its quadratic part (an A_1 check)."""
    ring = S.ring
    gens = [g.map_to(ring) for g in locus_gens]
    origin = {v: Fraction(0) for v in S.variables}
    for g in gens:
        if g.eval(origin) != 0:
            raise PointNotOnScheme("the locus does not pass through the origin")

    eliminated: Dict[str, str] = {}
    work = list(gens)
    changed = True
    while changed:
        changed = False
        for g in work:
            if g.is_zero() or g.total_degree() != 1:
                continue
            # solve for a variable with a nonzero linear coefficient
            for v in S.variables:
                if v in eliminated:
                    continue
                coeff = g.partial(v)
                if coeff.is_constant() and not coeff.is_zero():
                    c = coeff.as_constant()
                    expr = (ring.var(v) - g * (Fraction(1) / c))
                    eliminated[v] = str(expr)
                    work = [h.subs({v: expr}) for h in work]
                    changed = True
                    break
            if changed:
                break
    residual = [h for h in work if not h.is_zero()]
    span = tuple(v for v in S.variables if v not in eliminated)
    span_dim = len(span)

    if not residual:
        return NestedSingularityReport(
            span_variables=span, eliminated=eliminated,
            residual_equations=[], span_dimension=span_dim,
            expected_dimension=span_dim,
            tangent_dim_at_origin=span_dim,
            quadratic_rank=None, a1_at_origin=None,
            no_linear_factor_over_Q=None,
            trivial=True)

    locus = AffineScheme(span, residual, expected_codim=len(residual))
    tdim = tangent_space_dim(locus, {v: Fraction(0) for v in span})
    expected = span_dim - len(residual)

    qrank = None
    a1 = None
    nolin = None
    if len(residual) == 1:
        h = residual[0]
        qrank = _quadratic_part_rank(h, span)
        mindeg = min(sum(e) for e in h.terms)
        a1 = mindeg == 2 and qrank == span_dim
        nolin = not has_linear_factor(h, span)
    return NestedSingularityReport(
        span_variables=span, eliminated=eliminated,
        residual_equations=[str(h) for h in residual],
        span_dimension=span_dim, expected_dimension=expected,
        tangent_dim_at_origin=tdim,
        quadratic_rank=qrank, a1_at_origin=a1,
        no_linear_factor_over_Q=nolin)
