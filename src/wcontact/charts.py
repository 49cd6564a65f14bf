"""Groebner-stratum charts of Hilbert schemes of points, relative Hilbert
scheme equations, and the z-direction lifts onto A_n surface singularities."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (InconsistentResult, NotAUnit, SamplingFailed,
                     Unsupported, UsageError, WrongKind)
from .families import ContactFamily
from .groebner import (GroebnerBasis, _Encoding, _buchberger, gb_buchberger,
                       normal_form, staircase_complement)
from .poly import (Exponents, Poly, PolyRing, Specialization, TermOrder,
                   mono_div, mono_divides, mono_lcm, mono_mul)


def _minimal_monomial_generators(monos: Sequence[Exponents]) -> List[Exponents]:
    out = []
    for m in monos:
        if any(o != m and mono_divides(o, m) for o in monos):
            continue
        if m not in out:
            out.append(m)
    return out


class GroebnerStratumChart:
    """Chart of ideals with a fixed leading-term staircase under a fixed
    term order on the geometric variables.

    Chart parameters c_(j,b) attach one coefficient to each minimal
    generator m_j of the staircase and each standard monomial b below m_j in
    the order; the stratum equations are the S-pair confluence residues.
    """

    def __init__(self, staircase_gens: Sequence[Poly],
                 order: TermOrder,
                 param_names: Optional[Sequence[str]] = None,
                 geo_vars: Tuple[str, str] = ("x", "y")):
        self.geo_vars = geo_vars
        self.order = order
        geo_ring = PolyRing(geo_vars)

        monos = []
        for g in staircase_gens:
            if len(g.terms) != 1:
                raise UsageError(f"staircase generator {g} is not a monomial")
            if set(g.variables_used()) - set(geo_vars):
                raise UsageError("staircase generator involves non-geometric variables")
            monos.extend(g.map_to(geo_ring).terms)
        self.staircase = _minimal_monomial_generators(monos)

        self._geo_order = order.for_ring(geo_ring)
        key = order.key_function(geo_ring)
        self.staircase.sort(key=key, reverse=True)
        self.standard_monomials = sorted(
            staircase_complement(self.staircase, geo_ring), key=key,
            reverse=True)
        self.colength = len(self.standard_monomials)

        # parameter slots: (generator index, standard monomial), std below gen
        slots: List[Tuple[int, Exponents]] = []
        for j, m in enumerate(self.staircase):
            for b in self.standard_monomials:
                if key(b) < key(m):
                    slots.append((j, b))
        if param_names is None:  # clear of a family's parameters too
            taken = {v for g in staircase_gens for v in g.ring.variables}
            letters = [c for c in "klmnopqruvabcdefghij" if c not in taken]
            if len(slots) <= len(letters):
                param_names = letters[:len(slots)]
            else:
                param_names = [f"c{j + 1}_" + "_".join(map(str, b))
                               for j, b in slots]
        if len(param_names) != len(slots):
            raise UsageError(
                f"chart needs {len(slots)} parameter names, got {len(param_names)}")
        self.param_names = tuple(param_names)
        self.slots = slots

        # the geometric variables lead the chart ring, so a geometric
        # exponent tuple pads out to one of the chart ring
        self.ring = PolyRing(tuple(geo_vars) + self.param_names)
        self._pad = (0,) * len(self.param_names)
        self._key = key

        gens: List[Poly] = []
        pos = 0
        for j, m in enumerate(self.staircase):
            terms = {m + self._pad: Fraction(1)}
            while pos < len(slots) and slots[pos][0] == j:
                _, b = slots[pos]
                pe = list(b + self._pad)
                pe[self.ring.index(self.param_names[pos])] = 1
                terms[tuple(pe)] = Fraction(-1)
                pos += 1
            gens.append(Poly(self.ring, terms))
        self.generic_generators = gens
        self.stratum_equations = self._compute_stratum_equations()

    # -- structural reduction (geometric leads, parameter coefficients) ---

    def geo_reduce(self, p: Poly) -> Poly:
        """Reduce p by the generic generators, treating every non-geometric
        variable as a coefficient: ``normal_form`` under the chart's order
        on the geometric variables, then lex on the rest.  Under that block
        order the staircase monomials stay the leads, and the kernel divides
        each monomial by the first generator, in staircase order, whose lead
        divides it."""
        rest = [v for v in p.ring.variables if v not in self.geo_vars]
        order = self._geo_order.then(TermOrder.lex(rest))
        gens = [g.map_to(p.ring) for g in self.generic_generators]
        return normal_form(p, GroebnerBasis(gens, order))

    def _compute_stratum_equations(self) -> List[Poly]:
        eqs: List[Poly] = []
        n = len(self.staircase)
        for i in range(n):
            for j in range(i + 1, n):
                mi, mj = self.staircase[i], self.staircase[j]
                lcm = mono_lcm(mi, mj)
                if lcm == mono_mul(mi, mj):
                    continue  # coprime leads always confluent
                si = self.ring.monomial(mono_div(lcm, mi) + self._pad)
                sj = self.ring.monomial(mono_div(lcm, mj) + self._pad)
                s_poly = si * self.generic_generators[i] - sj * self.generic_generators[j]
                residue = self.geo_reduce(s_poly)
                eqs.extend(self._coefficients_on_standard(residue))
        # deduplicate identical residue coefficients
        seen, out = set(), []
        for q in eqs:
            k = frozenset(q.terms.items())
            if k not in seen:
                seen.add(k)
                out.append(q)
        return out

    def _coefficients_on_standard(self, residue: Poly) -> List[Poly]:
        ring = residue.ring
        gidx = [ring.index(v) for v in self.geo_vars]
        groups = residue.coeff_split(gidx)
        out = []
        for geo_e, coeff in sorted(
                groups.items(),
                key=lambda t: self._key(tuple(t[0][i] for i in gidx)),
                reverse=True):
            if not coeff.is_zero():
                out.append(coeff)
        return out

    def __repr__(self):
        geo_ring = PolyRing(self.geo_vars)
        stair = ", ".join(str(geo_ring.monomial(m)) for m in self.staircase)
        return (f"<chart staircase=[{stair}] d={self.colength} "
                f"params={len(self.param_names)} "
                f"stratum_eqs={len(self.stratum_equations)}>")


@dataclass
class RelativeHilbEquations:
    """Defining equations of {(lambda, c) : E_lambda lies in the chart ideal}."""

    equations: List[Poly]
    stratum_equations: List[Poly]
    ring: PolyRing
    family_params: Tuple[str, ...]
    chart_params: Tuple[str, ...]

    def all_equations(self) -> List[Poly]:
        return self.equations + self.stratum_equations


def relative_hilb_equations(F: ContactFamily,
                            chart: GroebnerStratumChart) -> RelativeHilbEquations:
    """Coefficients on the chart's standard monomials of the family equation
    reduced by the generic generators, with all parameters free."""
    clash = set(F.params) & set(chart.param_names)
    if clash:
        raise Unsupported(f"parameter name clash between family and chart: {clash}")
    ring = F.E.ring.extend(chart.param_names)
    residue = chart.geo_reduce(F.E.map_to(ring))
    eqs = chart._coefficients_on_standard(residue)
    stratum = [q.map_to(ring) for q in chart.stratum_equations]
    return RelativeHilbEquations(eqs, stratum, ring, F.params, chart.param_names)


@dataclass
class LiftedIdeal:
    """An ideal in x, y, z obtained by appending a graph relation."""

    generators: List[Poly]
    graph_relation: Poly
    kind: str                      # "contact" or "interior"
    # the lift coordinate: z, with _ appended while that name is a variable
    # of the family's ring or of any generator's
    z: str
    base_z: Fraction               # z-coordinate of the completion point


def _lift(F: ContactFamily, ideal_gens: Sequence[Poly]
          ) -> Tuple[str, List[Poly]]:
    """The lift coordinate's name and the lifted generators, the graph
    relation last: f - z*g for a contact family, z - E for an interior one.
    The lift ring is the first generator's ring, extended by the family's
    and then the other generators' variables, and then by z."""
    ring = ideal_gens[0].ring if ideal_gens else F.E.ring
    for p in (F.E, *ideal_gens[1:]):
        ring = ring.extend(p.ring.variables)
    z = ring.fresh("z")
    ring = ring.extend((z,))
    if F.kind == "contact":
        graph = F.f.map_to(ring) - ring.var(z) * F.g.map_to(ring)
    else:
        graph = ring.var(z) - F.E.map_to(ring)
    return z, [p.map_to(ring) for p in ideal_gens] + [graph]


def lift_contact(F: ContactFamily, ideal_gens: Sequence[Poly]) -> LiftedIdeal:
    """Append the graph relation f - z*g; defined for contact families only."""
    F.require_contact()
    z, gens = _lift(F, ideal_gens)
    f00 = F.f0().constant_term()
    g00 = F.g0().constant_term()
    return LiftedIdeal(gens, gens[-1], "contact", z, f00 / g00)


def lift_interior(F: ContactFamily, ideal_gens: Sequence[Poly]) -> LiftedIdeal:
    """Append the graph relation z - E; defined for interior families only."""
    if F.kind != "interior":
        raise WrongKind("interior lift requires an interior-kind family")
    E0 = F.at_base_point()
    if E0.constant_term() != 0:
        raise WrongKind("central equation does not vanish at the origin")
    z, gens = _lift(F, ideal_gens)
    return LiftedIdeal(gens, gens[-1], "interior", z, Fraction(0))


def an_surface(n: int, ring: Optional[PolyRing] = None) -> Poly:
    """The A_n surface singularity equation y*z + x^(n+1), with x, y and z
    the first three variables of ``ring`` (by default the ring in x, y, z)."""
    if n < 0:
        raise UsageError("n must be nonnegative")
    if ring is None:
        ring = PolyRing(("x", "y", "z"))
    if ring.nvars < 3:
        raise UsageError(f"{ring!r} has no third variable for z")
    rest = (0,) * (ring.nvars - 3)
    return Poly(ring, {(0, 1, 1) + rest: Fraction(1),
                       (n + 1, 0, 0) + rest: Fraction(1)})


# -- sampling-based verification of the lift correspondence ----------------

@dataclass
class SampleResult:
    point: Dict[str, str]
    curve_membership: bool
    surface_membership: bool
    equivalent: bool
    elimination_ok: bool


@dataclass
class CorrespondenceReport:
    kind: str
    w: Optional[int]
    samples: List[SampleResult]
    seed: int
    rejected: int

    @property
    def counterexamples(self) -> List[SampleResult]:
        return [s for s in self.samples
                if not s.equivalent or not s.elimination_ok]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _random_rational(rng: random.Random) -> Fraction:
    """A rational of numerator in [-7, 7] and denominator in [1, 7]."""
    return Fraction(rng.randint(-7, 7), rng.randint(1, 7))


def verify_membership_equivalence(F: ContactFamily,
                                  ideal_gens: Sequence[Poly],
                                  samples: int = 25,
                                  seed: int = 0) -> CorrespondenceReport:
    """At random rational parameter specializations, check that

      contact:   [y*z + x^w in lifted ideal]  <=>  [E in ideal]
      interior:  [z in lifted ideal]          <=>  [E in ideal]

    and that eliminating z from the lift recovers the input ideal.
    Every variable of the family and the ideal other than x and y is a
    parameter, and each point draws all of them, in the order of the
    family's ring extended by each generator's ring.  Samples where the
    boundary factor g fails to be invertible modulo the specialized ideal
    are rejected and redrawn.

    The check runs on primitive integer rows from specialisation to
    verdict, and builds no ``Poly`` on the way.  E, the ideal's generators,
    g and the graph relation (f - z*g or z - E, with z and the relation
    from ``_lift``, as the lifts take them) are each compiled once into a
    ``Specialization`` of every parameter; at each point they evaluate to
    integer rows.  The bases are ``_buchberger``'s kernels, all starting
    from the two encodings (order and ring) built once per call, and each
    membership is a zero remainder of a kernel division.  An ideal whose
    generators involve no parameter gets one curve basis per call.

    Both bases use the order of the package's charts on (x, y), lex y>x:
    the curve basis (and the invertibility check of g) under lex y>x, the
    lift's under lex z>y>x.  A curvilinear ideal <y - phi(x), x^k> then comes
    in already reduced.  One reduced basis of the lift serves both checks.
    By the Elimination Theorem its z-free part ``low`` is a reduced basis of
    the elimination ideal under lex y>x.  Reduced bases under one order are
    unique, and both kernels hold theirs primitive with positive leads in
    increasing lead order, so ``low`` equals the curve basis row for row
    exactly when eliminating z gives the curve's ideal back; that equality
    is the elimination check.  Under lex with z first a row with a z-free
    lead is z-free throughout, so ``low`` is read off the leads, and its
    rows become rows in (x, y) by dropping z.  The lift basis is always
    computed from the lifted generators and the graph relation, never from
    the curve basis, so the two sides stay independent.
    """
    rng = random.Random(seed)
    ring_all = F.E.ring
    for p in ideal_gens:
        ring_all = ring_all.extend(p.ring.variables)
    params = tuple(v for v in ring_all.variables if v not in (F.x, F.y))
    z_name, lifted = _lift(F, ideal_gens)
    geo_ring = PolyRing((F.x, F.y))
    z_ring = PolyRing((F.x, F.y, z_name))
    geo_code = _Encoding(TermOrder.lex((F.y, F.x)), geo_ring)
    elim_code = _Encoding(TermOrder.lex((z_name, F.y, F.x)), z_ring)
    if F.kind == "contact":
        target = an_surface(F.w - 1, z_ring)
        g_plan = Specialization(F.g, params, geo_ring)
    else:
        target, g_plan = z_ring.var(z_name), None
    target_row = target.primitive_terms()[0]

    E_plan = Specialization(F.E, params, geo_ring)
    gen_plans = [Specialization(p, params, geo_ring) for p in ideal_gens]
    graph_plan = Specialization(lifted[-1], params, z_ring)

    fixed_curve = not any(q.names for q in gen_plans)
    curve = None
    results: List[SampleResult] = []
    rejected = 0
    attempts = 0
    while len(results) < samples:
        attempts += 1
        if attempts > 50 * samples + 100:
            raise SamplingFailed("sampling failed to find admissible points")
        point = {v: _random_rational(rng) for v in params}

        E_row = E_plan(point)[0]
        gens_rows = [r for r in (q(point)[0] for q in gen_plans) if r]
        if not gens_rows:
            rejected += 1
            continue

        if g_plan:
            g_row = g_plan(point)[0]
            if not g_row:
                rejected += 1
                continue
            if any(map(any, g_row)):  # g is not constant: is it a unit?
                inv_check = _buchberger(gens_rows + [g_row], geo_code,
                                        stop_at_unit=True)
                if all(map(any, inv_check.exps)):  # no constant lead
                    rejected += 1
                    continue
        if curve is None or not fixed_curve:
            curve = _buchberger(gens_rows, geo_code)
            curve_rows = [curve.decode(r) for r in curve.rows]
        in_curve = curve.reduces_to_zero(E_row)

        lifted = [{e + (0,): c for e, c in r.items()} for r in gens_rows]
        lex = _buchberger(lifted + [graph_plan(point)[0]], elim_code)
        in_surface = lex.reduces_to_zero(target_row)

        low = [{e[:2]: c for e, c in lex.decode(r).items()}
               for r, lead in zip(lex.rows, lex.exps) if not lead[2]]
        elim_ok = bool(low) and low == curve_rows

        results.append(SampleResult(
            point={k: str(v) for k, v in sorted(point.items())},
            curve_membership=in_curve,
            surface_membership=in_surface,
            equivalent=in_curve == in_surface,
            elimination_ok=elim_ok,
        ))
    return CorrespondenceReport(F.kind, F.w, results, seed, rejected)


def ideal_equal_localized(a_gens: Sequence[Poly], b_gens: Sequence[Poly],
                          unit: Poly) -> bool:
    """Ideal equality after inverting the unit: in the extended ring with
    the relation T*unit = 1, the two reduced bases under degrevlex are
    equal.  Reduced bases under one order are unique, so they are equal
    exactly when the ideals are."""
    ring = a_gens[0].ring
    if unit.constant_term() == 0:
        raise NotAUnit("localizing element has zero constant term")
    tname = ring.fresh("T_loc")
    ext = ring.extend((tname,))
    rel = ext.var(tname) * unit.map_to(ext) - 1
    order = TermOrder.degrevlex(ext.variables)

    def basis(gens: Sequence[Poly]) -> List[Poly]:
        return gb_buchberger([g.map_to(ext) for g in gens] + [rel],
                             order).generators

    return basis(a_gens) == basis(b_gens)


@dataclass
class LiftEquivalenceReport:
    """Comparison of the family's chart equations with the pulled-back chart
    equations of the lifted surface y*z + x^w."""

    surface_equations: List[str]
    pulled_back: List[str]
    base_equations: List[str]
    termwise_equal: bool
    localized_ideal_equal: bool
    unit: str

    @property
    def ok(self) -> bool:
        return self.termwise_equal and self.localized_ideal_equal


def lift_chart_equivalence(F: ContactFamily,
                           chart: GroebnerStratumChart
                           ) -> LiftEquivalenceReport:
    """For a [y, x^2] staircase: the equations cutting out
    {E_lambda in chart ideal} agree with the chart equations of the surface
    y*z + x^w under z -> (reduced f)/(reduced g), after clearing the unit
    denominator -- exactly, and as ideals in the localization at the unit.
    """
    F.require_contact()
    if sorted(chart.staircase) != [(0, 1), (2, 0)]:
        raise Unsupported("lift equivalence is implemented for the "
                          "[y, x^2] staircase only")
    base = relative_hilb_equations(F, chart)
    ring = base.ring
    gidx = [ring.index(v) for v in (F.x, F.y)]
    xe = [0] * ring.nvars
    xe[ring.index(F.x)] = 1
    x_mono = tuple(xe)
    zero_mono = (0,) * ring.nvars

    def lin_coeffs(p: Poly) -> Tuple[Poly, Poly]:
        red = chart.geo_reduce(p.map_to(ring))
        groups = red.coeff_split(gidx)
        bad = [g for g in groups if g not in (x_mono, zero_mono)]
        if bad:
            raise InconsistentResult("reduction left the chart's standard span")
        return (groups.get(x_mono, ring.zero()),
                groups.get(zero_mono, ring.zero()))

    f1, f0 = lin_coeffs(F.f)
    g1, g0 = lin_coeffs(F.g)
    if not g1.is_zero():
        raise Unsupported("boundary factor must reduce to a constant in x "
                          "on this chart")
    unit = g0
    if unit.constant_term() == 0:
        raise NotAUnit("reduced boundary factor vanishes at the base point")

    # surface-side chart: z = sp*x + tp, same (y, x^2) rows
    z = ring.fresh("z")
    zr = ring.extend(("sp_", "tp_", z))
    surf = an_surface(F.w - 1, PolyRing((F.x, F.y, z))).map_to(zr)
    z_image = zr.var("sp_") * zr.var(F.x) + zr.var("tp_")
    surf = surf.subs({z: z_image})
    surface_eqs = chart._coefficients_on_standard(chart.geo_reduce(surf))

    pulled = [substitute_with_denominator(
        q, {"sp_": f1, "tp_": f0}, unit).map_to(ring) for q in surface_eqs]

    def scalar_multiple(a: Poly, b: Poly) -> bool:
        if set(a.terms) != set(b.terms):
            return False
        ratios = {b.terms[e] / a.terms[e] for e in a.terms}
        return len(ratios) == 1

    base_eqs = base.all_equations()
    termwise = (len(pulled) == len(base_eqs) and all(
        any(scalar_multiple(p, q) for q in base_eqs) for p in pulled))
    localized = ideal_equal_localized(pulled, base_eqs, unit.map_to(ring))
    return LiftEquivalenceReport(
        surface_equations=[str(q) for q in surface_eqs],
        pulled_back=[str(q) for q in pulled],
        base_equations=[str(q) for q in base_eqs],
        termwise_equal=termwise,
        localized_ideal_equal=localized,
        unit=str(unit),
    )


def substitute_with_denominator(p: Poly, assignments: Dict[str, Poly],
                                unit: Poly) -> Poly:
    """Substitute var -> numerator/unit and clear denominators.

    Returns unit^J * p(substituted), where J is the maximal total degree of
    p in the substituted variables: p is made homogeneous of degree J in
    them with a fresh variable W, and W -> unit is substituted with the
    numerators.  The result lives in ``unit.ring``."""
    ring = unit.ring.extend(p.ring.variables)
    W = ring.fresh("W")
    ring = ring.extend((W,))
    q = p.map_to(ring)
    idx = [ring.index(n) for n in assignments]
    degrees = [sum(e[i] for i in idx) for e in q.terms]
    J = max(degrees, default=0)
    homogeneous = Poly(ring, {e[:-1] + (J - a,): c
                              for (e, c), a in zip(q.terms.items(), degrees)})
    return homogeneous.subs({**assignments, W: unit}).map_to(unit.ring)
