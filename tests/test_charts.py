"""Groebner-stratum charts, relative Hilbert scheme equations, z-lifts and
the sampling-based membership correspondence."""

import random
from fractions import Fraction

import pytest

from wcontact import charts
from wcontact.charts import (GroebnerStratumChart, an_surface,
                             ideal_equal_localized, lift_chart_equivalence,
                             lift_contact, lift_interior,
                             relative_hilb_equations,
                             substitute_with_denominator,
                             verify_membership_equivalence)
from wcontact.errors import (InfiniteColength, SamplingFailed,
                             UnknownVariable, WrongKind)
from wcontact.families import ContactFamily, multiply_unit
from wcontact.groebner import (_Reducer, gb_buchberger, normal_form,
                              standard_monomials)
from wcontact.poly import Poly, PolyRing, TermOrder

GEO = PolyRing(("x", "y"))
RST = PolyRing(("x", "y", "s", "t"))
LEX_YX = TermOrder.parse("lex y>x")


def fam_st():
    return ContactFamily.contact(
        RST.parse("(y^2+x^4)+s*x*(y+x^3)+t*(y+x^4)"), ("s", "t"))


def chart_yx2():
    return GroebnerStratumChart(
        [GEO.parse("y"), GEO.parse("x^2")], LEX_YX)


def chart_m2():
    return GroebnerStratumChart(
        [GEO.parse("y^2"), GEO.parse("x*y"), GEO.parse("x^2")], LEX_YX)


def specialize(c, point):
    """The chart's generators at a rational chart point, in x, y."""
    return [g.specialize(point, PolyRing(c.geo_vars))
            for g in c.generic_generators]


class TestChartConstruction:
    def test_colength_two_chart(self):
        c = chart_yx2()
        assert c.colength == 2
        assert c.param_names == ("k", "l", "m", "n")
        assert [str(g) for g in c.generic_generators] == \
            ["-x*k + y - l", "x^2 - x*m - n"]
        # coprime leads: no confluence conditions
        assert c.stratum_equations == []

    def test_origin_chart(self):
        c = GroebnerStratumChart([GEO.parse("x"), GEO.parse("y")], LEX_YX)
        assert c.colength == 1
        assert len(c.param_names) == 2
        assert c.stratum_equations == []

    def test_colength_three_chart(self):
        c = chart_m2()
        assert c.colength == 3
        assert len(c.param_names) == 8
        assert len(c.stratum_equations) == 6

    def test_explicit_parameter_names(self):
        c = GroebnerStratumChart([GEO.parse("y"), GEO.parse("x^2")],
                                 LEX_YX, param_names=("a", "b", "c", "d"))
        assert c.param_names == ("a", "b", "c", "d")
        with pytest.raises(ValueError):
            GroebnerStratumChart([GEO.parse("y"), GEO.parse("x^2")],
                                 LEX_YX, param_names=("a",))

    def test_infinite_staircase_rejected(self):
        with pytest.raises(InfiniteColength):
            GroebnerStratumChart([GEO.parse("y")], LEX_YX)

    def test_non_monomial_generator_rejected(self):
        with pytest.raises(ValueError):
            GroebnerStratumChart([GEO.parse("y + x")], LEX_YX)

    def test_generic_chart_alias(self):
        c = GroebnerStratumChart([GEO.parse("y"), GEO.parse("x^2")], LEX_YX)
        assert c.colength == 2

    def test_specialize(self):
        c = chart_yx2()
        gens = specialize(c, {"k": Fraction(1), "l": Fraction(0),
                              "m": Fraction(0), "n": Fraction(2)})
        assert [str(g) for g in gens] == ["-x + y", "x^2 - 2"]


class TestChartSoundness:
    def test_double_points_satisfy_stratum(self):
        rng = random.Random(101)
        c = chart_m2()
        # name the 8 slots explicitly for readability
        names = c.param_names
        for _ in range(10):
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            # slots: y^2 below (y,x,1); x*y below (y,x,1); x^2 below (x,1)
            # (y-b)^2 = 0, (x-a)(y-b) = 0, (x-a)^2 = 0 rewrite the leads as
            # y^2 = 2b*y - b^2,  x*y = a*y + b*x - a*b,  x^2 = 2a*x - a^2
            vals = [2 * b, 0, -b * b, a, b, -a * b, 2 * a, -a * a]
            point = dict(zip(names, (Fraction(v) for v in vals)))
            for q in c.stratum_equations:
                assert q.eval(point) == 0
            gens = specialize(c, point)
            G = gb_buchberger(gens, LEX_YX)
            q = standard_monomials(G)
            assert q.dimension == 3
            assert sorted(q.monomials) == [(0, 0), (0, 1), (1, 0)]

    def test_three_point_configurations(self):
        # two points on a vertical line plus a third point lie in this
        # stratum; chart coordinates come from interpolating y^2, x*y, x^2
        # against the standard monomials y, x, 1
        import sympy
        rng = random.Random(55)
        c = chart_m2()
        checked = 0
        while checked < 10:
            a, b1, b2, cc, d = (Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                for _ in range(5))
            if b1 == b2 or a == cc:
                continue
            pts = [(a, b1), (a, b2), (cc, d)]
            M = sympy.Matrix([[sympy.Rational(y), sympy.Rational(x), 1]
                              for x, y in pts])
            if M.det() == 0:
                continue
            vals = []
            for fn in (lambda x, y: y * y, lambda x, y: x * y,
                       lambda x, y: x * x):
                rhs = sympy.Matrix([[sympy.Rational(fn(x, y))]
                                    for x, y in pts])
                sol = M.solve(rhs)
                vals.extend(Fraction(int(sympy.fraction(v)[0]),
                                     int(sympy.fraction(v)[1]))
                            for v in (sympy.nsimplify(sol[i])
                                      for i in range(3)))
            # slots for x^2 omit the y coefficient, which the
            # interpolation must return as zero
            assert vals[6] == 0
            point = dict(zip(c.param_names,
                             vals[0:3] + vals[3:6] + vals[7:9]))
            for q in c.stratum_equations:
                assert q.eval(point) == 0
            gens = specialize(c, point)
            for px, py in pts:
                for g in gens:
                    assert g.eval({"x": px, "y": py}) == 0
            G = gb_buchberger(gens, LEX_YX)
            assert standard_monomials(G).dimension == 3
            checked += 1

    def test_violating_point_leaves_stratum(self):
        c = chart_m2()
        point = {n: Fraction(0) for n in c.param_names}
        # x*y - 1 forces x into the ideal, so the staircase collapses
        point[c.param_names[5]] = Fraction(1)
        assert any(q.eval(point) != 0 for q in c.stratum_equations)
        G = gb_buchberger(specialize(c, point), LEX_YX)
        assert G.is_unit_ideal()


class TestRelativeEquations:
    def test_codim4_golden_equations(self):
        rel = relative_hilb_equations(fam_st(), chart_yx2())
        assert rel.family_params == ("s", "t")
        assert rel.chart_params == ("k", "l", "m", "n")
        assert [str(q) for q in rel.equations] == [
            "s*m^3 + t*m^3 + s*k*m + k^2*m + m^3 + 2*s*m*n + 2*t*m*n"
            " + t*k + s*l + 2*k*l + 2*m*n",
            "s*m^2*n + t*m^2*n + s*k*n + k^2*n + m^2*n + s*n^2 + t*n^2"
            " + t*l + l^2 + n^2",
        ]
        assert rel.stratum_equations == []
        assert rel.all_equations() == rel.equations

    def test_interior_translate(self):
        ring = PolyRing(("x", "y", "t"))
        G = ContactFamily.interior(ring.parse("y - t"), ("t",))
        rel = relative_hilb_equations(G, chart_yx2())
        assert [str(q) for q in rel.equations] == ["k", "-t + l"]

    def test_constant_family_slice(self):
        # with the parameters frozen to zero the equations cut out the
        # chart locus of the central curve y^2 + x^4
        rel = relative_hilb_equations(fam_st(), chart_yx2())
        frozen = [q.subs({"s": 0, "t": 0}) for q in rel.equations]
        assert [str(q) for q in frozen] == [
            "k^2*m + m^3 + 2*k*l + 2*m*n",
            "k^2*n + m^2*n + l^2 + n^2",
        ]

    def test_name_clash_rejected(self):
        ring = PolyRing(("x", "y", "k"))
        F = ContactFamily.contact(ring.parse("y^2 + x^4 + k*y"), ("k",))
        with pytest.raises(ValueError):
            relative_hilb_equations(F, chart_yx2())


def geo_reduce_oracle(chart, p):
    """Chart reduction term by term through Poly products: the largest
    term by the chart order on its geometric part goes first, and it is
    divided by the first staircase generator whose lead divides it."""
    ring = p.ring
    gidx = [ring.index(v) for v in chart.geo_vars]
    gens = [g.map_to(ring) for g in chart.generic_generators]
    key = chart.order.key_function(PolyRing(chart.geo_vars))
    work, result = dict(p.terms), {}
    while work:
        e = max(work, key=lambda t: (key(tuple(t[i] for i in gidx)), t))
        c = work.pop(e)
        ge = tuple(e[i] for i in gidx)
        j = next((i for i, m in enumerate(chart.staircase)
                  if all(a <= b for a, b in zip(m, ge))), None)
        if j is None:
            result[e] = c
            continue
        cof = list(e)
        for i, m in zip(gidx, chart.staircase[j]):
            cof[i] -= m
        for se, sc in (Poly(ring, {tuple(cof): c}) * gens[j]).terms.items():
            if se != e:
                work[se] = work.get(se, 0) - sc
                if not work[se]:
                    del work[se]
    return Poly(ring, result)


class TestGeoReduceIsNormalForm:
    STAIRCASES = [["y", "x^2"], ["y^2", "x*y", "x^2"], ["y", "x^3"],
                  ["y^2", "x"], ["y^2", "x^2"]]
    ORDERS = ["lex y>x", "lex x>y", "degrevlex x>y", "degrevlex y>x"]

    def test_matches_term_by_term_division(self):
        """320 seeded polynomials over 20 lex and degrevlex charts, with a
        family parameter beside the chart's: the kernel's normal form under
        the block order equals the term-by-term reduction."""
        rng = random.Random(15)
        checked = 0
        for stair in self.STAIRCASES:
            for text in self.ORDERS:
                chart = GroebnerStratumChart([GEO.parse(m) for m in stair],
                                             TermOrder.parse(text))
                ring = PolyRing(("s", "y", "x") + chart.param_names)
                params = ["s"] + list(chart.param_names)
                for _ in range(16):
                    terms = {}
                    for _ in range(rng.randint(1, 5)):
                        e = dict.fromkeys(ring.variables, 0)
                        e["x"], e["y"] = rng.randint(0, 3), rng.randint(0, 3)
                        for v in rng.sample(params, rng.randint(0, 2)):
                            e[v] = 1
                        terms[tuple(e[v] for v in ring.variables)] = \
                            Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                    p = Poly(ring, terms)
                    assert chart.geo_reduce(p) == geo_reduce_oracle(chart, p)
                    checked += 1
        assert checked >= 300


class TestLifts:
    def test_contact_lift(self):
        L = lift_contact(fam_st(), [RST.parse("y"), RST.parse("x^2")])
        assert L.kind == "contact"
        assert L.base_z == 0
        assert str(L.graph_relation) == "x*s - s*z - t*z + y + t - z"
        assert [str(g) for g in L.generators[:2]] == ["y", "x^2"]
        assert L.generators[-1] == L.graph_relation

    def test_interior_lift(self):
        ring = PolyRing(("x", "y", "t"))
        G = ContactFamily.interior(ring.parse("y^2 + x^2 + t*x"), ("t",))
        L = lift_interior(G, [ring.parse("x"), ring.parse("y")])
        assert L.kind == "interior"
        zr = L.graph_relation.ring
        assert L.graph_relation == zr.parse("z - (y^2 + x^2 + t*x)")

    def test_kind_guards(self):
        with pytest.raises(WrongKind):
            lift_interior(fam_st(), [RST.parse("y")])
        ring = PolyRing(("x", "y"))
        G = ContactFamily.interior(ring.parse("x^2 + y^2"))
        with pytest.raises(WrongKind):
            lift_contact(G, [ring.parse("x")])

    def test_translate_to_origin(self):
        ring = PolyRing(("x", "y"))
        F = ContactFamily.contact(ring.parse("y*(y + 1) + x^2"))
        L = lift_contact(F, [ring.parse("y"), ring.parse("x")])
        assert L.base_z != 0
        # move the completion point to z = 0
        zr = L.graph_relation.ring
        shift = {L.z: zr.var(L.z) + zr.const(L.base_z)}
        moved = [g.subs(shift) for g in L.generators]
        origin = {v: 0 for v in zr.variables}
        # after translation the completion point sits at the origin
        assert all(g.eval(origin) == 0 for g in moved)

    def test_an_surface(self):
        assert str(an_surface(3)) == "x^4 + y*z"
        assert str(an_surface(0)) == "y*z + x"
        with pytest.raises(ValueError):
            an_surface(-1)


class TestMembershipCorrespondence:
    def test_codim4_equivalence(self):
        report = verify_membership_equivalence(
            fam_st(), [RST.parse("y"), RST.parse("x^2")],
            samples=10, seed=7)
        assert report.ok
        assert report.kind == "contact" and report.w == 4
        assert len(report.samples) == 10
        assert report.counterexamples == []
        # every term of E lies in <y, x^2> whatever s and t are
        assert all(s.curve_membership and s.surface_membership
                   for s in report.samples)
        assert all(s.elimination_ok for s in report.samples)

    def test_interior_equivalence(self):
        ring = PolyRing(("x", "y", "t"))
        G = ContactFamily.interior(ring.parse("y^2 + x^3 + t*y"), ("t",))
        report = verify_membership_equivalence(
            G, [ring.parse("y"), ring.parse("x^2")], samples=8, seed=3)
        assert report.ok

    def test_known_positive_point(self):
        # at s = t = 0 the curve y^2 + x^4 lies in <y, x^2>... it does not;
        # but it does lie in <y, x^4>, giving a guaranteed positive sample
        F = fam_st()
        report = verify_membership_equivalence(
            F, [RST.parse("y"), RST.parse("x^4")], samples=5, seed=1,
            extra_points=[{"s": Fraction(0), "t": Fraction(0)}])
        assert report.ok
        first = report.samples[0]
        assert first.point == {"s": "0", "t": "0"}
        assert first.curve_membership and first.surface_membership

    def test_extra_point_must_name_parameters_only(self):
        for point in ({"s": 0, "t": 0, "u": 1}, {"s": 0, "t": 0, "x": 1}):
            with pytest.raises(UnknownVariable):
                verify_membership_equivalence(
                    fam_st(), [RST.parse("y"), RST.parse("x^4")], samples=1,
                    extra_points=[point])

    def test_partial_point_raises_the_typed_error(self):
        # a point that leaves t free: t survives in E, whose specialisation
        # must land in (x, y)
        with pytest.raises(UnknownVariable) as err:
            verify_membership_equivalence(
                fam_st(), [RST.parse("y"), RST.parse("x^2")],
                extra_points=[{"s": 1}])
        assert str(err.value) == "variable 't' not in PolyRing(x, y)"
        # a parameter the point leaves out is harmless where it vanishes
        report = verify_membership_equivalence(
            ContactFamily.contact(RST.parse("y^2 + x^4 + s*t*x*y"),
                                  ("s", "t")),
            [RST.parse("y"), RST.parse("x^4")], samples=2, seed=1,
            extra_points=[{"s": 0}])
        assert report.samples[0].point == {"s": "0"}
        assert report.ok

    def test_deterministic_in_seed(self):
        F = fam_st()
        a = verify_membership_equivalence(F, [RST.parse("y"),
                                              RST.parse("x^2")],
                                          samples=5, seed=11)
        b = verify_membership_equivalence(F, [RST.parse("y"),
                                              RST.parse("x^2")],
                                          samples=5, seed=11)
        assert [s.point for s in a.samples] == [s.point for s in b.samples]

    def test_dropped_graph_breaks_surface_membership(self):
        # negative control: without the graph relation the surface
        # equation is not a member
        zr = PolyRing(("x", "y", "z"))
        gens = [zr.parse("y - x"), zr.parse("x^3")]
        G = gb_buchberger(gens, TermOrder.degrevlex(("x", "y", "z")))
        assert not normal_form(an_surface(3, zr), G).is_zero()

    def test_unit_multiples_do_not_change_verdict(self):
        rng = random.Random(77)
        F = fam_st()
        for _ in range(5):
            h = RST.zero()
            for _ in range(rng.randint(0, 2)):
                e = (rng.randint(0, 1), rng.randint(0, 1), 0, 0)
                h = h + Poly(RST, {e: Fraction(rng.randint(-2, 2))})
            u = RST.one() + RST.var("y") * h
            G = multiply_unit(F, u)
            report = verify_membership_equivalence(
                G, [RST.parse("y"), RST.parse("x^2")], samples=4, seed=5)
            assert report.ok


def four_basis_oracle(F, ideal_gens, samples, seed):
    """The correspondence check with a degrevlex basis of the lift for
    surface membership and a second Buchberger run on the z-free part of the
    lex basis for the elimination check: four bases per sample."""
    rng = random.Random(seed)
    ring_all = F.E.ring
    for p in ideal_gens:
        ring_all = ring_all.extend(p.ring.variables)
    free_params = tuple(v for v in ring_all.variables
                        if v not in (F.x, F.y, "z"))
    geo_ring = PolyRing((F.x, F.y))
    z_ring = PolyRing((F.x, F.y, "z"))
    geo_order = TermOrder.degrevlex(geo_ring.variables)
    z_order = TermOrder.degrevlex(z_ring.variables)
    elim_order = TermOrder.lex(("z", F.x, F.y))
    target = (an_surface(F.w - 1, z_ring) if F.kind == "contact"
              else z_ring.var("z"))
    results, rejected = [], 0
    while len(results) < samples:
        point = {v: Fraction(rng.randint(-7, 7), rng.randint(1, 7))
                 for v in free_params}

        def spec(p, ring):
            return p.map_to(ring_all).subs(point).map_to(ring)

        E_spec = spec(F.E, geo_ring)
        gens_spec = [g for g in (spec(g, geo_ring) for g in ideal_gens)
                     if not g.is_zero()]
        if not gens_spec:
            rejected += 1
            continue
        if F.kind == "contact":
            g_spec = spec(F.g, geo_ring)
            if g_spec.is_zero() or (not g_spec.is_constant() and not
                                    gb_buchberger(gens_spec + [g_spec],
                                                  geo_order).is_unit_ideal()):
                rejected += 1
                continue
            graph = spec(F.f, z_ring) - z_ring.var("z") * spec(F.g, z_ring)
        else:
            graph = z_ring.var("z") - E_spec.map_to(z_ring)
        curve_gb = gb_buchberger(gens_spec, geo_order)
        in_curve = normal_form(E_spec, curve_gb).is_zero()
        lifted = [g.map_to(z_ring) for g in gens_spec] + [graph]
        lift_gb = gb_buchberger(lifted, z_order)
        in_surface = normal_form(target, lift_gb).is_zero()
        lex_gb = gb_buchberger(lifted, elim_order)
        low = [g.map_to(geo_ring) for g in lex_gb
               if all(e[2] == 0 for e in g.terms)]
        elim_ok = bool(low) and all(normal_form(g, curve_gb).is_zero()
                                    for g in low)
        if elim_ok:
            low_gb = gb_buchberger(low, geo_order)
            elim_ok = all(normal_form(g, low_gb).is_zero() for g in gens_spec)
        results.append(({k: str(v) for k, v in sorted(point.items())},
                        in_curve, in_surface, in_curve == in_surface,
                        elim_ok))
    return results, rejected


SAMPLED_FAMILIES = [
    ContactFamily.contact(RST.parse(f"(y^2+x^{w}) + s*x*(y+x^{w - 1})"
                                    f" + t*(y+x^{w})"), ("s", "t"))
    for w in (2, 3, 4)
] + [
    ContactFamily.interior(RST.parse("y^2 + x^3 + s*y + t*x^2"), ("s", "t")),
    ContactFamily.interior(RST.parse("x*y + s*x^3 + t*y^2"), ("s", "t")),
]
SAMPLED_IDEALS = [
    [GEO.parse("y"), GEO.parse("x^2")],
    [GEO.parse("x"), GEO.parse("y")],
    [GEO.parse("y - x^2"), GEO.parse("x^3")],
]


class TestOneLexBasis:
    """The two-basis correspondence check against the four-basis one."""

    def test_reports_match_four_basis_oracle(self):
        ideals = SAMPLED_IDEALS + [chart_yx2().generic_generators]
        seen_curve = set()
        for fi, F in enumerate(SAMPLED_FAMILIES):
            for ii, gens in enumerate(ideals):
                seed = 1000 * fi + ii
                report = verify_membership_equivalence(F, gens, samples=3,
                                                       seed=seed)
                want, rejected = four_basis_oracle(F, gens, 3, seed)
                got = [(s.point, s.curve_membership, s.surface_membership,
                        s.equivalent, s.elimination_ok)
                       for s in report.samples]
                assert got == want, (F.E, gens)
                assert report.rejected == rejected
                seen_curve |= {s.curve_membership for s in report.samples}
        assert seen_curve == {True, False}

    @pytest.mark.parametrize("family", range(len(SAMPLED_FAMILIES)))
    def test_one_curve_basis_per_call_for_a_parameter_free_ideal(
            self, monkeypatch, family):
        F, gens = SAMPLED_FAMILIES[family], SAMPLED_IDEALS[2]
        real = charts._buchberger
        curve_bases = []

        def counting(rows, order, ring, stop_at_unit=False):
            if "z" not in ring.variables and not stop_at_unit:
                curve_bases.append(rows)
            return real(rows, order, ring, stop_at_unit=stop_at_unit)

        monkeypatch.setattr(charts, "_buchberger", counting)
        report = verify_membership_equivalence(F, gens, samples=5, seed=9)
        assert len(curve_bases) == 1
        want, rejected = four_basis_oracle(F, gens, 5, 9)
        assert [(s.point, s.curve_membership, s.surface_membership,
                 s.equivalent, s.elimination_ok)
                for s in report.samples] == want
        assert report.rejected == rejected

    def test_invertibility_check_when_g_is_not_constant(self):
        # g = 1 + x is not constant, so each sample asks whether it is a
        # unit modulo the curve ideal
        ring = PolyRing(("x", "y", "s"))
        F = ContactFamily.contact(ring.parse("y^2 + x^4*(1 + x) + s*y"),
                                  ("s",))
        assert not F.g.is_constant()
        gens = [GEO.parse("y"), GEO.parse("x^2")]
        report = verify_membership_equivalence(F, gens, samples=5, seed=3)
        want, rejected = four_basis_oracle(F, gens, 5, 3)
        assert [(s.point, s.curve_membership, s.surface_membership,
                 s.equivalent, s.elimination_ok)
                for s in report.samples] == want
        assert report.rejected == rejected == 0
        # 1 + x lies in <y, x + 1>: every sample is rejected
        with pytest.raises(SamplingFailed):
            verify_membership_equivalence(
                F, [GEO.parse("y"), GEO.parse("x + 1")], samples=2, seed=3)

    @pytest.mark.parametrize("drop", [0, -1])
    @pytest.mark.parametrize("family", [0, 3], ids=["contact", "interior"])
    def test_dropped_elimination_element_is_caught(self, monkeypatch, drop,
                                                   family):
        # negative control: a lex basis missing one z-free element no longer
        # generates the elimination ideal, and the check must say so
        real = charts._buchberger

        def tampered(rows, order, ring, **kw):
            G = real(rows, order, ring, **kw)
            if "z" not in ring.variables:
                return G
            zi = ring.index("z")
            basis = [G.decode(r) for r in G.rows]
            low = [r for r in basis if all(e[zi] == 0 for e in r)]
            assert len(low) >= 2
            kept = [r for r in basis if r is not low[drop]]
            return _Reducer(order, ring, kept)

        monkeypatch.setattr(charts, "_buchberger", tampered)
        report = verify_membership_equivalence(
            SAMPLED_FAMILIES[family], SAMPLED_IDEALS[0], samples=4, seed=5)
        assert not any(s.elimination_ok for s in report.samples)
        assert not report.ok


# g = 1 + x + t is not constant, so each sample asks whether it is a unit
NON_CONSTANT_G = ContactFamily.contact(
    RST.parse("y*(y + s*x + t) + x^3*(1 + x + t)"), ("s", "t"))


def _report_rows(report):
    return [(s.point, s.curve_membership, s.surface_membership,
             s.equivalent, s.elimination_ok) for s in report.samples]


def _random_ideal(rng):
    """One to three generators of low degree in x and y, with coefficients
    that may involve s and t."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = (rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 1),
                 rng.randint(0, 1))
            terms[e] = terms.get(e, 0) + Fraction(rng.randint(1, 3))
        gens.append(Poly(RST, terms))
    return gens


def _curve_kernels_miss_their_last_row(monkeypatch, drop=False):
    """Every curve basis loses its last row: dropped, or replaced by x times
    itself, which keeps the row count and shrinks the ideal."""
    real = charts._buchberger

    def tampered(rows, order, ring, stop_at_unit=False):
        G = real(rows, order, ring, stop_at_unit=stop_at_unit)
        if "z" in ring.variables or stop_at_unit:
            return G
        basis = [G.decode(r) for r in G.rows]
        last = basis.pop()
        if not drop:
            basis.append({(e[0] + 1, e[1]): c for e, c in last.items()})
        return _Reducer(order, ring, basis)

    monkeypatch.setattr(charts, "_buchberger", tampered)


class TestEqualReducedBases:
    """``elimination_ok`` is the equality of the z-free part of the lift's
    reduced basis with the curve's, both under lex y>x."""

    @pytest.mark.parametrize("drop", [True, False],
                             ids=["dropped", "replaced"])
    @pytest.mark.parametrize("family", [0, 3], ids=["contact", "interior"])
    def test_curve_kernel_missing_a_row_is_caught(self, monkeypatch, drop,
                                                  family):
        # negative control on the curve side: the lift's z-free part no
        # longer matches a curve kernel missing one row
        _curve_kernels_miss_their_last_row(monkeypatch, drop)
        report = verify_membership_equivalence(
            SAMPLED_FAMILIES[family], SAMPLED_IDEALS[0], samples=4, seed=5)
        assert len(report.samples) == 4
        assert not any(s.elimination_ok for s in report.samples)
        assert not report.ok

    @pytest.mark.parametrize("stair", [("y", "x^3"), ("y^2", "x*y", "x^2")],
                             ids=["y,x^3", "y^2,xy,x^2"])
    def test_chart_ideals_match_four_basis_oracle(self, monkeypatch, stair):
        gens = GroebnerStratumChart([GEO.parse(m) for m in stair],
                                    LEX_YX).generic_generators
        real = charts._buchberger
        curve_leads = []

        def recording(rows, order, ring, stop_at_unit=False):
            G = real(rows, order, ring, stop_at_unit=stop_at_unit)
            if "z" not in ring.variables and not stop_at_unit:
                curve_leads.append(list(G.exps))
            return G

        monkeypatch.setattr(charts, "_buchberger", recording)
        for fi, F in enumerate(SAMPLED_FAMILIES + [NON_CONSTANT_G]):
            seed = 100 + fi
            report = verify_membership_equivalence(F, gens, samples=3,
                                                   seed=seed)
            want, rejected = four_basis_oracle(F, gens, 3, seed)
            assert _report_rows(report) == want, F.E
            assert report.rejected == rejected
        # the chart ideal at a random point: three points in the plane, or,
        # off the stratum of [y^2, x*y, x^2], the unit ideal
        unit = [leads == [(0, 0)] for leads in curve_leads]
        assert len(unit) == 3 * (len(SAMPLED_FAMILIES) + 1)
        assert all(unit) if len(stair) == 3 else not any(unit)
        # the same ideals against a curve kernel missing a row, [x] for the
        # unit ideal's [1]: every sample must fail the elimination check
        _curve_kernels_miss_their_last_row(monkeypatch)
        for fi, F in enumerate(SAMPLED_FAMILIES + [NON_CONSTANT_G]):
            report = verify_membership_equivalence(F, gens, samples=3,
                                                   seed=100 + fi)
            assert not any(s.elimination_ok for s in report.samples)

    def test_non_constant_g_matches_four_basis_oracle(self, monkeypatch):
        F = NON_CONSTANT_G
        assert not F.g.is_constant()
        ideals = SAMPLED_IDEALS + [[GEO.parse("y"), GEO.parse("x^2 + x")]]
        rejections = []
        for ii, gens in enumerate(ideals):
            report = verify_membership_equivalence(F, gens, samples=5,
                                                   seed=ii)
            want, rejected = four_basis_oracle(F, gens, 5, ii)
            assert _report_rows(report) == want, gens
            assert report.rejected == rejected
            assert report.ok
            rejections.append(rejected)
        # at x = -1, g = t: a point with t = 0 is rejected
        assert sum(rejections) > 0
        _curve_kernels_miss_their_last_row(monkeypatch)
        for ii, gens in enumerate(ideals):
            report = verify_membership_equivalence(F, gens, samples=5,
                                                   seed=ii)
            assert report.rejected == rejections[ii]
            assert not any(s.elimination_ok for s in report.samples)

    @pytest.mark.parametrize("seed", range(6))
    def test_elimination_ok_is_equal_z_free_rows(self, monkeypatch, seed):
        # property: on seeded random ideals and families, elimination_ok is
        # exactly "the z-free rows of the lift kernel, with z dropped, equal
        # the curve kernel's rows"; the equality holds on honest kernels,
        # and a curve kernel with one row replaced by x times itself (same
        # row count, smaller ideal) must break it
        rng = random.Random(seed)
        real = charts._buchberger
        events = []

        def spying(rows, order, ring, stop_at_unit=False):
            G = real(rows, order, ring, stop_at_unit=stop_at_unit)
            if stop_at_unit:
                return G
            if "z" in ring.variables:
                events.append(("lift", G))
                return G
            if rng.random() < 0.3:
                basis = [G.decode(r) for r in G.rows]
                basis[-1] = {(e[0] + 1, e[1]): c
                             for e, c in basis[-1].items()}
                events.append(("tampered", _Reducer(order, ring, basis)))
            else:
                events.append(("curve", G))
            return events[-1][1]

        monkeypatch.setattr(charts, "_buchberger", spying)
        seen = set()
        for _ in range(4):
            gens = _random_ideal(rng)
            F = rng.choice(SAMPLED_FAMILIES)
            events.clear()
            report = verify_membership_equivalence(
                F, gens, samples=3, seed=rng.randrange(10 ** 6))
            samples = iter(report.samples)
            for kind, G in events:
                if kind != "lift":
                    curve, honest = G, kind == "curve"
                    continue
                z_free = [{e[:2]: c for e, c in row.items()}
                          for row in map(G.decode, G.rows)
                          if not any(e[2] for e in row)]
                equal = z_free == [curve.decode(r) for r in curve.rows]
                assert equal == honest
                assert next(samples).elimination_ok == equal
                seen.add(honest)
            assert next(samples, None) is None
        assert seen == {True, False}


class TestLocalizedEquality:
    def test_unit_multiple_equal(self):
        a = [GEO.parse("y")]
        b = [GEO.parse("y + x*y")]
        assert ideal_equal_localized(a, b, GEO.parse("1 + x"))

    def test_strict_containment_detected(self):
        a = [GEO.parse("y")]
        b = [GEO.parse("x*y")]
        assert not ideal_equal_localized(a, b, GEO.parse("1 + x"))

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            ideal_equal_localized([GEO.parse("y")], [GEO.parse("y")],
                                  GEO.parse("x"))


class TestSubstituteWithDenominator:
    def test_clears_denominators(self):
        ring = PolyRing(("x", "y", "sp_", "tp_"))
        p = ring.parse("sp_^2 + tp_")
        unit = ring.parse("1 + x")
        out = substitute_with_denominator(
            p, {"sp_": ring.var("x"), "tp_": ring.var("y")}, unit)
        # J = 2: sp_^2 -> x^2 * unit^0, tp_ -> y * unit^1
        assert out == ring.parse("x^2 + y*(1 + x)")

    def test_no_substituted_variables(self):
        ring = PolyRing(("x", "sp_"))
        p = ring.parse("x + 1")
        out = substitute_with_denominator(p, {"sp_": ring.var("x")},
                                          ring.parse("1 + x"))
        assert out == p


class TestLiftChartEquivalence:
    def test_codim4(self):
        report = lift_chart_equivalence(fam_st(), chart_yx2())
        assert report.ok
        assert report.termwise_equal and report.localized_ideal_equal
        assert report.unit == "s + t + 1"
        assert len(report.surface_equations) == 2
        assert len(report.pulled_back) == len(report.base_equations) == 2

    def test_tacnode_parameterless(self):
        F = ContactFamily.contact(GEO.parse("y^2 + x^4"))
        report = lift_chart_equivalence(F, chart_yx2())
        assert report.ok
        assert report.unit == "1"

    def test_other_staircase_rejected(self):
        F = fam_st()
        c = GroebnerStratumChart([GEO.parse("x"), GEO.parse("y")], LEX_YX)
        with pytest.raises(ValueError):
            lift_chart_equivalence(F, c)
