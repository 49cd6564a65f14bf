"""Affine schemes, Jacobian singular loci, set-theoretic variety equality
and nested-singularity structure reports."""

import random
import time
from fractions import Fraction

import pytest
import sympy

from wcontact import geometry, groebner
from wcontact.errors import (CertificationFailed, PointNotOnScheme,
                             UnknownVariable, UsageError)
from wcontact.geometry import (AffineScheme, has_linear_factor,
                               nested_singularity_report,
                               singular_locus_ideal, tangent_space_dim,
                               variety_equal)
from wcontact.groebner import gb_buchberger
from wcontact.poly import Poly, PolyRing, TermOrder

R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))

H_VARS = ("s", "t", "k", "l", "m", "n")
H_RING = PolyRing(H_VARS)
H_EQS = [
    H_RING.parse("s*m^3 + t*m^3 + s*k*m + k^2*m + m^3 + 2*s*m*n + 2*t*m*n"
                 " + t*k + s*l + 2*k*l + 2*m*n"),
    H_RING.parse("s*m^2*n + t*m^2*n + s*k*n + k^2*n + m^2*n + s*n^2 + t*n^2"
                 " + t*l + l^2 + n^2"),
]
SING_GENS = [H_RING.parse(g)
             for g in ("t", "l", "n", "s*m^2 + s*k + k^2 + m^2")]


def h_scheme():
    return AffineScheme(H_VARS, H_EQS, expected_codim=2)


class TestAffineScheme:
    def test_node(self):
        S = AffineScheme(("x", "y"), [R2.parse("x*y")], expected_codim=1)
        assert S.ambient_dimension == 2
        assert S.contains_point({"x": 0, "y": 0})
        assert S.contains_point({"x": 3, "y": 0})
        assert not S.contains_point({"x": 1, "y": 1})
        assert tangent_space_dim(S, {"x": 0, "y": 0}) == 2
        assert tangent_space_dim(S, {"x": 3, "y": 0}) == 1

    def test_point_must_be_on_scheme(self):
        S = AffineScheme(("x", "y"), [R2.parse("x*y")], expected_codim=1)
        with pytest.raises(PointNotOnScheme):
            tangent_space_dim(S, {"x": 1, "y": 1})

    def test_jacobian_at(self):
        S = AffineScheme(("x", "y"), [R2.parse("x^2 - y")])
        J = S.jacobian_at({"x": Fraction(3), "y": Fraction(9)})
        assert J.rows == [[6, -1]]

    def test_zero_equation_rejected(self):
        with pytest.raises(UsageError):
            AffineScheme(("x", "y"), [R2.zero()])


class TestSingularLocus:
    def test_node_singular_at_origin_only(self):
        S = AffineScheme(("x", "y"), [R2.parse("x*y")], expected_codim=1)
        sing = singular_locus_ideal(S)
        assert variety_equal(sing, [R2.var("x"), R2.var("y")])

    def test_smooth_parabola(self):
        S = AffineScheme(("x", "y"), [R2.parse("y - x^2")], expected_codim=1)
        sing = singular_locus_ideal(S)
        G = gb_buchberger(sing, TermOrder.degrevlex(("x", "y")))
        assert G.is_unit_ideal()

    def test_cone_singular_at_origin(self):
        S = AffineScheme(("x", "y", "z"), [R3.parse("x^2 + y^2 - z^2")],
                         expected_codim=1)
        sing = singular_locus_ideal(S)
        assert variety_equal(sing, [R3.var("x"), R3.var("y"), R3.var("z")])

    def test_codim_required(self):
        S = AffineScheme(("x", "y"), [R2.parse("x*y")])
        with pytest.raises(UsageError):
            singular_locus_ideal(S)

    def test_chart_basis_forms_202_s_polynomials(self, monkeypatch):
        """Criterion M keeps the same pairs: the degrevlex basis of the
        chart's singular-locus ideal forms 202 S-polynomials."""
        calls = []
        s_polynomial = groebner._Reducer.s_polynomial

        def counting(self, *args):
            calls.append(args)
            return s_polynomial(self, *args)

        sing = singular_locus_ideal(h_scheme())
        monkeypatch.setattr(groebner._Reducer, "s_polynomial", counting)
        gb_buchberger(sing, TermOrder.degrevlex(H_VARS))
        assert len(calls) == 202


def _solve_h_point(rng):
    """A rational point of H with random (k, l, m, n), solving the linear
    system in (s, t); returns None when the system is degenerate."""
    vals = {v: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for v in ("k", "l", "m", "n")}
    rows, rhs = [], []
    for q in H_EQS:
        partial_s = q.partial("s").subs(vals).eval({"s": 0, "t": 0})
        partial_t = q.partial("t").subs(vals).eval({"s": 0, "t": 0})
        const = q.subs(vals).eval({"s": 0, "t": 0})
        rows.append([partial_s, partial_t])
        rhs.append(-const)
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if det == 0:
        return None
    s = (rhs[0] * rows[1][1] - rhs[1] * rows[0][1]) / det
    t = (rows[0][0] * rhs[1] - rows[1][0] * rhs[0]) / det
    point = dict(vals)
    point["s"] = s
    point["t"] = t
    return point


class TestHilbertSchemeGeometry:
    def test_tangent_dimension_at_origin(self):
        S = h_scheme()
        origin = {v: Fraction(0) for v in H_VARS}
        assert tangent_space_dim(S, origin) == 6

    def test_generic_singular_point(self):
        # on the singular locus: t = l = n = 0 and s = -(k^2+m^2)/(m^2+k)
        S = h_scheme()
        point = {"s": Fraction(-1), "t": Fraction(0), "k": Fraction(1),
                 "l": Fraction(0), "m": Fraction(1), "n": Fraction(0)}
        assert all(g.eval(point) == 0 for g in SING_GENS)
        assert tangent_space_dim(S, point) == 5

    def test_random_points_on_h(self):
        rng = random.Random(606)
        S = h_scheme()
        sing = singular_locus_ideal(S)
        found = 0
        smooth_seen = 0
        while found < 50:
            point = _solve_h_point(rng)
            if point is None:
                continue
            found += 1
            assert S.contains_point(point)
            tdim = tangent_space_dim(S, point)
            on_sing = all(g.eval(point) == 0 for g in sing)
            # smooth points have 4-dimensional tangent space; the Jacobian
            # minors vanish exactly when the dimension jumps
            assert (tdim == 4) == (not on_sing)
            assert 4 <= tdim <= 6
            if tdim == 4:
                smooth_seen += 1
        assert smooth_seen > 25


class TestVarietyEqual:
    def test_radical_collapse(self):
        assert variety_equal([R2.parse("x^2")], [R2.var("x")])

    def test_redundant_generator(self):
        assert variety_equal([R2.parse("x*y"), R2.var("x")], [R2.var("x")])

    def test_strictly_smaller(self):
        assert not variety_equal([R2.var("x")],
                                 [R2.var("x"), R2.var("y")])

    def test_reflexive_and_symmetric(self):
        rng = random.Random(21)
        for _ in range(10):
            gens = [R2.parse(g) for g in
                    rng.sample(["x", "y", "x*y", "x^2 - y", "x + y^2"], 2)]
            assert variety_equal(gens, gens)
            other = gens + [gens[0] * gens[1]]
            assert variety_equal(gens, other)
            assert variety_equal(other, gens)

    def test_empty_inputs(self):
        assert variety_equal([], [])
        assert not variety_equal([R2.var("x")], [])

    def test_either_side_may_use_variables_the_other_lacks(self):
        RK = PolyRing(("x", "y", "k"))
        a = [R2.var("y"), R2.parse("x^2")]
        b = [RK.parse("k*y"), RK.parse("x^2")]
        assert not variety_equal(a, b)
        assert not variety_equal(b, a)
        assert variety_equal(a, [RK.var("y"), RK.var("x")])
        assert variety_equal([RK.var("y"), RK.var("x")], a)


class TestAllInRadical:
    """The power test reduces each power as it forms it; the Rabinowitsch
    check decides what 12 powers do not."""

    @staticmethod
    def _spy(monkeypatch, name):
        calls = []
        real = getattr(geometry, name)

        def spy(*args):
            calls.append((args[0], real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(geometry, name, spy)
        return calls

    def test_a_target_needing_its_fourth_power(self, monkeypatch):
        # x^2 = y and y^2 = 0 in the quotient: x^3 = x*y is not zero,
        # x^4 = y^2 is; each power is kept as its normal form
        gens = [R2.parse("x^2 - y"), R2.parse("y^2")]
        nf = self._spy(monkeypatch, "normal_form")
        rabinowitsch = self._spy(monkeypatch, "radical_membership")
        assert geometry._all_in_radical([R2.var("x")], gens)
        assert [(str(p), str(r)) for p, r in nf] == [
            ("x", "x"), ("x^2", "y"), ("x*y", "x*y"), ("x^2*y", "0")]
        assert not rabinowitsch

    def test_a_non_member_reaches_the_certified_check(self, monkeypatch):
        nf = self._spy(monkeypatch, "normal_form")
        rabinowitsch = self._spy(monkeypatch, "radical_membership")
        assert not geometry._all_in_radical([R2.var("x")], [R2.parse("x*y")])
        assert len(nf) == 12
        assert [r for _, r in rabinowitsch] == [False]

    def test_a_member_past_twelve_powers_is_certified(self, monkeypatch):
        rabinowitsch = self._spy(monkeypatch, "radical_membership")
        assert geometry._all_in_radical([R2.var("x")], [R2.parse("x^13")])
        assert [r for _, r in rabinowitsch] == [True]


class TestLinearFactor:
    def test_positive(self):
        assert has_linear_factor(R2.parse("x*y"), ("x", "y"))
        assert has_linear_factor(R2.parse("x^2 - y^2"), ("x", "y"))
        assert has_linear_factor(R2.parse("x^3 + y^3"), ("x", "y"))

    def test_negative(self):
        assert not has_linear_factor(R2.parse("x^2 + y^2"), ("x", "y"))
        assert not has_linear_factor(R2.parse("x^2 + y^3"), ("x", "y"))


R4 = PolyRing(("x", "y", "z", "w"))


def _sympy_has_linear_factor(p, span):
    """The oracle: a factor of total degree 1 in sympy's factor_list."""
    symbols = sympy.symbols(span)
    index = [p.ring.index(v) for v in span]
    expr = sympy.S.Zero + sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.prod(s ** e[i] for s, i in zip(symbols, index))
        for e, c in p.terms.items())
    _, factors = sympy.factor_list(expr, *symbols)
    return any(sympy.Poly(f, *symbols).total_degree() == 1
               for f, _ in factors)


def _random_poly(rng, span, degree, nterms):
    terms = {}
    for _ in range(nterms):
        e = [0] * R4.nvars
        for _ in range(rng.randint(0, degree)):
            e[R4.index(rng.choice(span))] += 1
        terms[tuple(e)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Poly(R4, {e: c for e, c in terms.items() if c})


def _restrict_oracle(p, i, d, rest, point):
    """``geometry._restrict`` as it was written before it became a call of
    ``Poly.subs``: one product per variable of ``rest`` in each term."""
    coeffs = [Fraction(0)] * (d + 1)
    for e, c in p.terms.items():
        for j, x in zip(rest, point):
            if e[j]:
                c *= x ** e[j]
        coeffs[e[i]] += c
    return coeffs


class TestRestrict:
    def test_matches_the_term_loop(self):
        rng = random.Random(7070)
        vanished = 0
        for _ in range(300):
            span = tuple(rng.sample("xyzw", rng.randint(1, 4)))
            p = _random_poly(rng, span, 4, rng.randint(0, 8))
            idx = [R4.index(v) for v in span]
            i = rng.choice(idx)
            rest = [j for j in idx if j != i]
            d = max((e[i] for e in p.terms), default=0)
            point = tuple(rng.choice((rng.randint(-3, 5), Fraction(
                rng.randint(-3, 3), rng.randint(1, 3)))) for _ in rest)
            got = geometry._restrict(p, i, d, rest, point)
            want = _restrict_oracle(p, i, d, rest, point)
            assert got == want, (p, i, point)
            assert all(type(c) is Fraction for c in got)
            vanished += p.is_zero() or not got[d]
        assert 20 < vanished < 280


class TestLinearFactorAgainstSympy:
    """The exact rational test against sympy's factorization over Q."""

    @pytest.mark.parametrize("case", [
        ("(2*x - 3/2*y + 1/2)*(x^2 + y^2 + 1)", "x,y", True),
        ("(y - 2*z)*(x^2 + y^3 + z)", "x,y,z", True),  # skips x
        ("(x + 1/3*y + 1)^2*(x^2*y + 2)", "x,y", True),  # repeated
        ("x^2 - 2", "x,y", False),
        ("x^2 - 4", "x,y", True),
        ("x^2 + y^2 + 1", "x,y,z", False),  # z is absent
        ("(3*z - 1/2*w)*(z*w + x*y - 1)", "x,y,z,w", True),
        ("x*y*z - w^3", "x,y,z,w", False),
        ("0", "x,y", False),
        ("7/3", "x,y", False),
    ], ids=lambda case: case[0])
    def test_edge_cases(self, case):
        text, span, expected = case
        p, span = R4.parse(text), tuple(span.split(","))
        assert has_linear_factor(p, span) is expected
        assert _sympy_has_linear_factor(p, span) is expected

    def test_random_products(self):
        rng = random.Random(20260)
        planted = found = 0
        for _ in range(80):
            span = tuple("xyzw"[:rng.randint(2, 4)])
            p = (_random_poly(rng, span, 3, rng.randint(1, 4))
                 * _random_poly(rng, span, 3, rng.randint(1, 4)))
            if rng.random() < 0.5:
                planted += 1
                p = p * _random_poly(rng, span, 1, rng.randint(1, 4))
            expected = _sympy_has_linear_factor(p, span)
            assert has_linear_factor(p, span) is expected, str(p)
            found += expected
        assert planted >= 30 and 30 <= found < 80

    def test_variable_outside_span(self):
        with pytest.raises(UnknownVariable):
            has_linear_factor(R4.parse("x*y + z"), ("x", "y"))

    def test_past_divisor_bound_fails_in_time(self):
        """x^2*y + a*y^2 + b with a + b > DIVISOR_BOUND: at y = 1 the rational
        root test would need the divisors of a + b."""
        big = geometry.DIVISOR_BOUND
        p = R4.parse(f"x^2*y + {big + 39}*y^2 + {big + 37}")
        start = time.monotonic()
        with pytest.raises(CertificationFailed):
            has_linear_factor(p, ("x", "y"))
        assert time.monotonic() - start < 2.0

    def test_past_candidate_bound_fails(self, monkeypatch):
        monkeypatch.setattr(geometry, "CANDIDATE_BOUND", 1)
        p = R4.parse("(x - y)*(x - 2*y)")  # roots 0 at y = 0; 1, 2 at y = 1
        with pytest.raises(CertificationFailed):
            has_linear_factor(p, ("x", "y"))


class TestNestedReports:
    def test_trivial_linear_locus(self):
        S = AffineScheme(("x", "y"), [R2.parse("x*y")])
        rep = nested_singularity_report(S, [R2.var("x"), R2.var("y")])
        assert rep.trivial
        assert rep.span_variables == ()
        assert rep.residual_equations == []

    def test_node_times_line(self):
        S = AffineScheme(("x", "y", "z"), [R3.parse("x*y + z^2")])
        rep = nested_singularity_report(S, [R3.var("z"), R3.parse("x*y")])
        assert rep.span_variables == ("x", "y")
        assert rep.residual_equations == ["x*y"]
        assert rep.quadratic_rank == 2
        assert rep.a1_at_origin
        # x*y does factor into linear forms
        assert rep.no_linear_factor_over_Q is False

    def test_locus_through_origin_required(self):
        S = AffineScheme(("x", "y"), [R2.parse("x*y")])
        with pytest.raises(PointNotOnScheme):
            nested_singularity_report(S, [R2.parse("x - 1")])

    def test_singular_locus_of_h(self):
        S = h_scheme()
        rep = nested_singularity_report(S, SING_GENS)
        assert rep.span_variables == ("s", "k", "m")
        assert rep.eliminated.keys() == {"t", "l", "n"}
        assert rep.residual_equations == ["s*m^2 + s*k + k^2 + m^2"]
        assert rep.span_dimension == 3
        assert rep.expected_dimension == 2
        assert rep.quadratic_rank == 3
        assert rep.a1_at_origin is True
        assert rep.no_linear_factor_over_Q is True
