"""Polynomial arithmetic, parsing, printing and term orders."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wcontact.errors import ParseError, UnknownVariable
from wcontact.poly import (Poly, PolyRing, Specialization, TermOrder,
                           canonical_form, from_row, poly_str)


R = PolyRing(("x", "y"))
x, y = R.var("x"), R.var("y")


class TestArithmetic:
    def test_add_cancels(self):
        assert (x + y - x - y).is_zero()

    def test_product(self):
        assert (x + y) * (x - y) == x**2 - y**2

    def test_power(self):
        assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1

    def test_rational_scaling(self):
        p = x * Fraction(2, 3)
        assert p.terms[(1, 0)] == Fraction(2, 3)

    def test_substitution(self):
        p = x**2 + y
        assert p.subs({"x": y}) == y**2 + y
        assert p.subs({"x": 2, "y": 3}) == R.const(7)

    def test_eval(self):
        p = x**2 + 2 * y
        assert p.eval({"x": Fraction(1, 2), "y": 1}) == Fraction(9, 4)

    def test_partial(self):
        assert (x**3 * y).partial("x") == 3 * x**2 * y
        assert (x**3 * y).partial("y") == x**3

    def test_map_to_larger_ring(self):
        big = R.extend(("z",))
        q = (x + y).map_to(big)
        assert q.ring is not R
        assert str(q) == str(x + y)

    def test_product_matches_fraction_products(self):
        # the product as it was written on Fraction coefficients is the
        # oracle: the same terms, each a Fraction, in the same dict order
        def fraction_product(a, b):
            if len(a.terms) > len(b.terms):
                a, b = b, a
            terms = {}
            for e1, c1 in a.terms.items():
                for e2, c2 in b.terms.items():
                    e = tuple(map(int.__add__, e1, e2))
                    s = terms.get(e, 0) + c1 * c2
                    if s:
                        terms[e] = s
                    else:
                        terms.pop(e, None)
            return terms

        rng = random.Random(8080)
        for _ in range(300):
            a = random_poly(rng, R, max_terms=7, max_deg=2)
            b = random_poly(rng, R, max_terms=7, max_deg=2)
            if rng.random() < 0.3:  # (a + b) * (a - b): cross terms cancel
                a, b = a + b, a - b
            got = a * b
            assert list(got.terms.items()) == \
                list(fraction_product(a, b).items()), (a, b)
            assert all(type(c) is Fraction for c in got.terms.values())
        with pytest.raises(ValueError, match="ring mismatch"):
            x * PolyRing(("x", "z")).var("x")
        assert (x * 0).is_zero() and x * Fraction(1, 2) == x / 2


class TestParser:
    def test_family_expression(self):
        ring = PolyRing(("x", "y", "s", "t"))
        p = ring.parse("(y^2+x^4)+s*x*(y+x^3)+t*(y+x^4)")
        xs, ys, s, t = (ring.var(v) for v in ("x", "y", "s", "t"))
        assert p == (ys**2 + xs**4) + s * xs * (ys + xs**3) + t * (ys + xs**4)

    def test_zero(self):
        assert R.parse("0").is_zero()

    def test_chart_generator(self):
        ring = PolyRing(("x", "m", "n"))
        p = ring.parse("x^2 - m*x - n")
        assert p == ring.var("x") ** 2 - ring.var("m") * ring.var("x") - ring.var("n")

    def test_unary_minus_and_parens(self):
        assert R.parse("-(x + y)") == -(x + y)
        assert R.parse("-x^2") == -(x**2)

    def test_rational_literal(self):
        assert R.parse("1/2*x") == x * Fraction(1, 2)
        assert R.parse("-3/4") == R.const(Fraction(-3, 4))

    def test_division_by_a_nonzero_constant(self):
        assert R.parse("y^2/2") == y**2 * Fraction(1, 2)
        assert R.parse("(x + y/3 + 1)") == x + y * Fraction(1, 3) + 1
        assert R.parse("x/2/3") == x * Fraction(1, 6)
        assert R.parse("x/(1+1)") == R.parse("1/2*x")
        for text in ("x/y", "x/0", "1/(x-x)"):
            with pytest.raises(ParseError) as err:
                R.parse(text)
            assert err.value.position == 2

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            R.parse("x + z")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            R.parse("x + * y")
        assert err.value.position is not None

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            R.parse("2x")


def random_poly(rng, ring, max_terms=6, max_deg=4, bound=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in ring.variables)
        c = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if c:
            terms[e] = c
    return Poly(ring, {e: c for e, c in terms.items() if c})


class TestRoundTrip:
    def test_thousand_random_polys(self):
        rng = random.Random(12345)
        ring = PolyRing(("x", "y", "s", "t"))
        for _ in range(1000):
            p = random_poly(rng, ring)
            assert ring.parse(poly_str(p)) == p

    def test_canonical_form_scale(self):
        p = x * Fraction(3, 4) + y * Fraction(1, 2)
        text, scale = canonical_form(p, TermOrder.lex(("x", "y")))
        assert text == "3*x + 2*y"
        assert scale == Fraction(1, 4)
        assert R.parse(text) * scale == p

    def test_canonical_leading_positive(self):
        text, scale = canonical_form(-x + y, TermOrder.lex(("x", "y")))
        assert text == "x - y"
        assert scale == -1


class TestTermOrders:
    def test_lex_priority(self):
        key = TermOrder.lex(("y", "x")).key_function(R)
        assert key((0, 1)) > key((5, 0))  # y beats any power of x

    def test_degrevlex_degree_first(self):
        key = TermOrder.degrevlex(("x", "y")).key_function(R)
        assert key((2, 1)) > key((0, 2))

    def test_degrevlex_tiebreak(self):
        # among same-degree monomials, the one with less of the last
        # variable wins
        key = TermOrder.degrevlex(("x", "y")).key_function(R)
        assert key((2, 0)) > key((1, 1)) > key((0, 2))

    def test_parse(self):
        o = TermOrder.parse("lex y>x")
        assert o.kind == "lex" and o.priority == ("y", "x")
        o2 = TermOrder.parse("degrevlex x>y>z")
        assert o2.kind == "degrevlex"

    def test_block_order(self):
        ring = PolyRing(("s", "x", "y", "t"))
        geo = TermOrder.degrevlex(("x", "y"))
        order = geo.then(TermOrder.lex(("t",)))
        assert order.kind == "block"
        assert order.priority == ("x", "y", "t")
        assert repr(order) == "degrevlex x>y, lex t"
        assert order == geo.then(TermOrder.lex(("t",)))
        assert order != TermOrder.degrevlex(("x", "y", "t"))
        # for_ring completes the last block, and keeps an order it need
        # not complete
        full = order.for_ring(ring)
        assert full == geo.then(TermOrder.lex(("t", "s")))
        assert full.for_ring(ring) is full
        with pytest.raises(ValueError):
            geo.then(TermOrder.lex(("y",)))
        with pytest.raises(ValueError, match="unknown order kind 'foo'"):
            TermOrder("lex", ("x",), ("foo", ("y",)))
        # the geometric block decides first: x*y > x*t^5 > y*s
        key = order.key_function(ring)
        assert key((0, 1, 1, 0)) > key((0, 1, 0, 5)) > key((1, 0, 1, 0))

    def test_multiplicative(self):
        key = TermOrder.degrevlex(("x", "y")).key_function(R)
        rng = random.Random(7)
        for _ in range(200):
            a = (rng.randint(0, 4), rng.randint(0, 4))
            b = (rng.randint(0, 4), rng.randint(0, 4))
            c = (rng.randint(0, 3), rng.randint(0, 3))
            if key(a) < key(b):
                ac = (a[0] + c[0], a[1] + c[1])
                bc = (b[0] + c[0], b[1] + c[1])
                assert key(ac) < key(bc)


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
poly_terms = st.dictionaries(exps, coeffs, max_size=5)


def make_poly(d):
    return Poly(R, {e: c for e, c in d.items() if c})


class TestAlgebraProperties:
    @given(poly_terms, poly_terms, poly_terms)
    @settings(max_examples=60, deadline=None)
    def test_distributive(self, a, b, c):
        p, q, r = make_poly(a), make_poly(b), make_poly(c)
        assert p * (q + r) == p * q + p * r

    @given(poly_terms, poly_terms)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        p, q = make_poly(a), make_poly(b)
        assert p * q == q * p
        assert p + q == q + p

    @given(poly_terms)
    @settings(max_examples=60, deadline=None)
    def test_print_parse_involutive(self, a):
        p = make_poly(a)
        assert R.parse(poly_str(p)) == p


def subs_oracle(p, assignments):
    """Term-by-term substitution through Poly products, one per factor."""
    ring = p.ring
    values = {ring.index(n): v if isinstance(v, Poly) else ring.const(v)
              for n, v in assignments.items()}
    result = ring.zero()
    for e, c in p.terms.items():
        term = ring.const(c)
        rest = [0] * ring.nvars
        for i, k in enumerate(e):
            if i in values:
                term = term * values[i] ** k
            else:
                rest[i] = k
        result = result + term * ring.monomial(tuple(rest))
    return result


class TestSubstitution:
    R4 = PolyRing(("x", "y", "s", "t"))

    def random_poly(self, rng, nterms, maxdeg=3):
        terms = {}
        for _ in range(nterms):
            e = tuple(rng.randint(0, maxdeg) for _ in range(self.R4.nvars))
            terms[e] = terms.get(e, 0) + Fraction(rng.randint(-5, 5),
                                                  rng.randint(1, 4))
        return Poly(self.R4, {e: c for e, c in terms.items() if c})

    def random_value(self, rng, name):
        kind = rng.randrange(5)
        if kind == 0:
            return 0
        if kind == 1:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if kind == 2:       # refers to the variable it replaces: x -> x + y
            return self.R4.var(name) + self.random_poly(rng, 2, 1)
        return self.random_poly(rng, rng.randint(0, 3), 2)

    def test_matches_term_by_term_products(self):
        rng = random.Random(2024)
        names = self.R4.variables
        for _ in range(300):
            p = self.random_poly(rng, rng.randint(0, 8))
            chosen = rng.sample(names, rng.randint(0, len(names)))
            assignments = {n: self.random_value(rng, n) for n in chosen}
            got = p.subs(assignments)
            assert got == subs_oracle(p, assignments), (p, assignments)
            assert all(got.terms.values())

    def test_constants_zeros_and_unused_variables(self):
        p = self.R4.parse("x^2*s - 3*y*t + 1/2")
        assert p.subs({"s": 0, "t": Fraction(1, 3)}) \
            == self.R4.parse("-y + 1/2")
        q = self.R4.parse("x^2*s - 3*y + 1/2")
        assert q.subs({"t": 5}) == q        # t does not occur in q
        assert q.subs({}) == q

    def test_value_from_another_ring_rejected(self):
        with pytest.raises(ValueError):
            (x + y).subs({"x": PolyRing(("x", "y", "z")).var("z")})
        with pytest.raises(UnknownVariable):
            (x + y).subs({"z": 1})


class TestSpecialize:
    """``specialize`` against the chain it replaces: widen to a ring that
    holds every name, substitute term by term (``subs_oracle``), map into
    the target ring."""

    R4 = TestSubstitution.R4

    def test_matches_map_subs_map(self):
        rng = random.Random(4051)
        raised = 0
        for _ in range(400):
            p = TestSubstitution().random_poly(rng, rng.randint(0, 8))
            names = rng.sample(self.R4.variables + ("u",),
                               rng.randint(0, 5))
            point = {n: rng.choice((0, Fraction(rng.randint(-4, 4),
                                                rng.randint(1, 3))))
                     for n in names}
            left = [v for v in self.R4.variables if v not in point]
            target = PolyRing(rng.sample(left, rng.randint(0, len(left))))
            ring_all = self.R4.extend(point)
            try:
                want = subs_oracle(p.map_to(ring_all), point).map_to(target)
            except UnknownVariable:
                raised += 1
                with pytest.raises(UnknownVariable):
                    p.specialize(point, target)
                continue
            got = p.specialize(point, target)
            assert got.ring == target
            assert got == want, (p, point, target)
            assert all(got.terms.values())
        assert 50 < raised < 350

    def test_surviving_variable_outside_the_target_raises(self):
        p = self.R4.parse("x*s + y")
        with pytest.raises(UnknownVariable):
            p.specialize({"s": 2}, PolyRing(("y",)))
        assert p.specialize({"s": 0}, PolyRing(("y",))) \
            == PolyRing(("y",)).var("y")

    def test_folds_to_zero(self):
        p = self.R4.parse("x*s - x*t + y*s - y")
        target = PolyRing(("y", "x"))
        got = p.specialize({"s": 1, "t": 1}, target)
        assert got.is_zero() and got.ring == target
        # x and y survive only in terms that cancel, so the target may
        # lack them
        assert p.specialize({"s": 1, "t": 1}, PolyRing(("u",))).is_zero()


def fraction_specialize(p, point, ring):
    """``Poly.specialize`` as it was written on ``Fraction`` coefficients,
    one product per substituted variable of each term: the oracle of the
    integer-row ``Specialization``."""
    values, moves = [], []  # moves: (index in p, index in ring or -1)
    for i, v in enumerate(p.ring.variables):
        if v in point:
            values.append((i, Fraction(point[v])))
        else:
            moves.append((i, ring._index.get(v, -1)))
    terms, stray = {}, {}
    for e, c in p.terms.items():
        for i, v in values:
            c *= v ** e[i]
        if not c:
            continue
        new = [0] * ring.nvars
        for i, j in moves:
            k = e[i]
            if k:
                if j < 0:
                    rest = tuple(e[m] for m, _ in moves)
                    stray[rest] = stray.get(rest, 0) + c
                    break
                new[j] = k
        else:
            new = tuple(new)
            terms[new] = terms.get(new, 0) + c
    for rest, c in stray.items():
        if c:
            name = next(p.ring.variables[i]
                        for (i, j), k in zip(moves, rest) if k and j < 0)
            raise UnknownVariable(f"variable {name!r} not in {ring!r}")
    return Poly(ring, {e: c for e, c in terms.items() if c})


class TestSpecializationOracle:
    """The integer-row ``Specialization`` (and ``Poly.specialize`` on it)
    against ``fraction_specialize``, coefficient for coefficient and in the
    same dict order, on seeded polynomials built so that terms collide and
    cancel after the substitution, stray ones included."""

    R5 = PolyRing(("x", "y", "s", "t", "u"))

    def case(self, rng):
        ring = self.R5
        names = rng.sample(ring.variables + ("w",), rng.randint(1, 4))
        point = {n: rng.choice((0, Fraction(rng.randint(-4, 4),
                                            rng.randint(1, 3))))
                 for n in names}
        left = [v for v in ring.variables if v not in point]
        target = PolyRing(rng.sample(left, rng.randint(0, len(left))))
        terms = {}
        for _ in range(rng.randint(0, 7)):
            e = tuple(rng.randint(0, 2) for _ in ring.variables)
            terms[e] = terms.get(e, 0) + Fraction(rng.randint(-5, 5),
                                                  rng.randint(1, 4))
        # a partner for some terms, moved in one substituted variable and
        # weighted so that the two cancel at the point
        subst = [ring.index(n) for n in names
                 if n in ring.variables and point[n]]
        for e, c in list(terms.items()):
            if subst and c and rng.random() < 0.5:
                i = rng.choice(subst)
                k = e[i] + 1 if e[i] == 0 or rng.random() < 0.5 else e[i] - 1
                partner = e[:i] + (k,) + e[i + 1:]
                v = Fraction(point[ring.variables[i]])
                terms[partner] = terms.get(partner, 0) - c * v ** (e[i] - k)
        p = Poly(ring, {e: c for e, c in terms.items() if c})
        return p, point, target

    def test_matches_fraction_specialize(self):
        rng = random.Random(1811)
        seen = {"raised": 0, "cancelled": 0, "stray_cancelled": 0,
                "zero": 0, "negative": 0, "ignored": 0}
        for _ in range(600):
            p, point, target = self.case(rng)
            seen["zero"] += 0 in point.values()
            seen["negative"] += any(v < 0 for v in point.values())
            seen["ignored"] += "w" in point
            plan = Specialization(p, point, target)
            try:
                want = fraction_specialize(p, point, target)
            except UnknownVariable as err:
                seen["raised"] += 1
                for run in (lambda: p.specialize(point, target),
                            lambda: plan(point)):
                    with pytest.raises(UnknownVariable) as got:
                        run()
                    assert str(got.value) == str(err)
                continue
            got = p.specialize(point, target)
            assert got.ring == target
            assert list(got.terms.items()) == list(want.terms.items()), \
                (p, point, target)
            row, n, d = plan(point)
            assert list(from_row(target, row, n, d).terms.items()) \
                == list(want.terms.items())
            assert d > 0 and all(row.values())
            assert not row or math.gcd(*row.values()) == 1
            kept = [e for e in p.terms
                    if all(e[i] == 0 for i, v in enumerate(p.ring.variables)
                           if v in point and point[v] == 0)]
            seen["cancelled"] += len(want.terms) < len({
                tuple(e[p.ring.index(v)] for v in target.variables)
                for e in kept
                if all(not e[i] for i, v in enumerate(p.ring.variables)
                       if v not in point and v not in target.variables)})
            seen["stray_cancelled"] += any(
                any(e[i] for i, v in enumerate(p.ring.variables)
                    if v not in point and v not in target.variables)
                for e in kept)
        assert all(count >= 30 for count in seen.values()), seen

    def test_stray_terms_that_cancel_raise_nothing(self):
        # u*s - 2*u*t vanishes at s = 2, t = 1, so u may be missing
        p = self.R5.parse("x + u*s - 2*u*t")
        target = PolyRing(("x",))
        assert p.specialize({"s": 2, "t": 1}, target) == target.var("x")
        with pytest.raises(UnknownVariable, match="'u'"):
            p.specialize({"s": 2, "t": 2}, target)
