"""Buchberger bases, normal forms, membership and standard monomials."""

import itertools
import pathlib
import random
from fractions import Fraction

import pytest
import sympy

import wcontact
from wcontact import groebner
from wcontact.errors import CertificationFailed, InfiniteColength
from wcontact.groebner import (GroebnerBasis, _Encoding, gb_buchberger,
                               ideal_membership, normal_form,
                               radical_membership, staircase_complement,
                               standard_monomials)
from wcontact.jobs import parse_job, run_task
from wcontact.poly import (Poly, PolyRing, TermOrder, mono_div, mono_divides,
                           mono_lcm)

R = PolyRing(("x", "y"))
x, y = R.var("x"), R.var("y")
LEX_YX = TermOrder.lex(("y", "x"))


def s_polynomial(f: Poly, g: Poly, order: TermOrder) -> Poly:
    """The S-polynomial over Q, written from its definition: the oracle of
    Buchberger's criterion for the fraction-free one inside the kernel."""
    key = order.key_function(f.ring)
    lf, lg = max(f.terms, key=key), max(g.terms, key=key)
    lcm = mono_lcm(lf, lg)
    mf = f.ring.monomial(mono_div(lcm, lf), Fraction(1) / f.terms[lf])
    mg = f.ring.monomial(mono_div(lcm, lg), Fraction(1) / g.terms[lg])
    return mf * f - mg * g


class TestBuchberger:
    def test_single_generator(self):
        ring = PolyRing(("x",))
        G = gb_buchberger([ring.parse("x^2-1")], TermOrder.lex(("x",)))
        assert [str(g) for g in G] == ["x^2 - 1"]

    def test_two_generators_lex(self):
        G = gb_buchberger([y - x, y**2 - 1], LEX_YX)
        assert set(G) == {y - x, x**2 - 1}

    def test_chart_generators_already_a_basis(self):
        ring = PolyRing(("y", "x", "k", "l", "m", "n"))
        order = TermOrder.lex(("y", "x", "k", "l", "m", "n"))
        g1 = ring.parse("y - k*x - l")
        g2 = ring.parse("x^2 - m*x - n")
        G = gb_buchberger([g1, g2], order)
        assert normal_form(s_polynomial(g1, g2, order), G).is_zero()
        assert len(list(G)) == 2

    def test_unit_ideal_detection(self):
        G = gb_buchberger([x, x + 1], LEX_YX)
        assert G.is_unit_ideal()

    def test_stop_at_unit_short_circuits(self):
        G = gb_buchberger([x, x - 1, y**5 - x * y],
                          LEX_YX, stop_at_unit=True)
        assert G.is_unit_ideal()


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        G = gb_buchberger([y], LEX_YX)
        assert normal_form(y**2, G).is_zero()

    def test_x4_mod_quadric(self):
        ring = PolyRing(("x", "m", "n"))
        order = TermOrder.lex(("x", "m", "n"))
        G = gb_buchberger([ring.parse("x^2-m*x-n")], order)
        nf = normal_form(ring.parse("x^4"), G)
        assert nf == ring.parse("(m^3+2*m*n)*x + (m^2*n+n^2)")

    def test_idempotent(self):
        rng = random.Random(11)
        G = gb_buchberger([y**2 - x**3, x * y - x**2], LEX_YX)
        for _ in range(50):
            p = _random_poly(rng, R)
            once = normal_form(p, G)
            assert normal_form(once, G) == once

    def test_linear(self):
        rng = random.Random(13)
        G = gb_buchberger([y**2 - x**3, x * y - x**2], LEX_YX)
        for _ in range(50):
            p, q = _random_poly(rng, R), _random_poly(rng, R)
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            lhs = normal_form(p * a + q, G)
            rhs = normal_form(p, G) * a + normal_form(q, G)
            assert lhs == rhs

    def test_no_term_divisible_by_lead(self):
        G = gb_buchberger([y**2 - x, x**2 - y], LEX_YX)
        leads = G.leading_monomials()
        nf = normal_form((x + y) ** 5, G)
        from wcontact.poly import mono_divides
        for e in nf.terms:
            assert not any(mono_divides(lm, e) for lm in leads)


class TestMembership:
    def test_ideal_membership(self):
        assert ideal_membership(y**2, [y], LEX_YX)
        assert not ideal_membership(x, [x**2], LEX_YX)

    def test_lifted_surface_not_member_with_free_parameters(self):
        ring = PolyRing(("x", "y", "z", "sp", "tp", "k", "l", "m", "n"))
        order = TermOrder.lex(("z", "y", "x", "sp", "tp", "k", "l", "m", "n"))
        gens = [ring.parse("z - sp*x - tp"),
                ring.parse("y - k*x - l"),
                ring.parse("x^2 - m*x - n")]
        surf = ring.parse("y*z + x^4")
        assert not ideal_membership(surf, gens, order)
        # the residue is supported on {1, x}
        G = gb_buchberger(gens, order)
        nf = normal_form(surf, G)
        xi, yi, zi = ring.index("x"), ring.index("y"), ring.index("z")
        assert all(e[yi] == 0 and e[zi] == 0 and e[xi] <= 1 for e in nf.terms)

    def test_radical_membership(self):
        assert radical_membership(x, [x**2])
        assert not radical_membership(x + 1, [x**2])

    def test_radical_membership_product_of_generators(self):
        ring = PolyRing(("s", "t", "k", "l", "m", "n"))
        gens = [ring.parse(g) for g in
                ("t", "l", "n", "s*m^2+s*k+k^2+m^2")]
        assert radical_membership(ring.parse("t*l"), gens)


class TestStandardMonomials:
    def test_colength_two(self):
        G = gb_buchberger([y, x**2], LEX_YX)
        q = standard_monomials(G)
        assert q.dimension == 2
        assert sorted(q.monomials) == [(0, 0), (1, 0)]

    def test_maximal_ideal(self):
        G = gb_buchberger([x, y], LEX_YX)
        assert standard_monomials(G).dimension == 1

    def test_unit_ideal(self):
        # the constant lead divides every monomial
        q = standard_monomials(gb_buchberger([R.const(1)], LEX_YX))
        assert q.dimension == 0 and q.monomials == []

    def test_infinite(self):
        G = gb_buchberger([y], LEX_YX)
        with pytest.raises(InfiniteColength):
            standard_monomials(G)

    def test_finite_past_the_limit(self):
        # 200 * 200 standard monomials: too many to list, but not infinite
        with pytest.raises(CertificationFailed):
            staircase_complement([(200, 0), (0, 200)], R)


def _random_poly(rng, ring, max_terms=5, max_deg=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in ring.variables)
        c = Fraction(rng.randint(-5, 5))
        if c:
            terms[e] = terms.get(e, 0) + c
    return Poly(ring, {e: c for e, c in terms.items() if c})


class TestClosureProperty:
    def test_spair_closure_random_ideals(self):
        rng = random.Random(99)
        orders = [LEX_YX, TermOrder.degrevlex(("x", "y"))]
        for trial in range(40):
            gens = [_random_poly(rng, R, max_terms=3, max_deg=3)
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            order = orders[trial % 2]
            G = gb_buchberger(gens, order)
            basis = list(G)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(basis[i], basis[j], order)
                    assert normal_form(s, G).is_zero()
            for g in gens:
                assert normal_form(g, G).is_zero()

    def test_reduced_basis_property(self):
        from wcontact.poly import mono_divides
        rng = random.Random(5)
        for _ in range(20):
            gens = [_random_poly(rng, R, max_terms=3, max_deg=3)
                    for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            G = gb_buchberger(gens, LEX_YX)
            basis = list(G)
            leads = G.leading_monomials()
            for i, g in enumerate(basis):
                others = [lm for j, lm in enumerate(leads) if j != i]
                for e in g.terms:
                    assert not any(mono_divides(lm, e) for lm in others)


def _random_rational_poly(rng, ring, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in ring.variables)
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-6, 6),
                                              rng.randint(1, 3))
    return Poly(ring, {e: c for e, c in terms.items() if c})


def _to_sympy(p):
    symbols = sympy.symbols(p.ring.variables)
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.prod(s ** k for s, k in zip(symbols, e))
               for e, c in p.terms.items()) + sympy.S.Zero


def _from_sympy(expr, ring, symbols):
    """Terms of a sympy expression as exponents over the ring's variables."""
    idx = [ring.index(str(s)) for s in symbols]
    terms = {}
    for monom, c in sympy.Poly(expr, *symbols).terms():
        if not c:
            continue  # the zero polynomial lists one zero term
        e = [0] * ring.nvars
        for i, k in zip(idx, monom):
            e[i] = k
        terms[tuple(e)] = Fraction(int(c.p), int(c.q))
    return terms


def _monic(p, key):
    lead = max(p.terms, key=key)
    return frozenset((e, c / p.terms[lead]) for e, c in p.terms.items())


def _assert_matches_sympy(gens, order, probes):
    """The monic reduced basis and the remainders of ``probes`` equal
    sympy's."""
    ring = gens[0].ring
    symbols = sympy.symbols(order.priority)
    sym_order = "lex" if order.kind == "lex" else "grevlex"
    SG = sympy.groebner([_to_sympy(g) for g in gens], *symbols,
                        order=sym_order, domain=sympy.QQ)
    G = gb_buchberger(gens, order)
    key = order.key_function(ring)
    assert {_monic(g, key) for g in G} == {
        _monic(Poly(ring, _from_sympy(s, ring, symbols)), key)
        for s in SG.exprs}
    for p in probes:
        remainder = SG.reduce(_to_sympy(p))[1]
        assert normal_form(p, G).terms == _from_sympy(remainder, ring, symbols)


class TestAgainstSympy:
    """Differential tests against sympy on seeded random ideals.

    A reduced Groebner basis is unique once made monic, and division by it
    leaves a unique remainder, so both must agree exactly with sympy's.
    """

    CASES = [(seed, nvars, kind) for seed in range(12) for nvars in (2, 3)
             for kind in ("lex", "degrevlex")]

    @pytest.mark.parametrize("seed,nvars,kind", CASES)
    def test_basis_and_remainders_match(self, seed, nvars, kind):
        rng = random.Random(seed * 7919 + nvars)
        ring = PolyRing(("x", "y", "z")[:nvars])
        priority = tuple(rng.sample(ring.variables, nvars))
        gens = []
        while not gens:
            gens = [g for g in (_random_rational_poly(rng, ring)
                                for _ in range(rng.randint(1, 4))) if g]
        probes = [_random_rational_poly(rng, ring, max_terms=6, max_deg=4)
                  for _ in range(4)]
        _assert_matches_sympy(gens, TermOrder(kind, priority), probes)

    @pytest.mark.parametrize("seed", range(6))
    def test_unit_ideal(self, seed):
        rng = random.Random(seed)
        ring = PolyRing(("x", "y"))
        a = b = ring.zero()
        while a.is_zero() or b.is_zero():
            a, b = _random_rational_poly(rng, ring), \
                _random_rational_poly(rng, ring)
        # x*a + y*b + (1 - x*a - y*b) = 1
        gens = [a, b, ring.one() - ring.var("x") * a - ring.var("y") * b]
        for stop in (True, False):
            G = gb_buchberger(gens, LEX_YX, stop_at_unit=stop)
            assert list(G) == [ring.one()]


class TestPackedMonomials:
    """The packed monomials of the division kernel.

    Fields start at 60 // n - 1 value bits for n variables: 5 bits (exponent
    sums up to 31) in ten variables, 9 bits (up to 511) in six.
    """

    @pytest.mark.parametrize("seed", range(24))
    def test_order_and_arithmetic(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(1, 6)
        ring = PolyRing(("s", "t", "k", "l", "m", "n")[:nvars])
        order = TermOrder(rng.choice(("lex", "degrevlex")),
                          rng.sample(ring.variables, nvars))
        key = order.key_function(ring)
        code = _Encoding(order, ring, rng.randint(1, 10))

        def draw():
            while True:
                bound = rng.choice((1, 3, code.limit // nvars, code.limit))
                e = tuple(rng.randint(0, bound) for _ in range(nvars))
                if code.top(e) <= code.limit:
                    return e

        for _ in range(200):
            a, b = draw(), draw()
            pa, pb = code.pack(a), code.pack(b)
            ab = tuple(i + j for i, j in zip(a, b))
            assert code.unpack(pa) == a
            assert (pa < pb) == (key(a) < key(b))
            assert (pa == pb) == (a == b)
            # a sum is exact, and carries into a guard bit exactly when a
            # field of the product does not fit
            assert code.unpack(pa + pb) == ab
            assert bool((pa + pb) & code.guard) == (code.top(ab) > code.limit)
            if code.top(ab) <= code.limit:
                assert pa + pb == code.pack(ab)
            if mono_divides(a, b):
                assert pb - pa == code.pack(mono_div(b, a))

    TEN = tuple("xyzabcdefg")
    SIX = ("s", "t", "k", "l", "m", "n")
    OVERFLOW_CASES = [
        # input exponents wider than a field
        (TEN, "degrevlex", TEN, ["x^70 - y^2", "y^3 - x"],
         ["x^75 + y^4", "x*y^5*z^33"]),
        (SIX, "degrevlex", SIX, ["s^600*t^600 - k*l", "k^2 - m*n", "l^3 - s"],
         ["s^1300*t^600", "k^5*l^7"]),
        # an S-pair lcm wider than a field
        (TEN, "degrevlex", ("y", "x") + TEN[2:], ["x^20*y - 1", "x*y^20 - 1"],
         ["x^21*y^2", "z^3"]),
        # an S-polynomial term wider than a field, its lcm not
        (TEN, "lex", TEN, ["x*y^20 - 1", "x^2 - y^25"], ["x^3", "y^30*x"]),
        # lex reductions that raise the total degree past a field
        (TEN, "lex", TEN, ["x - y^10 - y"], ["x^7 + x*y", "x^3*z"]),
        (SIX, "lex", ("n", "m", "l", "k", "t", "s"),
         ["n - s^100*t", "m - n^3", "l^2 - k"], ["m^4*l^5", "n^2*m"]),
        # an input reduced to a row wider than a field (x^2 - z by x - y^20
        # leaves y^40) while the input x^3 - y is still pending
        (TEN, "lex", TEN, ["x^3 - y", "x^2 - z", "x - y^20"], ["x^4", "y^41"]),
    ]

    @pytest.mark.parametrize("names,kind,priority,gens,probes", OVERFLOW_CASES)
    def test_overflow_widens_and_matches_sympy(self, names, kind, priority,
                                               gens, probes):
        ring = PolyRing(names)
        _assert_matches_sympy([ring.parse(g) for g in gens],
                              TermOrder(kind, priority),
                              [ring.parse(p) for p in probes])


class TestBlockOrders:
    """Packed monomials of block orders: each block fills the fields below
    those of the blocks before it."""

    RING = PolyRing(("s", "x", "y", "t", "u"))
    ORDERS = [
        TermOrder.degrevlex(("x", "y")).then(TermOrder.lex(("s", "t", "u"))),
        TermOrder.lex(("y", "x")).then(TermOrder.degrevlex(("t", "s", "u"))),
        TermOrder.degrevlex(("x", "y")).then(TermOrder.lex(("u",)))
        .then(TermOrder.degrevlex(("t", "s"))),
    ]

    @staticmethod
    def check(code, exps):
        key = code.order.key_function(code.ring)
        packed = [code.pack(e) for e in exps]
        for e, m in zip(exps, packed):
            assert code.unpack(m) == e
        for a, pa in zip(exps, packed):
            for b, pb in zip(exps, packed):
                assert (pa < pb) == (key(a) < key(b))
                fits = not (code.exponent_fields(pb)
                            - code.exponent_fields(pa)) & code.guard
                assert fits == mono_divides(a, b)

    @pytest.mark.parametrize("order", ORDERS, ids=map(repr, ORDERS))
    def test_comparison_unpacking_and_divisibility(self, order):
        rng = random.Random(repr(order))
        code = _Encoding(order, self.RING, 3)
        exps = []
        while len(exps) < 40:
            e = tuple(rng.randint(0, rng.choice((1, 3, 7)))
                      for _ in self.RING.variables)
            if code.top(e) <= code.limit:
                exps.append(e)
        self.check(code, exps)

    @pytest.mark.parametrize("order", ORDERS, ids=map(repr, ORDERS))
    def test_an_exponent_past_a_field_widens(self, order):
        reducer = groebner._Reducer(order, self.RING)
        width = reducer.code.width
        e = (1, 2, 1 << width, 3, 0)
        packed = reducer.encode({e: 1, (0,) * 5: -1})
        assert reducer.code.width > width
        assert reducer.decode(packed) == {e: 1, (0,) * 5: -1}
        rng = random.Random(7)
        self.check(reducer.code, [e] + [
            tuple(rng.randint(0, 1 << width) for _ in range(5))
            for _ in range(30)])

    @pytest.mark.parametrize("kind", ["lex", "degrevlex"])
    def test_single_block_fields(self, kind):
        """A one-block order packs as it always has: lex puts e_pj in field
        n-1-j; degrevlex sums e_p0..e_pk in field k."""
        ring = PolyRing(("a", "b", "c", "d"))
        order = TermOrder(kind, ("c", "a", "d", "b"))
        code = _Encoding(order, ring, 5)
        step, perm = 6, [2, 0, 3, 1]
        assert code.limit == 31
        for e in [(0, 0, 0, 0), (3, 0, 7, 1), (2, 5, 1, 4)]:
            assert code.top(e) == (max(e) if kind == "lex" else sum(e))
        for j, i in enumerate(perm):
            if kind == "lex":
                assert code.shifts[i] == (3 - j) * step
                assert code.weights[i] == 1 << code.shifts[i]
            else:
                assert code.shifts[i] == j * step
                assert code.weights[i] == sum(1 << (k * step)
                                              for k in range(j, 4))

    def test_buchberger_closure(self):
        rng = random.Random(15)
        ring = PolyRing(("x", "y", "s"))
        order = TermOrder.degrevlex(("y", "x")).then(TermOrder.lex(("s",)))
        for _ in range(10):
            gens = [g for g in (_random_poly(rng, ring, 3, 2)
                                for _ in range(2)) if not g.is_zero()]
            G = gb_buchberger(gens, order)
            basis = list(G)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(basis[i], basis[j], order)
                    assert normal_form(s, G).is_zero()
            for g in gens:
                assert normal_form(g, G).is_zero()


class TestHandedKernel:
    """``gb_buchberger`` hands its packed rows to the basis it returns; that
    kernel divides exactly as one packed afresh from the generators."""

    # x - y^2 meets y - a^20 only in the final tail reductions, where y^2
    # becomes a^40, wider than a field, after z*b - 1 and y - a^20 were
    # handed over
    TAIL_WIDENING = (TestPackedMonomials.TEN, "lex", TestPackedMonomials.TEN,
                     ["x - y^2", "y*z - a^20*z", "z*b - 1"],
                     ["x^3*y + z", "y^40*b*z", "x*a^50 - y*b"])

    @pytest.mark.parametrize("names,kind,priority,gens,probes",
                             TestPackedMonomials.OVERFLOW_CASES
                             + [TAIL_WIDENING])
    def test_divides_as_a_basis_packed_from_its_generators(
            self, names, kind, priority, gens, probes):
        ring = PolyRing(names)
        gens = [ring.parse(g) for g in gens]
        G = gb_buchberger(gens, TermOrder(kind, priority))
        fresh = GroebnerBasis(list(G), G.order, True)
        assert G.leading_monomials() == fresh.leading_monomials()
        for p in gens + [ring.parse(p) for p in probes]:
            assert normal_form(p, G).terms == normal_form(p, fresh).terms

    def test_a_widening_tail_reduction_re_packs_the_rows_handed_over(
            self, monkeypatch):
        names, kind, priority, gens, probes = self.TAIL_WIDENING
        ring = PolyRing(names)
        widened = []
        widen = groebner._Reducer._widen

        def recording(self, row):
            widened.append((self, len(self.rows)))
            return widen(self, row)

        monkeypatch.setattr(groebner._Reducer, "_widen", recording)
        G = gb_buchberger([ring.parse(g) for g in gens],
                          TermOrder(kind, priority))
        assert any(r is G._reducer and n > 0 for r, n in widened)
        _assert_matches_sympy([ring.parse(g) for g in gens],
                              TermOrder(kind, priority),
                              [ring.parse(p) for p in probes])


class TestInputOrder:
    """The input enters Buchberger's algorithm in increasing lead order, so
    the reduced basis, term for term, does not depend on the order of the
    generators, and the codim-4 singular locus keeps small coefficients."""

    @staticmethod
    def _one_basis_for_every_order(gens, order):
        first = [g.terms for g in gb_buchberger(gens, order)]
        for perm in itertools.permutations(gens):
            assert [g.terms for g in gb_buchberger(list(perm), order)] == first

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["lex", "degrevlex"])
    def test_random_ideals(self, seed, kind):
        rng = random.Random(seed)
        ring = PolyRing(("x", "y", "z"))
        gens = [g for g in (_random_rational_poly(rng, ring)
                            for _ in range(4)) if g]
        self._one_basis_for_every_order(
            gens, TermOrder(kind, rng.sample(ring.variables, 3)))

    @pytest.mark.parametrize("names,kind,priority,gens,probes",
                             TestPackedMonomials.OVERFLOW_CASES)
    def test_overflow_ideals(self, names, kind, priority, gens, probes):
        ring = PolyRing(names)
        self._one_basis_for_every_order([ring.parse(g) for g in gens],
                                        TermOrder(kind, priority))

    def test_a_widening_reduce_re_encodes_the_pending_input(self,
                                                            monkeypatch):
        names, kind, priority, gens, _ = TestPackedMonomials.OVERFLOW_CASES[-1]
        ring = PolyRing(names)
        widened = []
        reduce = groebner._Reducer.reduce

        def recording(self, row):
            code = self.code
            result = reduce(self, row)
            widened.append(self.code is not code)
            return result

        monkeypatch.setattr(groebner._Reducer, "reduce", recording)
        gb_buchberger([ring.parse(g) for g in gens], TermOrder(kind, priority))
        # the first reductions are the inputs'; one of them widens while
        # a later input is still pending
        assert any(widened[:len(gens) - 1])

    def test_codim4_singular_locus_coefficients_stay_small(self, monkeypatch):
        job = (pathlib.Path(wcontact.__file__).parent / "data" / "codim4.job")
        ctx = parse_job(job.read_text())
        for name, op, args in ctx.tasks:
            if name in ("equations", "singular_locus"):
                ctx.task_results[name] = run_task(ctx, name, op, args)
        gens = ctx.task_results["singular_locus"]["_polys"]
        assert len(gens) == 17
        bits = []
        reduce = groebner._Reducer.reduce

        def recording(self, row):
            rem, mult = reduce(self, row)
            bits.append(max(abs(c).bit_length()
                            for c in (mult, *rem.values())))
            return rem, mult

        monkeypatch.setattr(groebner._Reducer, "reduce", recording)
        G = gb_buchberger(gens, TermOrder.degrevlex(gens[0].ring.variables))
        assert len(G) == 32
        # with the input in caller order the largest was 5,700 bits
        assert max(bits) <= 256
