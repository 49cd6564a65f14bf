"""Truncated series, Weierstrass preparation, certified colengths and the
classical singularity invariants."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

import wcontact
from wcontact.errors import (CertificationFailed, ContactOrderMismatch,
                             InconsistentBranchCount, InfiniteColength,
                             NotAUnit, NotIsolated, UnknownVariable,
                             Unsupported, UsageError)
from wcontact.poly import Poly, PolyRing
from wcontact.series import (LocalIdeal, TruncatedSeries,
                             delta_invariant, local_colength, milnor_number,
                             series_invert, tjurina_number, truncate_poly,
                             truncated_product, weierstrass_prepare_x)

R = PolyRing(("x", "y"))
x, y = R.var("x"), R.var("y")
SRC_DIR = Path(wcontact.__file__).resolve().parents[1]


class TestInversion:
    def test_geometric_series(self):
        u = TruncatedSeries(1 + x, 3, ("x", "y"))
        inv = series_invert(u)
        assert inv.body == 1 - x + x**2 - x**3

    def test_parameter_unit(self):
        ring = PolyRing(("s", "t"))
        u = TruncatedSeries(ring.parse("1+s+t"), 2, ("s", "t"))
        inv = series_invert(u)
        assert inv.body == ring.parse("1-(s+t)+(s+t)^2")

    def test_constant(self):
        inv = series_invert(TruncatedSeries(R.const(2), 5, ("x", "y")))
        assert inv.body == R.const(Fraction(1, 2))

    def test_product_is_one(self):
        rng = random.Random(3)
        for _ in range(20):
            body = R.const(rng.choice([1, 2, -1, Fraction(1, 3)]))
            for _ in range(rng.randint(0, 4)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                if e != (0, 0):
                    body = body + Poly(R, {e: Fraction(rng.randint(-3, 3))})
            u = TruncatedSeries(body, 6, ("x", "y"))
            prod = u * series_invert(u)
            assert prod.body == R.one()

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            series_invert(TruncatedSeries(x, 4, ("x", "y")))


def _random_poly(rng, ring, nterms, max_exp=4, const=None):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_exp) for _ in ring.variables)
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if const is not None:
        terms[(0,) * ring.nvars] = Fraction(const)
    return Poly(ring, {e: c for e, c in terms.items() if c})


def _certify_doubling_from_12(I):
    """Certify I at the orders min(12, cap), then doubling up to the cap:
    the schedule of ``LocalIdeal.certify`` before it started at 4."""
    N = min(12, I.cap)
    while not I._try_certify(N):
        if N == I.cap:
            raise CertificationFailed(f"not certified at order {N}")
        N = min(2 * N, I.cap)
    I.truncation = N


def _geometric_inverse(u):
    """1/u = (1/c)(1 - v + v^2 - ...) with v = (u - c)/c, from the full
    products truncated afterwards."""
    ring = u.body.ring
    c = u.body.constant_term()
    v = truncate_poly((u.body - c) * (Fraction(1) / c), u.small, u.order)
    acc, power = ring.one(), ring.one()
    for i in range(1, u.order + 1):
        power = truncate_poly(power * v, u.small, u.order)
        acc = acc + power if i % 2 == 0 else acc - power
    return acc * (Fraction(1) / c)


VARIABLE_SETS = [("x", "y"), ("x", "y", "s"), ("x", "y", "s", "t")]


class TestTruncatedProduct:
    @pytest.mark.parametrize("names", VARIABLE_SETS)
    def test_equals_truncated_full_product(self, names):
        rng = random.Random(len(names))
        ring = PolyRing(names)
        for _ in range(40):
            a = _random_poly(rng, ring, rng.randint(0, 8))
            b = _random_poly(rng, ring, rng.randint(0, 8))
            # every nonempty prefix: the rest of the variables stay exact
            small = names[:rng.randint(1, len(names))]
            N = rng.randint(0, 9)
            assert truncated_product(a, b, small, N) == \
                truncate_poly(a * b, small, N)
        gens = [ring.var(v) for v in names]
        cases = [
            (ring.zero(), _random_poly(rng, ring, 5)),  # a zero operand
            (_random_poly(rng, ring, 5), ring.zero()),
            # (u + v)(u - v) and (1 + u)(1 - u + u^2): the cross terms cancel
            (gens[0] + gens[-1], gens[0] - gens[-1]),
            (1 + gens[0], 1 - gens[0] + gens[0] ** 2),
            # coprime denominators on both sides
            (Fraction(1, 3) * gens[0] + Fraction(2, 7),
             Fraction(5, 11) * gens[-1] - Fraction(1, 13) * gens[0] ** 2),
        ]
        for a, b in cases:
            for N in range(5):
                got = truncated_product(a, b, names, N)
                assert got == truncate_poly(a * b, names, N)
                assert all(type(c) is Fraction for c in got.terms.values())

    def test_series_product_uses_the_smaller_order(self):
        u = TruncatedSeries(1 + x + y, 5, ("x", "y"))
        v = TruncatedSeries(1 - x * y, 2, ("x", "y"))
        prod = u * v
        assert prod.order == 2
        assert prod.body == truncate_poly((1 + x + y) * (1 - x * y),
                                          ("x", "y"), 2)

    def test_ring_mismatch(self):
        with pytest.raises(UsageError):
            truncated_product(x, PolyRing(("s",)).var("s"), ("x",), 3)

    def test_truncated_variable_sets_differ(self):
        with pytest.raises(UsageError):
            TruncatedSeries(1 + x, 3, ("x", "y")) * TruncatedSeries(1 + x, 3,
                                                                    ("x",))


class TestNewtonInverse:
    @pytest.mark.parametrize("names", VARIABLE_SETS)
    def test_matches_geometric_series(self, names):
        rng = random.Random(100 + len(names))
        ring = PolyRing(names)
        for _ in range(15):
            c = rng.choice([1, -2, Fraction(3, 5)])
            small = names[:rng.randint(1, len(names))]
            body = _random_poly(rng, ring, rng.randint(0, 6), 3, const=0)
            # terms free of the truncated variables would not be a unit
            body = Poly(ring, {e: k for e, k in body.terms.items()
                               if any(e[ring.index(v)] for v in small)}) + c
            N = rng.randint(0, 8)
            u = TruncatedSeries(body, N, small)
            inv = series_invert(u)
            assert inv.order == N
            assert inv.body == _geometric_inverse(u)
            assert (u * inv).body == ring.one()

    def test_vanishing_constant_term(self):
        with pytest.raises(NotAUnit, match="constant term vanishes"):
            series_invert(TruncatedSeries(x + y**2, 5, ("x", "y")))

    def test_non_constant_constant_part(self):
        ring = PolyRing(("x", "y", "s"))
        u = TruncatedSeries(ring.parse("1 + s + x"), 4, ("x", "y"))
        with pytest.raises(NotAUnit, match="non-truncated"):
            series_invert(u)


class TestReflectedOperators:
    def test_radd(self):
        s = TruncatedSeries(x + y**3, 2, ("x", "y"))
        got = 2 + s
        assert isinstance(got, TruncatedSeries)
        assert got.body == 2 + x
        assert got == s + 2

    def test_rsub(self):
        s = TruncatedSeries(x + y**3, 2, ("x", "y"))
        got = 2 - s
        assert isinstance(got, TruncatedSeries)
        assert got.order == 2
        assert got.body == 2 - x
        assert got == -(s - 2)


class TestWeierstrass:
    def test_already_distinguished(self):
        u, P = weierstrass_prepare_x(y**2 + x**4, 4, 10, small=("y",))
        assert P == y**2 + x**4
        assert u.body == R.one()

    def test_unit_times_quadric(self):
        E = (1 + x) * (x**2 + x * y)
        u, P = weierstrass_prepare_x(E, 2, 10, small=("y",))
        # verify the product congruence, not the factors
        diff = u.body * P - E
        assert truncate_poly(diff, ("x", "y"), 10).is_zero()
        assert max(e[R.index("x")] for e in P.terms) == 2

    def test_wrong_contact_order(self):
        with pytest.raises(ContactOrderMismatch):
            weierstrass_prepare_x(y**2 + x**4, 3, 8, small=("y",))

    def test_x_among_the_complement_variables(self):
        with pytest.raises(UsageError):
            weierstrass_prepare_x(y**2 + x**4, 4, 8, small=("x", "y"))

    def test_random_families_product_congruence(self):
        rng = random.Random(42)
        ring = PolyRing(("x", "y", "s"))
        xs, ys, s = ring.var("x"), ring.var("y"), ring.var("s")
        N = 12
        for _ in range(100):
            w = rng.randint(2, 5)
            E = xs**w
            # unit in x times x^w, plus y- and parameter-divisible noise
            for _ in range(rng.randint(1, 4)):
                c = rng.randint(-3, 3)
                if not c:
                    continue
                choice = rng.randint(0, 2)
                if choice == 0:
                    E = E + xs ** (w + rng.randint(1, 3)) * c
                elif choice == 1:
                    E = E + ys * xs ** rng.randint(0, 3) \
                        * ys ** rng.randint(0, 2) * c
                else:
                    E = E + s * xs ** (w + rng.randint(0, 2)) * c
            u, P = weierstrass_prepare_x(E, w, N, small=("y", "s"))
            diff = u.body * P - E
            assert truncate_poly(diff, ("x", "y", "s"), N).is_zero()
            # P - x^w has x-degree below w and no constant-in-(y,s) part
            tail = P - xs**w
            xi, yi, si = ring.index("x"), ring.index("y"), ring.index("s")
            assert all(e[xi] < w for e in tail.terms)
            assert all(e[yi] or e[si] for e in tail.terms)

    def test_unit_defect_in_a_parameter_is_not_a_unit(self):
        """A defect with a t-only term never squares to zero, so the carried
        inverse is not Newton-updated; u is inverted afresh and that raises.
        Run in a subprocess, so that a loop that never ends fails the test
        at its timeout instead of hanging the suite."""
        script = (
            "from wcontact.errors import NotAUnit\n"
            "from wcontact.poly import PolyRing\n"
            "from wcontact.series import weierstrass_prepare_x\n"
            "R = PolyRing(('x', 'y', 't'))\n"
            "try:\n"
            "    weierstrass_prepare_x(R.parse('x^2 + t*x^3 + t*x + y'), 2, 6,\n"
            "                          small=('y',))\n"
            "except NotAUnit:\n"
            "    print('NotAUnit')\n")
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "NotAUnit\n"

    def test_carried_inverse_matches_fresh_inverses(self):
        """u and P equal, term for term, those of the loop that inverts u
        afresh on every pass, and both raise alike; t is a parameter that is
        not truncated."""
        rng = random.Random(13)
        rings = [PolyRing(("x", "y", "s")), PolyRing(("x", "y", "s", "t"))]
        prepared = raised = 0
        for k in range(160):
            ring = rings[k % 2]
            w, N = rng.randint(2, 5), rng.randint(8, 14)
            E = _random_weierstrass_input(rng, ring, w)
            try:
                want = _prepare_by_fresh_inverses(E, w, N, ("y", "s"))
            except NotAUnit:
                with pytest.raises(NotAUnit):
                    weierstrass_prepare_x(E, w, N, small=("y", "s"))
                raised += 1
                continue
            u, P = weierstrass_prepare_x(E, w, N, small=("y", "s"))
            assert (u.body.terms, u.order, u.small) == \
                (want[0].body.terms, want[0].order, want[0].small)
            assert P.terms == want[1].terms
            prepared += 1
        assert prepared >= 150 and raised >= 1


def _random_weierstrass_input(rng, ring, w):
    """A unit multiple of x^w plus terms of higher x-order or divisible by y
    or s, some of them multiplied by a parameter t; rarely also
    t * (x^(w-1) + x^(w+1)), whose defect keeps a t-only term."""
    xs = ring.var("x")
    E = xs**w * Fraction(rng.choice([1, -2, 3]), rng.randint(1, 2))
    for _ in range(rng.randint(2, 5)):
        e = [rng.randint(0, w + 2)] + [rng.randint(0, 2) for _ in
                                       ring.variables[1:]]
        if rng.random() < 0.7:
            e[rng.randint(1, 2)] += 1
        elif e[0] <= w:
            e[0] = w + 1
        if len(e) == 4:
            e[3] = rng.randint(0, 1)
        E = E + Poly(ring, {tuple(e): Fraction(rng.randint(1, 3),
                                               rng.choice([1, 2, -1]))})
    if len(ring.variables) == 4 and rng.random() < 0.1:
        E = E + ring.var("t") * (xs ** (w - 1) + xs ** (w + 1))
    return E


def _prepare_by_fresh_inverses(E, w, N, small):
    """Weierstrass preparation along x with u inverted from scratch on every
    pass: returns (u, P)."""
    ring = E.ring
    xi = ring.index("x")
    trunc = ("x",) + tuple(small)
    xw = ring.var("x") ** w

    def split(p):
        r = {e: c for e, c in p.terms.items() if e[xi] < w}
        q = {e[:xi] + (e[xi] - w,) + e[xi + 1:]: c
             for e, c in p.terms.items() if e[xi] >= w}
        return Poly(ring, r), Poly(ring, q)

    Ets = TruncatedSeries(E, N, trunc)
    u = TruncatedSeries(split(Ets.body)[1], N, trunc)
    for _ in range(N + 2):
        r, q = split((series_invert(u) * Ets).body)
        defect = TruncatedSeries(q, N, trunc) - 1
        if defect.is_zero():
            return u, r + xw
        u = u * (defect + 1)
    raise CertificationFailed("no fixed point")


class TestColength:
    def test_examples(self):
        assert local_colength([y, x**2], ("x", "y")) == 2
        assert local_colength([x, y], ("x", "y")) == 1
        assert local_colength([y - x**2, x**3], ("x", "y")) == 3

    def test_quotient_basis(self):
        I = LocalIdeal([y - x**2, x**3], ("x", "y")).certify()
        basis = {I.ring.monomial(b) for b in I.quotient_basis}
        assert {str(b) for b in basis} == {"1", "x", "x^2"}

    def test_non_monomial_leads(self):
        # unit multiple does not change the local ring
        assert local_colength([(1 + x) * y, x**2 + x**5], ("x", "y")) == 2

    def test_infinite_colength_fails_certification(self):
        # a finite colength of <y> would be at most 1^2, so order 1 decides
        I = LocalIdeal([y], ("x", "y"))
        with pytest.raises(InfiniteColength):
            I.certify()
        assert I.cap == 1
        # the Tjurina ideal of x*y*s: 37 > 3^3 independent monomials at
        # order 12, the first order that decides (4 and 8 leave 13 and 25),
        # so cap records 12
        ring = PolyRing(("x", "y", "s"))
        F = ring.parse("x*y*s")
        I = LocalIdeal([F] + [F.partial(v) for v in ring.variables])
        with pytest.raises(InfiniteColength, match="order 12, 37 "):
            I.certify()
        assert I.cap == 12

    def test_as_many_independent_monomials_as_the_bound_is_no_proof(self):
        # <x^7, y^7> attains the Bezout bound 49: at order 12 no degree is
        # fully pivoted yet and all 49 standard monomials are independent,
        # which a finite colength allows; order 24 certifies
        I = LocalIdeal([x**7, y**7], ("x", "y")).certify()
        assert (I.colength, I.truncation) == (49, 24)

    def test_past_the_truncation_cap_is_no_verdict(self):
        # A_49: mu = 49 needs order 49, and the Bezout bound 49^2 is past
        # the cap of 48, so certification stops without a verdict
        with pytest.raises(CertificationFailed):
            milnor_number(y**2 + x**50)

    def test_certified_colength_within_the_bezout_bound(self):
        """Every verdict on a seeded random ideal agrees with the dense
        oracle at the Bezout bound N = d^2: a finite colength equals the
        oracle's, and an infinite one shows up as a longer quotient at N + 1
        than at N, which a colength of at most N would not allow.  An
        infinite verdict lands at an order no later than d^2, where the
        oracle also finds more than d^2 independent monomials."""
        rng = random.Random(9)
        verdicts = {"finite": 0, "infinite": 0}
        for _ in range(40):
            gens = [_random_poly(rng, R, rng.randint(1, 3), 2, const=0)
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            bound = max(g.total_degree() for g in gens) ** 2
            I = LocalIdeal(gens, ("x", "y"))
            try:
                I.certify()
            except InfiniteColength:
                assert I.cap <= bound
                assert _dense_colength_oracle(gens, I.cap + 1) > bound
                assert _dense_colength_oracle(gens, bound + 1) > \
                    _dense_colength_oracle(gens, bound)
                verdicts["infinite"] += 1
                continue
            assert I.colength <= bound
            assert I.colength == _dense_colength_oracle(gens, bound)
            verdicts["finite"] += 1
        assert min(verdicts.values()) >= 5

    def test_unit_invariance(self):
        rng = random.Random(8)
        gens = [y**2 - x**3, x**2 * y]
        base = local_colength(gens, ("x", "y"))
        for _ in range(20):
            u = R.one()
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                if e != (0, 0):
                    u = u + Poly(R, {e: Fraction(rng.randint(-2, 2))})
            i = rng.randrange(len(gens))
            mod = list(gens)
            mod[i] = u * mod[i]
            assert local_colength(mod, ("x", "y")) == base

    def test_certifies_at_the_first_order_that_proves_it(self):
        # m^2 lies in <y, x^2>, so order 4 already certifies
        assert LocalIdeal([y, x**2], ("x", "y")).certify().truncation == 4

    @pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
    def test_results_do_not_depend_on_the_certifying_order(self, names):
        """On seeded random ideals, the colength, quotient basis, power
        degree and reduction map equal those certified by doubling the
        order from 12 up to the cap, and so does every refusal's type."""
        rng = random.Random(29)
        ring = PolyRing(names)
        # total degree at most 4 in two variables and 2 in three: caps of
        # 16 and 8, so the old schedule tries 12 and 16, or 8
        degree = 4 if len(names) == 2 else 2
        monomials = [e for e in itertools.product(range(degree + 1),
                                                  repeat=len(names))
                     if 0 < sum(e) <= degree]
        earlier = 0  # certified below the old schedule's order
        for _ in range(60):
            gens = [Poly(ring, {e: Fraction(rng.choice((-3, -1, 1, 2)),
                                            rng.randint(1, 2))
                                for e in rng.sample(monomials, 3)})
                    for _ in range(rng.randint(len(names), len(names) + 1))]
            I, old = LocalIdeal(gens, names), LocalIdeal(gens, names)
            try:
                I.certify()
            except (CertificationFailed, InfiniteColength) as exc:
                with pytest.raises(type(exc)):
                    _certify_doubling_from_12(old)
                continue
            _certify_doubling_from_12(old)
            assert I.truncation <= old.truncation
            earlier += I.truncation < old.truncation
            assert I.colength == old.colength
            assert I.quotient_basis == old.quotient_basis
            assert I.min_series_order() == old.min_series_order()
            for _ in range(5):
                p = _random_poly(rng, ring, rng.randint(1, 6), degree)
                assert I.reduce(p) == old.reduce(p)
        assert earlier >= 20

    def test_reduce_and_contains(self):
        I = LocalIdeal([y, x**2], ("x", "y")).certify()
        assert I.contains(y**2 + x**4)
        assert not I.contains(x)
        assert _reduced_poly(I, x**2 + x + 3) == x + 3

    def test_reduce_leaves_no_pivot_in_a_tail(self):
        # x^2 = (y^3 + x^2 + 2y^2) - (2 + y) * y^2 lies in I
        I = LocalIdeal([-x**3 * y**2 + x**2 * y**3, y**2 / 2,
                        y**3 + x**2 + 2 * y**2], ("x", "y")).certify()
        assert I.colength == 4
        assert I.contains(x**2)
        assert I.reduce(x**2) == {}

    def test_reduce_lands_in_the_quotient_basis(self):
        rng = random.Random(400)
        certified = 0
        for _ in range(150):
            gens = [_random_poly(rng, R, rng.randint(1, 3), 3, const=0)
                    for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            try:
                I = LocalIdeal(gens, ("x", "y")).certify()
            except (CertificationFailed, InfiniteColength):
                continue
            certified += 1
            basis = set(I.quotient_basis)
            for _ in range(5):
                p = _random_poly(rng, R, rng.randint(1, 5))
                red = I.reduce(p)
                assert set(red) <= basis
                assert I.reduce(_reduced_poly(I, p)) == red
        assert certified >= 20

    def test_against_dense_oracle(self):
        cases = [
            [y, x**2],
            [y - x**2, x**3],
            [y**2 - x**3, x * y],
            [(1 + y) * (y + x**3), x**4],
        ]
        for gens in cases:
            got = local_colength(gens, ("x", "y"))
            assert got == _dense_colength_oracle(gens)


class TestSeriesRing:
    """A local ideal works in its series ring: it reads generators and
    arguments from any ring by variable name."""

    XYS = PolyRing(("x", "y", "s"))
    YX = PolyRing(("y", "x"))

    def test_ring_is_the_series_ring(self):
        I = LocalIdeal([self.XYS.parse("y - x^2"), self.XYS.parse("x^3")],
                       ("x", "y")).certify()
        assert I.ring == R
        assert I.quotient_basis == [(0, 0), (1, 0), (2, 0)]
        assert I.reduce(self.XYS.parse("y + x^4")) == {(2, 0): 1}

    def test_arguments_from_a_reordered_ring(self):
        I = LocalIdeal([y - x**2, x**3], ("x", "y")).certify()
        for text in ("y", "x*y + 3", "y^2 + x - 1/2"):
            assert I.reduce(self.YX.parse(text)) == I.reduce(R.parse(text))

    def test_generators_from_several_rings(self):
        I = LocalIdeal([self.YX.parse("y - x^2"), self.XYS.parse("x^3")],
                       ("x", "y")).certify()
        J = LocalIdeal([y - x**2, x**3], ("x", "y")).certify()
        assert (I.colength, I.quotient_basis) == (3, J.quotient_basis)
        assert I.reduce(y**2 + x) == J.reduce(y**2 + x)

    def test_a_parameter_term_is_an_unknown_variable(self):
        I = LocalIdeal([self.XYS.parse("y"), self.XYS.parse("x^2")],
                       ("x", "y"))
        with pytest.raises(UnknownVariable, match="'s'"):
            I.reduce(self.XYS.parse("s*x"))
        # a parameter with exponent zero is no term of it
        assert I.reduce(self.XYS.parse("x + 2")) == {(1, 0): 1, (0, 0): 2}

    def test_a_series_variable_no_generator_ring_has(self):
        X = PolyRing(("x",))
        assert local_colength([X.parse("x"), self.YX.parse("y^2")],
                              ("x", "y")) == 2
        with pytest.raises(InfiniteColength):
            LocalIdeal([X.parse("x")], ("x", "y")).certify()

    def test_a_non_series_generator_is_unsupported(self):
        with pytest.raises(Unsupported):
            LocalIdeal([self.XYS.parse("y - s"), self.XYS.parse("x^2")],
                       ("x", "y"))


def _reduced_poly(I, p):
    """The class of p in O/I as a polynomial of the series ring."""
    return Poly(I.ring, I.reduce(p))


def _dense_colength_oracle(gens, N=10):
    """Independent colength: rank of the span of truncated monomial multiples
    inside the space of monomials of degree < N, via sympy over QQ."""
    monos = [(i, j) for i in range(N) for j in range(N) if i + j < N]
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for g in gens:
        for a, b in monos:
            row = [QQ(0)] * len(monos)
            nonzero = False
            for e, c in g.terms.items():
                m = (e[0] + a, e[1] + b)
                if sum(m) < N:
                    row[index[m]] += QQ(c.numerator, c.denominator)
                    nonzero = True
            if nonzero:
                rows.append(row)
    rank = DomainMatrix(rows, (len(rows), len(monos)), QQ).rank()
    return len(monos) - rank


class TestInvariants:
    def test_milnor(self):
        assert milnor_number(y**2 + x**4) == 3
        assert milnor_number(y**2 + x**2) == 1
        assert milnor_number(y**2 + x**3) == 2

    def test_milnor_not_isolated(self):
        with pytest.raises(NotIsolated):
            milnor_number(y**2)

    def test_tjurina_not_isolated_at_the_bezout_bound(self):
        # <xys, ys, xs, xy> has degree 3 in 3 variables, so a finite
        # colength is at most 3^3 = 27; at order 12 the 1 + 3 * 12 = 37 pure
        # powers are already independent modulo it, which decides
        ring = PolyRing(("x", "y", "s"))
        with pytest.raises(NotIsolated, match="order 12,"):
            tjurina_number(ring.parse("x*y*s"), ring.variables)

    def test_tjurina_surface(self):
        ring = PolyRing(("x", "y", "z"))
        for w in (2, 3, 4, 5):
            F = ring.var("y") * ring.var("z") + ring.var("x") ** w
            assert tjurina_number(F, ("x", "y", "z")) == w - 1

    def test_tjurina_total_space(self):
        ring = PolyRing(("x", "y", "s"))
        xs, ys, s = ring.var("x"), ring.var("y"), ring.var("s")
        for w in (2, 3, 4, 5):
            F = ys**2 + xs**w + s * ys + s * xs**w
            assert tjurina_number(F, ("x", "y", "s")) == w - 1

    def test_tjurina_odp(self):
        ring = PolyRing(("x", "y", "z"))
        F = ring.parse("x^2+y^2+z^2")
        assert tjurina_number(F, ("x", "y", "z")) == 1

    def test_delta(self):
        assert delta_invariant(y**2 + x**4, 2) == 2
        assert delta_invariant(y**2 + x**2, 2) == 1
        assert delta_invariant(y**2 + x**3, 1) == 1

    def test_delta_inconsistent_branches(self):
        with pytest.raises(InconsistentBranchCount):
            delta_invariant(y**2 + x**4, 1)
