"""Acceptance gate: the headline computations with explicit runtime budgets.

Each test is self-contained and states its budget; together they certify the
central workflow from chart equations through the surface lift and the
geometry of the relative Hilbert scheme chart.
"""

import random
import time
from fractions import Fraction

import pytest

from wcontact.charts import (GroebnerStratumChart, lift_chart_equivalence,
                             relative_hilb_equations,
                             verify_membership_equivalence)
from wcontact.families import (ContactFamily, StrataPreservingChange,
                               apply_change, multiply_unit)
from wcontact.geometry import (AffineScheme, singular_locus_ideal,
                               variety_equal)
from wcontact.groebner import gb_buchberger, normal_form, standard_monomials
from wcontact.nondegeneracy import check_condition_star, phi_map
from wcontact.errors import NotIsolated
from wcontact.poly import Poly, PolyRing, TermOrder
from wcontact.series import (LocalIdeal, delta_invariant, local_colength,
                             milnor_number, tjurina_number)
from test_groebner import s_polynomial

RST = PolyRing(("x", "y", "s", "t"))
GEO = PolyRing(("x", "y"))
LEX_YX = TermOrder.parse("lex y>x")

GOLDEN_EQUATIONS = [
    "s*m^3 + t*m^3 + s*k*m + k^2*m + m^3 + 2*s*m*n + 2*t*m*n"
    " + t*k + s*l + 2*k*l + 2*m*n",
    "s*m^2*n + t*m^2*n + s*k*n + k^2*n + m^2*n + s*n^2 + t*n^2"
    " + t*l + l^2 + n^2",
]

H_VARS = ("s", "t", "k", "l", "m", "n")
H_RING = PolyRing(H_VARS)
SING_GENS = [H_RING.parse(g)
             for g in ("t", "l", "n", "s*m^2 + s*k + k^2 + m^2")]


def fam_st():
    return ContactFamily.contact(
        RST.parse("(y^2+x^4)+s*x*(y+x^3)+t*(y+x^4)"), ("s", "t"))


def chart_yx2():
    return GroebnerStratumChart([GEO.parse("y"), GEO.parse("x^2")], LEX_YX)


def up_to_scalar(a, b):
    if set(a.terms) != set(b.terms):
        return False
    return len({b.terms[e] / a.terms[e] for e in a.terms}) == 1


def test_1_golden_chart_equations():
    """The two defining equations of the relative chart, up to scalar."""
    t0 = time.monotonic()
    rel = relative_hilb_equations(fam_st(), chart_yx2())
    ring = rel.ring
    targets = [ring.parse(q) for q in GOLDEN_EQUATIONS]
    assert len(rel.all_equations()) == 2
    for q in rel.all_equations():
        assert any(up_to_scalar(q, tgt) for tgt in targets)
    assert time.monotonic() - t0 < 1.0


def test_2_singular_locus_of_chart():
    """Sing of the chart equals V(t, l, n, s*m^2 + s*k + k^2 + m^2)."""
    t0 = time.monotonic()
    rel = relative_hilb_equations(fam_st(), chart_yx2())
    eqs = [q.map_to(H_RING) for q in rel.all_equations()]
    S = AffineScheme(H_VARS, eqs, expected_codim=2)
    sing = singular_locus_ideal(S)
    assert variety_equal(sing, SING_GENS)
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("dropped", ["n", "t"])
def test_2_singular_locus_is_not_a_larger_variety(dropped):
    """Without one of its generators the expected locus is larger, and
    saying so is as fast as confirming the match."""
    rel = relative_hilb_equations(fam_st(), chart_yx2())
    eqs = [q.map_to(H_RING) for q in rel.all_equations()]
    sing = singular_locus_ideal(AffineScheme(H_VARS, eqs, expected_codim=2))
    larger = [g for g in SING_GENS if str(g) != dropped]
    assert len(larger) == 3
    t0 = time.monotonic()
    assert not variety_equal(sing, larger)
    assert time.monotonic() - t0 < 1.0


def test_3_lift_chart_equivalence():
    """Chart equations of the family agree with the pulled-back chart
    equations of the surface y*z + x^4: term-by-term after clearing the
    unit denominator, and as ideals in the localization at the unit."""
    t0 = time.monotonic()
    report = lift_chart_equivalence(fam_st(), chart_yx2())
    assert report.termwise_equal
    assert report.localized_ideal_equal
    assert report.ok
    assert time.monotonic() - t0 < 30.0


def test_4_condition_star():
    """Condition (*) for the codimension-4 family on <y, x^2>."""
    report = check_condition_star(
        [(fam_st(), LocalIdeal([RST.parse("y"), RST.parse("x^2")],
                               variables=("x", "y")))])
    assert report.surjective
    assert report.rank == 2
    assert report.target_dimension == 2
    assert report.relative_dimension == 0


def _sample_families():
    """Contact families for w = 2..5 plus interior families."""
    out = []
    for w in (2, 3, 4, 5):
        E = RST.parse(f"(y^2+x^{w}) + s*x*(y+x^{max(w - 1, 1)})"
                      f" + t*(y+x^{w})")
        out.append(ContactFamily.contact(E, ("s", "t"), expected_w=w))
    out.append(ContactFamily.interior(
        RST.parse("y^2 + x^3 + s*y + t*x^2"), ("s", "t")))
    out.append(ContactFamily.interior(
        RST.parse("x*y + s*x^3 + t*y^2"), ("s", "t")))
    return out


def test_5_membership_correspondence_sampling():
    """Over 100 random specializations across at least five families of
    both kinds and ideals of colength at most three: curve membership of E
    is equivalent to surface membership of the lifted equation, and
    eliminating z recovers the curve-side ideal."""
    ideals = [
        [GEO.parse("y"), GEO.parse("x^2")],
        [GEO.parse("x"), GEO.parse("y")],
        [GEO.parse("y - x^2"), GEO.parse("x^3")],
    ]
    total = 0
    families = _sample_families()
    assert len(families) >= 5
    for fi, F in enumerate(families):
        gens = ideals[fi % len(ideals)]
        report = verify_membership_equivalence(
            F, gens, samples=18, seed=1000 + fi)
        assert report.counterexamples == []
        assert all(s.elimination_ok for s in report.samples)
        total += len(report.samples)
    assert total >= 100


def test_6_invariance_under_units_and_changes():
    """Phi rank and condition (*) are invariant under 50 random unit
    rescalings of the equation and 25 random strata-preserving coordinate
    changes."""
    rng = random.Random(424242)
    F = fam_st()
    I = LocalIdeal([RST.parse("y"), RST.parse("x^2")], variables=("x", "y"))
    base = phi_map(F, I)
    for _ in range(50):
        h = RST.zero()
        for _ in range(rng.randint(0, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 1), 0, 0)
            h = h + Poly(RST, {e: Fraction(rng.randint(-3, 3))})
        c = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
        u = (RST.one() + RST.var("y") * h) * c
        moved = phi_map(multiply_unit(F, u), I)
        assert moved.rank == base.rank
        assert moved.surjective == base.surjective

    for _ in range(25):
        a = rng.choice([1, 2, -1, Fraction(1, 2), Fraction(-2, 3)])
        b = rng.choice([1, -1, 2, Fraction(3, 2)])
        xim = RST.var("x") * a + RST.var("y") * rng.randint(-2, 2) \
            + RST.var("x") ** 2 * rng.randint(-1, 1)
        yim = RST.var("y") * b \
            + RST.var("x") * RST.var("y") * rng.randint(-2, 2)
        phi = StrataPreservingChange(xim, yim)
        G = apply_change(F, phi, truncation=14)
        I2 = LocalIdeal([g.subs({"x": xim, "y": yim}).map_to(RST)
                         for g in I.generators], variables=("x", "y"))
        report = check_condition_star([(G, I2)])
        assert report.surjective
        assert report.relative_dimension == 0


def test_7_a_w_minus_1_tjurina():
    """Total spaces y^2 + x^w + s*(y + x^w) have Tjurina number w - 1."""
    t0 = time.monotonic()
    ring = PolyRing(("x", "y", "s"))
    for w in (2, 3, 4, 5):
        F = ring.parse(f"y^2 + x^{w} + s*(y + x^{w})")
        assert tjurina_number(F, ("x", "y", "s")) == w - 1
    assert time.monotonic() - t0 < 10.0


def test_8_classical_invariants():
    """Tacnode Milnor and delta numbers; Tjurina of the A_3 surface."""
    tacnode = GEO.parse("y^2 + x^4")
    assert milnor_number(tacnode) == 3
    assert delta_invariant(tacnode, 2) == 2
    surface = PolyRing(("x", "y", "z")).parse("y*z + x^4")
    assert tjurina_number(surface, ("x", "y", "z")) == 3


def test_9_engine_soundness():
    """Random-input soundness of the two exact engines within five minutes:
    Buchberger bases are closed under S-polynomial reduction and contain
    their input, and certified colengths agree with standard-monomial
    counts whenever the leading terms already determine the local ring."""
    t0 = time.monotonic()
    rng = random.Random(5150)
    orders = [LEX_YX, TermOrder.degrevlex(("x", "y"))]
    for trial in range(30):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                c = Fraction(rng.randint(-4, 4))
                if c:
                    terms[e] = c
            if terms:
                gens.append(Poly(GEO, terms))
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

    # colength versus Groebner standard monomials on zero-dimensional
    # monomial-plus-lower-order ideals
    cases = [
        ([GEO.parse("y"), GEO.parse("x^2")], 2),
        ([GEO.parse("x"), GEO.parse("y")], 1),
        ([GEO.parse("y - x^2"), GEO.parse("x^3")], 3),
        ([GEO.parse("y^2 - x^3"), GEO.parse("x*y"), GEO.parse("x^4")], 5),
    ]
    for gens, expected in cases:
        assert local_colength(gens, ("x", "y")) == expected
        # cross-check against the staircase of a degrevlex basis: both count
        # the same quotient dimension for these ideals
        G = gb_buchberger(gens, TermOrder.degrevlex(("x", "y")))
        assert standard_monomials(G).dimension == expected
    assert time.monotonic() - t0 < 300.0


def test_10_not_isolated_is_bounded():
    """x*y*s is singular along three lines: the colength certification
    stops at order 12, where more monomials stay independent than the
    Bezout bound 27 allows, and ends in NotIsolated within ten seconds."""
    t0 = time.monotonic()
    ring = PolyRing(("x", "y", "s"))
    with pytest.raises(NotIsolated):
        tjurina_number(ring.parse("x*y*s"), ("x", "y", "s"))
    assert time.monotonic() - t0 < 10.0
