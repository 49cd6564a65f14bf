"""Phi/Delta/Psi tangent maps, condition (*) and the relaxed criterion."""

import random
from fractions import Fraction

import pytest

from wcontact import nondegeneracy
from wcontact.errors import E0NotInIdeal, UsageError
from wcontact.families import (ContactFamily, StrataPreservingChange,
                               apply_change, multiply_unit, to_normal_form)
from wcontact.nondegeneracy import (check_condition_star,
                                    check_relaxed_condition, delta_map,
                                    phi_map, psi_generators, psi_map)
from wcontact.poly import Poly, PolyRing
from wcontact.series import LocalIdeal

RST = PolyRing(("x", "y", "s", "t"))
R2 = PolyRing(("x", "y"))


def fam_st():
    return ContactFamily.contact(
        RST.parse("(y^2+x^4)+s*x*(y+x^3)+t*(y+x^4)"), ("s", "t"))


def ideal_yx2(ring=RST):
    return LocalIdeal([ring.parse("y"), ring.parse("x^2")],
                      variables=("x", "y"))


class TestPhi:
    def test_codim4_columns(self):
        F = fam_st()
        I = ideal_yx2()
        report = phi_map(F, I)
        # quotient basis {1, x}; d/ds |-> x, d/dt |-> 1
        assert report.quotient_dimension == 2
        assert report.matrix.col_labels == ["d/ds", "d/dt"]
        assert report.matrix.row_labels == ["1", "x"]
        assert report.matrix.rows == [[0, 1], [1, 0]]
        assert report.rank == 2 and report.surjective

    def test_parameterless_rank_zero(self):
        F = ContactFamily.contact(R2.parse("y*x + x^2"))
        report = phi_map(F, ideal_yx2(R2))
        assert report.rank == 0 and not report.surjective
        assert report.cokernel_monomials == ["1", "x"]

    def test_base_point_must_lie_in_ideal(self):
        F = fam_st()
        # y^2 + x^4 reduces to x^2 modulo <y - x, x^3>
        I = LocalIdeal([RST.parse("y - x"), RST.parse("x^3")],
                       variables=("x", "y"))
        with pytest.raises(E0NotInIdeal):
            phi_map(F, I)


class TestDelta:
    def test_contact_family_delta_vanishes(self):
        # dE/ds = x*(y+x^3) and dE/dt = y+x^4 both lie in <y, x^2>
        report = delta_map(fam_st(), ideal_yx2())
        assert report.rank == 0

    def test_interior_family(self):
        ring = PolyRing(("x", "y", "s", "t"))
        F = ContactFamily.interior(ring.parse("y^2 + x^2 + s*x + t"),
                                   ("s", "t"))
        I = LocalIdeal([ring.parse("x"), ring.parse("y")],
                       variables=("x", "y"))
        report = delta_map(F, I)
        assert report.quotient_dimension == 1
        assert report.rank == 1 and report.surjective


class TestPsi:
    def test_generators_and_relation(self):
        F = ContactFamily.contact(R2.parse("y^2 + x^4"))
        g1, g2, g3 = psi_generators(F, ideal_yx2(R2))
        assert g1 == R2.parse("-4*y")
        assert g2 == R2.parse("4*x^3")
        assert g3 == R2.parse("2*y")
        # the well-definedness identity y*g1 = x*dE0/dx - w*E0
        assert R2.var("y") * g1 == R2.var("x") * g2 - R2.parse("y^2+x^4") * 4

    def test_rank_zero_on_fat_point(self):
        F = ContactFamily.contact(R2.parse("y^2 + x^4"))
        assert psi_map(F, ideal_yx2(R2)).rank() == 0

    def test_rank_one_on_curvilinear_ideal(self):
        F = ContactFamily.contact(R2.parse("y^2 + x^4"))
        I = LocalIdeal([R2.parse("y - x^2"), R2.parse("x^3")])
        assert psi_map(F, I).rank() == 1

    def test_rank_one_parameterless_node(self):
        F = ContactFamily.contact(R2.parse("y*x + x^2"))
        assert psi_map(F, ideal_yx2(R2)).rank() == 1


class TestStar:
    def test_codim4_surjective(self):
        report = check_condition_star([(fam_st(), ideal_yx2())])
        assert report.surjective
        assert report.rank == 2
        assert report.target_dimension == 2
        assert report.relative_dimension == 0

    def test_colength_three_not_surjective(self):
        I3 = LocalIdeal([RST.parse("y^2"), RST.parse("x*y"),
                         RST.parse("x^2")], variables=("x", "y"))
        report = check_condition_star([(fam_st(), I3)])
        assert not report.surjective
        assert report.rank == 2 and report.target_dimension == 3
        assert report.relative_dimension == -1

    def test_mixed_kinds_share_parameters(self):
        F = fam_st()
        G = ContactFamily.interior(RST.parse("y^2 + x^4 + s"), ("s",))
        with pytest.raises(UsageError):
            check_condition_star([(F, ideal_yx2()), (G, ideal_yx2())])

    def test_no_entries(self):
        with pytest.raises(UsageError):
            check_condition_star([])


class TestRelaxed:
    def test_codim4_holds(self):
        report = check_relaxed_condition(fam_st(), ideal_yx2())
        assert report.surjective

    def test_parameterless_node_fails(self):
        F = ContactFamily.contact(R2.parse("y*x + x^2"))
        report = check_relaxed_condition(F, ideal_yx2(R2))
        assert not report.surjective
        assert report.phi_rank == 0
        assert report.stacked_rank == 1
        assert report.quotient_dimension == 2

    @pytest.mark.parametrize("extra", ["0", "x^5"], ids=["g0=1", "g0=1+x"])
    def test_psi_generators_once_per_check(self, monkeypatch, extra):
        # with g0 = 1 + x each call of psi_generators takes a normal form
        F = ContactFamily.contact(
            RST.parse(f"(y^2+x^4)+s*x*(y+x^3)+t*(y+x^4) + {extra}"),
            ("s", "t"))
        I = ideal_yx2()
        calls = []
        real = nondegeneracy.psi_generators

        def counting(F, I):
            calls.append(F)
            return real(F, I)

        monkeypatch.setattr(nondegeneracy, "psi_generators", counting)
        report = check_relaxed_condition(F, I)
        assert len(calls) == 1
        assert report.surjective and report.phi_rank == 2
        assert report.enlarged_quotient_dimension == \
            LocalIdeal(I.generators + real(F, I),
                       I.variables).certify().colength


class TestDerivedOrders:
    def test_nonconstant_g0_above_the_power_degree(self):
        """With g0 = 1 + x, phi truncates at j = 2 and psi at w = 4; both,
        and the relaxed verdict, match a normal form taken at order 24."""
        F = ContactFamily.contact(
            RST.parse("(y^2+x^4+x^5)+s*x*(y+x^3)+t*(y+x^4)"), ("s", "t"))
        I = ideal_yx2()
        assert not F.g0().is_constant()
        assert F.w > I.min_series_order()
        deep = to_normal_form(F, 24)
        assert phi_map(F, I).matrix.rows == phi_map(deep, I).matrix.rows
        assert psi_map(F, I).rows == psi_map(deep, I).rows
        assert vars(check_relaxed_condition(F, I)) == \
            vars(check_relaxed_condition(deep, I))


def in_base_plus_conductor(F, conductor_gens):
    """Does x*df0/dx - w*f0 lie in <E0> + the given conductor ideal?"""
    ideal = LocalIdeal([F.at_base_point()] + list(conductor_gens),
                       variables=(F.x, F.y))
    return ideal.contains(psi_generators(F, ideal)[0])


class TestConductor:
    def test_cusp_maximal_ideal(self):
        F = ContactFamily.contact(R2.parse("y^2 + x^3"))
        assert in_base_plus_conductor(F, [R2.var("x"), R2.var("y")])

    def test_negative(self):
        F = ContactFamily.contact(R2.parse("y^2 + x^3"))
        assert not in_base_plus_conductor(F, [R2.parse("x^2")])


def _random_unit(rng, ring):
    """c * (1 + y*h) with h a small random polynomial."""
    c = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
    h = ring.zero()
    for _ in range(rng.randint(0, 3)):
        e = (rng.randint(0, 2), rng.randint(0, 1), 0, 0)
        h = h + Poly(ring, {e: Fraction(rng.randint(-2, 2))})
    return (ring.one() + ring.var("y") * h) * c, h


def _mult_operator_columns(I, factor):
    """Matrix of multiplication by `factor` on the quotient basis of I."""
    I.certify()
    basis = I.quotient_basis
    index = {b: i for i, b in enumerate(basis)}
    cols = []
    for b in basis:
        vec = [Fraction(0)] * len(basis)
        prod = I.ring.monomial(b) * factor.map_to(I.ring)
        for e, c in I.reduce(prod).items():
            vec[index[e]] = c
        cols.append(vec)
    return cols


class TestInvariance:
    def test_unit_multiples_preserve_phi(self):
        rng = random.Random(314)
        F = fam_st()
        I = ideal_yx2()
        base = phi_map(F, I)
        zero = {"s": 0, "t": 0}
        for _ in range(20):
            u, h = _random_unit(rng, RST)
            G = multiply_unit(F, u)
            moved = phi_map(G, I)
            assert moved.rank == base.rank
            assert moved.surjective == base.surjective
            # exact transformation rule: new column = (1 + y*h0) * old
            # column in O/I
            factor = RST.one() + RST.var("y") * h.subs(zero)
            L = _mult_operator_columns(I, factor)
            n = len(L)
            for j in range(len(F.params)):
                expected = [sum(L[k][i] * base.matrix.rows[k][j]
                                for k in range(n)) for i in range(n)]
                got = [moved.matrix.rows[i][j] for i in range(n)]
                assert got == expected

    def test_changes_preserve_star(self):
        rng = random.Random(2718)
        F = fam_st()
        for _ in range(10):
            a = rng.choice([1, 2, -1, Fraction(1, 2)])
            b = rng.choice([1, -1, 2])
            xim = RST.var("x") * a + RST.var("y") * rng.randint(-2, 2) \
                + RST.var("x") ** 2 * rng.randint(-1, 1)
            yim = RST.var("y") * b + RST.var("x") * RST.var("y") \
                * rng.randint(-2, 2)
            phi = StrataPreservingChange(xim, yim)
            G = apply_change(F, phi, truncation=14)
            # transport the ideal through the same change
            I2 = LocalIdeal([g.subs({"x": xim, "y": yim})
                             for g in ideal_yx2().generators],
                            variables=("x", "y"))
            report = check_condition_star([(G, I2)])
            assert report.surjective
            assert report.relative_dimension == 0


FAMILY_RINGS = [("x", "y", "s", "t"), ("y", "x", "s", "t"),
                ("s", "t", "x", "y")]
IDEALS = [("y", "x^2"), ("y - x^2", "x^3"), ("y^2", "x*y", "x^2")]


def _reports(ring, gens):
    """Phi, Delta, Psi, (*) and relaxed reports of the codim-4 family,
    written in ``ring``, on the ideal of ``gens`` written in (x, y)."""
    F = ContactFamily.contact(
        ring.parse("(y^2+x^4)+s*x*(y+x^3)+t*(y+x^4)"), ("s", "t"))
    I = LocalIdeal([R2.parse(g) for g in gens], variables=("x", "y"))

    def matrix(M):
        return M.rows, M.row_labels, M.col_labels

    star = check_condition_star([(F, I)])
    return (matrix(phi_map(F, I).matrix), matrix(delta_map(F, I).matrix),
            matrix(psi_map(F, I)),
            {k: v for k, v in vars(star).items() if k != "blocks"},
            [matrix(b.matrix) for b in star.blocks],
            vars(check_relaxed_condition(F, I)))


class TestRingIndependence:
    """The reports read every polynomial by its variable names, never by
    the index positions of its ring."""

    @pytest.mark.parametrize("gens", IDEALS, ids=", ".join)
    @pytest.mark.parametrize("variables", FAMILY_RINGS[1:], ids=",".join)
    def test_family_ring_order_changes_no_report(self, variables, gens):
        assert _reports(PolyRing(variables), gens) == \
            _reports(PolyRing(FAMILY_RINGS[0]), gens)

    def test_codim4_phi_in_a_reordered_ring(self):
        F = ContactFamily.contact(
            PolyRing(("y", "x", "s", "t")).parse(
                "(y^2+x^4)+s*x*(y+x^3)+t*(y+x^4)"), ("s", "t"))
        report = phi_map(F, ideal_yx2(R2))
        assert report.matrix.rows == [[0, 1], [1, 0]]
        assert report.matrix.row_labels == ["1", "x"]

    def test_generators_from_several_rings(self):
        I = LocalIdeal([PolyRing(("y", "x")).parse("y"), RST.parse("x^2")],
                       variables=("x", "y"))
        assert I.ring == R2
        assert phi_map(fam_st(), I).matrix.rows == \
            phi_map(fam_st(), ideal_yx2()).matrix.rows


class TestStarEntries:
    def test_each_entry_takes_the_block_of_its_kind(self):
        """One list of entries: Phi for the contact family, Delta for the
        interior one, stacked in the order given."""
        F = fam_st()
        G = ContactFamily.interior(RST.parse("y^2 + x^2 + s*x + t"),
                                   ("s", "t"))
        origin = LocalIdeal([RST.parse("x"), RST.parse("y")],
                            variables=("x", "y"))
        report = check_condition_star([(F, ideal_yx2()), (G, origin)])
        assert [b.matrix.rows for b in report.blocks] == \
            [phi_map(F, ideal_yx2()).matrix.rows,
             delta_map(G, origin).matrix.rows]
        assert report.target_dimension == 3
        assert report.rank == 2 and not report.surjective
