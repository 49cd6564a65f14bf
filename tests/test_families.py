"""Contact/interior families: decomposition, normal and distinguished forms,
unit multiples and strata-preserving coordinate changes."""

import random
from fractions import Fraction

import pytest

from wcontact.errors import NotAUnit, NotWContact, UnknownVariable, WrongKind
from wcontact.families import (ContactFamily, StrataPreservingChange,
                               apply_change, family_from_basis, multiply_unit,
                               to_distinguished, to_normal_form)
from wcontact.poly import Poly, PolyRing
from wcontact.series import truncate_poly

RST = PolyRing(("x", "y", "s", "t"))
R2 = PolyRing(("x", "y"))


def fam_st():
    return ContactFamily.contact(
        RST.parse("(y^2+x^4)+s*x*(y+x^3)+t*(y+x^4)"), ("s", "t"))


class TestDecomposition:
    def test_codim4_family(self):
        F = fam_st()
        assert F.w == 4
        assert F.f == RST.parse("y + s*x + t")
        assert F.g == RST.parse("1 + s + t")
        # the split reassembles E
        yv, xv = RST.var("y"), RST.var("x")
        assert yv * F.f + xv**4 * F.g == F.E

    def test_central_values(self):
        F = fam_st()
        assert F.at_base_point() == RST.parse("y^2 + x^4")
        assert F.f0() == RST.parse("y")
        assert F.g0() == RST.parse("1")

    def test_unit_g(self):
        F = ContactFamily.contact(R2.parse("y^2 + x^3*(1+x)"))
        assert F.w == 3
        assert F.f == R2.parse("y")
        assert F.g == R2.parse("1 + x")

    def test_not_contact(self):
        with pytest.raises(NotWContact):
            ContactFamily.contact(R2.parse("y"))

    def test_contact_order_must_be_constant(self):
        ring = PolyRing(("x", "y", "s"))
        with pytest.raises(NotWContact):
            ContactFamily.contact(ring.parse("y^2 + x^4 + s*x^2"), ("s",))

    def test_expected_w_mismatch(self):
        with pytest.raises(NotWContact):
            ContactFamily.contact(R2.parse("y^2 + x^4"), expected_w=3)

    def test_undeclared_variable(self):
        with pytest.raises(NotWContact):
            ContactFamily.contact(RST.parse("y^2 + x^4 + s*y"))

    def test_interior_kind_guard(self):
        F = ContactFamily.interior(R2.parse("x^2 + y^2 - x"))
        assert F.w is None
        with pytest.raises(WrongKind):
            F.f0()
        with pytest.raises(WrongKind):
            to_normal_form(F)
        with pytest.raises(WrongKind):
            to_distinguished(F)


class TestNormalForm:
    def test_constant_g_exact(self):
        F = ContactFamily.contact(R2.parse("2*y^2 + 2*x^4"))
        N = to_normal_form(F)
        assert N.E == R2.parse("y^2 + x^4")
        assert N.g == R2.one()

    def test_codim4_truncated(self):
        F = fam_st()
        N = to_normal_form(F, truncation=2)
        # congruent to y*(y + s*x + t)*(1 - (s+t) + (s+t)^2) + x^4
        # modulo (s, t)^3
        target = RST.parse(
            "y*(y + s*x + t)*(1 - (s+t) + (s+t)^2) + x^4")
        diff = N.E - target
        assert truncate_poly(diff, ("s", "t"), 2).is_zero()
        assert N.g == RST.one()

    def test_geometric_series_unit(self):
        F = ContactFamily.contact(R2.parse("y^2 + x^3*(1+x)"))
        N = to_normal_form(F, truncation=6)
        # g = 1+x inverts to the truncated geometric series
        assert N.g == R2.one()
        diff = N.E - R2.parse(
            "y^2*(1 - x + x^2 - x^3 + x^4 - x^5 + x^6) + x^3")
        assert truncate_poly(diff, ("x", "y"), 6).is_zero()


class TestDistinguished:
    def test_fixed_point(self):
        F = ContactFamily.contact(R2.parse("y^2 + x^4"))
        D = to_distinguished(F)
        assert D.E == F.E

    def test_x_degree_drops(self):
        F = ContactFamily.contact(R2.parse("y*(y + x^5) + x^4"))
        D = to_distinguished(F, truncation=10)
        # f becomes an x-polynomial of degree < w = 4
        assert all(e[R2.index("x")] <= 3 for e in D.f.terms)
        # and u * P is congruent to E
        from wcontact.series import weierstrass_prepare_x
        u, P = weierstrass_prepare_x(F.E, 4, 10, small=("y",))
        assert P == D.E
        diff = u.body * P - F.E
        assert truncate_poly(diff, ("x", "y"), 10).is_zero()

    def test_family_product_congruence(self):
        from wcontact.series import weierstrass_prepare_x
        F = fam_st()
        N = 8
        D = to_distinguished(F, truncation=N)
        u, P = weierstrass_prepare_x(F.E, 4, N, small=("y", "s", "t"))
        assert P == D.E
        diff = u.body * P - F.E
        assert truncate_poly(diff, ("x", "y", "s", "t"), N).is_zero()


class TestUnitMultiple:
    def test_decomposition_transforms(self):
        # for u = c*(1 + y*h) the boundary factor g picks up only the
        # constant c, while f absorbs the h-correction
        F = fam_st()
        h = RST.parse("1 + x")
        u = (RST.one() + RST.var("y") * h) * 3
        G = multiply_unit(F, u)
        assert G.g == F.g * 3
        assert G.f == (F.f * u + h * 3 * RST.var("x") ** 4 * F.g)

    def test_rejects_non_unit(self):
        F = fam_st()
        with pytest.raises(NotAUnit):
            multiply_unit(F, RST.var("x"))


class TestChanges:
    def test_identity(self):
        phi = StrataPreservingChange(R2.var("x"), R2.var("y"))
        F = ContactFamily.contact(R2.parse("y^2 + x^4"))
        assert apply_change(F, phi).E == F.E

    def test_scaling(self):
        phi = StrataPreservingChange(R2.var("x") * 2, R2.var("y") * 3)
        F = ContactFamily.contact(R2.parse("y^2 + x^4"))
        G = apply_change(F, phi)
        assert G.E == R2.parse("9*y^2 + 16*x^4")
        assert G.w == 4

    def test_shear(self):
        ring = R2
        phi = StrataPreservingChange(
            ring.parse("x + x*y"), ring.parse("y + y*x^2"))
        F = ContactFamily.contact(ring.parse("y^2 + x^4"))
        G = apply_change(F, phi, truncation=10)
        assert G.w == 4
        assert G.at_base_point().subs({"y": 0}) == \
            truncate_poly(ring.parse("x^4"), ("x", "y"), 10)

    def test_images_read_in_the_ring_of_the_x_image(self):
        # y's image comes from a larger ring and is read in x's by name;
        # one that uses a variable x's ring lacks is refused
        phi = StrataPreservingChange(R2.var("x"), RST.parse("y + x*y"))
        assert phi.y_image == R2.parse("y + x*y")
        F = ContactFamily.contact(R2.parse("y^2 + x^4"))
        assert apply_change(F, phi, truncation=10).E == apply_change(
            F, StrataPreservingChange(R2.var("x"), R2.parse("y + x*y")),
            truncation=10).E
        with pytest.raises(UnknownVariable):
            StrataPreservingChange(R2.var("x"), RST.parse("y + s*y"))

    def test_rejects_origin_moving(self):
        with pytest.raises(NotAUnit):
            StrataPreservingChange(R2.parse("x + 1"), R2.var("y"))

    def test_rejects_boundary_breaking(self):
        # y -> y + x^2 does not preserve {y = 0}
        with pytest.raises(NotAUnit):
            StrataPreservingChange(R2.var("x"), R2.parse("y + x^2"))

    def test_w_invariance_random(self):
        rng = random.Random(23)
        F = ContactFamily.contact(R2.parse("y^2 + x^4"))
        for _ in range(25):
            a = rng.choice([1, 2, -1, Fraction(1, 2)])
            b = rng.choice([1, -1, 3])
            xim = R2.var("x") * a + R2.var("y") * rng.randint(-2, 2) \
                + R2.var("x") ** 2 * rng.randint(-1, 1)
            yim = R2.var("y") * b + R2.var("y") * R2.var("x") \
                * rng.randint(-2, 2)
            phi = StrataPreservingChange(xim, yim)
            G = apply_change(F, phi, truncation=12)
            assert G.w == F.w


class TestFromBasis:
    def test_codim4_reconstruction(self):
        basis = [R2.one(), R2.var("x")]
        F = family_from_basis(R2.parse("y^2 + x^4"), basis)
        assert F.params == ("s_1", "s_2")
        ring = F.E.ring
        assert F.E == ring.parse("y^2 + x^4 + y*s_1 + y*s_2*x")
        assert F.w == 4
        assert F.f == ring.parse("y + s_1 + s_2*x")

    def test_validates_central_fiber(self):
        with pytest.raises(NotWContact):
            family_from_basis(R2.parse("y"), [R2.one()])
