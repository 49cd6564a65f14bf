"""Families of curve equations over polynomial parameter spaces.

A *contact* family meets the boundary divisor {y = 0} with constant
multiplicity w, so its equation splits uniquely as E = y*f + x^w*g with g a
unit at the base point.  *Interior* families carry no such split and are
used with the Delta map and the interior lift only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import InconsistentResult, NotAUnit, NotWContact, WrongKind
from .poly import Poly
from .series import (DEFAULT_TRUNCATION, TruncatedSeries, series_invert,
                     truncate_poly, truncated_product,
                     weierstrass_prepare_x)


class ContactFamily:
    """A family E_lambda(x, y) of curve equations, contact or interior kind."""

    __slots__ = ("E", "kind", "params", "x", "y", "w", "f", "g")

    def __init__(self, E: Poly, params: Sequence[str], kind: str,
                 x: str = "x", y: str = "y",
                 expected_w: Optional[int] = None):
        if kind not in ("contact", "interior"):
            raise ValueError(f"unknown kind {kind!r}")
        self.E = E
        self.kind = kind
        self.params = tuple(params)
        self.x = x
        self.y = y
        ring = E.ring
        for p in self.params:
            ring.index(p)
        allowed = {x, y, *self.params}
        extra = set(E.variables_used()) - allowed
        if extra:
            raise NotWContact(
                f"E involves undeclared variables {sorted(extra)}")

        if kind == "interior":
            self.w = None
            self.f = None
            self.g = None
            return

        zero_params = {p: 0 for p in self.params}
        E_boundary = E.subs({y: 0})           # E(x, 0, lambda)
        E00 = E_boundary.subs(zero_params)    # E(x, 0, 0)
        if E00.is_zero():
            raise NotWContact("E(x, 0) vanishes at the base point of the family")
        xi = ring.index(x)
        w = min(e[xi] for e in E00.terms)
        if expected_w is not None and w != expected_w:
            raise NotWContact(f"contact order is {w}, expected {expected_w}")
        if w == 0:
            raise NotWContact("E(0, 0, 0) is nonzero; not a curve germ equation")
        if any(e[xi] < w for e in E_boundary.terms):
            raise NotWContact(
                f"E(x, 0, lambda) is not divisible by {x}^{w}: "
                "the contact order is not constant over the family")
        self.w = w
        # unique split E = y*f + x^w*g
        self.g = Poly(ring, {tuple(k - w if i == xi else k for i, k in enumerate(e)): c
                             for e, c in E_boundary.terms.items()})
        diff = E - E_boundary
        yi = ring.index(y)
        if any(e[yi] == 0 for e in diff.terms):
            raise InconsistentResult("decomposition failed: remainder not divisible by y")
        self.f = Poly(ring, {tuple(k - 1 if i == yi else k for i, k in enumerate(e)): c
                             for e, c in diff.terms.items()})

    # -- constructors -----------------------------------------------------

    @classmethod
    def contact(cls, E: Poly, params: Sequence[str] = (), x: str = "x",
                y: str = "y", expected_w: Optional[int] = None) -> "ContactFamily":
        return cls(E, params, "contact", x, y, expected_w)

    @classmethod
    def interior(cls, E: Poly, params: Sequence[str] = (), x: str = "x",
                 y: str = "y") -> "ContactFamily":
        return cls(E, params, "interior", x, y)

    # -- queries ----------------------------------------------------------

    def require_contact(self):
        if self.kind != "contact":
            raise WrongKind("operation requires a contact-kind family")

    def at_base_point(self) -> Poly:
        """Central equation E_0."""
        return self.E.subs({p: 0 for p in self.params})

    def f0(self) -> Poly:
        self.require_contact()
        return self.f.subs({p: 0 for p in self.params})

    def g0(self) -> Poly:
        self.require_contact()
        return self.g.subs({p: 0 for p in self.params})

    def geo_vars(self) -> Tuple[str, str]:
        return (self.x, self.y)

    def __repr__(self):
        head = f"{self.kind} family"
        if self.kind == "contact":
            head += f" (w={self.w})"
        return f"<{head}: {self.E}>"


def to_normal_form(F: ContactFamily,
                   truncation: int = DEFAULT_TRUNCATION) -> ContactFamily:
    """Divide by g so the boundary factor becomes 1.

    Exact when g is a rational constant; otherwise truncated in x and the
    parameters at the given order.
    """
    F.require_contact()
    if F.g.is_constant():
        c = F.g.as_constant()
        if c == 0:
            raise NotAUnit("g vanishes identically")
        E = F.E * (Fraction(1) / c)
        return ContactFamily(E, F.params, "contact", F.x, F.y, F.w)
    # the inverse expands only in the variables g involves; truncate there
    small = F.g.variables_used()
    ginv = series_invert(TruncatedSeries(F.g, truncation, small))
    E = truncated_product(F.E, ginv.body, small, truncation)
    return ContactFamily(E, F.params, "contact", F.x, F.y, F.w)


def to_distinguished(F: ContactFamily,
                     truncation: int = DEFAULT_TRUNCATION) -> ContactFamily:
    """Weierstrass preparation: E becomes x^w + y*(polynomial of x-degree < w).

    The discarded unit times the result is congruent to E modulo the
    truncation ideal.
    """
    F.require_contact()
    small = (F.y,) + F.params
    _, P = weierstrass_prepare_x(F.E, F.w, truncation, x=F.x, small=small)
    return ContactFamily(P, F.params, "contact", F.x, F.y, F.w)


def multiply_unit(F: ContactFamily, u: Poly) -> ContactFamily:
    """Replace E by u*E for a unit u; same curve family, re-decomposed."""
    F.require_contact()
    if u.constant_term() == 0:
        raise NotAUnit("u vanishes at the base point")
    return ContactFamily(u * F.E, F.params, "contact", F.x, F.y, F.w)


class StrataPreservingChange:
    """A coordinate change preserving {y=0} and the origin:
    x -> x*u(x) + y*A(x, y), y -> y*v(x, y), with u, v units at lambda=0."""

    __slots__ = ("x_image", "y_image", "x", "y", "params")

    def __init__(self, x_image: Poly, y_image: Poly,
                 params: Sequence[str] = (), x: str = "x", y: str = "y"):
        ring = x_image.ring
        y_image = y_image.map_to(ring)
        self.x_image = x_image
        self.y_image = y_image
        self.x = x
        self.y = y
        self.params = tuple(params)
        xi, yi = ring.index(x), ring.index(y)
        zero_params = {p: 0 for p in self.params}

        if any(e[yi] == 0 for e in y_image.terms):
            raise NotAUnit("Y-image must be divisible by y")
        v0 = Poly(ring, {e: c for e, c in y_image.terms.items()
                         if e[yi] == 1 and e[xi] == 0 and
                         all(k == 0 for i, k in enumerate(e) if i not in (xi, yi))})
        if v0.subs(zero_params).is_zero():
            raise NotAUnit("v(0,0) = 0: Y-image is not strata-preserving")

        if any(e[xi] == 0 and e[yi] == 0 for e in x_image.terms):
            raise NotAUnit("X-image has a constant term")
        x_only = x_image.subs({y: 0})
        if any(e[xi] == 0 for e in x_only.terms):
            raise NotAUnit("X-image restricted to y=0 must be divisible by x")
        u_coeff = Poly(ring, {e: c for e, c in x_only.terms.items() if e[xi] == 1})
        if u_coeff.subs(zero_params).is_zero():
            raise NotAUnit("u(0) = 0: X-image is not strata-preserving")


def apply_change(F: ContactFamily, phi: StrataPreservingChange,
                 truncation: Optional[int] = None) -> ContactFamily:
    """Substitute the coordinate change into the family equation."""
    F.require_contact()
    E = F.E.subs({F.x: phi.x_image, F.y: phi.y_image})
    if truncation is not None:
        E = truncate_poly(E, (F.x, F.y), truncation)
    return ContactFamily(E, F.params, "contact", F.x, F.y, F.w)


def family_from_basis(E0: Poly, basis: Sequence[Poly],
                      param_prefix: str = "s_",
                      x: str = "x", y: str = "y") -> ContactFamily:
    """Family E0 + y * sum(s_i * f_i) over fresh parameters s_1..s_g."""
    ContactFamily.contact(E0, (), x, y)  # validates E0 is w-contact
    names = [f"{param_prefix}{i + 1}" for i in range(len(basis))]
    ring = E0.ring.extend(names)
    E = E0.map_to(ring)
    yv = ring.var(y)
    for name, f in zip(names, basis):
        E = E + yv * ring.var(name) * f.map_to(ring)
    return ContactFamily(E, names, "contact", x, y)
