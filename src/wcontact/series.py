"""Truncated power series, Weierstrass preparation, local colength and
classical singularity invariants.

Truncation discipline: a :class:`TruncatedSeries` is known modulo
``m^(N+1)`` where ``m`` is the ideal generated by its declared *truncated*
variables (the geometric series variables; parameters join only when an
operation explicitly declares them truncatable).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (CertificationFailed, ContactOrderMismatch,
                     InconsistentBranchCount, InfiniteColength, NotAUnit,
                     NotIsolated, Unsupported, UsageError)
from .linalg import echelon
from .poly import (Exponents, Poly, PolyRing, TermOrder, from_row, mono_mul,
                   row_product)

DEFAULT_TRUNCATION = 12
TRUNCATION_CAP = 48
# the truncation orders certification tries, each capped at min(d^n, 48)
CERTIFY_ORDERS = (4, 8, 12, 24, TRUNCATION_CAP)


def truncate_poly(p: Poly, var_names: Sequence[str], N: int) -> Poly:
    """Drop all terms of total degree > N in the given variables."""
    idx = [p.ring.index(v) for v in var_names]
    terms = {e: c for e, c in p.terms.items() if sum(e[i] for i in idx) <= N}
    return Poly(p.ring, terms)


def truncated_product(a: Poly, b: Poly, var_names: Sequence[str],
                      N: int) -> Poly:
    """``truncate_poly(a * b, var_names, N)`` without forming any term pair
    whose degree in the given variables exceeds N.

    Multiplies the primitive integer rows of a and b, and builds each
    coefficient of the result once, as a ``Fraction``, from the product of
    their scales."""
    if a.ring != b.ring:
        raise UsageError(f"ring mismatch: {a.ring} vs {b.ring}")
    idx = [a.ring.index(v) for v in var_names]
    if sorted(idx) == list(range(a.ring.nvars)):
        deg = sum  # every variable is truncated, as in Weierstrass preparation
    else:
        def deg(e):
            return sum(e[i] for i in idx)
    arow, ascale = a.primitive_terms()
    brow, bscale = b.primitive_terms()
    # b's terms in ascending degree, so each term of a pairs with a prefix
    graded = sorted(brow.items(), key=lambda t: (deg(t[0]), t[0]))
    degrees = [deg(e) for e, _ in graded]
    terms = row_product(arow, graded, lambda e1: bisect_right(
        degrees, N - deg(e1)))
    scale = ascale * bscale
    return from_row(a.ring, terms, scale.numerator, scale.denominator)


class TruncatedSeries:
    """A polynomial representative of a series known modulo m^(N+1)."""

    __slots__ = ("body", "order", "small")

    def __init__(self, body: Poly, order: int, small: Sequence[str]):
        self.small = tuple(small)
        self.order = order
        self.body = truncate_poly(body, self.small, order)

    @classmethod
    def _truncated(cls, body: Poly, order: int,
                   small: Tuple[str, ...]) -> "TruncatedSeries":
        """The series of a body already truncated at ``order``."""
        series = cls.__new__(cls)
        series.body, series.order, series.small = body, order, small
        return series

    def _join(self, other: "TruncatedSeries") -> Tuple[int, Tuple[str, ...]]:
        if isinstance(other, TruncatedSeries):
            if set(self.small) != set(other.small):
                raise UsageError("truncated-variable sets differ")
            return min(self.order, other.order), self.small
        return self.order, self.small

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, Poly):
            return TruncatedSeries(other, self.order, self.small)
        return TruncatedSeries(self.body.ring.const(other), self.order, self.small)

    def __add__(self, other):
        other = self._coerce(other)
        n, small = self._join(other)
        return TruncatedSeries(self.body + other.body, n, small)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        n, small = self._join(other)
        return TruncatedSeries(self.body - other.body, n, small)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return TruncatedSeries(-self.body, self.order, self.small)

    def __mul__(self, other):
        other = self._coerce(other)
        n, small = self._join(other)
        return TruncatedSeries._truncated(
            truncated_product(self.body, other.body, small, n), n, small)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (self.small == other.small and self.order == other.order
                    and self.body == other.body)
        return self.body == self._coerce(other).body

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __repr__(self):
        return f"({self.body}) + O(m^{self.order + 1})"


def series_invert(u: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse modulo m^(N+1); NotAUnit if the constant part
    (relative to the truncated variables) is not a nonzero rational."""
    ring = u.body.ring
    idx = [ring.index(v) for v in u.small]
    const_part = Poly(ring, {e: c for e, c in u.body.terms.items()
                             if all(e[i] == 0 for i in idx)})
    if not const_part.is_constant():
        raise NotAUnit(
            "constant part involves non-truncated variables; declare them "
            f"truncatable to invert: {const_part}")
    c = const_part.constant_term()
    if c == 0:
        raise NotAUnit("constant term vanishes")
    # Newton: if 1 - u*v lies in m^k, then 1 - u*v*(2 - u*v) = (1 - u*v)^2
    # lies in m^(2k); v = 1/c is exact modulo m
    v = TruncatedSeries(ring.const(Fraction(1) / c), 0, u.small)
    while v.order < u.order:
        n = min(2 * v.order + 1, u.order)
        v = TruncatedSeries(v.body, n, u.small)
        v = v * (2 - TruncatedSeries(u.body, n, u.small) * v)
    return v


def _x_split(p: Poly, xi: int, w: int) -> Tuple[Poly, Poly]:
    """Split p = r + x^w * q with deg_x r < w; returns (r, q)."""
    r_terms: Dict[Exponents, Fraction] = {}
    q_terms: Dict[Exponents, Fraction] = {}
    for e, c in p.terms.items():
        if e[xi] >= w:
            ne = list(e)
            ne[xi] -= w
            q_terms[tuple(ne)] = c
        else:
            r_terms[e] = c
    return Poly(p.ring, r_terms), Poly(p.ring, q_terms)


def weierstrass_prepare_x(E: Poly, w: int, N: int = DEFAULT_TRUNCATION,
                          x: str = "x",
                          small: Optional[Sequence[str]] = None
                          ) -> Tuple[TruncatedSeries, Poly]:
    """Weierstrass preparation along x: E = u * P modulo m^(N+1).

    P = x^w + sum_{i<w} a_i * x^i is the distinguished polynomial, with every
    a_i in the ideal of the non-x variables; u is a unit.  By default all
    variables of the ring other than x are treated as truncatable (parameter
    dependence is then resolved as a series around the base point).

    Each pass divides E by u and multiplies u by 1 + d, d the defect.  The
    inverse v of u is carried across passes: after the update u * v = 1 + d
    exactly modulo m^(N+1), so Newton's step v <- v * (1 + err),
    err <- err^2 from err = -d keeps u * v = 1 - err.  When d lies in m, err
    reaches zero within ceil(log2(N+1)) steps, and v is then the inverse,
    which is unique modulo m^(N+1): u, P and every pass equal those of a
    fresh inversion.  A d with a term of degree 0 in the truncated variables
    may never square to zero, so u is then inverted afresh, which raises
    NotAUnit when u is no longer a unit.
    """
    ring = E.ring
    xi = ring.index(x)
    if small is None:
        small = tuple(v for v in ring.variables if v != x)
    if x in small:
        raise UsageError(
            "x cannot be one of the truncated complement variables")
    trunc_vars = (x,) + tuple(small)

    E0x = E.subs({v: 0 for v in ring.variables if v != x})
    if E0x.is_zero():
        raise ContactOrderMismatch("E(x, 0) vanishes identically")
    ord_x = min(e[xi] for e in E0x.terms)
    if ord_x != w:
        raise ContactOrderMismatch(
            f"ord_x E(x, 0) = {ord_x}, expected contact order {w}")
    if N < w:
        raise Unsupported(f"truncation order {N} below contact order {w}")

    Ets = TruncatedSeries(E, N, trunc_vars)
    _, q0 = _x_split(Ets.body, xi, w)
    u = TruncatedSeries(q0, N, trunc_vars)
    v = series_invert(u)
    idx = [ring.index(t) for t in trunc_vars]
    # Each pass pushes the defect q(u^-1 E) - 1 one step deeper into the
    # ideal of the non-x variables, so at most N+1 passes are needed.
    for _ in range(N + 2):
        G = v * Ets
        _, q = _x_split(G.body, xi, w)
        defect = TruncatedSeries(q, N, trunc_vars) - 1
        if defect.is_zero():
            break
        u = u * (defect + 1)
        if any(all(e[i] == 0 for i in idx) for e in defect.body.terms):
            v = series_invert(u)  # the defect is not in m
            continue
        # u * v = 1 - err, and each step squares err
        err = -defect
        while not err.is_zero():
            v = v * (err + 1)
            err = err * err
    else:
        raise CertificationFailed("Weierstrass iteration did not stabilize")

    r, _ = _x_split(G.body, xi, w)
    P = r + ring.monomial(tuple(w if i == xi else 0 for i in range(ring.nvars)))
    return u, P


# -- local colength --------------------------------------------------------

class LocalIdeal:
    """An ideal of Q[[vars]] given by polynomial generators, with certified
    colength and an exact reduction map onto a standard-monomial basis.

    ``ring`` is the series ring ``PolyRing(variables)``: the quotient basis
    and the keys of :meth:`reduce` are its exponent tuples.  Generators,
    kept as given in ``generators``, and the arguments of :meth:`reduce`
    may come from any rings whose terms use only series variables."""

    def __init__(self, generators: Sequence[Poly],
                 variables: Optional[Sequence[str]] = None):
        generators = [g for g in generators if not g.is_zero()]
        if not generators:
            raise Unsupported("no nonzero generators")
        self.variables = tuple(variables or generators[0].ring.variables)
        self.ring = PolyRing(self.variables)  # the series ring
        for g in generators:
            extra = set(g.variables_used()) - set(self.variables)
            if extra:
                raise Unsupported(
                    f"generator {g} involves non-series variables {sorted(extra)}")
        self.generators = list(generators)
        self._gens = [g.map_to(self.ring) for g in generators]
        # Bezout: n general combinations of the generators, of degree <= d,
        # are a system of parameters of local multiplicity <= d^n, so a
        # finite colength l is at most d^n and m^l lies in the ideal
        degree = max(g.total_degree() for g in self._gens)
        self._bezout = degree ** len(self.variables)
        self.cap = min(self._bezout, TRUNCATION_CAP)  # the last order tried
        self.truncation: Optional[int] = None  # the order certified at
        self.colength: Optional[int] = None
        self.quotient_basis: Optional[List[Exponents]] = None
        self._power_degree: Optional[int] = None  # j with m^j contained in I
        self._rewrite: Optional[Dict[Exponents, Dict[Exponents, Fraction]]] = None

    def certify(self) -> "LocalIdeal":
        """Certify finite colength at the truncation orders 4, 8, 12, 24 and
        48 in turn, each capped at the cap min(d^n, 48).

        Each order either certifies, proves the colength infinite (see
        :meth:`_try_certify`) or leaves the question open.  The result does
        not depend on the order that proves it: the power degree j is the
        least with m^j in I + m^(N+1), which Nakayama makes independent of N
        once found, and the quotient basis and rewrite map are those of the
        reduced echelon form of I in O/m^j.  So the schedule starts low,
        where most ideals already certify; 12 stays in it because a finite
        colength of x*y*s's Tjurina ideal would be at most 27, and order 12
        is the first with more independent monomials (37).  The proof
        always lands by the Bezout bound d^n, so an open question at the cap
        means the cap is TRUNCATION_CAP, below d^n: CertificationFailed,
        which is no conclusion."""
        if self.truncation is not None:
            return self
        for N in sorted({min(order, self.cap) for order in CERTIFY_ORDERS}):
            if self._try_certify(N):
                self.truncation = N
                return self
        raise CertificationFailed(
            f"colength not certified up to truncation order {N}, "
            f"below the Bezout bound {self._bezout}")

    def _try_certify(self, N: int) -> bool:
        """Echelon the image of the ideal in O/m^(N+1).  True when some m^j
        lies in the ideal; then the colength, quotient basis and reduction
        map are exact.

        Otherwise the non-pivot monomials of degree <= N are a basis of
        O/(I + m^(N+1)), whose dimension is at most the colength.  A finite
        colength is at most d^n, so more than d^n of them prove it infinite:
        InfiniteColength at order N, with ``cap`` set to N, the last order
        tried.  At N = d^n every degree 0..N keeps a non-pivot, which makes
        d^n + 1 of them.  Fewer leave the question open: False."""
        nv = len(self.variables)
        grkey = TermOrder.degrevlex(self.variables).key_function(self.ring)
        deg = sum

        def key(e):
            # local order: the lowest-degree term leads, so every echelon
            # tail sits deeper in the maximal ideal than its pivot
            return (-deg(e), grkey(e))

        # each generator's primitive integer row spans the same line; its
        # terms are listed with their degrees
        gens = [[(e, c, deg(e)) for e, c in g.primitive_terms()[0].items()]
                for g in self._gens]

        # span of the image of the ideal in Q[vars]/m^(N+1)
        monomials = _monomials_up_to(nv, N)
        degrees = list(map(deg, monomials))
        # the local order is a total order on the monomials, so their rank
        # in it picks the same leads as the key
        rank = {m: i for i, m in enumerate(sorted(monomials, key=key))}

        def rows():
            # (multiplying by a monomial is injective, so no terms collide)
            for g in gens:
                gmin = min(d for _, _, d in g)
                for m, dm in zip(monomials, degrees):
                    room = N - dm
                    if gmin <= room:
                        yield {mono_mul(m, e): c for e, c, d in g
                               if d <= room}

        # each row is made as the elimination takes it, so the rows are
        # never all held at once
        pivots = echelon(rows(), rank.__getitem__)
        # smallest j such that every degree-j monomial is a pivot: its tail
        # then lies in m^(j+1), so m^j is contained in I + m^(j+1) and hence
        # in I by Nakayama
        unpivoted = {d for m, d in zip(monomials, degrees)
                     if m not in pivots}
        j = next((d for d in range(N + 1) if d not in unpivoted), None)
        if j is None:
            free = len(monomials) - len(pivots)
            if free > self._bezout:
                self.cap = N
                raise InfiniteColength(
                    f"no power of the maximal ideal lies in the ideal: at "
                    f"truncation order {N}, {free} monomials are independent "
                    f"modulo it, more than the Bezout bound {self._bezout}")
            return False

        # exact computation inside O/m^j: a pivot's lead is its lowest-degree
        # term, so cutting the fully reduced pivots below degree j gives the
        # fully reduced echelon form of the image of I in O/m^j
        rewrite = {lead: {e: c for e, c in row.items() if deg(e) < j}
                   for lead, row in pivots.items() if deg(lead) < j}
        basis = [m for m in monomials if deg(m) < j and m not in rewrite]
        basis.sort(key=grkey)
        self._power_degree = j
        self.colength = len(basis)
        self.quotient_basis = basis
        self._rewrite = rewrite
        return True

    def reduce(self, p: Poly) -> Dict[Exponents, Fraction]:
        """Class of p in O/I as a vector over the quotient basis, keyed by
        exponent tuples of the series ring; p may come from any ring whose
        terms use only series variables (UnknownVariable otherwise).

        Exact for any polynomial, and for truncated series whose truncation
        order is at least the certified power degree minus one.
        """
        self.certify()
        j = self._power_degree
        out: Dict[Exponents, Fraction] = {}
        for e, c in p.map_to(self.ring).terms.items():
            if sum(e) >= j:
                continue  # m^j lies in I
            row = self._rewrite.get(e)
            if row is None:
                out[e] = out.get(e, 0) + c
            else:
                for se, sc in row.items():
                    if se == e:
                        continue
                    out[se] = out.get(se, 0) - c * sc
        return {e: c for e, c in out.items() if c}

    def contains(self, p: Poly) -> bool:
        return not self.reduce(p)

    def min_series_order(self) -> int:
        """Truncation order sufficient for exact reduction of series."""
        self.certify()
        return self._power_degree


def _monomials_up_to(nvars: int, N: int) -> List[Exponents]:
    monos: List[Exponents] = [()]
    for _ in range(nvars):
        monos = [m + (k,) for m in monos for k in range(N + 1 - sum(m))]
    return monos


def local_colength(generators: Sequence[Poly],
                   variables: Optional[Sequence[str]] = None) -> int:
    """Certified colength of <generators> in Q[[variables]]."""
    return LocalIdeal(generators, variables).certify().colength


def milnor_number(F: Poly, variables: Sequence[str] = ("x", "y")) -> int:
    """Colength of the partial-derivative ideal at the origin."""
    return _isolated_colength(F, [F.partial(v) for v in variables], variables)


def tjurina_number(F: Poly, variables: Sequence[str]) -> int:
    """Colength of <F, all partials> in the local ring at the origin."""
    return _isolated_colength(
        F, [F] + [F.partial(v) for v in variables], variables)


def _isolated_colength(F: Poly, gens: List[Poly],
                       variables: Sequence[str]) -> int:
    """Colength of a Jacobian-type ideal of F; NotIsolated only from a proof
    that it is infinite."""
    if F.constant_term() != 0:
        raise NotIsolated("F does not vanish at the origin")
    try:
        return local_colength(gens, variables)
    except InfiniteColength as exc:
        raise NotIsolated(f"singularity not isolated: {exc}") from exc


def delta_invariant(F: Poly, branch_count: int,
                    variables: Sequence[str] = ("x", "y")) -> int:
    """delta = (mu + r - 1) / 2 with the branch count r supplied by the caller."""
    mu = milnor_number(F, variables)
    num = mu + branch_count - 1
    if num % 2:
        raise InconsistentBranchCount(
            f"mu + r - 1 = {num} is odd (mu={mu}, r={branch_count})")
    return num // 2
