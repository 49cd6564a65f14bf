"""Buchberger Groebner bases, normal forms, quotient bases, membership tests."""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InfiniteColength
from .poly import (Exponents, Poly, PolyRing, TermOrder, mono_div,
                   mono_divides, mono_lcm, mono_mul)


Row = Dict[Exponents, int]


class _Reducer:
    """Integer rows with their leads, and the one fraction-free division by
    them that Buchberger's algorithm and ``normal_form`` share.

    Each monomial seen is cached with its heap key and its first divisor
    among the leads, so repeated divisions do not rescan the leads; rows are
    only ever appended to ``leads`` and ``rows``, which keeps a cached
    divisor valid.
    """

    __slots__ = ("key", "leads", "rows", "_seen")

    def __init__(self, key, leads: List[Exponents], rows: List[Row]):
        self.key = key
        self.leads = leads
        self.rows = rows
        self._seen: Dict[Exponents, list] = {}

    def _lookup(self, e: Exponents) -> list:
        """[heap key, index of the first lead dividing e or -1, leads tried]."""
        entry = self._seen.get(e)
        if entry is None:
            # the order keys are linear in e, so this is the key negated: a
            # min-heap pops the largest monomial first
            entry = self._seen[e] = [self.key(tuple(map(int.__neg__, e))),
                                     -1, 0]
        if entry[1] < 0:
            for k in range(entry[2], len(self.leads)):
                if mono_divides(self.leads[k], e):
                    entry[1] = k
                    break
            entry[2] = len(self.leads)
        return entry

    def reduce(self, row: Row) -> Tuple[Row, int]:
        """Full division of ``row``.

        Returns ``(r, m)`` with ``m != 0`` the product of the scalings, such
        that ``m * row - r`` lies in the ideal of the rows and no term of
        ``r`` is divisible by a lead; ``r / m`` is the exact remainder over Q.
        """
        lookup = self._lookup
        remaining = dict(row)
        out: Dict[Exponents, Tuple[int, int]] = {}
        mult = 1
        heap = [(lookup(e)[0], e) for e in remaining]
        heapq.heapify(heap)
        while heap:
            _, e = heapq.heappop(heap)
            c = remaining.pop(e, 0)
            if not c:
                continue
            i = lookup(e)[1]
            if i < 0:
                out[e] = (c, mult)  # rescaled by the later scalings at the end
                continue
            lm, g = self.leads[i], self.rows[i]
            d = math.gcd(c, g[lm])
            a, b = g[lm] // d, c // d
            if a != 1:
                mult *= a
                for k in remaining:
                    remaining[k] *= a
            shift = mono_div(e, lm)
            for ge, gc in g.items():
                if ge == lm:
                    continue
                ne = tuple(map(int.__add__, ge, shift))  # mono_mul, inlined
                s = remaining.get(ne, 0) - b * gc
                if s:
                    if ne not in remaining:
                        heapq.heappush(heap, (lookup(ne)[0], ne))
                    remaining[ne] = s
                else:
                    remaining.pop(ne, None)
            # terms already moved to `out` are irreducible and unaffected:
            # the subtracted tail only introduces monomials strictly below e
        return {e: c * (mult // m) for e, (c, m) in out.items()}, mult


class GroebnerBasis:
    """A Groebner basis with its order; generators are primitive integer
    polynomials with positive leading coefficient."""

    __slots__ = ("generators", "order", "reduced", "_ring", "_key", "_leads",
                 "_reducer")

    def __init__(self, generators: List[Poly], order: TermOrder, reduced: bool):
        self.generators = generators
        self.order = order
        self.reduced = reduced
        self._ring = generators[0].ring if generators else None
        self._key = order.key_function(self._ring) if self._ring else None
        self._leads = [_lead(g.terms, self._key) for g in generators]
        self._reducer = _Reducer(self._key, self._leads,
                                 [g.primitive_terms()[0] for g in generators])

    @property
    def ring(self) -> PolyRing:
        return self._ring

    def leading_monomials(self) -> List[Exponents]:
        return list(self._leads)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def is_unit_ideal(self) -> bool:
        return any(not any(lm) for lm in self._leads)


class QuotientBasis:
    """Standard monomials of a zero-dimensional quotient."""

    __slots__ = ("monomials", "dimension", "ring")

    def __init__(self, ring: PolyRing, monomials: List[Exponents]):
        self.ring = ring
        self.monomials = monomials
        self.dimension = len(monomials)


def _lead(terms: Dict[Exponents, object], key) -> Exponents:
    return max(terms, key=key)


def s_polynomial(f: Poly, g: Poly, order: TermOrder) -> Poly:
    key = order.key_function(f.ring)
    lf, lg = _lead(f.terms, key), _lead(g.terms, key)
    lcm = mono_lcm(lf, lg)
    mf = f.ring.monomial(mono_div(lcm, lf), Fraction(1) / f.terms[lf])
    mg = f.ring.monomial(mono_div(lcm, lg), Fraction(1) / g.terms[lg])
    return mf * f - mg * g


def normal_form(p: Poly, G: GroebnerBasis) -> Poly:
    """Exact remainder over Q of p under full division by G; p - result lies
    in <G>."""
    if p.ring != G.ring:
        p = p.map_to(G.ring)
    row, scale = p.primitive_terms()
    rem, mult = G._reducer.reduce(row)
    scale /= mult
    return Poly(G.ring, {e: c * scale for e, c in rem.items()})


def _primitive_row(row: Row, lead: Exponents) -> Row:
    """Divide by the integer content, signed so the lead coefficient is > 0."""
    d = math.gcd(*row.values())
    if row[lead] < 0:
        d = -d
    return {e: c // d for e, c in row.items()}


def gb_buchberger(gens: Sequence[Poly], order: TermOrder,
                  stop_at_unit: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of <gens> by Buchberger's algorithm.

    The basis is kept as primitive integer rows: denominators are cleared
    once on input and each row is divided by its integer content when it
    enters the basis.  S-polynomials and reductions are fraction-free, by
    the same kernel that ``normal_form`` uses.  Pairs are selected by the
    sugar strategy and pruned by the Gebauer-Moeller update (criteria M, F
    and B and the coprime-lead criterion), run once for each new basis
    element; an element whose lead a newer lead divides gets no new pairs.
    With ``stop_at_unit`` the computation returns the basis {1} as soon as a
    constant enters the basis.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    order = order.for_ring(ring)
    key = order.key_function(ring)

    basis = _Reducer(key, [], [])
    leads, rows = basis.leads, basis.rows
    sugars: List[int] = []
    active: List[int] = []  # the basis elements no newer lead divides
    pairs: List[Tuple[Tuple, int, int]] = []  # heap of ((sugar, deg, lcm), i, j)

    def add_row(row: Row, sugar: int) -> bool:
        """Enter a reduced row and update the pairs; True if it is constant."""
        lh = _lead(row, key)
        h = len(rows)
        leads.append(lh)
        rows.append(_primitive_row(row, lh))
        sugars.append(sugar)
        # criteria M and F, then the coprime-lead criterion, on new pairs
        cands = [(mono_lcm(leads[g], lh), g, not any(map(min, leads[g], lh)))
                 for g in active]
        kept: List[Tuple[Exponents, int, bool]] = []
        for k, (lcm, g, coprime) in enumerate(cands):
            if coprime or not any(mono_divides(m, lcm)
                                  for m, _, _ in cands[k + 1:] + kept):
                kept.append((lcm, g, coprime))
        # criterion B on the pending pairs
        pairs[:] = [p for p in pairs
                    if not mono_divides(lh, p[0][2])
                    or mono_lcm(leads[p[1]], lh) == p[0][2]
                    or mono_lcm(leads[p[2]], lh) == p[0][2]]
        for lcm, g, coprime in kept:
            if not coprime:
                pair_sugar = max(sugars[g] + sum(lcm) - sum(leads[g]),
                                 sugar + sum(lcm) - sum(lh))
                pairs.append(((pair_sugar, sum(lcm), lcm), g, h))
        heapq.heapify(pairs)
        active[:] = [g for g in active if not mono_divides(lh, leads[g])]
        active.append(h)
        return not any(lh)

    unit_found = False
    for g in gens:
        row = basis.reduce(g.primitive_terms()[0])[0]
        if row and add_row(row, g.total_degree()):
            unit_found = True
            break

    while pairs and not unit_found:
        (_, _, lcm), i, j = heapq.heappop(pairs)
        li, lj = leads[i], leads[j]
        shift_i, shift_j = mono_div(lcm, li), mono_div(lcm, lj)
        # (c_j/g) x^shift_i f_i - (c_i/g) x^shift_j f_j, g = gcd(c_i, c_j)
        d = math.gcd(rows[i][li], rows[j][lj])
        sp: Row = {}
        for f, shift, scale in ((rows[i], shift_i, rows[j][lj] // d),
                                (rows[j], shift_j, -(rows[i][li] // d))):
            for e, c in f.items():
                ne = mono_mul(e, shift)
                sp[ne] = sp.get(ne, 0) + scale * c
        sp = {e: c for e, c in sp.items() if c}
        rem = basis.reduce(sp)[0]
        if rem:
            sugar = max(sugars[i] + sum(shift_i), sugars[j] + sum(shift_j))
            unit_found = add_row(rem, sugar)

    if unit_found and stop_at_unit:
        return GroebnerBasis([ring.one()], order, True)

    # the active leads are minimal; reduce the tails for the reduced basis
    # (no lead divides a monomial below it, so a row never reduces its tail)
    final: List[Poly] = []
    for g in active:
        tail = dict(rows[g])
        lc = tail.pop(leads[g])
        row, mult = basis.reduce(tail)
        row[leads[g]] = lc * mult
        row = _primitive_row(row, leads[g])
        final.append(Poly(ring, {e: Fraction(c) for e, c in row.items()}))
    final.sort(key=lambda p: key(_lead(p.terms, key)))
    return GroebnerBasis(final, order, True)


def ideal_membership(p: Poly, gens: Sequence[Poly], order: TermOrder) -> bool:
    G = gb_buchberger(gens, order)
    return normal_form(p, G).is_zero()


def radical_membership(p: Poly, gens: Sequence[Poly]) -> bool:
    """Rabinowitsch test: p vanishes on V(<gens>) iff 1 in <gens, 1 - T*p>."""
    if p.is_zero():
        return True
    ring = p.ring
    tname = "T_"
    while tname in ring.variables:
        tname += "_"
    ext = PolyRing((tname,) + ring.variables)
    ext_gens = [g.map_to(ext) for g in gens]
    ext_gens.append(ext.one() - ext.var(tname) * p.map_to(ext))
    order = TermOrder.degrevlex(ext.variables)
    G = gb_buchberger(ext_gens, order, stop_at_unit=True)
    return G.is_unit_ideal()


def standard_monomials(G: GroebnerBasis, max_check: int = 10_000,
                       variables: Optional[Sequence[str]] = None) -> QuotientBasis:
    """All monomials (in the given variables) outside the leading-term ideal.

    Raises InfiniteColength if the staircase complement exceeds ``max_check``
    or is provably unbounded.
    """
    ring = G.ring
    if variables is None:
        variables = ring.variables
    idx = [ring.index(v) for v in variables]
    leads = G.leading_monomials()
    # a pure power of each variable must appear among the leads, else infinite
    for i in idx:
        if not any(all(k == 0 or j == i for j, k in enumerate(lm)) and lm[i] > 0
                   for lm in leads):
            raise InfiniteColength(
                f"no pure power of {ring.variables[i]!r} among leading terms")
    zero = (0,) * ring.nvars
    found = []
    frontier = [zero]
    seen = {zero}
    while frontier:
        e = frontier.pop()
        if any(mono_divides(lm, e) for lm in leads):
            continue
        found.append(e)
        if len(found) > max_check:
            raise InfiniteColength(f"more than {max_check} standard monomials")
        for i in idx:
            ne = list(e)
            ne[i] += 1
            ne = tuple(ne)
            if ne not in seen:
                seen.add(ne)
                frontier.append(ne)
    key = G._key
    found.sort(key=key)
    return QuotientBasis(ring, found)
