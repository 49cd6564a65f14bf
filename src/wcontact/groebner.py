"""Buchberger Groebner bases, normal forms, quotient bases, membership tests.

The division kernel, ``_Reducer``, works on packed monomials: under a ring's
term order each monomial is one Python int whose fields, read from the top,
are a linear key of the order, each with a guard bit above it.  Each block
of the order (``TermOrder.then``) fills the fields below those of the
blocks before it, with p its variable priority:

- degrevlex: the block's degree, then the partial sums e_p1 + ... + e_pk
  for k = n-1 down to 1 over its n variables;
- lex: the exponents in priority order.

While every field fits below its guard bit, comparing two ints compares the
monomials, adding two ints multiplies them and subtracting a divisor divides,
so one int is at once the dict key of a term, its heap entry and its cache
key.  A carry into a guard bit means a field overflowed; the kernel then
re-encodes with wider fields and divides again (see ``_Reducer``).  Rows are
encoded once, when they enter a basis, and decoded once, into ``Poly``
results or into the integer rows (``Row``) of a caller that never leaves
them (``_buchberger``, ``_Reducer.reduces_to_zero``); exponent tuples stay
the interface of the rest of the package (``Poly.terms``,
``leading_monomials()``, the pair criteria).

Most bases are tiny (membership sampling builds thousands in two or three
variables), so the kernel keeps per-call work low: the divisor lookup is
inlined in the division loop, and ``_buchberger`` reduces the tails of its
basis in place, in the kernel that computed it, which is then the one it
returns.
"""

from __future__ import annotations

import heapq
import math
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CertificationFailed, InfiniteColength
from .linalg import _primitive_row
from .poly import (Exponents, Poly, PolyRing, Row, TermOrder, from_row,
                   mono_divides, mono_lcm)


Packed = Dict[int, int]

# field widths start where n fields fill 60 bits: a packed monomial then
# stays below 2**61, where CPython hashes an int as itself
_START_BITS = 60


class _Overflow(Exception):
    """A field of a packed monomial carried into its guard bit."""


class _Encoding:
    """Packed monomials with ``width`` value bits and a guard bit per field.

    ``pack`` is the dot product of the exponents with ``weights``, exact as
    long as every field fits in its value and guard bits.  A monomial *fits*
    when its largest field, ``top``, is at most ``limit``; ``guard`` masks
    the guard bits, and ``diff`` the fields that hold a partial sum above
    the first of its block.
    """

    __slots__ = ("order", "ring", "step", "width", "limit", "guard",
                 "weights", "shifts", "top", "diff")

    def __init__(self, order: TermOrder, ring: PolyRing, width: int):
        blocks = order.for_ring(ring).blocks
        n, step = ring.nvars, width + 1
        self.order = order
        self.ring = ring
        self.step = step
        self.width = width
        self.limit = (1 << width) - 1
        self.guard = sum(1 << (k * step + width) for k in range(n))
        # each block fills the fields below those of the blocks before it;
        # a lex block's field for e_pj is j fields below the block's top, a
        # degrevlex block's field j up from the block's bottom is the
        # partial sum e_p0 + ... + e_pj (its top one is the block's degree);
        # ``shifts`` locates each variable's exponent in ``exponent_fields``
        self.weights = [0] * n
        self.shifts = [0] * n
        self.diff = 0
        tops = []  # (max or sum, indices): the largest field of each block
        high = n  # the fields at and above ``high`` belong to earlier blocks
        for kind, names in blocks:
            idx = [ring.index(v) for v in names]
            low = high - len(idx)
            for j, i in enumerate(idx):
                if kind == "lex":
                    self.shifts[i] = (high - 1 - j) * step
                    self.weights[i] = 1 << self.shifts[i]
                else:
                    self.shifts[i] = (low + j) * step
                    self.weights[i] = sum(1 << (k * step)
                                          for k in range(low + j, high))
                    if j:
                        self.diff |= ((1 << step) - 1) << self.shifts[i]
            if idx:
                tops.append((max if kind == "lex" else sum, idx))
            high = low
        # ``encode`` calls ``top`` on every term, so with one block it is the
        # builtin max or sum over the whole tuple (the general form slows
        # the many small bases of membership sampling by about 7 %); with
        # no variables, 0
        self.top = tops[0][0] if len(tops) == 1 else lambda e: max(
            (f(e[i] for i in idx) for f, idx in tops), default=0)

    def widened(self) -> "_Encoding":
        return _Encoding(self.order, self.ring, 2 * self.width)

    def pack(self, e: Exponents) -> int:
        return sum(map(mul, e, self.weights))

    def repack(self, row: Packed, old: "_Encoding") -> Packed:
        """A row packed by ``old``, packed by this encoding."""
        return {self.pack(old.unpack(m)): c for m, c in row.items()}

    def exponent_fields(self, m: int) -> int:
        """The int whose fields are the exponents of m: m's own field in a
        lex block, the difference of adjacent partial sums in a degrevlex
        block (``diff`` masks the fields that subtract the one below, so a
        pure lex order gives m itself).  For fitting ints l and m, l divides
        m iff ``exponent_fields(m) - exponent_fields(l)`` has no guard bit
        set: a field that would go negative borrows from its guard bit."""
        return m - ((m << self.step) & self.diff)

    def unpack(self, m: int) -> Exponents:
        mask = (1 << self.step) - 1
        return tuple(map(mask.__and__,
                         map(self.exponent_fields(m).__rshift__, self.shifts)))


class _Reducer:
    """Primitive integer rows of packed monomials with their leads, and the
    one fraction-free division by them that Buchberger's algorithm and
    ``normal_form`` share.

    The guard-bit invariant: the leads, the rows, every cached monomial and
    every int ``encode`` returns fit (``encode`` widens first when its input
    would not), and so does any divisor of a fitting int.  The kernel only
    ever adds two fitting ints.  Such a sum may carry into guard bits but
    never past them, so it is still exact: it compares, decodes and
    re-encodes correctly.  ``reduce`` checks every monomial it pops and has
    not seen before for a guard bit before it uses it again; on a carry it
    re-encodes every row and its input with fields twice as wide
    (``_widen``) and divides again, so an overflow costs time, never an
    answer.  A packed int held by a caller is valid until its next call of
    ``encode`` or ``reduce``.

    Each monomial seen is cached with its first divisor among the leads, so
    repeated divisions do not rescan the leads; a row is only ever appended,
    or replaced by one with the same lead, which keeps a cached divisor
    valid (``_buchberger``'s final pass, which drops rows, clears the cache).
    """

    __slots__ = ("code", "exps", "leads", "rows", "_divs", "_seen")

    def __init__(self, order: TermOrder, ring: PolyRing,
                 rows: Sequence[Row] = ()):
        self.code = _Encoding(
            order, ring, max(_START_BITS // max(ring.nvars, 1) - 1, 1))
        self.exps: List[Exponents] = []  # the leads as exponent tuples
        self.leads: List[int] = []
        self.rows: List[Packed] = []
        self._divs: List[int] = []  # exponent_fields of the leads
        self._seen: Dict[int, list] = {}
        for row in rows:
            self.append(self.encode(row))

    def encode(self, row: Row) -> Packed:
        top = max(map(self.code.top, row), default=0)
        while top > self.code.limit:
            self._widen({})
        pack = self.code.pack
        return {pack(e): c for e, c in row.items()}

    def decode(self, row: Packed) -> Row:
        unpack = self.code.unpack
        return {unpack(m): c for m, c in row.items()}

    def reduces_to_zero(self, row: Row) -> bool:
        """Does ``row`` leave a zero remainder?  For rows that form a
        Groebner basis: does it lie in their ideal?"""
        return not self.reduce(self.encode(row))[0]

    def append(self, row: Packed) -> int:
        """Enter a nonzero row; returns its index."""
        lead = max(row)
        self.leads.append(lead)
        self.exps.append(self.code.unpack(lead))
        self._divs.append(self.code.exponent_fields(lead))
        self.rows.append(row)
        return len(self.rows) - 1

    def _widen(self, row: Packed) -> Packed:
        """Re-encode the rows with fields twice as wide; returns ``row``
        re-encoded too."""
        old, new = self.code, self.code.widened()
        self.code = new
        self.leads[:] = map(new.pack, self.exps)
        self._divs[:] = map(new.exponent_fields, self.leads)
        self.rows[:] = [new.repack(r, old) for r in self.rows]
        self._seen.clear()
        return new.repack(row, old)

    def s_polynomial(self, i: int, j: int, lcm: Exponents) -> Packed:
        """(c_j/g) x^(lcm/lead_i) row_i - (c_i/g) x^(lcm/lead_j) row_j with
        c the lead coefficients and g = gcd(c_i, c_j).

        lcm/lead_i divides lead_j, so both shifts fit and every term is the
        sum of two fitting ints, for ``reduce`` to check.
        """
        lcm = self.code.pack(lcm)
        ri, rj = self.rows[i], self.rows[j]
        ci, cj = ri[self.leads[i]], rj[self.leads[j]]
        d = math.gcd(ci, cj)
        sp: Packed = {}
        for row, shift, scale in ((ri, lcm - self.leads[i], cj // d),
                                  (rj, lcm - self.leads[j], -(ci // d))):
            for m, c in row.items():
                m += shift
                sp[m] = sp.get(m, 0) + scale * c
        return {m: c for m, c in sp.items() if c}

    def reduce(self, row: Packed) -> Tuple[Packed, int]:
        """Full division of ``row``.

        Returns ``(r, m)`` with ``m != 0`` the product of the scalings, such
        that ``m * row - r`` lies in the ideal of the rows and no term of
        ``r`` is divisible by a lead; ``r / m`` is the exact remainder over Q.
        ``r`` is in the encoding current at return.
        """
        while True:
            try:
                return self._divide(row)
            except _Overflow:
                row = self._widen(row)

    def _divide(self, row: Packed) -> Tuple[Packed, int]:
        leads, rows, divs, seen = self.leads, self.rows, self._divs, self._seen
        guard, fields, n = self.code.guard, self.code.exponent_fields, len(divs)
        remaining = dict(row)
        out: Dict[int, Tuple[int, int]] = {}
        mult = 1
        # a min-heap of the negated monomials pops the largest first
        heap = [-m for m in remaining]
        heapq.heapify(heap)
        while heap:
            m = -heapq.heappop(heap)
            c = remaining.pop(m, 0)
            if not c:
                continue
            # seen[m]: [index of the first lead dividing m or -1, leads
            # tried, exponent_fields(m)]
            entry = seen.get(m)
            if entry is None:
                if m & guard:
                    raise _Overflow
                entry = seen[m] = [-1, 0, fields(m)]
            i = entry[0]
            if i < 0:
                d = entry[2]
                for k in range(entry[1], n):
                    if not (d - divs[k]) & guard:
                        entry[0] = i = k
                        break
                entry[1] = n
            if i < 0:
                out[m] = (c, mult)  # rescaled by the later scalings at the end
                continue
            lm, g = leads[i], rows[i]
            d = math.gcd(c, g[lm])
            a, b = g[lm] // d, -(c // d)
            if a != 1:
                mult *= a
                for k in remaining:
                    remaining[k] *= a
            shift = m - lm
            for gm, gc in g.items():
                if gm == lm:
                    continue
                nm = gm + shift
                s = remaining.get(nm)
                if s is None:
                    heapq.heappush(heap, -nm)
                    remaining[nm] = b * gc
                else:
                    s += b * gc
                    if s:
                        remaining[nm] = s
                    else:
                        del remaining[nm]
            # terms already moved to `out` are irreducible and unaffected:
            # the subtracted tail only introduces monomials strictly below m
        return {m: c * (mult // k) for m, (c, k) in out.items()}, mult


class GroebnerBasis:
    """A Groebner basis with its order; generators are primitive integer
    polynomials with positive leading coefficient.  ``_reducer``, private,
    is the kernel already holding the generators as rows, in order, which
    ``gb_buchberger`` hands over; without it they are packed afresh."""

    __slots__ = ("generators", "order", "reduced", "_ring", "_key", "_leads",
                 "_reducer")

    def __init__(self, generators: List[Poly], order: TermOrder, reduced: bool,
                 _reducer: Optional[_Reducer] = None):
        self.generators = generators
        self.order = order
        self.reduced = reduced
        self._ring = generators[0].ring if generators else None
        self._key = order.key_function(self._ring) if self._ring else None
        if _reducer is None and generators:
            _reducer = _Reducer(order, self._ring,
                                [g.primitive_terms()[0] for g in generators])
        self._reducer = _reducer
        self._leads = self._reducer.exps if generators else []

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


def normal_form(p: Poly, G: GroebnerBasis) -> Poly:
    """Exact remainder over Q of p under full division by G; p - result lies
    in <G>."""
    if p.ring != G.ring:
        p = p.map_to(G.ring)
    row, scale = p.primitive_terms()
    reducer = G._reducer
    rem, mult = reducer.reduce(reducer.encode(row))
    scale /= mult
    return Poly(G.ring, {e: c * scale for e, c in reducer.decode(rem).items()})


def gb_buchberger(gens: Sequence[Poly], order: TermOrder,
                  stop_at_unit: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of <gens> by Buchberger's algorithm: the
    primitive integer rows of the nonzero generators go through
    ``_buchberger``, and the reduced rows are decoded once, into the
    ``Poly`` generators of a basis that keeps the kernel holding them."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    basis = _buchberger([g.primitive_terms()[0] for g in gens], order, ring,
                        stop_at_unit)
    return GroebnerBasis([from_row(ring, basis.decode(r)) for r in basis.rows],
                         basis.code.order, True, basis)


def _buchberger(rows: Sequence[Row], order: TermOrder, ring: PolyRing,
                stop_at_unit: bool = False) -> _Reducer:
    """The reduced Groebner basis of the ideal of the nonzero primitive
    integer rows over ``ring``, as a kernel holding its rows, primitive with
    positive lead coefficients, in increasing lead order.

    The basis is kept as primitive integer rows: each row is divided by its
    integer content when it enters the basis.  S-polynomials and reductions
    are fraction-free, by the same kernel that ``normal_form`` uses.  The
    input enters first, in increasing lead order (Giovini et al., "One sugar
    cube, please", ISSAC 1991): each generator is reduced by the smaller
    leads before it divides others, so no large unreduced input scales
    every later division.  Pairs are then selected by the sugar strategy and
    pruned by the Gebauer-Moeller update (criteria M, F and B and the
    coprime-lead criterion), run once for each new basis element; an
    element whose lead a newer lead divides gets no new pairs.  With
    ``stop_at_unit`` the computation returns the basis {1} as soon as a
    constant enters the basis.

    The final pass reduces the tail of each minimal-lead row in place, in
    increasing lead order, then keeps only those rows: the kernel that ran
    the algorithm is the one returned, so a widening during the pass
    re-packs the rows already reduced along with all the others.
    """
    order = order.for_ring(ring)
    basis = _Reducer(order, ring)
    leads = basis.exps
    sugars: List[int] = []
    active: List[int] = []  # the basis elements no newer lead divides
    pairs: List[Tuple[Tuple, int, int]] = []  # heap of ((sugar, deg, lcm), i, j)

    def add_row(row: Packed, sugar: int) -> bool:
        """Enter a reduced row and update the pairs; True if it is constant."""
        h = basis.append(_primitive_row(row, max(row)))
        lh = leads[h]
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

    code = basis.code
    packed = [basis.encode(row) for row in rows]
    if basis.code is not code:  # an encode widened: pack all by the last one
        packed = [basis.encode(row) for row in rows]
    pending = sorted(zip(packed, [max(map(sum, row)) for row in rows]),
                     key=lambda p: max(p[0]))
    unit_found = False
    while pending and not unit_found:
        code = basis.code
        row, sugar = pending.pop(0)
        row = basis.reduce(row)[0]
        if basis.code is not code:  # the reduce widened: re-pack the rest
            pending = [(basis.code.repack(r, code), s) for r, s in pending]
        unit_found = bool(row) and add_row(row, sugar)

    while pairs and not unit_found:
        (_, _, lcm), i, j = heapq.heappop(pairs)
        rem = basis.reduce(basis.s_polynomial(i, j, lcm))[0]
        if rem:
            sugar = max(sugars[i] + sum(lcm) - sum(leads[i]),
                        sugars[j] + sum(lcm) - sum(leads[j]))
            unit_found = add_row(rem, sugar)

    if unit_found and stop_at_unit:
        return _Reducer(order, ring, [{(0,) * ring.nvars: 1}])

    # the active leads are minimal (no lead divides a monomial below it, so
    # a row never reduces its own tail)
    keep = sorted(active, key=basis.leads.__getitem__)
    for g in keep:
        tail = dict(basis.rows[g])
        lc = tail.pop(basis.leads[g])
        row, mult = basis.reduce(tail)
        row[basis.leads[g]] = lc * mult  # read after reduce: it may re-encode
        basis.rows[g] = _primitive_row(row, basis.leads[g])
    for seq in (basis.rows, basis.leads, basis.exps, basis._divs):
        seq[:] = [seq[g] for g in keep]
    basis._seen.clear()
    return basis


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


def staircase_complement(leads: Sequence[Exponents], ring: PolyRing,
                         variables: Optional[Sequence[str]] = None,
                         limit: int = 10_000) -> List[Exponents]:
    """The monomials in ``variables`` (default: all of the ring's) that no
    lead divides, unsorted.

    Raises InfiniteColength if some variable has no pure power among the
    leads, which makes them infinitely many, and CertificationFailed if
    there are finitely many but more than ``limit``.  A constant lead
    divides every monomial and leaves none.
    """
    zero = (0,) * ring.nvars
    if zero in leads:
        return []
    idx = [ring.index(v) for v in
           (ring.variables if variables is None else variables)]
    for i in idx:
        if not any(lm[i] > 0 and sum(lm) == lm[i] for lm in leads):
            raise InfiniteColength(
                f"no pure power of {ring.variables[i]!r} among leading terms")
    found, frontier, seen = [], [zero], {zero}
    while frontier:
        e = frontier.pop()
        if any(mono_divides(lm, e) for lm in leads):
            continue
        found.append(e)
        if len(found) > limit:
            raise CertificationFailed(f"more than {limit} standard monomials")
        for i in idx:
            ne = e[:i] + (e[i] + 1,) + e[i + 1:]
            if ne not in seen:
                seen.add(ne)
                frontier.append(ne)
    return found


def standard_monomials(G: GroebnerBasis, max_check: int = 10_000,
                       variables: Optional[Sequence[str]] = None) -> QuotientBasis:
    """All monomials (in the given variables) outside the leading-term ideal,
    sorted by the basis order; see ``staircase_complement``."""
    found = staircase_complement(G.leading_monomials(), G.ring, variables,
                                 max_check)
    found.sort(key=G._key)
    return QuotientBasis(G.ring, found)
