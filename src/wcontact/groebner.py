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
``leading_monomials()``).

Buchberger's pair criteria run on the same ints in a second form,
``exponent_fields``, whose fields are the exponents themselves: for two
such ints l and m, l divides m iff m - l sets no guard bit, lcm(l, m) takes
each field from the one whose field the guard bits of (l | guard) - m
select (``_Encoding.lcm``), and the leads are coprime iff that lcm is l + m.

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

# the most standard monomials a staircase may have before its count is
# refused as uncertifiable
STAIRCASE_LIMIT = 10_000


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

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two fitting monomials given by their
        ``exponent_fields``, in the same form.  A field of (a | guard) - b
        never borrows from the next one and keeps its guard bit exactly
        where a's field is at least b's; the other fields are b's, whose
        guard bits are clear."""
        k = (((a | self.guard) - b) & self.guard) >> self.width
        mask = (k << self.width) - k  # the value bits of the fields of a
        return (a & mask) | (b & ~mask)

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

    def s_polynomial(self, i: int, j: int, lcm: int) -> Packed:
        """(c_j/g) x^(lcm/lead_i) row_i - (c_i/g) x^(lcm/lead_j) row_j with
        c the lead coefficients, g = gcd(c_i, c_j) and ``lcm`` packed.

        lcm/lead_i divides lead_j, so both shifts fit and every term is the
        sum of two fitting ints, for ``reduce`` to check.
        """
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
        if not self.rows:
            return row, 1
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

    __slots__ = ("generators", "order", "_ring", "_key", "_leads", "_reducer")

    def __init__(self, generators: List[Poly], order: TermOrder,
                 _reducer: Optional[_Reducer] = None):
        self.generators = generators
        self.order = order
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
                         basis.code.order, basis)


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
    every later division.  Pairs are then selected by the sugar strategy,
    ties going to the smaller lcm in the basis's order, and pruned by the
    Gebauer-Moeller update (criteria M, F and B and the coprime-lead
    criterion) on the kernel's ``exponent_fields`` of the leads, run once
    for each new basis element; an element whose lead a newer lead divides
    gets no new pairs.  A pending pair holds its lcm packed, as its key and
    for ``s_polynomial``, and as exponent fields, for criterion B; a
    reduction that widens the encoding recomputes both from the pair's
    leads, which keeps the heap a heap, since packed ints compare by the
    term order in every encoding.  With ``stop_at_unit`` the computation
    returns the basis {1} as soon as a constant enters the basis.

    The final pass reduces the tail of each minimal-lead row in place, in
    increasing lead order, then keeps only those rows: the kernel that ran
    the algorithm is the one returned, so a widening during the pass
    re-packs the rows already reduced along with all the others.
    """
    order = order.for_ring(ring)
    basis = _Reducer(order, ring)
    exps, divs = basis.exps, basis._divs
    sugars: List[int] = []
    active: List[int] = []  # the basis elements no newer lead divides
    # a heap of (sugar, packed lcm, i, j, lcm as exponent fields)
    pairs: List[Tuple[int, int, int, int, int]] = []

    def add_row(row: Packed, sugar: int) -> bool:
        """Enter a reduced row and update the pairs; True if it is constant."""
        h = basis.append(_primitive_row(row, max(row)))
        dh, code = divs[h], basis.code
        guard, lcm = code.guard, code.lcm
        sugars.append(sugar)
        # criteria M and F, then the coprime-lead criterion, on new pairs:
        # a candidate goes when a kept or a later lcm divides its own (l
        # divides m iff m - l sets no guard bit); a coprime one makes no
        # pair but its lcm still prunes
        lcms = [lcm(divs[g], dh) for g in active]
        kept, kept_lcms = [], []
        for k, g in enumerate(active):
            m = lcms[k]
            if m == divs[g] + dh:
                kept_lcms.append(m)
                continue
            for l in kept_lcms:
                if not (m - l) & guard:
                    break
            else:
                for l in lcms[k + 1:]:
                    if not (m - l) & guard:
                        break
                else:
                    kept.append((m, g))
                    kept_lcms.append(m)
        # criterion B on the pending pairs
        if pairs:
            pairs[:] = [p for p in pairs if (p[4] - dh) & guard
                        or lcm(divs[p[2]], dh) == p[4]
                        or lcm(divs[p[3]], dh) == p[4]]
            heapq.heapify(pairs)
        eh = exps[h]
        for m, g in kept:
            e = mono_lcm(exps[g], eh)
            deg = sum(e)
            pair_sugar = max(sugars[g] + deg - sum(exps[g]),
                             sugar + deg - sum(eh))
            heapq.heappush(pairs, (pair_sugar, code.pack(e), g, h, m))
        active[:] = [g for g in active if (divs[g] - dh) & guard]
        active.append(h)
        return not dh

    def reduce(row: Packed) -> Packed:
        """The remainder of ``row``; a widening re-packs what is pending."""
        old = basis.code
        row = basis.reduce(row)[0]
        code = basis.code
        if code is not old:
            pending[:] = [(code.repack(r, old), s) for r, s in pending]
            pairs[:] = [(s, code.pack(mono_lcm(exps[i], exps[j])), i, j,
                         code.lcm(divs[i], divs[j]))
                        for s, _, i, j, _ in pairs]
        return row

    code = basis.code
    packed = [basis.encode(row) for row in rows]
    if basis.code is not code:  # an encode widened: pack all by the last one
        packed = [basis.encode(row) for row in rows]
    pending = sorted(zip(packed, [max(map(sum, row)) for row in rows]),
                     key=lambda p: max(p[0]))
    unit_found = False
    while pending and not unit_found:
        row, sugar = pending.pop(0)
        row = reduce(row)
        unit_found = bool(row) and add_row(row, sugar)

    # a pair's sugar is that of its S-polynomial's remainder
    while pairs and not unit_found:
        sugar, lcm, i, j, _ = heapq.heappop(pairs)
        rem = reduce(basis.s_polynomial(i, j, lcm))
        if rem:
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


def radical_membership(p: Poly, gens: Sequence[Poly]) -> bool:
    """Rabinowitsch test: p vanishes on V(<gens>) iff 1 in <gens, 1 - T*p>."""
    if p.is_zero():
        return True
    ring = p.ring
    tname = ring.fresh("T_")
    ext = PolyRing((tname,) + ring.variables)
    ext_gens = [g.map_to(ext) for g in gens]
    ext_gens.append(ext.one() - ext.var(tname) * p.map_to(ext))
    order = TermOrder.degrevlex(ext.variables)
    G = gb_buchberger(ext_gens, order, stop_at_unit=True)
    return G.is_unit_ideal()


def staircase_complement(leads: Sequence[Exponents],
                         ring: PolyRing) -> List[Exponents]:
    """The monomials of the ring that no lead divides, unsorted.

    Raises InfiniteColength if some variable has no pure power among the
    leads, which makes them infinitely many, and CertificationFailed if
    there are finitely many but more than ``STAIRCASE_LIMIT``.  A constant
    lead divides every monomial and leaves none.
    """
    zero = (0,) * ring.nvars
    if zero in leads:
        return []
    for i in range(ring.nvars):
        if not any(lm[i] > 0 and sum(lm) == lm[i] for lm in leads):
            raise InfiniteColength(
                f"no pure power of {ring.variables[i]!r} among leading terms")
    found, frontier, seen = [], [zero], {zero}
    while frontier:
        e = frontier.pop()
        if any(mono_divides(lm, e) for lm in leads):
            continue
        found.append(e)
        if len(found) > STAIRCASE_LIMIT:
            raise CertificationFailed(
                f"more than {STAIRCASE_LIMIT} standard monomials")
        for i in range(ring.nvars):
            ne = e[:i] + (e[i] + 1,) + e[i + 1:]
            if ne not in seen:
                seen.add(ne)
                frontier.append(ne)
    return found


def standard_monomials(G: GroebnerBasis) -> QuotientBasis:
    """All monomials outside the leading-term ideal, sorted by the basis
    order; see ``staircase_complement``."""
    found = staircase_complement(G.leading_monomials(), G.ring)
    found.sort(key=G._key)
    return QuotientBasis(G.ring, found)
