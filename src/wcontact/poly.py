"""Sparse multivariate polynomials over exact rationals.

A :class:`Poly` stores a mapping from exponent tuples to nonzero
:class:`fractions.Fraction` coefficients, relative to the ordered variable
table of its :class:`PolyRing`.  All arithmetic is exact; no floating point
is used anywhere in the package.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from .errors import ParseError, UnknownVariable, UsageError

Exponents = Tuple[int, ...]
Row = Dict[Exponents, int]  # an integer row: a polynomial up to a scale

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_']*")


class PolyRing:
    """An ordered variable table; the factory for polynomials over Q."""

    __slots__ = ("variables", "_index")

    def __init__(self, variables: Iterable[str]):
        self.variables: Tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise UsageError(f"duplicate variable names: {self.variables}")
        for v in self.variables:
            if not _NAME_RE.fullmatch(v):
                raise UsageError(f"invalid variable name: {v!r}")
        self._index = {v: i for i, v in enumerate(self.variables)}

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"PolyRing({', '.join(self.variables)})"

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r} in {self!r}") from None

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Poly":
        i = self.index(name)
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): Fraction(1)})

    def monomial(self, exps: Exponents, coeff=1) -> "Poly":
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        assert len(exps) == self.nvars
        return Poly(self, {tuple(exps): coeff})

    def extend(self, extra: Iterable[str]) -> "PolyRing":
        """Ring with additional variables appended to the table."""
        new = [v for v in extra if v not in self._index]
        return PolyRing(self.variables + tuple(new))

    def fresh(self, name: str) -> str:
        """``name``, with ``_`` appended while it is a variable of this ring:
        the name of an auxiliary variable that no input variable can be."""
        while name in self._index:
            name += "_"
        return name

    def parse(self, text: str) -> "Poly":
        return _parse(text, self)


class Poly:
    """Immutable sparse polynomial; do not mutate ``terms`` after construction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Dict[Exponents, Fraction]):
        self.ring = ring
        self.terms = terms

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.nvars, Fraction(0))

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise UsageError(f"not a constant: {self}")
        return self.constant_term()

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def variables_used(self) -> Tuple[str, ...]:
        used = [False] * self.ring.nvars
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used[i] = True
        return tuple(v for i, v in enumerate(self.ring.variables) if used[i])

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise UsageError(f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return self.ring.zero()
            return Poly(self.ring, {e: c * q for e, c in self.terms.items()})
        other = self._coerce(other)
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        arow, ascale = a.primitive_terms()
        brow, bscale = b.primitive_terms()
        scale = ascale * bscale
        return from_row(self.ring, row_product(arow, list(brow.items())),
                        scale.numerator, scale.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative exponent")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        q = Fraction(other)
        return self * (1 / q)

    # -- structure --------------------------------------------------------

    def map_to(self, ring: PolyRing) -> "Poly":
        """Reinterpret in another ring containing all used variables."""
        if ring == self.ring:
            return self
        mapping = []
        for i, v in enumerate(self.ring.variables):
            if v in ring._index:
                mapping.append(ring._index[v])
            else:
                mapping.append(-1)
        terms: Dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            new = [0] * ring.nvars
            for i, k in enumerate(e):
                if k:
                    if mapping[i] < 0:
                        raise UnknownVariable(
                            f"variable {self.ring.variables[i]!r} not in {ring!r}")
                    new[mapping[i]] = k
            terms[tuple(new)] = c
        return Poly(ring, terms)

    def subs(self, assignments: Dict[str, "Poly | int | Fraction"]) -> "Poly":
        """Substitute constants or polynomials for variables, all at once, in
        one pass over the terms; each power of a value is formed once.

        A constant folds into the coefficient, so a zero drops every term it
        touches.  A polynomial value is read in this ring by variable name
        (``map_to``: UnknownVariable when it does not fit) and multiplies
        the rest of the term.  Terms come in the order of their first nonzero
        contribution."""
        ring = self.ring
        values = [(ring.index(name), v.map_to(ring) if isinstance(v, Poly)
                   else Fraction(v)) for name, v in assignments.items()]
        pow_cache: Dict[Tuple[int, int], "Fraction | Poly"] = {}
        terms: Dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            rest, factor = list(e), None
            for i, v in values:
                k = e[i]
                if not k:
                    continue
                rest[i] = 0
                q = pow_cache.get((i, k))
                if q is None:
                    q = pow_cache[i, k] = v ** k
                if isinstance(q, Poly):
                    factor = q if factor is None else factor * q
                else:
                    c *= q
            if not c:
                continue
            rest = tuple(rest)
            if factor is None:
                terms[rest] = terms.get(rest, 0) + c
                continue
            for fe, fc in factor.terms.items():
                ne = tuple(map(int.__add__, fe, rest))
                terms[ne] = terms.get(ne, 0) + c * fc
        return Poly(ring, {e: c for e, c in terms.items() if c})

    def eval(self, point: Dict[str, "int | Fraction"]) -> Fraction:
        """Evaluate at a rational point assigning every used variable."""
        for v in self.variables_used():
            if v not in point:
                raise UnknownVariable(f"no value for {v!r}")
        return self.subs(point).constant_term()

    def partial(self, name: str) -> "Poly":
        i = self.ring.index(name)
        terms: Dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                new = list(e)
                new[i] -= 1
                terms[tuple(new)] = c * e[i]
        return Poly(self.ring, terms)

    def coeff_split(self, geo_indices: Iterable[int]) -> Dict[Exponents, "Poly"]:
        """Group terms by their monomial in the given variables.

        Keys are exponent tuples over the full table with non-geometric
        entries zeroed; values collect the complementary factors.
        """
        geo = set(geo_indices)
        out: Dict[Exponents, Dict[Exponents, Fraction]] = {}
        for e, c in self.terms.items():
            gkey = tuple(k if i in geo else 0 for i, k in enumerate(e))
            rest = tuple(0 if i in geo else k for i, k in enumerate(e))
            out.setdefault(gkey, {})[rest] = c
        return {g: Poly(self.ring, t) for g, t in out.items()}

    def primitive_terms(self) -> Tuple[Dict[Exponents, int], Fraction]:
        """Return (terms, scale) with self = scale * terms, scale > 0 and
        ``terms`` coprime Python ints (empty, with scale 1, for zero).

        The sign of the primitive part is left to the caller (printing makes
        the leading coefficient positive under the active order).
        """
        if not self.terms:
            return {}, Fraction(1)
        dens = [c.denominator for c in self.terms.values()]
        denom_lcm = math.lcm(*dens)
        ints = {e: c.numerator * (denom_lcm // d)
                for (e, c), d in zip(self.terms.items(), dens)}
        num_gcd = math.gcd(*ints.values())
        if num_gcd != 1:
            ints = {e: c // num_gcd for e, c in ints.items()}
        return ints, Fraction(num_gcd, denom_lcm)

    # -- printing ---------------------------------------------------------

    def sorted_terms(self, order: "TermOrder" = None):
        """Terms sorted descending under the order (default degrevlex)."""
        order = order or TermOrder.degrevlex(self.ring.variables)
        key = order.key_function(self.ring)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __str__(self):
        return poly_str(self)

    __repr__ = __str__


# -- integer rows ----------------------------------------------------------

def from_row(ring: PolyRing, row: Row, n: int = 1, d: int = 1) -> Poly:
    """The polynomial (n/d)·row, d > 0, built with one ``Fraction`` per
    term."""
    return Poly(ring, {e: Fraction(c * n, d) for e, c in row.items()})


def row_product(a: Row, b: Sequence[Tuple[Exponents, int]],
                cut: Optional[Callable[[Exponents], int]] = None) -> Row:
    """The product of the integer rows a and b, b given as its (exponents,
    coefficient) pairs; with ``cut``, a term e of a meets only the first
    cut(e) pairs of b.  A sum that cancels leaves the dict, so the terms
    come in the order in which they last appear."""
    terms: Row = {}
    for e1, c1 in a.items():
        for e2, c2 in (b[:cut(e1)] if cut else b):
            e = tuple(map(int.__add__, e1, e2))
            s = terms.get(e, 0) + c1 * c2
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return terms


class Specialization:
    """A polynomial p compiled for substituting constants for the variables
    of its ring that ``names`` holds and writing the result into ``ring``;
    calling it at a point that names every substituted variable specialises
    p there on integers alone.  It is the compiled path for one polynomial
    at many points, as the sampling of ``verify_membership_equivalence``
    needs; ``Poly.subs`` is the path for one substitution.

    Each term keeps its coefficient c in the primitive form of p, its
    exponents k_i in the substituted variables and its exponents in
    ``ring``.  At values n_i/d_i it is worth c·Π n_i^k_i·d_i^(K_i−k_i), K_i
    the largest k_i in p: its value times p's scale and Π d_i^K_i.  A
    variable that p uses, that is not substituted and that ``ring`` lacks
    raises UnknownVariable here, as ``map_to`` does, so no term is dropped.
    """

    __slots__ = ("names", "degrees", "scale", "terms")

    def __init__(self, p: Poly, names, ring: PolyRing):
        used = p.variables_used()
        for v in used:
            if v not in names and v not in ring._index:
                raise UnknownVariable(f"variable {v!r} not in {ring!r}")
        # where each exponent in ring comes from (-1: it is 0)
        take = [-1 if v in names else p.ring._index.get(v, -1)
                for v in ring.variables]
        self.names = tuple([v for v in used if v in names])
        fixed = [p.ring.index(v) for v in self.names]
        self.degrees = tuple([max([e[i] for e in p.terms]) for i in fixed])
        row, self.scale = p.primitive_terms()
        self.terms: List[Tuple[Exponents, int, Exponents]] = [
            (tuple([e[j] if j >= 0 else 0 for j in take]), c,
             tuple([e[i] for i in fixed])) for e, c in row.items()]

    def __call__(self, point: Dict[str, "int | Fraction"]
                 ) -> Tuple[Row, int, int]:
        """(row, n, d) with the specialised polynomial (n/d)·row, d > 0 and
        ``row`` primitive (empty for zero), its terms in the order of their
        first nonzero contribution."""
        tables = []
        den = 1
        for name, top in zip(self.names, self.degrees):
            v = point[name]
            if not isinstance(v, Fraction):
                v = Fraction(v)
            a, b = v.numerator, v.denominator
            tables.append([a ** k * b ** (top - k) for k in range(top + 1)])
            den *= b ** top
        row: Row = {}
        for e, c, ks in self.terms:
            for table, k in zip(tables, ks):
                c *= table[k]
            if c:
                s = row.get(e)
                row[e] = c if s is None else s + c
        content = math.gcd(*row.values()) or 1  # 0 when every sum cancelled
        row = {e: c // content for e, c in row.items() if c}
        return (row, self.scale.numerator * content,
                self.scale.denominator * den)


def poly_str(p: Poly, order: "TermOrder" = None) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.sorted_terms(order):
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(p.ring.variables[i])
            elif k > 1:
                factors.append(f"{p.ring.variables[i]}^{k}")
        mono = "*".join(factors)
        ac = abs(c)
        if not mono:
            body = str(ac)
        elif ac == 1:
            body = mono
        else:
            body = f"{ac}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts)


def canonical_form(p: Poly, order: "TermOrder" = None) -> Tuple[str, Fraction]:
    """Canonical printed form and the scalar relating it to the raw input.

    The canonical polynomial has coprime integer coefficients with a positive
    leading coefficient under the order; ``p = scale * canonical``.
    """
    if p.is_zero():
        return "0", Fraction(1)
    terms, scale = p.primitive_terms()
    order = order or TermOrder.degrevlex(p.ring.variables)
    if terms[max(terms, key=order.key_function(p.ring))] < 0:
        terms, scale = {e: -c for e, c in terms.items()}, -scale
    # poly_str reads the integer coefficients as it would their Fractions
    return poly_str(Poly(p.ring, terms), order), scale


class TermOrder:
    """A monomial order: lex or degrevlex with a variable priority, or a
    block order of such orders on disjoint variables (see ``then``)."""

    __slots__ = ("kind", "priority", "blocks")

    def __init__(self, kind: str, priority: Iterable[str], *rest):
        """``rest`` holds the (kind, priority) pairs of further blocks, as
        ``then`` and ``for_ring`` pass them; a block order has the kind
        "block" and the blocks' joint priority."""
        self.blocks = ((kind, tuple(priority)),) + rest
        for k, _ in self.blocks:
            if k not in ("lex", "degrevlex"):
                raise UsageError(f"unknown order kind {k!r}")
        self.kind = "block" if rest else kind
        self.priority = sum((p for _, p in self.blocks), ())
        if len(set(self.priority)) < len(self.priority):
            raise UsageError(f"a variable repeats in the order {self!r}")

    @classmethod
    def lex(cls, priority: Iterable[str]) -> "TermOrder":
        return cls("lex", priority)

    @classmethod
    def degrevlex(cls, priority: Iterable[str]) -> "TermOrder":
        return cls("degrevlex", priority)

    def then(self, other: "TermOrder") -> "TermOrder":
        """The block order comparing by this order first, then by ``other``
        (an elimination order for this order's variables)."""
        return TermOrder(*self.blocks[0], *self.blocks[1:], *other.blocks)

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.kind, self.priority))

    def __repr__(self):
        return ", ".join(f"{k} {'>'.join(p)}" for k, p in self.blocks)

    def for_ring(self, ring: PolyRing) -> "TermOrder":
        """Complete the last block with any missing ring variables
        (appended); ``self`` when none is missing."""
        missing = tuple(v for v in ring.variables if v not in self.priority)
        if not missing:
            return self
        kind, last = self.blocks[-1]
        blocks = self.blocks[:-1] + ((kind, last + missing),)
        return TermOrder(*blocks[0], *blocks[1:])

    def key_function(self, ring: PolyRing):
        """Sortable key for exponent tuples; larger key = larger monomial."""
        keys = [_block_key(kind, [ring.index(v) for v in names])
                for kind, names in self.for_ring(ring).blocks]
        return lambda e: tuple([key(e) for key in keys])

    @classmethod
    def parse(cls, text: str) -> "TermOrder":
        """Parse strings like ``"lex y>x"`` or ``"degrevlex x>y>z"``."""
        parts = text.strip().split(None, 1)
        if not parts:
            raise ParseError("empty term order")
        kind = parts[0]
        names = []
        if len(parts) > 1:
            names = [n.strip() for n in parts[1].split(">") if n.strip()]
        return cls(kind, names)


def _block_key(kind: str, perm: List[int]):
    """The key of one block, on the exponents at indices ``perm``.  (On
    tuples this short, list comprehensions are faster than generators.)"""
    if kind == "lex":
        return lambda e: tuple([e[i] for i in perm])
    rperm = perm[::-1]
    return lambda e: (sum([e[i] for i in perm]), tuple([-e[i] for i in rperm]))


# -- monomial helpers ------------------------------------------------------

def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(int.__add__, a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    """Does the monomial with exponents a divide the one with exponents b?"""
    return all(map(int.__le__, a, b))


def mono_div(b: Exponents, a: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(b, a))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-zA-Z][a-zA-Z0-9_']*)|(?P<op>[-+*^()/]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.lastgroup == "int":
            try:
                value = int(m.group("int"))
            except ValueError:  # past Python's limit on digits
                raise ParseError("integer too long", m.start("int")) from None
            tokens.append(("int", value, m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    rest = text[pos:].strip()
    if rest:
        raise ParseError(f"unexpected trailing input {rest!r}", pos)
    return tokens


def _parse(text: str, ring: PolyRing) -> Poly:
    """Recursive-descent parser for the expression grammar.

    Grammar: integers, identifiers, ``+ - * / ^ ( )``; ``^`` binds
    tightest with a nonnegative integer exponent; ``*`` and ``/`` are
    explicit and associate to the left, and a divisor must be a nonzero
    constant; unary minus is allowed, and nests with parentheses at most
    100 deep.
    """
    tokens = _tokenize(text)
    n = len(tokens)
    pos = [0]
    depth = [0]  # open parentheses and unary minus signs around the atom

    def peek():
        return tokens[pos[0]] if pos[0] < n else (None, None, len(text))

    def advance():
        pos[0] += 1

    def expect_op(op):
        t, v, p = peek()
        if t != "op" or v != op:
            raise ParseError(f"expected {op!r}", p)
        advance()

    def parse_sum() -> Poly:
        t, v, _ = peek()
        negate = False
        if t == "op" and v in "+-":
            negate = v == "-"
            advance()
        acc = parse_product()
        if negate:
            acc = -acc
        while True:
            t, v, _ = peek()
            if t == "op" and v in "+-":
                advance()
                rhs = parse_product()
                acc = acc - rhs if v == "-" else acc + rhs
            else:
                return acc

    def parse_product() -> Poly:
        acc = parse_power()
        while True:
            t, v, _ = peek()
            if t == "op" and v == "*":
                advance()
                acc = acc * parse_power()
            elif t == "op" and v == "/":
                advance()
                p = peek()[2]
                divisor = parse_power()
                if not divisor.is_constant() or divisor.is_zero():
                    raise ParseError("divisor must be a nonzero constant", p)
                acc = acc * (Fraction(1) / divisor.constant_term())
            else:
                return acc

    def parse_power() -> Poly:
        base = parse_atom()
        t, v, _ = peek()
        if t == "op" and v == "^":
            advance()
            t2, v2, p2 = peek()
            if t2 != "int":
                raise ParseError("exponent must be a nonnegative integer", p2)
            advance()
            return base ** v2
        return base

    def parse_atom() -> Poly:
        t, v, p = peek()
        if t == "int":
            advance()
            return ring.const(v)
        if t == "name":
            advance()
            if v not in ring._index:
                raise UnknownVariable(f"unknown variable {v!r}")
            return ring.var(v)
        if t == "op" and v in "(-":
            if depth[0] == 100:  # well inside Python's recursion limit
                raise ParseError("expression nested too deeply", p)
            depth[0] += 1
            advance()
            inner = -parse_atom() if v == "-" else parse_sum()
            if v == "(":
                expect_op(")")
            depth[0] -= 1
            return inner
        raise ParseError("expected a term", p)

    if not tokens:
        raise ParseError("empty expression", 0)
    result = parse_sum()
    t, _, p = peek()
    if t is not None:
        raise ParseError("unexpected token", p)
    return result
