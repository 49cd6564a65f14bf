"""Exact rational linear algebra, cross-checked against sympy."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from wcontact.errors import UsageError
from wcontact.linalg import MatrixQ, echelon
from wcontact.nondegeneracy import PhiReport
from wcontact.poly import PolyRing, TermOrder


class TestBasics:
    def test_identity_rank(self):
        M = MatrixQ([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        R, pivots = M.rref()
        assert M.rank() == 3 and R.rows == M.rows and pivots == [0, 1, 2]

    def test_zero_matrix(self):
        M = MatrixQ([[0, 0, 0], [0, 0, 0]])
        assert M.rank() == 0
        R, pivots = M.rref()
        assert R.rows == M.rows and pivots == []

    def test_dependent_column(self):
        M = MatrixQ([[2, 0, 2], [1, 1, 2]])
        assert M.rank() == 2
        R, pivots = M.rref()
        assert R.rows == [[1, 0, 1], [0, 1, 1]] and pivots == [0, 1]

    def test_hstack(self):
        M = MatrixQ([[1, 2], [3, 4]], row_labels=["a", "b"])
        N = M.hstack(MatrixQ([[5], [6]]))
        assert N.ncols == 3 and N.rows[0] == [1, 2, 5]
        assert N.row_labels == ["a", "b"]
        with pytest.raises(UsageError, match="row count mismatch"):
            M.hstack(MatrixQ([[5]]))

    def test_ragged_rows(self):
        with pytest.raises(UsageError, match="ragged matrix"):
            MatrixQ([[1, 2], [3]])


def _sympy_rank(rows):
    return sympy.Matrix(rows).rank()


def _random_rows(rng, nr, nc):
    """Rational entries, about half of them zero, with a zero row or a zero
    column now and then."""
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             if rng.random() < 0.5 else Fraction(0) for _ in range(nc)]
            for _ in range(nr)]
    if nr and rng.random() < 0.2:
        rows[rng.randrange(nr)] = [Fraction(0)] * nc
    if nc and rng.random() < 0.2:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = Fraction(0)
    return rows


class TestSympyCrossCheck:
    def test_exhaustive_2x2(self):
        values = range(-2, 3)
        for entries in itertools.product(values, repeat=4):
            rows = [list(entries[:2]), list(entries[2:])]
            assert MatrixQ(rows).rank() == _sympy_rank(rows)

    def test_random_up_to_4x4(self):
        rng = random.Random(2024)
        for _ in range(300):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-2, 2) for _ in range(nc)]
                    for _ in range(nr)]
            assert MatrixQ(rows).rank() == _sympy_rank(rows)

    def test_random_rational_entries(self):
        rng = random.Random(7)
        for _ in range(100):
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(3)] for _ in range(3)]
            assert MatrixQ(rows).rank() == \
                sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                               for x in r] for r in rows]).rank()

    def test_rref_matches_sympy(self):
        """Matrix and pivots, on empty matrices, zero rows and zero columns
        too; both are unique."""
        rng = random.Random(20261018)
        for _ in range(2000):
            nr, nc = rng.randint(0, 7), rng.randint(0, 7)
            rows = _random_rows(rng, nr, nc) if nr else []
            R, pivots = MatrixQ(rows).rref()
            S, spivots = sympy.Matrix(
                nr, nc if nr else 0,
                [sympy.Rational(x.numerator, x.denominator)
                 for row in rows for x in row]).rref()
            assert pivots == list(spivots)
            assert R.rows == [[Fraction(int(x.p), int(x.q)) for x in row]
                              for row in S.tolist()]


def _greedy_cokernel(M: MatrixQ):
    """The unit vectors e_i, in row order, that the column space and the
    unit vectors picked before do not span: add one unit column at a time
    and keep it when the rank grows."""
    coker = []
    probe = M
    for i in range(M.nrows):
        if probe.rank() == M.nrows:
            break
        unit = MatrixQ([[Fraction(1 if r == i else 0)]
                        for r in range(M.nrows)])
        cand = probe.hstack(unit)
        if cand.rank() > probe.rank():
            probe = cand
            coker.append(M.row_labels[i] if M.row_labels else str(i))
    return coker


class TestCokernel:
    def test_matches_greedy_loop(self):
        rng = random.Random(1018)
        for n in range(1000):
            nr, nc = rng.randint(1, 7), rng.randint(0, 7)
            labels = [f"m{i}" for i in range(nr)] if n % 2 else None
            M = MatrixQ(_random_rows(rng, nr, nc), row_labels=labels)
            rep = PhiReport.from_matrix(M)
            assert rep.cokernel_monomials == _greedy_cokernel(M)
            assert rep.rank == M.rank() == nr - len(rep.cokernel_monomials)
            assert rep.surjective == (rep.rank == nr)

    def test_empty_map(self):
        rep = PhiReport.from_matrix(MatrixQ([]))
        assert (rep.rank, rep.quotient_dimension, rep.surjective,
                rep.cokernel_monomials) == (0, 0, True, [])


def fraction_echelon(rows, key):
    """The elimination over Q on Fraction rows, with monic pivots
    throughout: the fraction-free ``echelon`` must give the same leads, the
    same rows and the same insertion orders."""
    pivots = {}
    tails = {}
    for row in rows:
        row = dict(row)
        for lead in [e for e in row if e in pivots]:
            f = row.pop(lead)
            for e, c in pivots[lead].items():
                if e == lead:
                    continue
                s = row.get(e, 0) - f * c
                if s:
                    row[e] = s
                else:
                    del row[e]
        if not row:
            continue
        lead = max(row, key=key)
        lc = row[lead]
        row = {e: c / lc for e, c in row.items()}
        for plead in tails.pop(lead, ()):
            prow = pivots[plead]
            f = prow[lead]
            for e, c in row.items():
                s = prow.get(e, 0) - f * c
                if s:
                    if e not in prow:
                        tails.setdefault(e, set()).add(plead)
                    prow[e] = s
                else:
                    del prow[e]
                    if e != lead:
                        tails[e].discard(plead)
        for e in row:
            if e != lead:
                tails.setdefault(e, set()).add(lead)
        pivots[lead] = row
    return pivots


def _ordered(pivots):
    """Leads and rows with their dict orders, and the type of every entry."""
    return [(lead, list(row.items()), {type(c) for c in row.values()})
            for lead, row in pivots.items()]


def _sparse_rows(rng, columns):
    """Sparse rational rows over ``columns``, with duplicate rows, scaled
    copies, empty rows and combinations of earlier rows (rank deficiency)."""
    rows = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif rows and kind < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            fa = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            fb = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            row = {e: fa * a.get(e, 0) + fb * b.get(e, 0)
                   for e in list(a) + list(b)}
            rows.append({e: c for e, c in row.items() if c})
        elif kind < 0.35:
            rows.append({})
        else:
            cols = rng.sample(columns, rng.randint(1, min(5, len(columns))))
            rows.append({e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                                     rng.randint(1, 6)) for e in cols})
    return rows


_GRKEY = TermOrder.degrevlex(("x", "y", "z")).key_function(
    PolyRing(("x", "y", "z")))


def _local_key(e):
    """The local order of ``LocalIdeal``: the lowest degree leads."""
    return (-sum(e), _GRKEY(e))


class TestFractionFreeEchelon:
    def test_matches_fraction_oracle(self):
        """Over 400 seeded row sets, on integer columns under int.__neg__
        and on exponent tuples under a local order."""
        rng = random.Random(16)
        monos = [(a, b, c) for a in range(3) for b in range(3)
                 for c in range(3) if a + b + c <= 3]
        for n in range(400):
            if n % 2:
                columns, key = monos, _local_key
            else:
                columns, key = list(range(rng.randint(1, 9))), int.__neg__
            rows = _sparse_rows(rng, columns)
            got = echelon(iter(rows), key)
            assert _ordered(got) == _ordered(fraction_echelon(rows, key))
            for lead, row in got.items():
                assert row[lead] == 1

    def test_empty_input(self):
        assert echelon([], int.__neg__) == {}
        assert echelon([{}, {}], int.__neg__) == {}

    def test_large_common_content(self):
        """Rows sharing a large prime content give the exact monic rows
        of the rows without it."""
        p = 2 ** 127 - 1
        rows = [{0: Fraction(3, 7), 1: Fraction(1), 2: Fraction(-5, 2)},
                {0: Fraction(2), 2: Fraction(4, 9)},
                {1: Fraction(-1, 3), 3: Fraction(6)}]
        scaled = [{e: c * p for e, c in row.items()} for row in rows]
        got = echelon(scaled, int.__neg__)
        assert _ordered(got) == _ordered(fraction_echelon(rows, int.__neg__))
        assert got == fraction_echelon(scaled, int.__neg__)
        assert all(type(c) is Fraction and c.denominator < p and
                   abs(c.numerator) < p for row in got.values()
                   for c in row.values())
