"""Exact rational linear algebra, cross-checked against sympy."""

import itertools
import random
from fractions import Fraction

import sympy

from wcontact.linalg import MatrixQ
from wcontact.nondegeneracy import PhiReport


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
