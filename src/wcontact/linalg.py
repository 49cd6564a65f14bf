"""The package's one exact elimination over Q, and labelled matrices on it.

The elimination is fraction-free: it runs on primitive integer rows, in the
spirit of Bareiss (Math. Comp. 22, 1968), and converts to ``Fraction`` only
when it returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Tuple


def _primitive_row(row: Dict, lead) -> Dict:
    """Divide the integer row in place by its content, signed so that the
    lead coefficient is > 0; returns the row."""
    d = gcd(*row.values())
    if row[lead] < 0:
        d = -d
    if d != 1:
        for e in row:
            row[e] //= d
    return row


def echelon(rows: Iterable[Dict[Hashable, Fraction]], key: Callable
            ) -> Dict[Hashable, Dict[Hashable, Fraction]]:
    """Sparse fully reduced row echelon form of rows given as {column: value}
    with nonzero int or Fraction values: lead -> monic row in which no other
    lead occurs, the lead being the column of largest ``key``.  Inserts
    pivots in the order their leads appear.

    Each row is cleared of denominators once and eliminated on integers:
    a lead f of the row meets a pivot with lead a as
    row <- (a/g)*row - (f/g)*pivot, g = gcd(f, a).  Every row stays a
    nonzero multiple of the row the same steps give over Q, so entries
    vanish, and hence enter and leave, as they do there.  Each new pivot,
    and each pivot after a back-substitution, is divided by its content,
    which bounds its entries by those of the primitive reduced form."""
    pivots: Dict[Hashable, Dict[Hashable, int]] = {}
    # column index: column -> leads of the pivots whose tail contains it
    tails: Dict[Hashable, set] = {}
    for row in rows:
        den = lcm(*(c.denominator for c in row.values()))
        row = {e: c.numerator * (den // c.denominator) for e, c in row.items()}
        # a reduced pivot adds no lead to the row, so each lead in the row is
        # eliminated once and in any order
        for lead in [e for e in row if e in pivots]:
            f = row.pop(lead)
            prow = pivots[lead]
            a = prow[lead]
            g = gcd(f, a)
            a, f = a // g, f // g
            if a != 1:
                for e in row:
                    row[e] *= a
            for e, c in prow.items():
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
        _primitive_row(row, lead)
        a = row[lead]
        # back-substitute into the pivots whose tail holds the new lead
        for plead in tails.pop(lead, ()):
            prow = pivots[plead]
            f = prow[lead]
            g = gcd(f, a)
            m, f = a // g, f // g
            if m != 1:
                for e in prow:
                    prow[e] *= m
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
            _primitive_row(prow, plead)
        for e in row:
            if e != lead:
                tails.setdefault(e, set()).add(lead)
        pivots[lead] = row
    for lead, row in pivots.items():
        a = row[lead]
        pivots[lead] = {e: Fraction(c, a) for e, c in row.items()}
    return pivots


class MatrixQ:
    """Dense matrix over Q with optional semantic row/column labels."""

    __slots__ = ("rows", "nrows", "ncols", "row_labels", "col_labels")

    def __init__(self, rows: Sequence[Sequence], row_labels=None, col_labels=None):
        self.rows: List[List[Fraction]] = [[Fraction(x) for x in r] for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")
        self.row_labels = list(row_labels) if row_labels else None
        self.col_labels = list(col_labels) if col_labels else None

    def hstack(self, other: "MatrixQ") -> "MatrixQ":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return MatrixQ([self.rows[i] + other.rows[i] for i in range(self.nrows)],
                       row_labels=self.row_labels)

    def rref(self) -> Tuple["MatrixQ", List[int]]:
        """Reduced row echelon form and the pivot column indices."""
        pivots = echelon(({j: x for j, x in enumerate(row) if x}
                          for row in self.rows), int.__neg__)
        leads = sorted(pivots)
        rows = [[pivots[c].get(j, 0) for j in range(self.ncols)] for c in leads]
        rows += [[0] * self.ncols for _ in range(self.nrows - len(leads))]
        return MatrixQ(rows, col_labels=self.col_labels), leads

    def rank(self) -> int:
        return len(self.rref()[1])

    def __repr__(self):
        return f"MatrixQ({self.nrows}x{self.ncols})"
