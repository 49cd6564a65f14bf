"""The tangent-space maps into O/I and the surjectivity criteria.

Phi sends a tangent vector of the parameter space to the derivative of
f_lambda/g_lambda; Delta to the derivative of E_lambda; Psi captures the
contribution of parameter-dependent strata-preserving reparametrizations.
Surjectivity of the stacked Phi/Delta map is the hypothesis under which the
relative Hilbert scheme is smooth over a product of Hilbert schemes of
A_(w-1) surface singularities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import E0NotInIdeal, InconsistentResult
from .families import ContactFamily, to_normal_form
from .linalg import MatrixQ, echelon
from .poly import Poly, poly_str
from .series import (LocalIdeal, TruncatedSeries, _monomials_up_to,
                     series_invert, truncated_product)


@dataclass
class PhiReport:
    """A tangent map into O/I with its surjectivity data."""

    matrix: MatrixQ              # rows: quotient basis, columns: d/d_lambda_i
    rank: int
    quotient_dimension: int
    surjective: bool
    cokernel_monomials: List[str] = field(default_factory=list)

    @classmethod
    def from_matrix(cls, M: MatrixQ) -> "PhiReport":
        # e_i is independent of the columns and e_0..e_(i-1) exactly when no
        # column-space vector has its last nonzero entry at i: when i leads
        # no pivot of the columns, echeloned with the largest row leading
        leads = echelon(({i: row[j] for i, row in enumerate(M.rows) if row[j]}
                         for j in range(M.ncols)), int.__pos__)
        coker = [M.row_labels[i] if M.row_labels else str(i)
                 for i in range(M.nrows) if i not in leads]
        return cls(M, M.nrows - len(coker), M.nrows, not coker, coker)


def _check_base_in_ideal(F: ContactFamily, I: LocalIdeal):
    E0 = F.at_base_point()
    if not I.contains(E0):
        raise E0NotInIdeal(f"E_0 = {E0} does not lie in the ideal")


def _quotient_matrix(columns: List[Poly], col_labels: List[str],
                     I: LocalIdeal) -> MatrixQ:
    """Assemble column classes into a matrix over the quotient basis of I."""
    I.certify()
    basis = I.quotient_basis
    index = {I._restrict(b): i for i, b in enumerate(basis)}
    rows = [[Fraction(0)] * len(columns) for _ in basis]
    for j, col in enumerate(columns):
        for e, c in I.reduce(col).items():
            rows[index[e]][j] = c
    ring = I.ring
    row_labels = [poly_str(Poly(ring, {b: Fraction(1)})) for b in basis]
    return MatrixQ(rows, row_labels=row_labels, col_labels=col_labels)


def phi_map(F: ContactFamily, I: LocalIdeal) -> PhiReport:
    """Phi: v -> v(f_lambda / g_lambda) + I, as a matrix on the coordinate
    partials of the parameter space."""
    F.require_contact()
    _check_base_in_ideal(F, I)
    N = I.min_series_order()
    zero = {p: 0 for p in F.params}
    geo = (F.x, F.y)
    g0 = F.g.subs(zero)
    f0 = F.f.subs(zero)
    inv_g0_sq = series_invert(TruncatedSeries(g0 * g0, N, geo))
    columns = []
    for p in F.params:
        df = F.f.partial(p).subs(zero)
        dg = F.g.partial(p).subs(zero)
        # quotient rule at lambda = 0
        num = df * g0 - f0 * dg
        columns.append(truncated_product(num, inv_g0_sq.body, geo, N))
    labels = [f"d/d{p}" for p in F.params]
    return PhiReport.from_matrix(_quotient_matrix(columns, labels, I))


def delta_map(F: ContactFamily, I: LocalIdeal) -> PhiReport:
    """Delta: v -> v(E_lambda) + I; defined for both family kinds."""
    _check_base_in_ideal(F, I)
    zero = {p: 0 for p in F.params}
    columns = [F.E.partial(p).subs(zero) for p in F.params]
    labels = [f"d/d{p}" for p in F.params]
    return PhiReport.from_matrix(_quotient_matrix(columns, labels, I))


def psi_generators(F: ContactFamily, I: LocalIdeal) -> List[Poly]:
    """The three generators x*df0/dx - w*f0, dE0/dx, dE0/dy of the
    reparametrization ideal, for the normal form of the central equation;
    exact modulo I."""
    F.require_contact()
    if not F.g0().is_constant() or F.g0().as_constant() != 1:
        # the truncation error lies in m^N, and N >= w keeps x^w in E
        F = to_normal_form(F, max(I.min_series_order(), F.w))
    zero = {p: 0 for p in F.params}
    E0 = F.E.subs(zero)
    f0 = F.f.subs(zero)
    ring = E0.ring
    g1 = ring.var(F.x) * f0.partial(F.x) - F.w * f0
    g2 = E0.partial(F.x)
    g3 = E0.partial(F.y)
    # well-definedness identity: y*g1 = x*dE0/dx - w*E0 for the normal form
    lhs = ring.var(F.y) * g1
    rhs = ring.var(F.x) * g2 - F.w * E0
    if lhs != rhs:
        raise InconsistentResult("reparametrization ideal relation failed; "
                                 "the normal form conversion is inconsistent")
    return [g1, g2, g3]


def psi_map(F: ContactFamily, I: LocalIdeal) -> MatrixQ:
    """Matrix whose column space is the image in O/I of the ideal generated
    by the three reparametrization generators."""
    _check_base_in_ideal(F, I)
    gens = [g.map_to(I.ring) for g in psi_generators(F, I)]
    j = I.min_series_order()
    monos = _monomials_up_to(len(I.variables), max(j - 1, 0))
    columns = []
    labels = []
    for gi, g in enumerate(gens):
        for m in monos:
            columns.append(Poly(I.ring, {I._unrestrict(m): Fraction(1)}) * g)
            labels.append(f"m{m}*g{gi + 1}")
    return _quotient_matrix(columns, labels, I)


@dataclass
class StarReport:
    """Condition (*) for a stacked list of (family, ideal) pairs."""

    rank: int
    target_dimension: int
    parameter_dimension: int
    surjective: bool
    relative_dimension: int
    blocks: List[PhiReport]


def check_condition_star(contact_list: Sequence[Tuple[ContactFamily, LocalIdeal]],
                         interior_list: Sequence[Tuple[ContactFamily, LocalIdeal]] = ()
                         ) -> StarReport:
    """Stack Phi blocks (contact entries) and Delta blocks (interior entries)
    into one map T_0(Lambda) -> direct sum of the O/I_i and test surjectivity."""
    entries = list(contact_list) + list(interior_list)
    params: Optional[Tuple[str, ...]] = None
    for F, _ in entries:
        if params is None:
            params = F.params
        elif F.params != params:
            raise ValueError("families do not share one parameter space")
    if params is None:
        raise ValueError("no entries given")

    blocks = [phi_map(F, I) for F, I in contact_list]
    blocks += [delta_map(F, I) for F, I in interior_list]
    all_rows = []
    row_labels = []
    for bi, b in enumerate(blocks):
        for i, row in enumerate(b.matrix.rows):
            all_rows.append(row)
            label = b.matrix.row_labels[i] if b.matrix.row_labels else str(i)
            row_labels.append(f"[{bi}] {label}")
    rank = MatrixQ(all_rows, row_labels=row_labels,
                   col_labels=[f"d/d{p}" for p in params]).rank()
    target = sum(b.quotient_dimension for b in blocks)
    total_length = sum(I.certify().colength for _, I in entries)
    return StarReport(
        rank=rank,
        target_dimension=target,
        parameter_dimension=len(params),
        surjective=rank == target,
        relative_dimension=len(params) - total_length,
        blocks=blocks,
    )


@dataclass
class RelaxedReport:
    surjective: bool
    phi_rank: int
    stacked_rank: int
    quotient_dimension: int
    enlarged_quotient_dimension: int


def check_relaxed_condition(F: ContactFamily, I: LocalIdeal) -> RelaxedReport:
    """Relaxed nondegeneracy: [Phi | Psi] surjective onto O/I.

    Also computed in the equivalent form (Phi surjective onto the quotient by
    the enlarged ideal); InconsistentResult if the two verdicts disagree.
    """
    phi = phi_map(F, I)
    psi = psi_map(F, I)
    stacked = phi.matrix.hstack(psi)
    stacked_rank = stacked.rank()
    dim = phi.quotient_dimension
    surjective = stacked_rank == dim

    enlarged = LocalIdeal(list(I.generators)
                          + [g.map_to(I.ring) for g in psi_generators(F, I)],
                          I.variables).certify()
    phi_onto_enlarged = (enlarged.colength == 0
                         or phi_map(F, enlarged).surjective)
    if phi_onto_enlarged != surjective:
        raise InconsistentResult(
            "the two formulations of the relaxed condition disagree")
    return RelaxedReport(
        surjective=surjective,
        phi_rank=phi.rank,
        stacked_rank=stacked_rank,
        quotient_dimension=dim,
        enlarged_quotient_dimension=enlarged.colength,
    )
