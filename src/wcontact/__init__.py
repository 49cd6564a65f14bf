"""Exact-arithmetic computations for families of w-contact curve equations:
Groebner bases, Weierstrass preparation, local colengths, nondegeneracy maps,
Hilbert-scheme chart equations, and z-lifts onto A_n surface singularities."""

from .charts import (GroebnerStratumChart, LiftedIdeal, an_surface,
                     ideal_equal_localized, lift_chart_equivalence,
                     lift_contact, lift_interior, relative_hilb_equations,
                     substitute_with_denominator,
                     verify_membership_equivalence)
from .errors import WContactError
from .families import (ContactFamily, StrataPreservingChange, apply_change,
                       family_from_basis, multiply_unit, to_distinguished,
                       to_normal_form)
from .geometry import (AffineScheme, nested_singularity_report,
                       singular_locus_ideal, tangent_space_dim, variety_equal)
from .groebner import (GroebnerBasis, gb_buchberger, normal_form,
                       radical_membership, standard_monomials)
from .linalg import MatrixQ
from .nondegeneracy import (check_condition_star, check_relaxed_condition,
                            delta_map, phi_map, psi_generators, psi_map)
from .poly import Poly, PolyRing, TermOrder, canonical_form, poly_str
from .series import (LocalIdeal, TruncatedSeries, delta_invariant,
                     local_colength, milnor_number, series_invert,
                     tjurina_number, truncate_poly, weierstrass_prepare_x)

__version__ = "0.1.0"
