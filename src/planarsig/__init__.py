"""Exact invariants of Lefschetz fibrations over the disk with planar fiber.

The signature of such a fibration equals -m + d, where m is the number
of vanishing cycles and d the dimension of the span of their classes
in first homology of the fiber.  This package computes that formula
and independently recomputes the signature through a gluing pipeline
(the non-additivity correction of a triple of isotropic subspaces in
the homology of the boundary tori), entirely in rational arithmetic.
"""

from .linalg import (
    RationalMatrix,
    SignatureTriple,
    Subspace,
    Vector,
    quotient_basis,
    solve_many,
    symmetric_signature,
    vector,
)
from .surfaces import (
    CurveClass,
    NonAllowableCycleError,
    PlanarSurface,
    TorusBoundarySpace,
)
from .wall import (
    MappingTorusBoundaryMap,
    WallCorrection,
    WallTriple,
    lplus_closed_form,
    lplus_kernel,
    mapping_torus_boundary_map,
    psi_gram_closed_form,
    standard_triple,
    wall_correction,
)
from .fibration import (
    NEGATIVE_DEFINITE,
    ZERO_FORM,
    InvariantsReport,
    PlanarFibration,
    expected_sigma_y1,
    expected_sigma_y2,
    family_y1,
    family_y2,
)

__version__ = "0.1.0"

__all__ = [
    "RationalMatrix",
    "SignatureTriple",
    "Subspace",
    "Vector",
    "quotient_basis",
    "solve_many",
    "symmetric_signature",
    "vector",
    "CurveClass",
    "NonAllowableCycleError",
    "PlanarSurface",
    "TorusBoundarySpace",
    "MappingTorusBoundaryMap",
    "WallCorrection",
    "WallTriple",
    "lplus_closed_form",
    "lplus_kernel",
    "mapping_torus_boundary_map",
    "psi_gram_closed_form",
    "standard_triple",
    "wall_correction",
    "NEGATIVE_DEFINITE",
    "ZERO_FORM",
    "InvariantsReport",
    "PlanarFibration",
    "family_y1",
    "family_y2",
    "expected_sigma_y1",
    "expected_sigma_y2",
    "__version__",
]
