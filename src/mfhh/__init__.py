"""Exact Hochschild cohomology dimensions for equivariant matrix
factorization categories of diagonal weighted-homogeneous polynomials."""

from mfhh.charlat import (
    AmbiguousGradingError,
    CharacterLattice,
    GroupElement,
    Weight,
    build_character_lattice,
)
from mfhh.diagpoly import (
    DiagonalPolynomial,
    jacobi_basis,
    milnor_number,
)
from mfhh.hhengine import (
    BudgetExceededError,
    HHContribution,
    HHReport,
    HochschildEngine,
    PropositionReport,
    oracle_bounds,
    verify_proposition,
)
from mfhh.intlat import (
    AbelianGroupStructure,
    cokernel,
    smith_normal_form,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "AmbiguousGradingError",
    "BudgetExceededError",
    "CharacterLattice",
    "DiagonalPolynomial",
    "GroupElement",
    "HHContribution",
    "HHReport",
    "HochschildEngine",
    "PropositionReport",
    "Weight",
    "build_character_lattice",
    "cokernel",
    "jacobi_basis",
    "milnor_number",
    "oracle_bounds",
    "smith_normal_form",
    "verify_proposition",
]
