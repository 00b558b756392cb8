"""Exact Hochschild cohomology dimensions for equivariant matrix
factorization categories of diagonal weighted-homogeneous polynomials."""

from mfhh.charlat import (
    AmbiguousGradingError,
    CharacterLattice,
    GroupElement,
    RankError,
    Weight,
    build_character_lattice,
)
from mfhh.diagpoly import (
    DiagonalPolynomial,
    JacobiBasisElement,
    Restriction,
    jacobi_basis,
    milnor_number,
    restrict,
    transpose,
)
from mfhh.hhengine import (
    BudgetExceededError,
    HHContribution,
    HHReport,
    HochschildEngine,
    PropositionReport,
    hh_bruteforce,
    hh_dimension,
    hh_range,
    oracle_bounds,
    verify_proposition,
)
from mfhh.intlat import (
    AbelianGroupStructure,
    IntegerOverflowError,
    IntMatrix,
    SmithDecomposition,
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
    "IntMatrix",
    "IntegerOverflowError",
    "JacobiBasisElement",
    "PropositionReport",
    "RankError",
    "Restriction",
    "SmithDecomposition",
    "Weight",
    "build_character_lattice",
    "cokernel",
    "hh_bruteforce",
    "hh_dimension",
    "hh_range",
    "jacobi_basis",
    "milnor_number",
    "oracle_bounds",
    "restrict",
    "smith_normal_form",
    "transpose",
    "verify_proposition",
]
