"""Diagonal polynomial data: Milnor number and monomial bases of
Jacobi rings.

Only diagonal polynomials sum(z_i^{k_i}) are representable.  Every
restriction of such a polynomial to a coordinate subspace is again diagonal,
hence has an isolated critical point at the origin, which is what keeps the
cohomology bookkeeping downstream concentrated in a single Koszul degree.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping

from mfhh.intlat import validated_make


class DiagonalPolynomial(namedtuple("DiagonalPolynomial", "exponents stabilized")):
    """sum(z_i^{k_i}) for i = 1..N, each k_i an integer >= 2, optionally
    stabilized by an extra variable z_0 (never in the polynomial itself)."""

    __slots__ = ()

    def __new__(cls, exponents: Iterable[int], stabilized: bool = False) -> DiagonalPolynomial:
        given = tuple(exponents)
        exponents = tuple(map(int, given))
        if any(k != g and not isinstance(g, str) for k, g in zip(exponents, given)):
            raise ValueError("every exponent must be an integer")  # int cuts 2.9 to 2
        if not exponents:
            raise ValueError("need at least one exponent")
        if any(k < 2 for k in exponents):
            raise ValueError("every exponent must be >= 2")
        return super().__new__(cls, exponents, bool(stabilized))

    _make = classmethod(validated_make)

    @property
    def num_vars(self) -> int:
        return len(self.exponents)

    @property
    def variables(self) -> tuple[int, ...]:
        """All variable indices, the stabilizer (index 0) first when present."""
        if self.stabilized:
            return tuple(range(0, self.num_vars + 1))
        return tuple(range(1, self.num_vars + 1))

    def exponent_of(self, i: int) -> int:
        if not 1 <= i <= self.num_vars:
            raise ValueError(f"no polynomial variable with index {i}")
        return self.exponents[i - 1]


def milnor_number(p: DiagonalPolynomial) -> int:
    """prod(k_i - 1) over the polynomial variables (stabilizer excluded)."""
    return math.prod(k - 1 for k in p.exponents)


def jacobi_basis(exponents: Mapping[int, int]) -> list[tuple[tuple[int, int], ...]]:
    """Monomial basis of the Jacobi ring of a diagonal sub-polynomial.

    ``exponents`` maps a subset S of polynomial variable indices to their
    powers k_i; the basis consists of all monomials with 0 <= a_i <= k_i - 2
    for i in S, each given as its exponents ((i, a_i) for i in S, in
    increasing index order), in lexicographic order.  The empty subset
    yields the unit monomial () alone.  Only the oracle enumerates bases;
    the engine counts exponent vectors in closed form.
    """
    if 0 in exponents:
        raise ValueError("the stabilizer does not enter a Jacobi ring")
    basis = [()]
    for i in sorted(exponents):
        basis = [mono + ((i, a),) for mono in basis for a in range(exponents[i] - 1)]
    return basis
