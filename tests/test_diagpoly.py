import itertools
from decimal import Decimal
from fractions import Fraction
from math import prod

import pytest

from mfhh.diagpoly import (
    DiagonalPolynomial,
    jacobi_basis,
    milnor_number,
)


def test_milnor_numbers():
    assert milnor_number(DiagonalPolynomial((2, 2, 3, 5), True)) == 8
    assert milnor_number(DiagonalPolynomial((2, 2))) == 1
    assert milnor_number(DiagonalPolynomial((2, 2, 3, 5, 7), True)) == 48


def test_milnor_number_is_exact_past_64_bits():
    huge = 2**40
    assert milnor_number(DiagonalPolynomial((huge, huge))) == (huge - 1) ** 2


def test_variables_order():
    assert DiagonalPolynomial((2, 2, 3), True).variables == (0, 1, 2, 3)
    assert DiagonalPolynomial((2, 2, 3), False).variables == (1, 2, 3)


def test_jacobi_basis_empty_subset():
    assert jacobi_basis({}) == [()]


def test_jacobi_basis_two_variables():
    basis = jacobi_basis({3: 3, 4: 5})
    assert len(basis) == 8 == (3 - 1) * (5 - 1)
    for mono in basis:
        exps = dict(mono)
        assert list(exps) == [3, 4]
        assert 0 <= exps[3] <= 1
        assert 0 <= exps[4] <= 3
    # deterministic lexicographic order
    vectors = [tuple(a for _, a in mono) for mono in basis]
    assert vectors == sorted(vectors)
    assert len(set(vectors)) == len(vectors)


def test_jacobi_basis_quadratic_variable():
    assert jacobi_basis({1: 2}) == [((1, 0),)]


def test_jacobi_basis_rejects_stabilizer():
    with pytest.raises(ValueError):
        jacobi_basis({0: 2, 3: 3})


def test_jacobi_basis_sizes_over_all_subsets():
    """Every basis is the whole exponent box 0 <= a_i <= k_i - 2 on its
    subset, in strict lexicographic order."""
    for exps in ((2, 2, 3, 5), (2, 2, 5, 7, 11, 13)):
        for size in range(len(exps) + 1):
            for subset in itertools.combinations(range(1, len(exps) + 1), size):
                ks = {i: exps[i - 1] for i in subset}
                basis = jacobi_basis(ks)
                assert len(basis) == prod(k - 1 for k in ks.values())
                assert all(a < b for a, b in zip(basis, basis[1:]))
                assert basis == [tuple(zip(subset, a))
                                 for a in itertools.product(*(range(k - 1) for k in ks.values()))]


def test_milnor_equals_full_jacobi_dimension():
    p = DiagonalPolynomial((2, 2, 3, 5), True)
    full = {i: p.exponent_of(i) for i in range(1, 5)}
    assert milnor_number(p) == len(jacobi_basis(full))


def test_polynomial_validation():
    with pytest.raises(ValueError, match="need at least one exponent"):
        DiagonalPolynomial(())
    with pytest.raises(ValueError, match="every exponent must be >= 2"):
        DiagonalPolynomial((2, 1))
    with pytest.raises(ValueError):
        DiagonalPolynomial((2, 2)).exponent_of(3)


@pytest.mark.parametrize("exps", [(2, 2.9), (2, Fraction(5, 2)), (2, Decimal("2.5"))])
def test_inexact_exponents_are_refused_not_cut(exps):
    with pytest.raises(ValueError, match="every exponent must be an integer"):
        DiagonalPolynomial(exps)
