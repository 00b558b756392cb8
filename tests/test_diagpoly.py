import itertools
from math import prod

import pytest

from mfhh.charlat import Weight, build_character_lattice
from mfhh.diagpoly import (
    DiagonalPolynomial,
    jacobi_basis,
    milnor_number,
)


@pytest.fixture(scope="module")
def lat2235():
    return build_character_lattice((2, 2, 3, 5), True)


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


def test_jacobi_basis_empty_subset(lat2235):
    basis = jacobi_basis(lat2235, {})
    assert len(basis) == 1
    assert basis[0].exponents == ()
    assert basis[0].weight.is_zero()


def test_jacobi_basis_two_variables(lat2235):
    basis = jacobi_basis(lat2235, {3: 3, 4: 5})
    assert len(basis) == 8 == (3 - 1) * (5 - 1)
    for elem in basis:
        exps = elem.exponent_map()
        assert 0 <= exps[3] <= 1
        assert 0 <= exps[4] <= 3
        assert elem.weight == lat2235.weight_of_monomial(exps)
    # deterministic lexicographic order
    vectors = [tuple(a for _, a in elem.exponents) for elem in basis]
    assert vectors == sorted(vectors)
    assert len(set(vectors)) == len(vectors)


def test_jacobi_basis_quadratic_variable(lat2235):
    basis = jacobi_basis(lat2235, {1: 2})
    assert len(basis) == 1
    assert basis[0].exponent_map() == {1: 0}


def test_jacobi_basis_rejects_stabilizer(lat2235):
    with pytest.raises(ValueError):
        jacobi_basis(lat2235, {0: 2, 3: 3})


def test_jacobi_basis_sizes_over_all_subsets(lat2235):
    """Size, strict lexicographic order and weights of every basis, the
    weights recomputed from scratch by ``weight_of_monomial`` and in closed
    form: a monomial with exponent vector a has weight (sum(a_i*L/k_i), a),
    its residues being its exponents."""
    cases = [(DiagonalPolynomial((2, 2, 3, 5), True), lat2235)]
    big = (2, 2, 5, 7, 11, 13)
    cases.append((DiagonalPolynomial(big, True), build_character_lattice(big, True)))
    for p, lat in cases:
        for size in range(p.num_vars + 1):
            for subset in itertools.combinations(range(1, p.num_vars + 1), size):
                exps = {i: p.exponent_of(i) for i in subset}
                basis = jacobi_basis(lat, exps)
                assert len(basis) == prod(k - 1 for k in exps.values())
                vectors = [elem.exponents for elem in basis]
                assert all(a < b for a, b in zip(vectors, vectors[1:]))
                for elem in basis:
                    assert elem.weight == lat.weight_of_monomial(elem.exponent_map())
                    a = tuple(elem.exponent_map().get(i, 0) for i in range(1, p.num_vars + 1))
                    free = sum(x * lat.chi.free // k for x, k in zip(a, p.exponents))
                    assert elem.weight == Weight(free, a, p.exponents)


def test_milnor_equals_full_jacobi_dimension(lat2235):
    p = DiagonalPolynomial((2, 2, 3, 5), True)
    full = {i: p.exponent_of(i) for i in range(1, 5)}
    assert milnor_number(p) == len(jacobi_basis(lat2235, full))


def test_polynomial_validation():
    with pytest.raises(ValueError):
        DiagonalPolynomial(())
    with pytest.raises(ValueError):
        DiagonalPolynomial((2, 1))
    with pytest.raises(ValueError):
        DiagonalPolynomial((2, 2)).exponent_of(3)
