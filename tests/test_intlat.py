import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mfhh.charlat import build_character_lattice
from mfhh.intlat import (
    AbelianGroupStructure,
    IntMatrix,
    IntegerOverflowError,
    checked,
    cokernel,
    determinant,
    smith_normal_form,
)


@st.composite
def int_matrices(draw, max_dim=5, max_entry=5):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(st.lists(st.integers(-max_entry, max_entry),
                            min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, tuple(entries))


def random_unimodular(n, rng, steps=6):
    rows = IntMatrix.identity(n).to_rows()
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows, n)


def assert_snf_invariants(m):
    snf = smith_normal_form(m)
    assert snf.U @ m @ snf.V == snf.D
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    assert snf.D.is_diagonal()
    diag = snf.D.diagonal()
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return snf


def test_snf_identity():
    m = IntMatrix.identity(2)
    snf = smith_normal_form(m)
    assert snf.D == m
    assert snf.U == m
    assert snf.V == m


def test_snf_diag_2_3():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    snf = assert_snf_invariants(m)
    # d1 = gcd of all entries = 1, d1*d2 = |det| = 6
    assert snf.D.diagonal() == (1, 6)


def test_snf_zero_row_matrix():
    m = IntMatrix(1, 2, (0, 0))
    snf = smith_normal_form(m)
    assert snf.D == m


def test_snf_empty_matrix():
    snf = smith_normal_form(IntMatrix(0, 3, ()))
    assert snf.D.rows == 0 and snf.D.cols == 3
    assert snf.V == IntMatrix.identity(3)


def test_snf_is_deterministic():
    m = IntMatrix.from_rows([[6, 4, 2], [4, 2, 8], [2, 8, 6]])
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first == second


@settings(deadline=None)
@given(int_matrices())
def test_snf_invariants_random(m):
    assert_snf_invariants(m)


def test_cokernel_single_relation():
    assert cokernel(IntMatrix.from_rows([[2]])) == AbelianGroupStructure(0, (2,))


def test_cokernel_no_relations():
    assert cokernel(IntMatrix(0, 3, ())) == AbelianGroupStructure(3, ())


def test_cokernel_drops_unit_factors():
    # Z^2 / <(1, 0), (0, 4)> = Z/4
    m = IntMatrix.from_rows([[1, 0], [0, 4]])
    assert cokernel(m) == AbelianGroupStructure(0, (4,))


def test_cokernel_unimodular_invariance():
    rng = random.Random(20240817)
    base = IntMatrix.from_rows([[2, 4, 0], [0, 6, 2]])
    expected = cokernel(base)
    for _ in range(25):
        left = random_unimodular(base.rows, rng)
        right = random_unimodular(base.cols, rng)
        assert cokernel(left @ base) == expected
        assert cokernel(base @ right) == expected


def test_group_structure_validation():
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (3, 4))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupStructure(-1, ())
    # A zero factor is rejected as a factor, before the chain test divides by it.
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (0, 2))
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (0, 0))


def test_group_order():
    assert AbelianGroupStructure(0, (2, 6)).order == 12
    assert AbelianGroupStructure(0, ()).order == 1
    with pytest.raises(ValueError):
        AbelianGroupStructure(1, ()).order


def test_entry_width_is_checked():
    checked(2**63 - 1)
    with pytest.raises(IntegerOverflowError):
        checked(2**63)
    with pytest.raises(IntegerOverflowError):
        IntMatrix.from_rows([[2**63]])


def test_matmul_overflow_is_an_error():
    big = 2**62
    m = IntMatrix.from_rows([[big, big], [0, 1]])
    with pytest.raises(IntegerOverflowError):
        _ = m @ m


def test_determinant():
    assert determinant(IntMatrix.identity(3)) == 1
    assert determinant(IntMatrix.from_rows([[2, 0], [0, 3]])) == 6
    assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    assert determinant(IntMatrix(0, 0, ())) == 1


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_snf_matches_sympy_on_relation_matrices():
    """Invariant factors of every small instance's relation matrix (N <= 5,
    2 <= k_i <= 9, prod(k_i) <= 150, both stabilizations) agree with
    sympy's Smith normal form up to sign."""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    checked_lists = 0
    for n in range(1, 6):
        for exps in itertools.combinations_with_replacement(range(2, 10), n):
            if math.prod(exps) > 150:
                continue
            for stabilized in (False, True):
                m = build_character_lattice(exps, stabilized).relation_matrix
                ours = smith_normal_form(m).D.diagonal()
                theirs = sympy_snf(Matrix(m.to_rows()), domain=ZZ)
                assert [abs(x) for x in ours] == [
                    abs(int(theirs[i, i])) for i in range(min(m.rows, m.cols))]
                checked_lists += 1
    assert checked_lists == 336
