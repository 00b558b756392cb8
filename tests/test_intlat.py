import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mfhh.charlat import build_character_lattice
from mfhh.intlat import (
    AbelianGroupStructure,
    cokernel,
    smith_normal_form,
)


@st.composite
def int_matrices(draw, max_dim=5, max_entry=5):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    return [draw(st.lists(st.integers(-max_entry, max_entry), min_size=cols, max_size=cols))
            for _ in range(rows)], cols


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_unimodular(n, rng, steps=6):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return rows


def assert_snf_invariants(rows, cols):
    """The diagonal has min(rows, cols) nonnegative entries, each dividing
    the next, and agrees with sympy's Smith normal form up to sign."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    diag = smith_normal_form(rows, cols)
    assert len(diag) == min(len(rows), cols)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    if diag:
        theirs = sympy_snf(Matrix(rows), domain=ZZ)
        assert list(diag) == [abs(int(theirs[i, i])) for i in range(len(diag))]
    return diag


def test_snf_identity():
    assert smith_normal_form([[1, 0], [0, 1]], 2) == (1, 1)


def test_snf_diag_2_3():
    pytest.importorskip("sympy")
    # d1 = gcd of all entries = 1, d1*d2 = |det| = 6
    assert assert_snf_invariants([[2, 0], [0, 3]], 2) == (1, 6)


def test_snf_zero_row_matrix():
    assert smith_normal_form([[0, 0]], 2) == (0,)


def test_snf_empty_matrix():
    assert smith_normal_form([], 3) == ()


def test_snf_is_deterministic():
    m = [[6, 4, 2], [4, 2, 8], [2, 8, 6]]
    assert smith_normal_form(m, 3) == smith_normal_form(m, 3) == (2, 2, 72)
    assert m == [[6, 4, 2], [4, 2, 8], [2, 8, 6]]  # the input is not modified


@settings(deadline=None)
@given(int_matrices())
def test_snf_invariants_random(m):
    pytest.importorskip("sympy")
    assert_snf_invariants(*m)


def test_cokernel_single_relation():
    assert cokernel([[2]], 1) == AbelianGroupStructure(0, (2,))


def test_cokernel_no_relations():
    assert cokernel([], 3) == AbelianGroupStructure(3, ())


def test_cokernel_drops_unit_factors():
    # Z^2 / <(1, 0), (0, 4)> = Z/4
    assert cokernel([[1, 0], [0, 4]], 2) == AbelianGroupStructure(0, (4,))


def test_cokernel_unimodular_invariance():
    rng = random.Random(20240817)
    base = [[2, 4, 0], [0, 6, 2]]
    expected = cokernel(base, 3)
    assert expected == AbelianGroupStructure(1, (2, 2))
    for _ in range(25):
        left = random_unimodular(2, rng)
        right = random_unimodular(3, rng)
        assert cokernel(matmul(left, base), 3) == expected
        assert cokernel(matmul(base, right), 3) == expected


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


def test_snf_entries_are_unbounded():
    """The elimination runs on plain ints: entries past the 64-bit window
    are factored, not refused."""
    big = 2**64
    assert smith_normal_form([[big, 0], [0, 3 * big]], 2) == (big, 3 * big)
    assert cokernel([[2 * big, 2 * big]], 2) == AbelianGroupStructure(1, (2 * big,))


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]], 2)
    with pytest.raises(ValueError):
        cokernel([[1, 2, 3]], 2)


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
                ours = smith_normal_form(m, len(exps) + 1)
                theirs = sympy_snf(Matrix(m), domain=ZZ)
                assert list(ours) == [abs(int(theirs[i, i])) for i in range(len(exps))]
                checked_lists += 1
    assert checked_lists == 336
