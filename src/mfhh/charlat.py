"""Character lattice of the maximal diagonal symmetry group.

A diagonal polynomial z_1^{k_1} + ... + z_N^{k_N} is preserved by every
diagonal scaling (t_1, ..., t_N) for which t_i^{k_i} is independent of i; the
common value is the distinguished character chi.  The character lattice of
this symmetry group is therefore the abelian group on generators
chi_1, ..., chi_N (the degrees of the variables) and chi, modulo the
relations k_i*chi_i - chi.  The stabilized variant adjoins one more variable
z_0 of degree chi_0 := chi - (chi_1 + ... + chi_N).  That degree already
lies in the lattice (a new generator together with its defining relation
would give the same group), so both variants share one presentation and
differ only in whether z_0 is a variable.

Weights have closed-form coordinates.  Sending a weight to its degree
(chi_i to 1/k_i, chi to 1) and to its exponent residues (chi_i to the i-th
unit vector, chi to 0) embeds the lattice in Q x prod(Z/k_i): the relations
k_i*chi_i - chi go to zero, and an integer vector whose residues all vanish
is a combination of them exactly when its degree is 0.  Scaling the degree
by L = lcm(k_i) makes it an integer, so a weight is the pair
(L * degree, residues mod k_i), and two weights are equal iff their
coordinates are.  The relation matrix (a tuple of integer rows, one per
k_i*chi_i - chi) only names the group: its Smith invariant factors are the
torsion of the lattice, whose order is prod(k_i) / L.

The lattice stores chi = (L, 0) and the free coordinate f_0 = L - sum(L/k_i)
of chi_0, which keys its cosets; ``chi0_free`` reads it for ``coset_key``
and the engine, raising AmbiguousGradingError when it is 0.  The generators
chi_i = (L/k_i, e_i) and chi_0 = (f_0, (k_i - 1)_i) are closed forms that a
caller writes out from the exponents, as the engine does for its stratum
offsets.

Exponents and variable indices (1..N, 0 for z_0) come from DiagonalPolynomial.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable

from mfhh.diagpoly import DiagonalPolynomial
from mfhh.intlat import cokernel, smith_normal_form


class AmbiguousGradingError(ValueError):
    """The stabilizer degree chi_0 is torsion (sum of 1/k_i equals 1), so
    powers of z_0 cannot be solved from the free coordinate."""


class Weight(namedtuple("Weight", "free torsion mods")):
    """A lattice element in canonical coordinates.

    ``free`` is L = lcm(k_i) times the degree; ``torsion[i]`` is the residue
    of the exponent of z_{i+1}, stored reduced modulo ``mods[i]`` = k_{i+1}.
    Two weights are equal iff their coordinates agree componentwise.
    """

    __slots__ = ()

    def _require_same_lattice(self, other: Weight) -> None:
        if self.mods != other.mods:
            raise ValueError("weights from different lattices")

    def __sub__(self, other: Weight) -> Weight:
        self._require_same_lattice(other)
        return Weight(self.free - other.free,
                      tuple((a - b) % m for a, b, m in zip(self.torsion, other.torsion, self.mods)),
                      self.mods)

    def scaled(self, n: int) -> Weight:
        return Weight(self.free * n,
                      tuple((a * n) % m for a, m in zip(self.torsion, self.mods)),
                      self.mods)

    def __mul__(self, other):
        # A tuple would repeat or concatenate itself; weights only subtract and scale.
        return NotImplemented

    __rmul__ = __add__ = __radd__ = __mul__

    def is_zero(self) -> bool:
        return self.free == 0 and not any(self.torsion)


class GroupElement(namedtuple("GroupElement", "phases fixed moving")):
    """An element of ker(chi), stored as one rational phase (a Fraction) in
    [0, 1) per variable (z_0 first when present).  ``fixed`` / ``moving``
    are the frozensets of variable indices whose phase is / is not zero."""

    __slots__ = ()


class CharacterLattice:
    """The character lattice of one diagonal polynomial: chi, f_0, the
    chi_0-coset key, the torsion and ker(chi).

    Immutable after construction; all methods are pure.  Use
    :func:`build_character_lattice` to create instances.
    """

    def __init__(self, exponents: Iterable[int], stabilized: bool):
        p = DiagonalPolynomial(exponents, stabilized)
        exps, n = p.exponents, p.num_vars
        self.exponents, self.stabilized = exps, p.stabilized
        self.num_vars, self.variables = n, p.variables

        # Generator columns: chi_1, ..., chi_N, chi; one row k_i*chi_i - chi
        # per variable.
        self.relation_matrix: tuple[tuple[int, ...], ...] = tuple(
            tuple(k if j == i else -1 if j == n else 0 for j in range(n + 1))
            for i, k in enumerate(exps))
        # The invariant factors >= 2 of the lattice, which ``group`` prints.
        # The torsion is the kernel of prod(Z/k_i) -> Q/Z, n_i -> sum(n_i/k_i),
        # whose image is (1/L)Z/Z with L = lcm(k_i): its order is prod(k_i) / L.
        lcm = math.lcm(*exps)
        self.torsion_mods: tuple[int, ...] = tuple(
            d for d in smith_normal_form(self.relation_matrix, n + 1) if d >= 2)
        assert math.prod(self.torsion_mods) == math.prod(exps) // lcm

        # chi = (L, 0), chi_i = (L/k_i, e_i) and chi_0 = chi - sum(chi_i) =
        # (L*q_0, (k_i - 1)_i) with q_0 = 1 - sum(1/k_i).  chi has degree 1,
        # so its free coordinate is never 0; chi0_free reads f_0 = L*q_0.
        self._chi = Weight(lcm, (0,) * n, exps)
        self._f0 = lcm - sum(lcm // k for k in exps)

    @property
    def chi(self) -> Weight:
        return self._chi

    def chi0_free(self) -> int:
        """f_0 = L - sum(L/k_i), the free coordinate of chi_0.  Raises
        AmbiguousGradingError when it is 0 (sum of 1/k_i equal to 1)."""
        if self._f0 == 0:
            raise AmbiguousGradingError(
                f"stabilizer degree is torsion for exponents {self.exponents}")
        return self._f0

    def coset_key(self, free: int, residues: Iterable[int]) -> tuple[int, ...]:
        """Key of the weight (free, residues) modulo integer multiples of
        chi_0 = (f_0, (k_i - 1)_i): with q = free // f_0, the coordinates
        (free - q*f_0, (residue_i + q) mod k_i) of the weight minus q*chi_0.
        Raises AmbiguousGradingError when f_0 = 0 (sum of 1/k_i equal to 1).
        """
        if not self.stabilized:
            raise ValueError("coset_key requires a stabilized lattice")
        f0 = self.chi0_free()
        q = free // f0
        return (free - q * f0, *((t + q) % k for t, k in zip(residues, self.exponents)))

    def enumerate_ker_chi(self) -> tuple[GroupElement, ...]:
        """All group elements with trivial chi-value, as phase vectors.

        For a diagonal polynomial these are exactly the tuples with
        q_i in (1/k_i)Z/Z for i >= 1, the stabilizer phase being
        q_0 = -sum(q_i) mod 1.  Order: lexicographic in the numerator
        tuple (n_1, ..., n_N) of q_i = n_i / k_i.
        """
        from fractions import Fraction  # here, so importing mfhh loads no fractions/decimal

        # Fractions and frozensets are immutable, so elements share them: one
        # Fraction per phase value, one (fixed, moving) pair per zero pattern.
        # The stabilizer phase is -sum(n_i * (L / k_i)) / L mod 1, L = lcm(k_i).
        exps = self.exponents
        lcm = self._chi.free
        tables = [[Fraction(n, k) for n in range(k)] for k in exps]
        scaled = [range(0, lcm, lcm // k) for k in exps]
        stabilizer_phases = {}
        split = {}
        elements = []
        for phases, nums in zip(itertools.product(*tables), itertools.product(*scaled)):
            if self.stabilized:
                m = -sum(nums) % lcm
                if m not in stabilizer_phases:
                    stabilizer_phases[m] = Fraction(m, lcm)
                phases = (stabilizer_phases[m], *phases)
                nums = (m, *nums)
            zeros = tuple(n == 0 for n in nums)
            if zeros not in split:
                fixed = frozenset(v for v, z in zip(self.variables, zeros) if z)
                split[zeros] = (fixed, frozenset(self.variables) - fixed)
            elements.append(GroupElement(phases, *split[zeros]))
        return tuple(elements)

    def moving_set_counts(self) -> dict[frozenset[int], int]:
        """Number of elements of ker(chi) with each moving set, in closed
        form and without enumerating.

        For a set P of polynomial variables, prod(k_i - 1, i in P) elements
        move exactly P.  Unstabilized, that is the count for moving set P.
        Stabilized, z_0 stays fixed iff sum(n_i / k_i, i in P) is an
        integer; by inclusion-exclusion over the variables forced to zero,
        that happens for

            f(P) = sum_{S <= P} (-1)^{|P| - |S|} prod(k_S) / lcm(k_S)

        of them (the tuples in prod Z/k_i, i in S, with integral phase sum
        form the kernel of a map onto (1/lcm(k_S))Z/Z).  The rest move z_0
        as well.  Moving sets that no element has are omitted; the counts
        sum to prod(k_i).
        """
        exps = self.exponents
        size = 1 << len(exps)
        moving = [1] * size  # prod(k_i - 1) over the variables in the mask
        fixed_z0 = [1] * size  # prod(k_i) / lcm(k_i), Moebius-inverted below
        lcms = [1] * size
        for mask in range(1, size):
            low = mask & -mask
            rest = mask ^ low
            k = exps[low.bit_length() - 1]
            moving[mask] = moving[rest] * (k - 1)
            lcms[mask] = math.lcm(lcms[rest], k)
            fixed_z0[mask] = fixed_z0[rest] * k * lcms[rest] // lcms[mask]
        if self.stabilized:
            for bit in range(len(exps)):
                for mask in range(size):
                    if mask >> bit & 1:
                        fixed_z0[mask] -= fixed_z0[mask ^ (1 << bit)]
        counts = {}
        for mask in range(size):
            poly = frozenset(i + 1 for i in range(len(exps)) if mask >> i & 1)
            if not self.stabilized:
                counts[poly] = moving[mask]
                continue
            if fixed_z0[mask]:
                counts[poly] = fixed_z0[mask]
            if moving[mask] > fixed_z0[mask]:
                counts[poly | {0}] = moving[mask] - fixed_z0[mask]
        return counts

    # -- cross-checks ------------------------------------------------------

    def chi_quotient(self):
        """Structure of the lattice modulo chi; finite, and its order is an
        independent count of ker(chi)."""
        g = self.num_vars + 1
        chi_row = (0,) * (g - 1) + (1,)
        return cokernel(self.relation_matrix + (chi_row,), g)


def build_character_lattice(exponents: Iterable[int], stabilized: bool) -> CharacterLattice:
    """Construct the character lattice for the given diagonal exponents."""
    return CharacterLattice(exponents, stabilized)
