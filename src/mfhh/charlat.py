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

Smith normal form of the relation matrix converts the lattice into canonical
coordinates: exactly one free integer coordinate (the group is a rank-one
extension of a finite group) plus torsion coordinates taken modulo the
invariant factors.  Every weight comparison in the package goes through
these coordinates, so equality never relies on ad-hoc modular reasoning.

Variables are indexed 1..N, with index 0 reserved for the stabilizer z_0.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping

from mfhh.intlat import IntMatrix, cokernel, checked, smith_normal_form


class RankError(ValueError):
    """The lattice did not come out as a rank-one extension of a finite group."""


class AmbiguousGradingError(ValueError):
    """The stabilizer degree chi_0 is torsion (sum of 1/k_i equals 1), so
    powers of z_0 cannot be solved from the free coordinate."""


class Weight(namedtuple("Weight", "free torsion mods")):
    """A lattice element in canonical coordinates.

    ``free`` is the coordinate along the unique infinite direction;
    ``torsion[i]`` is stored reduced modulo ``mods[i]``.  Two weights are
    equal iff their coordinates agree componentwise.
    """

    __slots__ = ()

    def _require_same_lattice(self, other: Weight) -> None:
        if self.mods != other.mods:
            raise ValueError("weights from different lattices")

    def __add__(self, other: Weight) -> Weight:
        self._require_same_lattice(other)
        return Weight(checked(self.free + other.free),
                      tuple((a + b) % m for a, b, m in zip(self.torsion, other.torsion, self.mods)),
                      self.mods)

    def __sub__(self, other: Weight) -> Weight:
        self._require_same_lattice(other)
        return Weight(checked(self.free - other.free),
                      tuple((a - b) % m for a, b, m in zip(self.torsion, other.torsion, self.mods)),
                      self.mods)

    def scaled(self, n: int) -> Weight:
        return Weight(checked(self.free * n),
                      tuple((a * n) % m for a, m in zip(self.torsion, self.mods)),
                      self.mods)

    def __mul__(self, other):
        # A tuple would repeat itself; a weight is scaled only by scaled().
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.free == 0 and not any(self.torsion)


class GroupElement(namedtuple("GroupElement", "phases fixed moving")):
    """An element of ker(chi), stored as one rational phase (a Fraction) in
    [0, 1) per variable (z_0 first when present).  ``fixed`` / ``moving``
    are the frozensets of variable indices whose phase is / is not zero."""

    __slots__ = ()


class CharacterLattice:
    """Canonical weight arithmetic for one diagonal polynomial.

    Immutable after construction; all methods are pure.  Use
    :func:`build_character_lattice` to create instances.
    """

    def __init__(self, exponents: Iterable[int], stabilized: bool):
        exps = tuple(int(k) for k in exponents)
        if not exps:
            raise ValueError("need at least one exponent")
        if any(k < 2 for k in exps):
            raise ValueError("every exponent must be >= 2")
        self.exponents = exps
        self.stabilized = bool(stabilized)
        self.num_vars = len(exps)
        # Variable indices: 0 is the stabilizer (when present), 1..N the
        # polynomial variables.
        self.variables: tuple[int, ...] = (
            tuple(range(0, self.num_vars + 1)) if self.stabilized
            else tuple(range(1, self.num_vars + 1))
        )

        # Generator columns: chi_1, ..., chi_N, chi.
        n = self.num_vars
        self._gen_count = n + 1
        rows = []
        for i, k in enumerate(exps):
            row = [0] * self._gen_count
            row[i] = k
            row[n] = -1
            rows.append(row)
        self.relation_matrix = IntMatrix.from_rows(rows, self._gen_count)
        self.snf = smith_normal_form(self.relation_matrix)

        # Coordinates of x in the quotient Z^g / rowspan(R) are V^T x, after
        # which the j-th coordinate lives modulo the j-th diagonal entry of D
        # (0 meaning a free coordinate, 1 a dropped one).
        proj = self.snf.V.transpose().to_rows()
        nrel = self.relation_matrix.rows
        diag = [self.snf.D.entry(j, j) if j < nrel else 0 for j in range(self._gen_count)]
        free_cols = [j for j, dj in enumerate(diag) if dj == 0]
        if len(free_cols) != 1:
            raise RankError(f"free rank {len(free_cols)} != 1 for exponents {exps}")
        self._free_row = proj[free_cols[0]]
        torsion_cols = [j for j, dj in enumerate(diag) if dj >= 2]
        self._torsion_rows = [proj[j] for j in torsion_cols]
        self.torsion_mods: tuple[int, ...] = tuple(diag[j] for j in torsion_cols)

        self._zero = self._weight_from_coords([0] * self._gen_count)
        self._chi = self._weight_from_gen(n)
        self._var_weight = {i: self._weight_from_gen(i - 1) for i in range(1, n + 1)}
        if self.stabilized:
            self._var_weight[0] = self._weight_from_coords([-1] * n + [1])
        if self._chi.free == 0:
            raise RankError("total degree chi has no free component")
        for row in self.relation_matrix.to_rows():
            assert self._weight_from_coords(row).is_zero()

    # -- canonical coordinates ------------------------------------------

    def _weight_from_coords(self, coords) -> Weight:
        free = checked(sum(a * b for a, b in zip(self._free_row, coords)))
        torsion = tuple(
            sum(a * b for a, b in zip(row, coords)) % m
            for row, m in zip(self._torsion_rows, self.torsion_mods)
        )
        return Weight(free, torsion, self.torsion_mods)

    def _weight_from_gen(self, col: int) -> Weight:
        coords = [0] * self._gen_count
        coords[col] = 1
        return self._weight_from_coords(coords)

    @property
    def chi(self) -> Weight:
        return self._chi

    def variable_weight(self, i: int) -> Weight:
        """Degree of the i-th variable (i = 0 is the stabilizer)."""
        try:
            return self._var_weight[i]
        except KeyError:
            raise ValueError(f"no variable with index {i}") from None

    def zero_weight(self) -> Weight:
        return self._zero

    # -- weight operations --------------------------------------------------

    def weight_of_monomial(self, exponents: Mapping[int, int],
                           duals: Iterable[int] = ()) -> Weight:
        """Canonical form of sum(a_i * chi_i) - sum(chi_j over duals).

        ``duals`` is a multiset of variable indices contributing -chi_j each.
        """
        w = self._zero
        for i, a in exponents.items():
            if a < 0:
                raise ValueError("monomial exponents must be nonnegative")
            if a:
                w = w + self.variable_weight(i).scaled(a)
        for j in duals:
            w = w - self.variable_weight(j)
        return w

    def is_multiple_of_chi(self, w: Weight) -> int | None:
        """Return the unique u with w == u*chi, or None.

        Uniqueness holds because chi has a nonzero free coordinate.
        """
        fc = self._chi.free
        if w.free % fc:
            return None
        u = w.free // fc
        return u if w == self._chi.scaled(u) else None

    def chi0_coset(self, w: Weight) -> tuple[int, ...]:
        """Key of w modulo integer multiples of chi_0: two weights share it
        iff they differ by a*chi_0 for some integer a.

        With (f_0, t_0) the coordinates of chi_0 and q = w.free // f_0, the
        key is the coordinates of w - q*chi_0, whose free part is w.free mod
        f_0.  Needs f_0 != 0, which fails only in the degenerate
        sum-of-reciprocals-equal-one case.
        """
        if not self.stabilized:
            raise ValueError("chi0_coset requires a stabilized lattice")
        f0, t0 = self._var_weight[0].free, self._var_weight[0].torsion
        if f0 == 0:
            raise AmbiguousGradingError(
                f"stabilizer degree is torsion for exponents {self.exponents}"
            )
        q = w.free // f0
        return (w.free - q * f0,
                *((t - q * s) % m for t, s, m in zip(w.torsion, t0, self.torsion_mods)))

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
        lcm = math.lcm(*exps)
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
        g = self._gen_count
        rows = self.relation_matrix.to_rows()
        chi_row = [0] * g
        chi_row[-1] = 1
        rows.append(chi_row)
        return cokernel(IntMatrix.from_rows(rows, g))


def build_character_lattice(exponents: Iterable[int], stabilized: bool) -> CharacterLattice:
    """Construct the character lattice for the given diagonal exponents."""
    return CharacterLattice(exponents, stabilized)
