"""Hochschild cohomology dimensions of equivariant matrix factorization
categories of diagonal polynomials.

The dimension in cohomological degree k is a finite sum over the finite
symmetry group elements gamma with trivial total degree.  Each gamma
contributes monomial counts from the Jacobi ring of the restriction of the
polynomial to its fixed locus, twisted by the duals of the moving variables:

* even summand: monomials m (times a stabilizer power z_0^{a_0} when z_0 is
  fixed by gamma) with

      weight(z_0^{a_0} * m) - sum(chi_j, j moving) == u * chi,
      u = (k - #moving) / 2;

* odd summand, only when z_0 is fixed by gamma: the same condition with one
  extra -chi_0 on the left and u = (k - #moving - 1) / 2.

Non-integral u contributes nothing.  Each odd term is the twin of an even
solution with c_0 = a_0 - 1 >= -1 one degree down and the same u; the twins
of c_0 = -1 and the terms of elements moving z_0 are mu = prod(k_i - 1)
terms in degree n = N - 1.  With E_k the even terms of z_0-fixing elements
in degree k,

    sum_k dim HH^k t^k = (1 + t) E(t) + mu t^n.

Because restrictions of a diagonal polynomial are diagonal, the Koszul
complex computing each local factor is concentrated in degree zero (its
cohomology is the Jacobi ring) except for the split z_0-line, which is what
the odd summand accounts for; no deeper Koszul terms exist to sum over.

A term depends on gamma only through its moving set M = N_gamma: the fixed
variables, #moving, sum(chi_j, j in M) and whether z_0 is fixed are all
functions of M.  So the engine sums over strata instead of elements,

    dim HH^k = sum over moving sets M of  mult(M) * count_k(M),

with at most 2^(N+1) strata and the multiplicities in closed form
(``CharacterLattice.moving_set_counts``): prod(k_i - 1, i in M)
unstabilized; stabilized, with P the moving polynomial variables,

    f(P) = sum_{S <= P} (-1)^{|P| - |S|} prod(k_S) / lcm(k_S)

elements keep z_0 fixed and prod(k_i - 1, i in P) - f(P) move it.  Plain
dimension tables therefore never enumerate ker(chi); witnesses do, and each
``HHContribution`` carries its gamma, so a report prints without the engine.
Each ``table`` or ``dimension`` call lists the strata after its budgets are
checked; the engine keeps none of them.

A stratum moving z_0 costs one lookup per degree; a stratum fixing z_0
either walks its c_0 candidates or makes one lookup per degree in the
exponent box, whichever path lists fewer.  A Jacobi monomial
prod z_i^{a_i} (a_i <= k_i - 2) has weight (sum(a_i * L / k_i), a), its
residues being its exponents, and lies on a stratum's fixed variables iff
its support misses the moving set (a quadratic variable has only power 0,
so it is never in a support).  Let offset = sum(-chi_j, j in M), that
is (-sum(L / k_j, j in M, j != 0) - [0 in M] f_0, ([0 in M] - [i in M]) mod
k_i), and target = u * chi - offset with u = (k - #moving) / 2:

* a stratum moving z_0 (every stratum when unstabilized) counts the unit
  monomial iff target is zero, and nothing else: its target has residue 1
  on a moving polynomial variable (unstabilized) or k_i - 1 on a fixed one
  (stabilized, from chi_0), which no monomial on the fixed variables has;
* a stratum fixing z_0, with moving polynomial set P and fixed set F, has
  the terms of the rule in integers: c_0 = -1 (mod k_j) on P, the monomial
  a_i = c_0 mod k_i on F (a Jacobi power iff it is not k_i - 1) and a_i = 0
  on P, and u = c_0 - sum(floor(c_0 / k_i), F) - sum((c_0 + 1) / k_j, P).
  It is the even term a_0 = c_0 in degree k = 2u + |P| if c_0 >= 0, and its
  odd twin a_0 = c_0 + 1 in degree k + 1 if c_0 >= -1, each only inside the
  window.  So u lies in [u_lo, u_hi], the u with 2u + |P| in
  [k_min - 1, k_max], and since c_0 * f_0 = L u + S_P - sum(a_i L / k_i, F)
  with S_P = sum(L / k_j, P), the c_0 candidates are the c_0 >= -1 with
  c_0 = -1 (mod lcm k_P) and c_0 * f_0 in [L u_lo + S_P - A, L u_hi + S_P],
  A = sum((k_i - 2) L / k_i).

A stabilized call first reads f_0 from its lattice (``chi0_free`` raises
AmbiguousGradingError when f_0 = 0), then counts those candidates over
every stratum fixing z_0.  If they are fewer than the prod(k_i - 1) vectors
of the exponent box, each such stratum walks its own, in steps of lcm k_P,
keeping the c_0 whose monomial is a Jacobi power on F.  Otherwise the call
lists the exponent box once, bucketed by coset modulo integer multiples of
chi_0 (``CharacterLattice.coset_key``), and each such stratum looks up the
target's coset for every k in [k_min - 1, k_max].  A monomial in that
bucket off the moving set has weight + c_0 * chi_0 == target, c_0 =
(target.free - weight.free) / f_0, and gives the terms above.  Both paths
accept the same terms, so the choice changes no count, max a_0 or witness;
the walk calls no coset_key.

A deliberately dumb oracle (`bruteforce_table`) walks every element of
ker(chi), every Jacobi monomial on its fixed variables and a_0 over a finite
window, and tests the degree equation in plain integers, without the weight
algebra above: with L = lcm(k_i), f_0 = L - sum(L / k_i), c_i = a_i on fixed
and -1 on moving polynomial variables, and c_0 = a_0 - shift when z_0 is
fixed, -1 when it moves and 0 unstabilized, the term's weight
sum(c_i chi_i) + c_0 chi_0 is u * chi iff

    sum(c_i * L / k_i) + c_0 * f_0 == u * L  and  c_i == c_0 (mod k_i) for all i.

It keeps the u inside a second window, and must agree with the engine
whenever its bounds dominate, which the a-priori bounds of `oracle_bounds`
do without consulting the engine.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence
from functools import cache, cached_property

from mfhh.charlat import (
    AmbiguousGradingError,
    CharacterLattice,
    GroupElement,
    Weight,
    build_character_lattice,
)
from mfhh.diagpoly import DiagonalPolynomial, jacobi_basis, milnor_number

EVEN = "even"
ODD = "odd"

# Largest prod(k_i) the engine accepts.  That product is |ker chi| and
# exceeds the prod(k_i - 1) exponent vectors a table call lists, so it
# bounds every enumeration the engine or the CLI can start.
ELEMENT_BUDGET = 10**5

# Most degrees one table or oracle report may span.  Checked before anything
# is allocated per degree.
DEGREE_BUDGET = 10**4

# Most degree-equation tests one oracle recount may make.
SCAN_BUDGET = 10**7

# Most (stratum, degree) pairs one table may count.  Many small exponents
# give up to 2^(N+1) strata under the element budget, and a table does one
# lookup per stratum and degree.
STRATUM_DEGREE_BUDGET = 2 * 10**6

# Most witnesses one table may list.  Checked after counting, before ker(chi)
# is enumerated to name them.
WITNESS_BUDGET = 10**5


class BudgetExceededError(ValueError):
    """The instance, a degree window or an oracle scan exceeds its budget."""


def _check_degree_window(k_min: int, k_max: int) -> None:
    if k_min > k_max:
        raise ValueError("empty degree range")
    if k_max - k_min + 1 > DEGREE_BUDGET:
        raise BudgetExceededError(
            f"degree window [{k_min}, {k_max}] spans {k_max - k_min + 1} degrees,"
            f" more than the degree budget {DEGREE_BUDGET}")


class HHContribution(namedtuple("HHContribution", "gamma_index summand exponents u degree gamma")):
    """One basis contribution: the index of its group element in
    ``enumerate_ker_chi`` order, which summand parity, the full monomial
    exponent vector (aligned with the polynomial's variable order,
    stabilizer first when present), the chi-multiple u realizing the weight
    condition in degree ``degree``, and the group element itself.  Within
    one degree no two contributions share (gamma_index, summand, exponents),
    so contributions sort by value without comparing ``gamma``."""

    __slots__ = ()


class DegreeDimension(namedtuple("DegreeDimension", "degree dim witnesses")):
    """One row of a table, with its sorted witnesses (None when not asked
    for)."""

    __slots__ = ()


class HHReport(namedtuple("HHReport", "exponents stabilized kerchi_order milnor k_min k_max"
                                       " dimensions max_a0 engine")):
    """Per-degree dimension table with the bookkeeping tests lean on;
    ``engine`` is "closed-form" or "oracle"."""

    __slots__ = ()

    def dimension(self, k: int) -> DegreeDimension:
        if not self.k_min <= k <= self.k_max:
            raise KeyError(k)
        return self.dimensions[k - self.k_min]


def _scaled_stabilizer_degree(exponents: Sequence[int]) -> tuple[int, int]:
    """(L, f_0) with L = lcm(k_i) and f_0 = L - sum(L / k_i): L times the
    degree q_0 = 1 - sum(1/k_i) of z_0, an integer.  Raises
    AmbiguousGradingError when it is 0."""
    lcm = math.lcm(*exponents)
    f0 = lcm - sum(lcm // k for k in exponents)
    if f0 == 0:
        raise AmbiguousGradingError(
            f"stabilizer degree is torsion for exponents {tuple(exponents)}")
    return lcm, f0


def oracle_bounds(exponents: Sequence[int], stabilized: bool,
                  k_min: int, k_max: int) -> tuple[int, int]:
    """Scan windows (a0_bound, u_bound) for `bruteforce_table` that contain
    every contribution to a degree in [k_min, k_max], derived from the
    degree equation alone, never from the engine being checked.

    Send chi_i to q_i = 1/k_i and chi to 1, so chi_0 goes to
    q_0 = 1 - sum(q_i) = f_0 / L.  A contribution to degree k has
    u = (k - #moving - shift) / 2 with #moving <= N + 1 and shift <= 1, so
    |u| <= U = (K + N + 2) // 2 with K = max(|k_min|, |k_max|).  In its
    degree equation

        a_0 q_0 = u - sum(a_i q_i, i fixed) + sum(q_j, j moving) + shift q_0

    each polynomial variable contributes less than 1 in absolute value
    (a_i <= k_i - 2 and q_j <= 1/2), hence
    a_0 <= (U + N) / |q_0| + 1 = (U + N) L / |f_0| + 1.
    """
    n = len(exponents)
    u_bound = (max(abs(k_min), abs(k_max)) + n + 2) // 2
    if not stabilized:
        return 0, u_bound
    lcm, f0 = _scaled_stabilizer_degree(exponents)
    return (u_bound + n) * lcm // abs(f0) + 1, u_bound


def _walk_is_shorter(walk_len: int, box_len: int) -> bool:
    """Whether a stabilized table walks the walk_len c_0 candidates of its
    strata fixing z_0 rather than list the box_len exponent vectors.  The
    walk is the faster path wherever it lists fewer; where it lists many
    more, as on 2,3,7,43 (|f_0| = 1), the box is several times faster."""
    return walk_len < box_len


class HochschildEngine:
    """Shared setup (lattice) for computing many degrees of one
    polynomial.  Immutable after construction, apart from the lazily
    enumerated ``kernel``."""

    def __init__(self, polynomial: DiagonalPolynomial):
        self.polynomial = polynomial
        self.kerchi_order = math.prod(polynomial.exponents)
        if self.kerchi_order > ELEMENT_BUDGET:
            raise BudgetExceededError(
                f"|ker chi| = prod(k_i) = {self.kerchi_order} exceeds the element"
                f" budget {ELEMENT_BUDGET}")
        self.lattice: CharacterLattice = build_character_lattice(
            polynomial.exponents, polynomial.stabilized)

    @cached_property
    def kernel(self) -> tuple[GroupElement, ...]:
        """Every element of ker(chi); enumerated on first use only."""
        return self.lattice.enumerate_ker_chi()

    def _count(self, ks: Sequence[int], want_witnesses: bool) -> tuple[list[DegreeDimension], int]:
        """Rows for the consecutive degrees ``ks``, and the largest
        stabilizer power a_0 they accepted: each stratum's terms count with
        its multiplicity.  A stratum moving z_0 makes one lookup per degree.
        A stabilized call reads f_0 from the lattice (AmbiguousGradingError
        when it is 0), then counts the c_0 candidates of its strata fixing
        z_0; if they are fewer than the exponent box, those strata walk
        them, otherwise they make one lookup per degree in the box (see the
        module docstring).  Strata, candidates and the box live for this
        call only.  Each accepted term goes straight into its degree's count
        and the running largest a_0; only a witness call keeps per-stratum
        term lists and witness rows, so a plain table holds none."""
        lat = self.lattice
        strata = lat.moving_set_counts()
        pairs = len(strata) * len(ks)
        if pairs > STRATUM_DEGREE_BUDGET:
            raise BudgetExceededError(
                f"{len(strata)} strata over {len(ks)} degrees give {pairs}"
                f" stratum-degree pairs, more than the budget {STRATUM_DEGREE_BUDGET}")
        chi = lat.chi
        stabilized = self.polynomial.stabilized
        exps = self.polynomial.exponents
        steps = [chi.free // k for k in exps]
        f0 = lat.chi0_free() if stabilized else 0  # AmbiguousGradingError when f_0 = 0
        k_min, k_max = ks[0], ks[-1]
        # Only strata fixing z_0 walk c_0 or search the box, so only a
        # stabilized call lists either.  Each such stratum's c_0 candidates,
        # from the module docstring, are one range in steps of lcm k_P.
        walks = {}
        by_coset = {}
        if stabilized:
            slack = sum((k - 2) * step for k, step in zip(exps, steps))  # A
            for moving in strata:
                if 0 in moving:
                    continue
                u_lo, u_hi = -((len(moving) + 1 - k_min) // 2), (k_max - len(moving)) // 2
                s_p = sum(steps[j - 1] for j in moving)
                lo, hi = chi.free * u_lo + s_p - slack, chi.free * u_hi + s_p
                if f0 < 0:
                    lo, hi = -hi, -lo
                first = max(-1, -(-lo // abs(f0)))
                period = math.lcm(*(exps[j - 1] for j in moving))
                walks[moving] = range(first + (-1 - first) % period, hi // abs(f0) + 1, period)
            if not _walk_is_shorter(sum(map(len, walks.values())), math.prod(k - 1 for k in exps)):
                walks = {}
                # The exponent box, bucketed by coset_key; a support has bit i for z_i.
                bits = [1 << i for i in range(1, len(exps) + 1)]
                for a in itertools.product(*(range(k - 1) for k in exps)):
                    free = sum(x * step for x, step in zip(a, steps))
                    support = sum(bit for x, bit in zip(a, bits) if x)
                    by_coset.setdefault(lat.coset_key(free, a), []).append((a, free, support))

        counts = {k: 0 for k in ks}
        max_a0 = 0  # the largest accepted a_0; a unit monomial off z_0 has a_0 = 0
        accepted = {}  # moving set -> [(k, summand, exponent vector, u)], for witnesses only
        for moving, mult in strata.items():
            terms = accepted.setdefault(moving, []) if want_witnesses else None
            if moving in walks:
                # The rule in integers: a_i = c_0 mod k_i must be a Jacobi
                # power on F, and u = c_0 - sum(floor((c_0 + [i in P]) / k_i)).
                on_p = [(k, i in moving) for i, k in enumerate(exps, start=1)]
                for c0 in walks[moving]:
                    a = tuple(0 if moved else c0 % k for k, moved in on_p)
                    if any(x == k - 1 for x, k in zip(a, exps)):
                        continue
                    u = c0 - sum((c0 + moved) // k for k, moved in on_p)
                    k = 2 * u + len(moving)
                    if c0 >= 0 and k_min <= k <= k_max:
                        counts[k] += mult
                        max_a0 = max(max_a0, c0)
                        if want_witnesses:
                            terms.append((k, EVEN, (c0, *a), u))
                    if k_min <= k + 1 <= k_max:
                        counts[k + 1] += mult
                        max_a0 = max(max_a0, c0 + 1)
                        if want_witnesses:
                            terms.append((k + 1, ODD, (c0 + 1, *a), u))
            else:
                z0_moves = 0 in moving
                z0_fixed = stabilized and not z0_moves
                moving_bits = sum(1 << i for i in moving)
                # -sum(chi_j, j in M), read off chi_j = (L / k_j, e_j) and chi_0.
                dual = Weight(-sum(steps[j - 1] for j in moving if j) - z0_moves * f0,
                              tuple((z0_moves - (i in moving)) % k
                                    for i, k in enumerate(exps, start=1)), exps)
                # Degrees with integral u, from k_min - 1 when z_0 is fixed: its odd twins land in k_min.
                first = k_min - z0_fixed
                for k in range(first + (first - len(moving)) % 2, k_max + 1, 2):
                    u = (k - len(moving)) // 2
                    target = chi.scaled(u) - dual
                    if not z0_fixed:
                        if target.is_zero():
                            counts[k] += mult
                            if want_witnesses:
                                terms.append((k, EVEN, (0, *target.torsion) if stabilized else target.torsion, u))
                        continue
                    for a, free, support in by_coset.get(lat.coset_key(target.free, target.torsion), ()):
                        c0 = (target.free - free) // f0
                        if c0 < -1 or support & moving_bits:
                            continue
                        if c0 >= 0 and k >= k_min:
                            counts[k] += mult
                            max_a0 = max(max_a0, c0)
                            if want_witnesses:
                                terms.append((k, EVEN, (c0, *a), u))
                        if k < k_max:
                            counts[k + 1] += mult
                            max_a0 = max(max_a0, c0 + 1)
                            if want_witnesses:
                                terms.append((k + 1, ODD, (c0 + 1, *a), u))
        if not want_witnesses:
            return [DegreeDimension(k, counts[k], None) for k in ks], max_a0
        total = sum(counts.values())
        if total > WITNESS_BUDGET:
            raise BudgetExceededError(
                f"degrees {ks[0]}..{ks[-1]} have {total} witnesses, more than the"
                f" witness budget {WITNESS_BUDGET}")
        wits = {k: [] for k in ks}
        for gi, gamma in enumerate(self.kernel):
            for k, summand, vector, u in accepted[gamma.moving]:
                wits[k].append(HHContribution(gi, summand, vector, u, k, gamma))
        return [DegreeDimension(k, counts[k], tuple(sorted(wits[k]))) for k in ks], max_a0

    def dimension(self, k: int, witnesses: bool = False) -> DegreeDimension:
        return self._count([k], witnesses)[0][0]

    def _report(self, rows: Sequence[DegreeDimension], max_a0: int, engine: str) -> HHReport:
        return HHReport(
            exponents=self.polynomial.exponents,
            stabilized=self.polynomial.stabilized,
            kerchi_order=self.kerchi_order,
            milnor=milnor_number(self.polynomial),
            k_min=rows[0].degree,
            k_max=rows[-1].degree,
            dimensions=tuple(rows),
            max_a0=max_a0,
            engine=engine,
        )

    def table(self, k_min: int, k_max: int, witnesses: bool = False) -> HHReport:
        """Dimensions over [k_min, k_max]."""
        _check_degree_window(k_min, k_max)
        rows, max_a0 = self._count(range(k_min, k_max + 1), witnesses)
        return self._report(rows, max_a0, "closed-form")

    def bruteforce_table(self, a0_bound: int, u_bound: int):
        """Independent recount, one element of ker(chi) at a time (no
        multiplicities): each Jacobi monomial on gamma's fixed variables,
        summand and a_0 in [0, a0_bound] (only 0 when gamma moves z_0)
        counts in degree 2u + #moving + shift iff the degree equation holds
        for some u with |u| <= u_bound, tested in plain integers (see the
        module docstring), not with the lattice's weights.

        Returns (counts by degree, max accepted a_0).  Degrees absent from
        the dict have count 0 within the scanned windows.  Raises
        AmbiguousGradingError when chi_0 is torsion, since the count would
        then grow with a0_bound, and BudgetExceededError before scanning when
        the windows need more than SCAN_BUDGET tests.
        """
        if a0_bound < 0 or u_bound < 0:
            raise ValueError("scan bounds must be nonnegative")
        poly = self.polynomial
        steps = sum(
            mult * (2 * (a0_bound + 1) if poly.stabilized and 0 not in moving else 1)
            * math.prod(poly.exponent_of(i) - 1
                        for i in range(1, poly.num_vars + 1) if i not in moving)
            for moving, mult in self.lattice.moving_set_counts().items())
        if steps > SCAN_BUDGET:
            raise BudgetExceededError(
                f"oracle scan needs {steps} lookups, more than the scan budget {SCAN_BUDGET}")
        exps = poly.exponents
        lcm, f0 = _scaled_stabilizer_degree(exps) if poly.stabilized else (math.lcm(*exps), 0)
        # (shift, c_0 values): c_0 = a_0 - shift with a_0 in [0, a0_bound] when
        # gamma fixes z_0; otherwise a_0 = shift = 0, and c_0 = -1 when gamma
        # moves z_0 and 0 unstabilized.
        z0_fixed_walks = ((0, range(a0_bound + 1)), (1, range(-1, a0_bound)))
        other_walks = ((0, (-1 if poly.stabilized else 0,)),)

        @cache
        def terms(fixed):
            """(sum(c_i * L / k_i), ((c_i, k_i) for every i)) per Jacobi
            monomial on the fixed polynomial variables."""
            moved = tuple((-1, k) for i, k in enumerate(exps, start=1) if i not in fixed)
            cs = [moved + tuple((a, exps[i - 1]) for i, a in mono)
                  for mono in jacobi_basis({i: exps[i - 1] for i in fixed})]
            return [(sum(c * (lcm // k) for c, k in row), row) for row in cs]

        counts: dict[int, int] = {}
        max_a0 = 0
        for gamma in self.kernel:
            # Everything below comes from gamma itself, not from the
            # engine's strata, so a wrong stratum cannot repeat here.
            z0_fixed = 0 in gamma.fixed
            moving_count = len(gamma.moving)
            walks = z0_fixed_walks if z0_fixed else other_walks
            for base, cs in terms(gamma.fixed - {0}):
                for shift, c0s in walks:
                    for c0 in c0s:
                        free = base + c0 * f0
                        if free % lcm or any((c - c0) % m for c, m in cs):
                            continue
                        u = free // lcm
                        if abs(u) <= u_bound:
                            k = 2 * u + moving_count + shift
                            counts[k] = counts.get(k, 0) + 1
                            if z0_fixed and c0 + shift > max_a0:
                                max_a0 = c0 + shift
        return counts, max_a0

    def bruteforce_report(self, k_min: int, k_max: int,
                          a0_bound: int, u_bound: int) -> HHReport:
        _check_degree_window(k_min, k_max)
        counts, max_a0 = self.bruteforce_table(a0_bound, u_bound)
        rows = [DegreeDimension(k, counts.get(k, 0), None) for k in range(k_min, k_max + 1)]
        return self._report(rows, max_a0, "oracle")


# -- closed-form predictions -------------------------------------------------

class PropositionCheck(namedtuple("PropositionCheck", "label degree computed expected")):
    __slots__ = ()


class PropositionReport(namedtuple("PropositionReport", "status reasons checks")):
    """``status`` is "pass", "mismatch" or "hypotheses_not_met"."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def verify_proposition(p: DiagonalPolynomial) -> PropositionReport:
    """Check the closed-form predictions for the paper's stabilized double
    suspensions xy + p(z): the exponents are {2, 2} plus those of any
    nonempty Brieskorn-Pham polynomial p.  The dimension in degree 0 equals
    k3 - 1 with k3 = min(p), and the dimension in degree n = N - 1 equals
    the Milnor number.

    Hypothesis failures yield status "hypotheses_not_met" without computing.
    """
    reasons = []
    if not p.stabilized:
        reasons.append("polynomial is not stabilized")
    twos = p.exponents.count(2)
    if twos < 2:
        reasons.append(f"need two quadratic exponents, found {twos}")
    elif len(p.exponents) == 2:
        reasons.append("need an exponent besides the quadratic pair")
    if reasons:
        return PropositionReport("hypotheses_not_met", tuple(reasons), ())

    # 2 is the smallest exponent, so the pair sorts first and p follows.
    k3 = sorted(p.exponents)[2]
    n = p.num_vars - 1
    mu = milnor_number(p)
    report = HochschildEngine(p).table(0, n)
    checks = (
        PropositionCheck("dim HH^0", 0, report.dimension(0).dim, k3 - 1),
        PropositionCheck(f"dim HH^{n}", n, report.dimension(n).dim, mu),
    )
    status = "pass" if all(c.computed == c.expected for c in checks) else "mismatch"
    return PropositionReport(status, (), checks)
