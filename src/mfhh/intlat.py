"""Exact integer linear algebra: Smith invariant factors and cokernels.

A matrix is given as its rows (sequences of ints) and its column count.
``smith_normal_form`` eliminates on a working copy of plain Python ints,
which never overflow, and returns only the diagonal of the Smith normal
form; it builds no transform matrices.  The package reads that diagonal for
one thing, the torsion of the character lattice (and, through
``cokernel``, of its quotient by chi); weight coordinates are in closed form
(``mfhh.charlat``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import prod


def validated_make(cls, iterable):
    """``_make`` for a namedtuple that checks its fields in ``__new__``: the
    stock one, which ``_replace`` calls, would skip those checks."""
    return cls(*iterable)


class AbelianGroupStructure(namedtuple("AbelianGroupStructure", "free_rank torsion")):
    """A finitely generated abelian group: Z^free_rank + sum of Z/d_i.

    The torsion list keeps only invariant factors >= 2 and they form a
    divisibility chain d_1 | d_2 | ...
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...]) -> AbelianGroupStructure:
        if free_rank < 0:
            raise ValueError("negative free rank")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion is not a divisibility chain")
        return super().__new__(cls, free_rank, torsion)

    _make = classmethod(validated_make)

    @property
    def order(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return prod(self.torsion)


def smith_normal_form(rows: Sequence[Sequence[int]], cols: int) -> tuple[int, ...]:
    """Invariant factors of the integer matrix with the given rows.

    Returns the diagonal of its Smith normal form: ``min(len(rows), cols)``
    nonnegative ints, each dividing the next (zeros last).  Pivoting rule:
    smallest nonzero absolute value in the active block, ties broken by
    lowest (row, col).
    """
    d = [list(row) for row in rows]
    if any(len(row) != cols for row in d):
        raise ValueError("every row must have cols entries")
    size = min(len(d), cols)

    t = 0
    while t < size:
        best, pi, pj = 0, t, t
        for i in range(t, len(d)):
            row = d[i]
            for j in range(t, cols):
                if row[j] and (not best or abs(row[j]) < best):
                    best, pi, pj = abs(row[j]), i, j
        if not best:
            break
        d[pi], d[t] = d[t], d[pi]
        for row in d:
            row[pj], row[t] = row[t], row[pj]
        if d[t][t] < 0:
            d[t] = [-e for e in d[t]]
        p = d[t][t]

        # Reduce the pivot column and row; leftover remainders are smaller
        # than the pivot, so re-pivot on them.
        dirty = False
        for i in range(t + 1, len(d)):
            q = d[i][t] // p
            if q:
                d[i] = [a - q * b for a, b in zip(d[i], d[t])]
            dirty = dirty or d[i][t] != 0
        for j in range(t + 1, cols):
            q = d[t][j] // p
            if q:
                for row in d:
                    row[j] -= q * row[t]
            dirty = dirty or d[t][j] != 0
        if dirty:
            continue

        # Pull a row with an entry the pivot does not divide into the pivot
        # row, so the next pivot divides it; classical divisibility fix-up.
        stain = next((i for i in range(t + 1, len(d)) if any(e % p for e in d[i][t + 1:])), None)
        if stain is not None:
            d[t] = [a + b for a, b in zip(d[t], d[stain])]
            continue
        t += 1

    diag = tuple(d[i][i] for i in range(size))
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)
    return diag


def cokernel(rows: Sequence[Sequence[int]], cols: int) -> AbelianGroupStructure:
    """Structure of Z^cols modulo the span of ``rows``.

    Invariant factors equal to 1 are dropped; zero diagonal entries (and
    missing ones, when there are fewer relations than generators) count
    toward the free rank.
    """
    diag = [x for x in smith_normal_form(rows, cols) if x != 0]
    return AbelianGroupStructure(
        free_rank=cols - len(diag),
        torsion=tuple(x for x in diag if x >= 2),
    )
