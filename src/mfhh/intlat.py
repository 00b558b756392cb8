"""Exact integer linear algebra: Smith normal form and cokernel presentations.

Matrices are dense and immutable, with plain-integer entries kept inside a
checked 64-bit window.  An entry that leaves the window raises
IntegerOverflowError on the spot; nothing ever wraps around.  The lattices
this library works with have single-digit sizes and tiny entries, so the cap
is a tripwire for bugs and absurd inputs rather than a real limitation.

The Smith normal form routine is fully deterministic: the pivot is always the
entry of smallest nonzero absolute value in the active block, ties broken by
lowest (row, column), so its transform matrices are reproducible.  The package
reads only the diagonal (the invariant factors, for the group structure and
cokernels); weight coordinates are in closed form (``mfhh.charlat``) and do
not depend on the transforms.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import prod

ENTRY_LIMIT = 2**63 - 1


class IntegerOverflowError(ArithmeticError):
    """An exact integer computation left the checked 64-bit range."""


def checked(value: int) -> int:
    """Return ``value`` unchanged, or raise if it exceeds the checked width."""
    if value > ENTRY_LIMIT or value < -ENTRY_LIMIT:
        raise IntegerOverflowError(
            f"integer {value} exceeds the checked 64-bit width"
        )
    return value


def validated_make(cls, iterable):
    """``_make`` for a namedtuple that checks its fields in ``__new__``: the
    stock one, which ``_replace`` calls, would skip those checks."""
    return cls(*iterable)


class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    """Immutable dense integer matrix, entries stored row-major."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]) -> IntMatrix:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match rows*cols")
        for e in entries:
            checked(e)
        return super().__new__(cls, rows, cols, entries)

    _make = classmethod(validated_make)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> IntMatrix:
        nrows = len(rows)
        if cols is None:
            cols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
            flat.extend(int(e) for e in row)
        return cls(nrows, cols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("incompatible shapes")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = 0
                for t in range(self.cols):
                    acc = checked(acc + checked(self.entry(i, t) * other.entry(t, j)))
                out.append(acc)
        return IntMatrix(self.rows, other.cols, tuple(out))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))

    def is_diagonal(self) -> bool:
        return all(self.entry(i, j) == 0
                   for i in range(self.rows) for j in range(self.cols) if i != j)


class SmithDecomposition(namedtuple("SmithDecomposition", "U D V")):
    """U @ M @ V = D with U, V unimodular and D in Smith normal form."""

    __slots__ = ()


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


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = checked(a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize ``m`` by unimodular row and column operations.

    Returns (U, D, V) with U @ m @ V = D, the diagonal of D nonnegative and
    each entry dividing the next.  Pivoting rule: smallest nonzero absolute
    value in the active block, ties broken by lowest (row, col), so the
    decomposition (including U and V) is reproducible.
    """
    rows, cols = m.rows, m.cols
    d = m.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def swap_rows(i1, i2):
        d[i1], d[i2] = d[i2], d[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for row in d:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def negate_row(i):
        d[i] = [checked(-e) for e in d[i]]
        u[i] = [checked(-e) for e in u[i]]

    def row_sub(dst, src, q):
        # row dst -= q * row src
        d[dst] = [checked(a - q * b) for a, b in zip(d[dst], d[src])]
        u[dst] = [checked(a - q * b) for a, b in zip(u[dst], u[src])]

    def col_sub(dst, src, q):
        # col dst -= q * col src
        for row in d:
            row[dst] = checked(row[dst] - q * row[src])
        for row in v:
            row[dst] = checked(row[dst] - q * row[src])

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e:
                    key = (abs(e), i, j)
                    if best is None or key < best:
                        best = key
        return best

    t = 0
    while t < min(rows, cols):
        best = find_pivot(t)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        if d[t][t] < 0:
            negate_row(t)
        p = d[t][t]

        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = d[i][t] // p
                if q:
                    row_sub(i, t, q)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                q = d[t][j] // p
                if q:
                    col_sub(j, t, q)
                if d[t][j]:
                    dirty = True
        if dirty:
            # Leftover remainders are smaller than the pivot; re-pivot.
            continue

        stain = None
        for i in range(t + 1, rows):
            if any(e % p for e in d[i][t + 1:]):
                stain = i
                break
        if stain is not None:
            # Pull the offending row into the pivot row so the next pivot
            # divides it; classical divisibility fix-up.
            row_sub(t, stain, -1)
            continue
        t += 1

    U = IntMatrix.from_rows(u, rows)
    D = IntMatrix.from_rows(d, cols)
    V = IntMatrix.from_rows(v, cols)
    assert U @ m @ V == D
    diag = D.diagonal()
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)
    return SmithDecomposition(U, D, V)


def cokernel(relations: IntMatrix) -> AbelianGroupStructure:
    """Structure of Z^cols modulo the row span of ``relations``.

    Invariant factors equal to 1 are dropped; zero diagonal entries (and
    missing ones, when there are fewer relations than generators) count
    toward the free rank.
    """
    snf = smith_normal_form(relations)
    diag = [x for x in snf.D.diagonal() if x != 0]
    return AbelianGroupStructure(
        free_rank=relations.cols - len(diag),
        torsion=tuple(x for x in diag if x >= 2),
    )
