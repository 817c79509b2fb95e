"""Exact rational linear algebra kernel.

Entries and results are ``fractions.Fraction``, so predicates such as
determinant signs are decided exactly; matrices are immutable, dense and
row-major.  Every elimination is ``eliminate``, fraction-free (Bareiss) on
integer rows, in one of two modes with one return contract: Gauss-Jordan
for ``inverse`` and ``solve``, echelon (rows below each pivot only) for
determinants.  ``det``, ``inverse`` and ``solve`` clear a matrix to A / c,
eliminate A and divide once; ``int_det``, ``int_inverse``, ``inverse_rows``
and ``int_mat_mul`` serve callers that hold integer rows.
Intended scale is small systems (n <= ~10), with no sparsity or asymptotic
cleverness.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, str, Fraction]


class LinalgError(Exception):
    """Base class for exact-linalg failures."""


class DimensionError(LinalgError):
    """Operand shapes do not match the operation."""


class SingularMatrixError(LinalgError):
    """A matrix required to be invertible has determinant zero."""


def rat(x: Scalar) -> Fraction:
    """Coerce an int, string ("3", "-2/5") or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def vector(entries: Iterable[Scalar]) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in entries)


class Matrix:
    """Immutable dense matrix of Fractions, row-major.

    Supports zero-width and zero-height shapes (a 0x0 determinant is 1, which
    keeps edge cases like empty column selections consistent).
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        data = tuple(rat(x) for x in entries)
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise DimensionError(
                f"entry count {len(data)} does not fill a {rows}x{cols} matrix"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", data)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(nrows, ncols, [x for r in rows for x in r])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def mat_vec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise DimensionError(f"vector length {len(v)} vs {self.cols} columns")
        return tuple(sum(map(mul, self.row(i), v), Fraction(0)) for i in range(self.rows))

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.rows, self.cols, self._entries) == (
            other.rows, other.cols, other._entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def clear_denominator(v: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(q, q*v): the least common denominator q of a rational vector and the
    integer vector it scales v to."""
    q = lcm(*(x.denominator for x in v))
    return q, [x.numerator * (q // x.denominator) for x in v]


def clear_rows(a: Matrix | Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """(d, d*a): the least common denominator d of a rational matrix (or of
    its rows) and the integer rows it scales a to."""
    rows = a.row_list() if isinstance(a, Matrix) else a
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def eliminate(rows: list[list[int]], ncols: int, reduced: bool = True) -> tuple[list[int], int, int]:
    """Fraction-free elimination on the first ncols columns of integer rows,
    in place; later columns get the same row operations.

    A column's pivot is its first nonzero entry at or below the current row,
    swapped up; with pivot row y, pivot p and previous pivot prev (1 at the
    start), a row x becomes (p*x - x[col]*y) // prev, an exact division
    (Bareiss): with x[col] = 0 that is the rescale (p*x) // prev, skipped
    when p == prev.  Gauss-Jordan mode (reduced) updates every other row;
    echelon mode only the rows below the pivot, from the pivot column on,
    since their entries left of it are already 0.  Both modes give the rows at and
    below the pivot the same update, so both return the same (pivots, last,
    sign): pivot columns, last pivot (1 if none), swap sign, and a
    full-rank square has det sign*last.  In Gauss-Jordan mode each row ends
    as last times the row that rational Gauss-Jordan leaves.
    """
    nrows = len(rows)
    pivots: list[int] = []
    sign = prev = 1
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        piv = next((r for r in range(row, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            rows[row], rows[piv] = rows[piv], rows[row]
            sign = -sign
        y = rows[row]
        p = y[col]
        if reduced:
            for r in range(nrows):
                if r != row:
                    f = rows[r][col]
                    if f:
                        rows[r] = [(p * a - f * b) // prev for a, b in zip(rows[r], y)]
                    elif p != prev:
                        rows[r] = [p * a // prev for a in rows[r]]
        else:
            tail = y[col:]
            for r in range(row + 1, nrows):
                x = rows[r]
                f = x[col]
                if f:
                    x[col:] = [(p * a - f * b) // prev for a, b in zip(x[col:], tail)]
                elif p != prev:
                    x[col:] = [p * a // prev for a in x[col:]]
        pivots.append(col)
        prev = p
    return pivots, prev, sign


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix given as rows."""
    work = [list(row) for row in rows]
    pivots, last, sign = eliminate(work, len(work), reduced=False)
    return sign * last if len(pivots) == len(work) else 0


def int_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """(det B, adj B), B^-1 = adj B / det B, for a square integer matrix B
    given as rows, from one elimination of [B | I]; (0, None) if singular."""
    n = len(rows)
    work = [list(row) + [0] * n for row in rows]
    for i, row in enumerate(work):
        row[n + i] = 1
    pivots, last, sign = eliminate(work, n)
    if len(pivots) < n:
        return 0, None
    return sign * last, [[sign * x for x in row[n:]] for row in work]


def inverse_rows(d: int, rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(A / d)^-1 = X / e as (e, X), e > 0, for integer rows A and d > 0:
    d adj A / det A, signed so that e = |det A|."""
    det_a, adj = int_inverse(rows)
    if adj is None:
        raise SingularMatrixError("matrix is singular")
    f = d if det_a > 0 else -d
    return abs(det_a), [[f * x for x in row] for row in adj]


def int_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Product of two integer matrices given as rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def det(a: Matrix) -> Fraction:
    """Exact determinant: a = A / c with integer A, so det a = det A / c^n."""
    if a.rows != a.cols:
        raise DimensionError(f"determinant of non-square {a.rows}x{a.cols} matrix")
    c, rows = clear_rows(a)
    return Fraction(int_det(rows), c**a.rows)


def solve(a: Matrix, b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact solution x of a*x = b for square invertible a: [a | b] is cleared
    and eliminated, and x is the last column over the last pivot."""
    if a.rows != a.cols:
        raise DimensionError(f"solve needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    if len(b) != n:
        raise DimensionError(f"right-hand side length {len(b)} vs size {n}")
    _, aug = clear_rows([a.row(i) + (rat(b[i]),) for i in range(n)])
    pivots, last, _ = eliminate(aug, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return tuple(Fraction(row[n], last) for row in aug)


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square invertible matrix, by inverse_rows."""
    if a.rows != a.cols:
        raise DimensionError(f"inverse needs a square matrix, got {a.rows}x{a.cols}")
    e, x = inverse_rows(*clear_rows(a))
    return Matrix(a.rows, a.rows, [Fraction(v, e) for row in x for v in row])


def normalize_integer_direction(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Canonical representative of a nonzero rational direction.

    Scales to integer entries with collective gcd 1 and first nonzero entry
    positive, so directions compare canonically in reports and tests.
    """
    if all(x == 0 for x in v):
        raise LinalgError("cannot normalize the zero vector")
    denom = lcm(*(x.denominator for x in v)) if v else 1
    ints = [int(x * denom) for x in v]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)
