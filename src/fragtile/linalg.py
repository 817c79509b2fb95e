"""Exact rational linear algebra kernel.

Every scalar is a ``fractions.Fraction`` (arbitrary precision, always stored
reduced with positive denominator), so all predicates computed here, such as
determinant signs and boundary membership, are decided exactly.  Matrices are
immutable, dense and row-major.  Intended scale is small systems (n <= ~10);
there is no attempt at sparsity or asymptotic cleverness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Rational = Fraction
Scalar = Union[int, str, Fraction]


class LinalgError(Exception):
    """Base class for exact-linalg failures."""


class DimensionError(LinalgError):
    """Operand shapes do not match the operation."""


class SingularMatrixError(LinalgError):
    """A matrix required to be invertible has determinant zero."""


class RankDeficiencyError(LinalgError):
    """A matrix does not have the rank the operation requires."""


class BlockPermutationError(LinalgError):
    """Blocks do not form a valid ordered partition of {1..n}."""


def rat(x: Scalar) -> Fraction:
    """Coerce an int, string ("3", "-2/5") or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def vector(entries: Iterable[Scalar]) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in entries)


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(u) != len(v):
        raise DimensionError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(u) != len(v):
        raise DimensionError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Scalar, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    c = rat(c)
    return tuple(c * x for x in v)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


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

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Scalar]], rows: int | None = None) -> "Matrix":
        ncols = len(cols)
        if ncols == 0:
            if rows is None:
                raise DimensionError("row count required for a zero-column matrix")
            return cls(rows, 0, [])
        nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise DimensionError("ragged columns")
        return cls(nrows, ncols, [cols[j][i] for i in range(nrows) for j in range(ncols)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DimensionError(f"index ({i},{j}) outside {self.rows}x{self.cols}")
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self._entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def mat_vec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise DimensionError(f"vector length {len(v)} vs {self.cols} columns")
        return tuple(dot(self.row(i), v) for i in range(self.rows))

    def mat_mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = [self.mat_vec(other.column(j)) for j in range(other.cols)]
        return Matrix.from_columns(cols, rows=self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def det(a: Matrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) two-step elimination.

    Dividing each Schur update by the previous pivot keeps intermediate
    numerators and denominators from compounding, which matters once entries
    carry large denominators (e.g. 2^31 sampling grids).
    """
    if not a.is_square:
        raise DimensionError(f"determinant of non-square {a.rows}x{a.cols} matrix")
    n = a.rows
    if n == 0:
        return Fraction(1)
    m = [list(a.row(i)) for i in range(n)]
    sign = 1
    prev = Fraction(1)
    for col in range(n - 1):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col]
            row_r = m[r]
            row_c = m[col]
            for c in range(col + 1, n):
                row_r[c] = (row_r[c] * pivot - factor * row_c[c]) / prev
            row_r[col] = Fraction(0)
        prev = pivot
    return sign * m[n - 1][n - 1]


def rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan reduction of the first ncols columns, in place.

    The rows may carry augmented columns past ncols; they receive the same
    row operations.  Each pivot is the first nonzero entry at or below the
    current row.  Returns the pivot columns in order: afterwards row i has a
    1 in column pivots[i] and zeros in every other pivot column, and the rows
    below len(pivots) are zero in the first ncols columns.
    """
    nrows = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        piv = next((r for r in range(row, nrows) if rows[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            rows[row], rows[piv] = rows[piv], rows[row]
        pivot = rows[row][col]
        if pivot != 1:
            rows[row] = [x / pivot for x in rows[row]]
        for r in range(nrows):
            if r != row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[row])]
        pivots.append(col)
    return pivots


def solve(a: Matrix, b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact solution x of a*x = b for square invertible a (Gauss-Jordan)."""
    if not a.is_square:
        raise DimensionError(f"solve needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    if len(b) != n:
        raise DimensionError(f"right-hand side length {len(b)} vs size {n}")
    aug = [list(a.row(i)) + [rat(b[i])] for i in range(n)]
    if len(rref(aug, n)) < n:
        raise SingularMatrixError("matrix is singular")
    return tuple(row[n] for row in aug)


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square invertible matrix (Gauss-Jordan)."""
    if not a.is_square:
        raise DimensionError(f"inverse needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    aug = [
        list(a.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)
    ]
    if len(rref(aug, n)) < n:
        raise SingularMatrixError("matrix is singular")
    return Matrix.from_rows([row[n:] for row in aug])


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


def kernel_vector(v: Matrix) -> tuple[Fraction, ...]:
    """Canonical nonzero kernel vector of a k x (k+1) matrix of rank k.

    Gauss-Jordan elimination exposes the single free column; the resulting
    one-dimensional null space is returned normalized (integer entries,
    gcd 1, first nonzero entry positive).
    """
    if v.cols != v.rows + 1:
        raise DimensionError(f"expected k x (k+1) matrix, got {v.rows}x{v.cols}")
    m = [list(v.row(i)) for i in range(v.rows)]
    pivots = rref(m, v.cols)
    if len(pivots) < v.rows:
        raise RankDeficiencyError("rank below row count: kernel dimension exceeds 1")
    free = next(c for c in range(v.cols) if c not in pivots)
    h = [Fraction(0)] * v.cols
    h[free] = Fraction(1)
    for r, col in enumerate(pivots):
        h[col] = -m[r][free]
    return normalize_integer_direction(h)


@dataclass(frozen=True)
class BlockPermutation:
    """A permutation of {1..n} written as an ordered list of sorted blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in blocks))
        word = self.word
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise BlockPermutationError(
                f"blocks {self.blocks} are overlapping or incomplete over [{n}]"
            )
        for b in self.blocks:
            if list(b) != sorted(b):
                raise BlockPermutationError(f"block {b} is not sorted ascending")

    @property
    def word(self) -> tuple[int, ...]:
        return tuple(x for b in self.blocks for x in b)


def word_sign(word: Sequence[int]) -> int:
    """Sign of a permutation word of {1..n} by inversion count."""
    inversions = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inversions % 2 else 1


def perm_sign(p: BlockPermutation | Iterable[Iterable[int]]) -> int:
    """Sign of the permutation obtained by concatenating the blocks in order."""
    if not isinstance(p, BlockPermutation):
        p = BlockPermutation(p)
    return word_sign(p.word)
