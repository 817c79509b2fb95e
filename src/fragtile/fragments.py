"""Fragment matrices of an invertible square matrix.

A matrix M of size (r+k) x (r+k) splits columnwise into a top part c_i (first
r entries of column i) and a negated bottom part cbar_i (the last k entries of
column i are -cbar_i).  For every r-subset sigma of column indices, the
sigma-fragment matrix keeps the top parts on sigma, the bottom parts on the
complement, and zeroes the rest; its determinant is one summand of the
multi-row Laplace expansion of (-1)^k det(M).  Subsets are 1-based and always
kept sorted; families are enumerated in lexicographic order so every report is
deterministic.

decompose clears M once, to m_rows = (d, A) with M = A / d, and every layer
reads those integer rows; fragment_rows assembles d S_sigma from them.  Up to
the column shuffle of (sigma, complement), S_sigma = diag(C_sigma, Cbar_hat),
so det S_sigma = sgn(sigma, hat) det C_sigma det Cbar_hat.  BlockMinors holds
every block determinant, a maximal minor of A's top or negated bottom rows
found by minor_table's Laplace expansion.  By Cramer's rule every row of a
live S_sigma^-1 is a scalar times one shared cofactor row, of A's top rows on
an (r-1)-subset or of its negated bottom rows on a (k-1)-subset; BlockMinors
builds those rows and their products with A's columns once, and a fragment's
inverse is one (shared row, scale) pair per row.  A Fragment keeps its two
block minors as integers; its sign class is their signed product's sign, and
its Fraction determinants are formed only when read.  The checks stay
independent of the tables: sandc_identity and det M are int_det eliminations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul
from typing import Iterable, Iterator, Mapping

from .linalg import DimensionError, Matrix, clear_rows, int_det, inverse_rows

SubsetIndex = tuple[int, ...]
MinorTable = dict[SubsetIndex, int]

POSITIVE = "positive"
NEGATIVE = "negative"
DEGENERATE = "degenerate"


class DegenerateFragmentError(Exception):
    """A fragment with determinant zero was used where invertibility is required."""


@dataclass(frozen=True)
class Dimensions:
    """Global split of the ambient dimension into r top and k bottom coordinates."""

    r: int
    k: int

    def __post_init__(self):
        if self.r < 1 or self.k < 1:
            raise DimensionError(f"r and k must be positive, got r={self.r} k={self.k}")

    @property
    def n(self) -> int:
        return self.r + self.k


@dataclass(frozen=True)
class Decomposition:
    """M split into r top and k bottom rows, cleared once: m_rows = (d, A)
    with M = A / d, d the least common denominator."""

    dims: Dimensions
    m: Matrix
    m_rows: tuple[int, list[list[int]]] = field(compare=False, repr=False)


def subsets(n: int, size: int) -> Iterator[SubsetIndex]:
    """All sorted size-subsets of {1..n} in lexicographic order."""
    return combinations(range(1, n + 1), size)


def normalize_subset(sigma: Iterable[int], n: int) -> SubsetIndex:
    s = tuple(sorted(sigma))
    if len(set(s)) != len(s) or any(not (1 <= i <= n) for i in s):
        raise DimensionError(f"invalid index subset {s} of [{n}]")
    return s


def complement(sigma: Iterable[int], n: int) -> SubsetIndex:
    inside = set(sigma)
    return tuple(i for i in range(1, n + 1) if i not in inside)


def shuffle_sign(sigma: SubsetIndex) -> int:
    """Sign of the block permutation (sigma, complement of sigma) of {1..n}.

    For sorted sigma, its i-th index passes sigma_i - i complement indices,
    so the inversions number sum(sigma) - r(r+1)/2.
    """
    r = len(sigma)
    return (-1) ** (sum(sigma) - r * (r + 1) // 2)


def minor_table(rows: list[list[int]], n: int) -> MinorTable:
    """{tau: det of the integer rows on columns tau} for every len(rows)-subset
    tau of {1..n}.  Level t's minors, of the first t rows, expand along row t
    into level t-1's; only two levels are held at a time."""
    table: MinorTable = {(): 1}
    for t, row in enumerate(rows):
        prev, table = table, {}
        for tau in combinations(range(1, n + 1), t + 1):
            total = 0
            for p, j in enumerate(tau):
                if x := row[j - 1]:
                    total += (-x if (t + p) & 1 else x) * prev[tau[:p] + tau[p + 1 :]]
            table[tau] = total
    return table


class BlockMinors:
    """The block sides of M = A / d as integer rows, A's top rows and its
    negated bottom rows; minors holds each side's maximal minors, the block
    determinants, and deleted its "row j deleted" tables, on first read.
    Row i of adj B, B a side's block on columns cols, is (-1)^i times the
    shared row of the key cols less cols[i], whose entry j is (-1)^j times
    the side's minor off row j on the key."""

    def __init__(self, d: int, a: list[list[int]], r: int):
        self.d, self.r, self.n, self.a = d, r, len(a), a
        self.rows = a[:r], [[-x for x in row] for row in a[r:]]
        self.minors = tuple(minor_table(rows, self.n) for rows in self.rows)

    @cached_property
    def deleted(self) -> tuple[list[MinorTable], ...]:
        n = self.n
        return tuple([minor_table(b[:j] + b[j + 1 :], n) for j in range(len(b))] for b in self.rows)

    @cached_property
    def cofactors(self) -> tuple[tuple[dict, dict], list[list[int]]]:
        """(keys, rows), top side (0) first: keys[side][key] = (s, g) for the
        shared row of every key one short of the side's size, and rows[s]
        that row over its content g, zero-padded to length n on the side's
        coordinates."""
        keys, rows = ({}, {}), []
        for side, deleted in enumerate(self.deleted):
            pad = [0] * (self.n - len(deleted))
            for key in deleted[0]:
                row = [-table[key] if j & 1 else table[key] for j, table in enumerate(deleted)]
                g = gcd(*row) or 1
                keys[side][key] = len(rows), g
                row = [x // g for x in row]
                rows.append(pad + row if side else row + pad)
        return keys, rows

    @cached_property
    def products(self) -> list[list[int]]:
        """Each shared row times A's columns."""
        (_, rows), cols = self.cofactors, list(zip(*self.a))
        return [[sum(map(mul, row, col)) for col in cols] for row in rows]

    def adjugate_pairs(self, side: int, cols: SubsetIndex, scale: int) -> list[tuple[int, int]]:
        """scale * adj B for the side's block B on columns cols, one pair
        (s, c) per row: row i is c times rows[s] on the side's coordinates."""
        keys, pairs = self.cofactors[0][side], []
        for i in range(len(cols)):
            s, g = keys[cols[:i] + cols[i + 1 :]]
            pairs.append((s, -scale * g if i & 1 else scale * g))
        return pairs

    def inverse_pairs(self, sigma: SubsetIndex) -> tuple[int, list[tuple[int, int]]]:
        """S_sigma^-1 = X / e as (e, pairs), e > 0, for a live sigma: row i of
        X is c times rows[s] for pairs[i] = (s, c).  A block B / d of M has
        inverse d adj B / det B: adj C_sigma gives the rows in sigma."""
        hat = complement(sigma, self.n)
        det_top, det_bottom = self.minors[0][sigma], self.minors[1][hat]
        f = self.d if det_top * det_bottom > 0 else -self.d
        pairs: list[tuple[int, int]] = [(0, 0)] * self.n
        for side, cols, scale in ((0, sigma, f * det_bottom), (1, hat, f * det_top)):
            for j, pair in zip(cols, self.adjugate_pairs(side, cols, scale)):
                pairs[j - 1] = pair
        return abs(det_top * det_bottom), pairs


def decompose(m: Matrix, dims: Dimensions) -> Decomposition:
    """Check M's shape against dims and clear it to m_rows."""
    n = dims.n
    if m.rows != n or m.cols != n:
        raise DimensionError(f"matrix is {m.rows}x{m.cols}, expected {n}x{n}")
    return Decomposition(dims, m, clear_rows(m))


def fragment_rows(d: Decomposition, sigma: Iterable[int]) -> list[list[int]]:
    """d S_sigma as integer rows, for M = A / d (m_rows) and an r-subset sigma:
    A's top rows on the columns in sigma, its negated bottom rows on the
    others, and zero elsewhere."""
    dims = d.dims
    sigma = normalize_subset(sigma, dims.n)
    if len(sigma) != dims.r:
        raise DimensionError(f"subset {sigma} must have size r={dims.r}")
    a, r = d.m_rows[1], dims.r
    rows = [[x if j in sigma else 0 for j, x in enumerate(row, 1)] for row in a[:r]]
    return rows + [[0 if j in sigma else -x for j, x in enumerate(row, 1)] for row in a[r:]]


def fragment_matrix(d: Decomposition, sigma: Iterable[int]) -> Matrix:
    """S_sigma as Fractions: fragment_rows over M's denominator."""
    den = d.m_rows[0]
    return Matrix.from_rows([[Fraction(x, den) for x in row] for row in fragment_rows(d, sigma)])


@dataclass(frozen=True)
class Fragment:
    """One member of the indexed fragment family.  With M = A / d, det_top
    and det_bottom are the integer block minors d^r det C_sigma and
    d^k det Cbar_hat, and sign_class is the sign of
    det S_sigma = sgn(sigma, hat) det_top det_bottom / d^n.  The Fraction
    determinants det_c, det_cbar and det_s, the fragment matrix s and
    s_inv_pairs are formed on first read."""

    sigma: SubsetIndex
    det_top: int
    det_bottom: int
    sign_class: str
    decomposition: Decomposition = field(repr=False)
    blocks: BlockMinors = field(compare=False, repr=False)

    @cached_property
    def det_c(self) -> Fraction:
        return Fraction(self.det_top, self.blocks.d**self.decomposition.dims.r)

    @cached_property
    def det_cbar(self) -> Fraction:
        return Fraction(self.det_bottom, self.blocks.d**self.decomposition.dims.k)

    @cached_property
    def det_s(self) -> Fraction:
        sign = shuffle_sign(self.sigma)
        return Fraction(sign * self.det_top * self.det_bottom, self.blocks.d**self.decomposition.dims.n)

    @cached_property
    def s(self) -> Matrix:
        return fragment_matrix(self.decomposition, self.sigma)

    @cached_property
    def s_inv_pairs(self) -> tuple[int, list[tuple[int, int]]] | None:
        """BlockMinors.inverse_pairs's (e, pairs), or None if degenerate."""
        return None if self.sign_class == DEGENERATE else self.blocks.inverse_pairs(self.sigma)


class FragmentSet:
    """The full fragment family of one decomposition, indexed by sigma.

    Iteration and the ``fragments`` mapping follow lexicographic subset
    order.  m_rows is the decomposition's (d, A), and blocks its BlockMinors.
    """

    def __init__(self, decomposition: Decomposition):
        self.decomposition = decomposition
        self.dims = dims = decomposition.dims
        r, n = dims.r, dims.n
        self.m_rows = d, a = decomposition.m_rows
        self.det_m = Fraction(int_det(a), d**n)
        self.blocks = blocks = BlockMinors(d, a, r)
        frags: dict[SubsetIndex, Fragment] = {}
        for sigma in subsets(n, r):
            det_top, det_bottom = blocks.minors[0][sigma], blocks.minors[1][complement(sigma, n)]
            # d^n > 0, so det S_sigma has the sign of this integer.
            sign = shuffle_sign(sigma) * det_top * det_bottom
            sign_class = POSITIVE if sign > 0 else NEGATIVE if sign < 0 else DEGENERATE
            frags[sigma] = Fragment(sigma, det_top, det_bottom, sign_class, decomposition, blocks)
        self.fragments: Mapping[SubsetIndex, Fragment] = frags

    @cached_property
    def m_inv_rows(self) -> tuple[int, list[list[int]]]:
        """M^-1 = X / e as (e, X), e > 0, from A's adjugate on first use; det_m
        is a separate determinant, so laplace_identity does not rest on it."""
        return inverse_rows(*self.m_rows)

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self.fragments.values())

    def __getitem__(self, sigma: Iterable[int]) -> Fragment:
        return self.fragments[normalize_subset(sigma, self.dims.n)]

    def by_class(self, sign_class: str) -> tuple[SubsetIndex, ...]:
        return tuple(f.sigma for f in self if f.sign_class == sign_class)

    def expected_coverage(self) -> int:
        """Net signed cover count at every point: (-1)^k * sign(det M)."""
        if self.det_m == 0:
            raise DegenerateFragmentError("matrix is singular; no tiling to cover")
        s = 1 if self.det_m > 0 else -1
        return s if self.dims.k % 2 == 0 else -s


def fragment_set(d: Decomposition) -> FragmentSet:
    return FragmentSet(d)


def sandc_identity(fs: FragmentSet, sigma: Iterable[int]) -> tuple[Fraction, Fraction]:
    """Both sides of det(S_sigma) = sgn(sigma, hat) det(C_sigma) det(Cbar_hat): a
    fresh int_det of fragment_rows against the block product."""
    frag, (d, a) = fs[sigma], fs.m_rows
    return Fraction(int_det(fragment_rows(fs.decomposition, frag.sigma)), d ** len(a)), frag.det_s


def laplace_identity(fs: FragmentSet) -> tuple[Fraction, Fraction]:
    """Both sides of the multi-row Laplace expansion (-1)^k det(M) = sum det(S_sigma):
    the right side is one Fraction, the integer sum of the fragments' signed
    block-minor products over d^n."""
    lhs = fs.det_m if fs.dims.k % 2 == 0 else -fs.det_m
    total = sum(shuffle_sign(f.sigma) * f.det_top * f.det_bottom for f in fs)
    return lhs, Fraction(total, fs.m_rows[0] ** fs.dims.n)
