"""Fragment matrices of an invertible square matrix.

A matrix M of size (r+k) x (r+k) splits columnwise into a top part c_i (first
r entries of column i) and a negated bottom part cbar_i (the last k entries of
column i are -cbar_i).  For every r-subset sigma of column indices, the
sigma-fragment matrix keeps the top parts on sigma, the bottom parts on the
complement, and zeroes the rest; its determinant is one summand of the
multi-row Laplace expansion of (-1)^k det(M).  Subsets are 1-based and always
kept sorted; families are enumerated in lexicographic order so every report is
deterministic.

Up to the column shuffle of (sigma, complement), S_sigma = diag(C_sigma,
Cbar_hat): det S_sigma = sgn(sigma, hat) det C_sigma det Cbar_hat, and
S_sigma^-1 comes from the two block inverses.  Only this module eliminates
a fragment's blocks, on integers: M is cleared once to A / d, one
int_inverse per block of A gives its determinant and adjugate, det M is
int_det(A), and M^-1 is A's adjugate, taken on first use.  A fragment keeps
S_sigma^-1 as integer rows, which every cell test reads, and no Fraction
matrix.  The checks stay independent of this: sandc_identity takes a fresh
n x n determinant of S_sigma, and laplace_identity sums the block products
against det M.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .linalg import (
    BlockPermutation,
    DimensionError,
    Matrix,
    SingularMatrixError,
    clear_rows,
    det,
    int_det,
    int_inverse,
    perm_sign,
)

SubsetIndex = tuple[int, ...]

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
    """Columnwise split of M into top parts c_i and negated bottom parts cbar_i."""

    dims: Dimensions
    m: Matrix
    c: tuple[tuple[Fraction, ...], ...]
    cbar: tuple[tuple[Fraction, ...], ...]


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


def shuffle_sign(sigma: SubsetIndex, n: int) -> int:
    """Sign of the block permutation (sigma, complement of sigma) of {1..n}."""
    return perm_sign(BlockPermutation((sigma, complement(sigma, n))))


def decompose(m: Matrix, dims: Dimensions) -> Decomposition:
    """Split M into the c_i / cbar_i column pieces (bottom parts negated)."""
    n = dims.n
    if m.rows != n or m.cols != n:
        raise DimensionError(f"matrix is {m.rows}x{m.cols}, expected {n}x{n}")
    cols = [m.column(i) for i in range(n)]
    c = tuple(col[: dims.r] for col in cols)
    cbar = tuple(tuple(-x for x in col[dims.r :]) for col in cols)
    return Decomposition(dims=dims, m=m, c=c, cbar=cbar)


def fragment_matrix(d: Decomposition, sigma: Iterable[int]) -> Matrix:
    """The fragment matrix for an r-subset sigma.

    Column i is the zero-padded top part c_i when i is in sigma and the
    zero-padded bottom part cbar_i otherwise.
    """
    dims = d.dims
    sigma = normalize_subset(sigma, dims.n)
    if len(sigma) != dims.r:
        raise DimensionError(f"subset {sigma} must have size r={dims.r}")
    zeros_r, zeros_k = (Fraction(0),) * dims.r, (Fraction(0),) * dims.k
    return Matrix.from_columns([
        d.c[i - 1] + zeros_k if i in sigma else zeros_r + d.cbar[i - 1]
        for i in range(1, dims.n + 1)
    ])


def c_submatrices(d: Decomposition, sigma: Iterable[int]) -> tuple[Matrix, Matrix]:
    """(C_sigma, Cbar_complement): top columns on sigma, bottom columns off it.

    sigma may have any size; the facet machinery needs sizes r-1 and r+1 as
    well as the fragment case r.
    """
    dims = d.dims
    sigma = normalize_subset(sigma, dims.n)
    sigma_hat = complement(sigma, dims.n)
    c = Matrix.from_columns([d.c[i - 1] for i in sigma], rows=dims.r)
    cbar = Matrix.from_columns([d.cbar[j - 1] for j in sigma_hat], rows=dims.k)
    return c, cbar


@dataclass(frozen=True)
class Fragment:
    """One member of the indexed fragment family.

    det_s = sgn(sigma, hat) * det_c * det_cbar.  A live fragment keeps
    S_sigma^-1 = X / e as s_inv_rows = (e, X), e > 0, row i of X from
    C_sigma^-1 for i in sigma and from Cbar_hat^-1 off sigma, zero-padded;
    every cell test reads these rows.  The fragment matrix s itself is
    assembled from the decomposition on first read.
    """

    sigma: SubsetIndex
    det_c: Fraction
    det_cbar: Fraction
    det_s: Fraction
    sign_class: str
    s_inv_rows: tuple[int, list[list[int]]] | None = field(compare=False, repr=False)
    decomposition: Decomposition = field(repr=False)

    @cached_property
    def s(self) -> Matrix:
        return fragment_matrix(self.decomposition, self.sigma)


class FragmentSet:
    """The full fragment family of one decomposition, indexed by sigma.

    Iteration and the ``fragments`` mapping follow lexicographic subset
    order.  Instances are immutable after construction.  m_rows is (d, A).
    """

    def __init__(self, decomposition: Decomposition):
        self.decomposition = decomposition
        self.dims = dims = decomposition.dims
        r, k, n = dims.r, dims.k, dims.n
        self.m_rows = d, a = clear_rows(decomposition.m)
        self.det_m = Fraction(int_det(a), d**n)
        frags: dict[SubsetIndex, Fragment] = {}
        for sigma in subsets(n, r):
            det_top, adj_top = int_inverse([[row[i - 1] for i in sigma] for row in a[:r]])
            det_bottom, adj_bottom = int_inverse(
                [[-row[j - 1] for j in complement(sigma, n)] for row in a[r:]]
            )
            det_s = shuffle_sign(sigma, n) * Fraction(det_top * det_bottom, d**n)
            sign_class = POSITIVE if det_s > 0 else NEGATIVE if det_s < 0 else DEGENERATE
            s_inv_rows = None
            if det_s:
                # C^-1 = d adj_top / det_top, Cbar^-1 = d adj_bottom / det_bottom
                f = d if det_top * det_bottom > 0 else -d
                top = iter([f * det_bottom * x for x in row] + [0] * k for row in adj_top)
                bottom = iter([0] * r + [f * det_top * x for x in row] for row in adj_bottom)
                rows = [next(top) if i in sigma else next(bottom) for i in range(1, n + 1)]
                s_inv_rows = abs(det_top * det_bottom), rows
            frags[sigma] = Fragment(
                sigma, Fraction(det_top, d**r), Fraction(det_bottom, d**k), det_s, sign_class,
                s_inv_rows, decomposition,
            )
        self.fragments: Mapping[SubsetIndex, Fragment] = frags

    @cached_property
    def m_inv_rows(self) -> tuple[int, list[list[int]]]:
        """M^-1 = X / e as (e, X), e > 0, from A's adjugate on first use; det_m
        is a separate determinant, so laplace_identity does not rest on it."""
        d, a = self.m_rows
        det_a, adj = int_inverse(a)
        if adj is None:
            raise SingularMatrixError("matrix is singular")
        f = d if det_a > 0 else -d
        return abs(det_a), [[f * x for x in row] for row in adj]

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self.fragments.values())

    def __getitem__(self, sigma: Iterable[int]) -> Fragment:
        return self.fragments[normalize_subset(sigma, self.dims.n)]

    def sigmas(self) -> tuple[SubsetIndex, ...]:
        return tuple(self.fragments.keys())

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
    """Both sides of det(S_sigma) = sgn(sigma, hat) * det(C_sigma) * det(Cbar_hat):
    a fresh n x n determinant of the assembled fragment matrix against the
    stored block product."""
    frag = fs[sigma]
    return det(frag.s), frag.det_s


def laplace_identity(fs: FragmentSet) -> tuple[Fraction, Fraction]:
    """Both sides of the multi-row Laplace expansion (-1)^k det(M) = sum det(S_sigma)."""
    lhs = fs.det_m if fs.dims.k % 2 == 0 else -fs.det_m
    rhs = sum((f.det_s for f in fs), Fraction(0))
    return lhs, rhs
