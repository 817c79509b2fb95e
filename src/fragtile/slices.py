"""Restriction of the signed tiling to the plane with last k coordinates zero.

A tile meets the slice plane exactly when the bottom-block coordinates forced
by its translate fall in the tile's half-open unit ranges, in which case the
intersection is the top-block parallelepiped translated by the first r
coordinates of M*z.  When the bottom block of M is integer with coprime
maximal minors, integer column operations bring M to a form whose last r
columns lie in the slice plane; their top parts generate the lattice of
slice-preserving translations, so the restricted tiling is periodic with
finitely many translate classes per fragment.  The forced coordinates come
from each fragment's integer S^-1 rows, cell_hits scans the window, and
families are keyed and reduced on the integer rows of M and of B^-1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

from .fragments import (
    DEGENERATE,
    Decomposition,
    FragmentSet,
    SubsetIndex,
    c_submatrices,
    complement,
)
# inverse is unused, but perfbench's tracer wraps it at this binding site.
from .linalg import DimensionError, Matrix, clear_rows, int_mat_mul, inverse, inverse_rows
from .tiling import GenericDirection, cell_hits


class SlicePreconditionError(Exception):
    """The bottom block is not integer with coprime maximal minors."""


def slice_precondition(d: Decomposition) -> bool:
    """True when the bottom k rows of M are integer with coprime k x k
    minors, which is exactly when unimodular_reduce succeeds."""
    try:
        unimodular_reduce(d)
    except SlicePreconditionError:
        return False
    return True


def unimodular_reduce(d: Decomposition) -> tuple[Matrix, Matrix, Matrix]:
    """Integer column reduction of M to bottom block [I_k | 0].

    Only column swaps, sign flips and integer multiple additions are used, so
    the applied U is unimodular and M*U spans the same column lattice.
    Returns (U, A, Bk) where M*U = [[Bk | A], [I_k | 0]]: A (r x r) is the top
    block over the zero-bottom columns, the slice-translation lattice basis,
    and Bk (r x k) the top block over the identity-bottom columns.  An
    integer bottom block reduces exactly when its maximal minors are coprime;
    otherwise a rank or pivot check, or the certificate that (d M) U has
    bottom rows d [I_k | 0] for M cleared to d M, raises SlicePreconditionError.
    """
    if any(x.denominator != 1 for col in d.cbar for x in col):
        raise SlicePreconditionError("bottom block must be integer")
    dims = d.dims
    n, r, k = dims.n, dims.r, dims.k
    bottom = [[int(d.m.entry(r + t, i)) for i in range(n)] for t in range(k)]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # Each column operation acts on the bottom block and records itself in U.
    rows = bottom + u

    def swap_cols(a: int, b: int) -> None:
        for row in rows:
            row[a], row[b] = row[b], row[a]

    def negate_col(a: int) -> None:
        for row in rows:
            row[a] = -row[a]

    def add_multiple(dst: int, src: int, mult: int) -> None:
        for row in rows:
            row[dst] += mult * row[src]

    for t in range(k):
        while True:
            nz = [c for c in range(t, n) if bottom[t][c] != 0]
            if not nz:
                raise SlicePreconditionError("bottom block is rank deficient")
            if len(nz) == 1:
                pivot_col = nz[0]
                break
            smallest = min(nz, key=lambda c: abs(bottom[t][c]))
            for c in nz:
                if c == smallest:
                    continue
                add_multiple(c, smallest, -(bottom[t][c] // bottom[t][smallest]))
        if pivot_col != t:
            swap_cols(pivot_col, t)
        if bottom[t][t] < 0:
            negate_col(t)
        if bottom[t][t] != 1:
            raise SlicePreconditionError(
                f"pivot {bottom[t][t]} exceeds 1: maximal minors share a factor"
            )
        for c in range(n):
            if c != t and bottom[t][c] != 0:
                add_multiple(c, t, -bottom[t][c])

    m_den, m_rows = clear_rows(d.m)
    mu = int_mat_mul(m_rows, u)
    if mu[r:] != [[m_den * (i == t) for i in range(n)] for t in range(k)]:
        raise SlicePreconditionError("column reduction failed to certify")
    a = Matrix.from_rows([[Fraction(x, m_den) for x in row[k:]] for row in mu[:r]])
    bk = Matrix.from_rows([[Fraction(x, m_den) for x in row[:k]] for row in mu[:r]])
    return Matrix.from_rows(u), a, bk


@dataclass(frozen=True)
class SliceClass:
    """Translate family of one fragment inside the slice plane."""

    sigma: SubsetIndex
    shape: Matrix
    sign_class: str
    offsets: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class SliceLayout:
    """Slice lattice basis B, B^-1 = X / e as (e, X), e > 0, and the families."""

    b: Matrix
    classes: tuple[SliceClass, ...]
    b_inv_rows: tuple[int, list[list[int]]] = field(compare=False, repr=False)

    def by_sigma(self, sigma: Sequence[int]) -> SliceClass:
        key = tuple(sorted(sigma))
        for cls in self.classes:
            if cls.sigma == key:
                return cls
        raise KeyError(key)


def slice_layout(
    fs: FragmentSet, w: GenericDirection, window: Sequence[tuple[int, int]]
) -> SliceLayout:
    """Enumerate slice tiles over a translate window, grouped into translate
    families modulo the slice lattice.

    For each fragment, a translate z contributes exactly when the forced
    bottom coordinates Cbar_hat^-1 (Cbar_full z) satisfy the fragment's
    half-open rules (signs of the restricted orientation coordinates); the
    contribution is the top-block parallelepiped at offset p_r(M z).

    Shifting z by a zero-bottom column of the reduction matrix U moves the
    offset by exactly one lattice basis vector and preserves the forced
    coordinates, so translate families are the valid-z classes modulo that
    column sublattice, keyed by the first k coordinates of U^-1 z: by
    M U = [[Bk | B], [I_k | 0]] these are bottom(M z), so the key is
    A_bottom z for m_rows = (d, A) and U is never inverted.  Families are a
    multiset: distinct families can share a reduced offset, which is how
    overlapping fragments show up in the slice (the family count is the
    bottom-minor magnitude, not the number of distinct residues).  With
    t = A_top z and B = B_d / d, the offset is (t - B_d floor(B^-1 t / d)) / d.
    The forced coordinates are -Cbar_hat^-1 Cbar = X_hat A_bottom / (e d),
    X_hat the rows of s_inv_rows off sigma on the bottom columns, so
    cell_hits scans them on integers.
    """
    d = fs.decomposition
    dims = fs.dims
    if len(window) != dims.n or any(lo > hi for lo, hi in window):
        raise DimensionError(f"window must be {dims.n} nonempty integer ranges")
    _, b_lattice, _ = unimodular_reduce(d)
    m_den, m_rows = fs.m_rows
    # B is the top of M U over M's denominator, so d B is integer.
    b_rows = [[int(m_den * x) for x in row] for row in b_lattice.row_list()]
    b_inv_rows = e_b, x_b = inverse_rows(m_den, b_rows)
    top, bottom = m_rows[: dims.r], m_rows[dims.r :]
    classes = []
    for frag in fs:
        shape = c_submatrices(d, frag.sigma)[0]
        if frag.sign_class == DEGENERATE:
            classes.append(SliceClass(frag.sigma, shape, frag.sign_class, offsets=()))
            continue
        # The bottom coordinates of lambda_sigma solve Cbar_hat x = w''.
        sigma_hat = complement(frag.sigma, dims.n)
        lam = w.lambda_of(fs, frag.sigma)
        rules = tuple(lam[j - 1] > 0 for j in sigma_hat)
        e, x = frag.s_inv_rows
        h = int_mat_mul([x[j - 1][dims.r :] for j in sigma_hat], bottom)
        families: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
        for z, inside, _ in cell_hits([0] * dims.k, h, e * m_den, rules, window):
            if not inside:
                continue
            key = tuple(sum(map(mul, row, z)) for row in bottom)
            if key not in families:
                t = [sum(map(mul, row, z)) for row in top]
                cell = [sum(map(mul, row, t)) // (e_b * m_den) for row in x_b]
                shift = [sum(map(mul, row, cell)) for row in b_rows]
                families[key] = tuple(Fraction(a - b, m_den) for a, b in zip(t, shift))
        offsets = tuple(sorted(families.values()))
        classes.append(SliceClass(frag.sigma, shape, frag.sign_class, offsets))
    return SliceLayout(b=b_lattice, classes=tuple(classes), b_inv_rows=b_inv_rows)
