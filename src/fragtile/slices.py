"""Restriction of the signed tiling to the plane with last k coordinates zero.

A tile meets the slice plane exactly when the bottom-block coordinates forced
by its translate fall in the tile's half-open unit ranges, in which case the
intersection is the top-block parallelepiped translated by the first r
coordinates of M*z.  Integer column operations bring the bottom block of any
nonsingular M to its Hermite form [H | 0] / d, so the top parts of the last
r columns generate the lattice of slice-preserving translations and the
restricted tiling is periodic with finitely many translate classes per
fragment.  A translate enters only through its key H v / d, the bottom rows
of M times z, so cell_hits scans each fragment's keys v on its integer S^-1
rows, the translate window only filters them, and offsets are reduced on
the integer rows of B and of B^-1.  The layout holds B, each fragment's
shape C_sigma and each class offset as integers over M's denominator d,
read from the decomposition's m_rows, and B^-1 as integer rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

from .fragments import DEGENERATE, Decomposition, FragmentSet, SubsetIndex, complement
# inverse is unused, but perfbench's tracer wraps it at this binding site.
from .linalg import DimensionError, LinalgError, SingularMatrixError, int_mat_mul, inverse, inverse_rows
from .tiling import GenericDirection, cell_hits, cell_position, cube_extents


def slice_precondition(d: Decomposition) -> bool:
    """True when the bottom k rows of M are integer with coprime k x k
    minors, which is exactly when unimodular_reduce's H is d I_k."""
    try:
        h = unimodular_reduce(d)[3]
    except SingularMatrixError:
        return False
    m_den, k = d.m_rows[0], d.dims.k
    return h == [[m_den * (i == t) for i in range(k)] for t in range(k)]


def unimodular_reduce(
    d: Decomposition,
) -> tuple[list[list[int]], list[list[int]], list[list[int]], list[list[int]]]:
    """Integer column reduction of M's bottom block to Hermite form [H | 0].

    Only column swaps, sign flips and integer multiple additions are used, so
    the applied U is unimodular and M*U spans the same column lattice.
    Returns (U, A, Bk, H) as integer rows where m_rows U = [[Bk | A], [H | 0]]
    for M = m_rows / c: A (r x r) is c times the slice-translation lattice
    basis, and H the lower-triangular Hermite form of m_rows' bottom rows,
    0 <= H[t][j] < H[t][t] for j < t (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4), so det H is the gcd of their k x k minors.
    A rank-deficient bottom block, which only a singular M has, raises
    SingularMatrixError, and a failed certificate that m_rows U has bottom
    rows [H | 0], H lower triangular, raises LinalgError.
    """
    n, r, k = d.dims.n, d.dims.r, d.dims.k
    m_rows = d.m_rows[1]
    # Column c of the working matrix is the bottom block's column c over U's,
    # so each column operation is one list assignment.
    cols = [list(col) + [0] * n for col in zip(*m_rows[r:])]
    for c, col in enumerate(cols):
        col[k + c] = 1
    for t in range(k):
        while True:
            nz = [c for c in range(t, n) if cols[c][t] != 0]
            if not nz:
                raise SingularMatrixError("bottom block is rank deficient")
            if len(nz) == 1:
                pivot_col = nz[0]
                break
            small = min(nz, key=lambda c: abs(cols[c][t]))
            for c in nz:
                if c != small:
                    mult = cols[c][t] // cols[small][t]
                    cols[c] = [x - mult * y for x, y in zip(cols[c], cols[small])]
        cols[pivot_col], cols[t] = cols[t], cols[pivot_col]
        if cols[t][t] < 0:
            cols[t] = [-x for x in cols[t]]
        # The later columns are 0 in row t; reduce the earlier ones.
        for c in range(t):
            mult = cols[c][t] // cols[t][t]
            if mult:
                cols[c] = [x - mult * y for x, y in zip(cols[c], cols[t])]
    u = [list(row) for row in zip(*(col[k:] for col in cols))]
    mu = int_mat_mul(m_rows, u)
    if any(any(row[t + 1 :]) for t, row in enumerate(mu[r:])):
        raise LinalgError("column reduction failed to certify")
    return u, [row[k:] for row in mu[:r]], [row[:k] for row in mu[:r]], [row[:k] for row in mu[r:]]


@dataclass(frozen=True)
class SliceClass:
    """Translate family of one fragment inside the slice plane; shape holds
    C_sigma as integer rows, and offsets each class's reduced offset as an
    integer vector, both over the layout's denominator d = b_rows[0]."""

    sigma: SubsetIndex
    shape: list[list[int]]
    sign_class: str
    offsets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SliceLayout:
    """Slice lattice basis B = X / d as b_rows (d, X), d M's denominator,
    B^-1 = Y / e as b_inv_rows (e, Y), e > 0, the families, and g = det H /
    d^k, the covolume of the key lattice: a live family has |det Cbar_hat| /
    g classes, and |det B| = |det M| / g."""

    b_rows: tuple[int, list[list[int]]]
    classes: tuple[SliceClass, ...]
    g: Fraction
    b_inv_rows: tuple[int, list[list[int]]] = field(compare=False, repr=False)


def slice_layout(
    fs: FragmentSet, w: GenericDirection, window: Sequence[tuple[int, int]]
) -> SliceLayout:
    """The slice tiles of the translates in a window, grouped into translate
    families modulo the slice lattice.

    A translate z of a fragment meets the slice exactly when its forced
    bottom coordinates -Cbar_hat^-1 y, y = M_bottom z, satisfy the
    fragment's half-open rules; its tile in the slice is the top-block
    parallelepiped at offset p_r(M z).  Two valid z with one key y differ by
    an integer kernel vector of M_bottom, a combination of U's zero-bottom
    columns, which moves the offset by a vector of the slice lattice B.  So
    the families are the valid keys: the |det Cbar_hat| / g points y = H v / d
    of the key lattice in Cbar_hat's half-open unit cube, which cell_hits
    scans by v on the rows X_hat H and the cell e d, X_hat the rows of
    S_sigma^-1 = X / e off sigma on the bottom columns, so X_hat H scales
    shared cofactor rows times H (s_inv_pairs), over the box of v =
    H^-1 (d Cbar_hat) x, the cube_extents of adj(H) d Cbar_hat divided by
    det H.  The window only filters: a key counts when d M_bottom z = H v for
    some z in it, one lookup in the sums over the window's first n - 1
    coordinates per value of the last.  A key's offset is that of
    z = U[:, :k] v, whose top is t = Bk v over d, reduced into B's cell:
    with B = A / d, (t - A floor(B^-1 t / d)) / d, kept as its numerators
    t - A floor(B^-1 t / d) over d.  Families are a multiset:
    distinct families can share a reduced offset, which is how overlapping
    fragments show up in the slice.
    """
    d = fs.decomposition
    dims = fs.dims
    n, r, k = dims.n, dims.r, dims.k
    if len(window) != n or any(lo > hi for lo, hi in window):
        raise DimensionError(f"window must be {n} nonempty integer ranges")
    _, b_rows, bk_rows, h = unimodular_reduce(d)
    m_den, m_rows = fs.m_rows
    b_inv_rows = e_b, x_b = inverse_rows(m_den, b_rows)
    det_h, adj_h = inverse_rows(1, h)
    bottom = m_rows[r:]
    v_rows = int_mat_mul(adj_h, bottom)
    *head, (lo, hi) = window
    sums = {(0,) * k}
    for c, (a, b) in enumerate(head):
        col = [row[c] for row in bottom]
        sums = {tuple(s + t * v for s, v in zip(y, col)) for y in sums for t in range(a, b + 1)}
    last = [row[-1] for row in bottom]
    _, shared = fs.blocks.cofactors
    shared_h = int_mat_mul([row[r:] for row in shared], h)
    classes = []
    for frag in fs:
        shape = [[row[j - 1] for j in frag.sigma] for row in m_rows[:r]]
        if frag.sign_class == DEGENERATE:
            classes.append(SliceClass(frag.sigma, shape, frag.sign_class, offsets=()))
            continue
        sigma_hat = complement(frag.sigma, n)
        _, lam = w.lambda_of(fs, frag.sigma)
        rules = tuple(lam[j - 1] > 0 for j in sigma_hat)
        e, pairs = frag.s_inv_pairs
        one = e * m_den
        x_hat = [[c * v for v in shared_h[s]] for s, c in (pairs[j - 1] for j in sigma_hat)]
        extents = cube_extents([[row[j - 1] for j in sigma_hat] for row in v_rows])
        box = [(-(-a // det_h), b // det_h) for a, b in extents]
        offsets = []
        for v, res in cell_hits([0] * k, x_hat, one, box):
            y = [sum(map(mul, row, v)) for row in h]
            if not cell_position(res, one, rules)[0] or not any(
                tuple(a - t * b for a, b in zip(y, last)) in sums for t in range(lo, hi + 1)
            ):
                continue
            t = [sum(map(mul, row, v)) for row in bk_rows]
            cell = [sum(map(mul, row, t)) // (e_b * m_den) for row in x_b]
            shift = [sum(map(mul, row, cell)) for row in b_rows]
            offsets.append(tuple(a - b for a, b in zip(t, shift)))
        classes.append(SliceClass(frag.sigma, shape, frag.sign_class, tuple(sorted(offsets))))
    g = Fraction(det_h, m_den**k)
    return SliceLayout(b_rows=(m_den, b_rows), classes=tuple(classes), g=g, b_inv_rows=b_inv_rows)
