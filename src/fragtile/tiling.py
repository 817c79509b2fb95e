"""Signed tiling of R^(r+k) by translated fragment parallelepipeds.

A tile is a half-open parallelepiped of one invertible fragment matrix,
translated by an integer combination M*z of the columns of M.  Tiles inherit
the fragment's determinant sign, and the central quantity is the signed cover
count f(p): positive tiles containing p minus negative tiles containing p.

Half-openness is oriented by a fixed direction w: a boundary point belongs to
the tile exactly when a small push along w stays inside.  Every membership
predicate reduces to sign conditions on exact rationals, so w must be generic
(certified: no relevant coordinate vector N^-1 w has a zero entry).  These
w-rules decide every point, boundary points included, so the sampling
verifiers check the theorem at every sample they draw.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import gcd
from operator import mul
from typing import Mapping, Sequence

from .fragments import DEGENERATE, DegenerateFragmentError, FragmentSet, SubsetIndex, complement
from .linalg import DimensionError, Matrix, SingularMatrixError, clear_denominator, int_mat_mul, vector

SAMPLE_DENOMINATOR = 2**31
DIRECTION_DRAWS = 64


class GenericityError(Exception):
    """The direction vector w fails (or cannot satisfy) a genericity condition."""


@dataclass(frozen=True)
class GenericDirection:
    """A direction w certified generic for the matrix m.

    Every coordinate of N^-1 w was verified nonzero, for every invertible
    fragment matrix N and for M itself.  That finite condition set also
    covers the restricted systems on the top and bottom blocks, since their
    coordinate vectors are subvectors of the fragment ones.  lambdas holds
    lambda_sigma = S_sigma^-1 w for every half-open rule and facet sign,
    keyed by sigma, as its least-denominator integer pair (den, nums):
    lambda_sigma = nums / den, den > 0, gcd(den, *nums) = 1, so its signs
    are those of nums.  lambda_of reads it for the matrix that w was
    certified for, whose cleared rows m_rows holds, and raises KeyError for
    any other.
    """

    w: tuple[Fraction, ...]
    lambdas: Mapping[SubsetIndex, tuple[int, tuple[int, ...]]] = field(compare=False, repr=False)
    m_rows: tuple[int, list[list[int]]] = field(compare=False, repr=False)

    def lambda_of(self, fs: FragmentSet, sigma: SubsetIndex) -> tuple[int, tuple[int, ...]]:
        """lambda_sigma = S_sigma^-1 w of a live fragment of fs, as the pair
        (den, nums); a degenerate sigma raises DegenerateFragmentError."""
        if fs.m_rows != self.m_rows:
            raise KeyError(f"w was not certified for the matrix of {_sigma_label(sigma)}")
        if sigma not in self.lambdas and fs[sigma].sign_class == DEGENERATE:
            raise DegenerateFragmentError(f"fragment {sigma} is degenerate")
        return self.lambdas[sigma]


def _sigma_label(sigma: SubsetIndex) -> str:
    return "S{%s}" % ",".join(str(i) for i in sigma)


def certify_direction(fs: FragmentSet, w: Sequence) -> GenericDirection:
    """Check every genericity condition for w exactly; raise on any zero.

    With w = wn / q, lambda_sigma = S^-1 w is X wn / (e q) for the
    fragment's s_inv_pairs (e, pairs), and M^-1 w comes the same way from
    m_inv_rows: certifying eliminates nothing, meets wn once per shared
    cofactor row, scales that product per row of X wn, tests the integers
    X wn for zero, and keeps each lambda as X wn and e q over their gcd."""
    dims = fs.dims
    w = vector(w)
    if len(w) != dims.n:
        raise DimensionError(f"w has length {len(w)}, expected {dims.n}")
    q, wn = clear_denominator(w)
    lambdas: dict[SubsetIndex, tuple[int, tuple[int, ...]]] = {}
    _, rows = fs.blocks.cofactors
    dots = [sum(map(mul, row, wn)) for row in rows]
    for frag in fs:
        if frag.sign_class == DEGENERATE:
            continue
        e, pairs = frag.s_inv_pairs
        nums = [c * dots[s] for s, c in pairs]
        if 0 in nums:
            raise GenericityError(f"w is not generic: zero entry in {_sigma_label(frag.sigma)}^-1 w")
        g = gcd(e * q, *nums)
        lambdas[frag.sigma] = e * q // g, tuple(x // g for x in nums)
    if any(sum(map(mul, row, wn)) == 0 for row in fs.m_inv_rows[1]):
        raise GenericityError("w is not generic: zero entry in M^-1 w")
    return GenericDirection(w, lambdas, fs.m_rows)


def grid_numerators(tag: str, dim: int, lo: int, hi: int) -> list[int]:
    """dim integers uniform on [lo, hi): the numerators of a grid vector
    whose denominator the caller fixes.

    The stream is seeded by the tag string alone, so every draw is
    reproducible from its tag.  The values are random.Random(tag).randrange
    (lo, hi)'s, drawn as it draws them: getrandbits, redrawn while >= width.
    """
    width = hi - lo
    if width <= 0:
        raise ValueError(f"empty range [{lo}, {hi})")
    bits, getrandbits = width.bit_length(), random.Random(tag).getrandbits
    values = []
    while len(values) < dim:
        x = getrandbits(bits)
        if x < width:
            values.append(lo + x)
    return values


def grid_vector(tag: str, dim: int, lo: int, hi: int) -> tuple[Fraction, ...]:
    """The Fraction view of grid_numerators: dim values numerator/2^31."""
    return tuple(Fraction(x, SAMPLE_DENOMINATOR) for x in grid_numerators(tag, dim, lo, hi))


def fundamental_point(fs: FragmentSet, tag: str) -> tuple[Fraction, ...]:
    """M u for u = c / 2^31 with c = grid_numerators(tag, n, 0, 2^31), a grid
    point of the fundamental domain M [0,1)^n: with M = A / d (fs.m_rows),
    M u = A c / (d 2^31) is formed from integers, one Fraction per
    coordinate."""
    m_den, m_rows = fs.m_rows
    c = grid_numerators(tag, fs.dims.n, 0, SAMPLE_DENOMINATOR)
    den = m_den * SAMPLE_DENOMINATOR
    return tuple(Fraction(sum(map(mul, row, c)), den) for row in m_rows)


def choose_generic_direction(fs: FragmentSet, seed: int) -> GenericDirection:
    """Seed-deterministic generic direction with entries in (0,1).

    Numerators are drawn uniformly from [1, 2^31) over the fixed denominator
    2^31 and the candidate is certified exactly; failures redraw.  With
    entries this fine a failure is essentially impossible, but the retry
    budget keeps the procedure total.
    """
    for attempt in range(DIRECTION_DRAWS):
        w = grid_vector(f"direction:{seed}:{attempt}", fs.dims.n, 1, SAMPLE_DENOMINATOR)
        try:
            return certify_direction(fs, w)
        except GenericityError:
            continue
    raise GenericityError(f"no generic direction found after {DIRECTION_DRAWS} draws")


def cell_position(y: Sequence, one, rules: Sequence[bool]) -> tuple[bool, bool] | None:
    """Where coordinates y lie relative to the half-open cell [0, one]^n.

    Returns None outside the closed cell, else (inside, touching): touching
    when some coordinate equals 0 or one, inside when every coordinate obeys
    its half-open rule, [0, one) where rules[i] is true and (0, one] where it
    is false.
    """
    inside = True
    touching = False
    for yi, include_zero in zip(y, rules):
        if yi < 0 or yi > one:
            return None
        if yi == 0:
            touching = True
            if not include_zero:
                inside = False
        elif yi == one:
            touching = True
            if include_zero:
                inside = False
    return inside, touching


def cube_extents(rows: Sequence[Sequence]) -> list[tuple]:
    """The extent (low, high) of row . y over the unit cube y in [0, 1]^m,
    for each row: the sum of its negative entries and the sum of its
    positive ones.  Every lattice box that cell_hits scans is built from
    these extents."""
    return [(sum(x for x in row if x < 0), sum(x for x in row if x > 0)) for row in rows]


def cell_hits(u: Sequence[int], h: Sequence[Sequence[int]], one: int, ranges):
    """Integer translates z whose residual y = u - h z lies in the closed cell.

    z runs over the box given by the inclusive (lo, hi) ranges, in
    lexicographic order; u, h and the cell corner one are integers (the
    caller clears denominators).  Yields (z, y) for every z with y in
    [0, one]^m, m = len(u); the caller classifies y.  As in Fincke-Pohst
    enumeration, only the first c - 1 of the c = len(ranges) >= 1
    coordinates are enumerated: per prefix, each row's residual r_i is formed
    once, and 0 <= r_i - a_i t <= one (a_i = h[i][c-1]) cuts the last range
    by floor division to its members.  So the scan costs the product of the
    first c - 1 range widths, and the engine's frames put their widest
    coordinate last.
    """
    head = len(ranges) - 1
    lo, hi = ranges[head]
    last = [row[head] for row in h]
    rows = list(zip(u, h, last))
    for prefix in product(*[range(a, b + 1) for a, b in ranges[:head]]) if head else ((),):
        t0, t1 = lo, hi
        res = []
        for ui, row, a in rows:
            r = ui - sum(map(mul, row, prefix))
            if a > 0:
                low, high = -((one - r) // a), r // a
            elif a < 0:
                low, high = -(r // -a), (one - r) // -a
            elif 0 <= r <= one:
                low, high = lo, hi
            else:
                break
            t0 = low if low > t0 else t0
            t1 = high if high < t1 else t1
            if t0 > t1:
                break
            res.append(r)
        else:
            for t in range(t0, t1 + 1):
                yield (*prefix, t), [r - a * t for r, a in zip(res, last)]


@dataclass(frozen=True)
class TileId:
    """One tile: the sigma-fragment parallelepiped translated by M*z."""

    z: tuple[int, ...]
    sigma: SubsetIndex


def _census(tiles: Sequence[tuple[TileId, str]]) -> tuple[int, int]:
    """(positive, negative) tile counts of a tile list."""
    pos = sum(1 for _, cls in tiles if cls == "positive")
    neg = sum(1 for _, cls in tiles if cls == "negative")
    return pos, neg


@dataclass(frozen=True)
class CoverageReport:
    point: tuple[Fraction, ...]
    tiles: tuple[tuple[TileId, str], ...]
    f_value: int
    expected: int

    @property
    def census(self) -> tuple[int, int]:
        return _census(self.tiles)


@dataclass
class VerifyReport:
    sample_count: int
    seed: int
    expected: int
    distinct_f_values: frozenset[int]
    census_histogram: dict[tuple[int, int], int]
    boundary_samples: int
    passed: bool


def shifted_gram(
    t: Sequence[Sequence[int]], gram: Sequence[Sequence[int]], sd: int, cols: Sequence[int]
) -> list[list[int]]:
    """Gram matrix of the rows of t - sd D, D the 0/1 diagonal on the
    0-based cols, from the Gram matrix of t's rows: each j in cols moves row
    and column j by -sd t_ij, and the diagonal entry by sd^2, in O(n)."""
    gram = [list(row) for row in gram]
    for j in cols:
        for i, row in enumerate(t):
            x = sd * row[j]
            gram[i][j] -= x
            gram[j][i] -= x
        gram[j][j] += sd * sd
    return gram


def size_reduce(
    rows: Sequence[Sequence[int]], gram: Sequence[Sequence[int]], h: Sequence[Sequence[int]]
):
    """Pairwise size reduction of linearly independent integer rows.

    gram is the Gram matrix of rows, and h any integer rows of the same width.
    Returns (R, W, W^-1, H W^-1) with R = W * rows and W unimodular, all as
    integer rows; W and W^-1 start as one set of unit rows.  While some pair
    has |<r_i, r_j>| > <r_j, r_j> // 2 (2|<r_i, r_j>| > <r_j, r_j> on
    integers), row i loses the nearest integer multiple k of row j; each such
    step strictly shortens row i, so the loop ends and no row is ever longer
    than it started; a step that does not give 0 < |r_i|^2 < its old value
    shows that gram is no such Gram matrix, and raises ValueError instead of
    looping.  A step subtracts k times row j from row i of R and of W, adds k
    times column i to column j of W^-1 and of H W^-1, and updates row and
    column i of the Gram matrix, each in O(n): no matrix product is formed.
    """
    n, m = len(rows), len(rows[0])
    # The rows of R beside those of W, and the rows of W^-1 above those of
    # H W^-1: a step is one row step on rw and one column step on cols.
    unit = [[0] * n for _ in range(n)]
    for i, row in enumerate(unit):
        row[i] = 1
    rw = [list(row) + e for row, e in zip(rows, unit)]
    cols = unit + [list(row) for row in h]
    gram = [list(row) for row in gram]
    changed = True
    while changed:
        changed = False
        for j, gj in enumerate(gram):
            nj, half = gj[j], gj[j] >> 1
            for i, gi in enumerate(gram):
                d = gi[j]
                if i == j or -half <= d <= half:
                    continue
                k = (2 * d + nj) // (2 * nj)
                rw[i] = [x - k * y for x, y in zip(rw[i], rw[j])]
                for row in cols:
                    row[j] += k * row[i]
                # <r_i - k r_j, r_l> for every l; the diagonal last
                norm = gi[i] - 2 * k * d + k * k * nj
                if not 0 < norm < gi[i]:
                    raise ValueError("gram is not the Gram matrix of independent rows")
                for col, row in enumerate(gram):
                    row[i] = gi[col] = gi[col] - k * gj[col]
                gi[i] = norm
                changed = True
    return [row[:m] for row in rw], [row[m:] for row in rw], cols[:n], cols[n:]


class _Frame:
    """Per-fragment point-location data, built once per engine.

    A tile (z, sigma) can hold p only when z = M^-1 p - G y for some y in
    [0, 1]^n, where G = M^-1 S.  S = P M - M D, with P keeping the first r
    coordinates and D the identity off sigma, so G = T - D for the engine's
    T = M^-1 P M.  The rows of G are size-reduced once (G' = W G, W
    unimodular), and the scan runs over x = W z, whose box
    W M^-1 p - G' [0, 1]^n stays close to the parallelepiped it covers.  The
    rows of W are ordered so that x's last coordinate has the widest box,
    which cell_hits solves rather than enumerates.  The coordinate vector of
    p - M z in the fragment basis is u - H'x with u = S^-1 p and
    H' = S^-1 M W^-1, kept for the least integer e as e S^-1 and the doubled
    cell (h2, one2) = (2 e H', 2 e); hits map by z = W^-1 x.

    A frame forms no matrix product: G's Gram matrix is shifted_gram of
    T's, which the engine shares; S^-1 is the fragment's s_inv_pairs, each
    row a scale times a shared cofactor row, so S^-1 M is I on sigma's
    diagonal block and -I on the other's, and its two off-diagonal blocks
    are scaled entries of the shared rows' products with M's cleared
    columns; and size_reduce carries S^-1 M along to H'.  The cell rows of
    e S^-1 are kept as (shared row, scale) pairs, cell_rows.  A frame
    eliminates nothing.  lam is lambda_of's least-denominator pair
    (den, nums), held as certified, and the half-open rules are the signs of
    nums.
    """

    __slots__ = (
        "sigma", "sign_class", "lam", "rules", "cell_rows", "h2", "one2",
        "to_x", "to_z", "extents", "rows",
    )

    def __init__(self, frag, fs: FragmentSet, w: GenericDirection, shared, rows: slice):
        self.rows = rows
        self.sigma = frag.sigma
        self.sign_class = frag.sign_class
        self.lam = w.lambda_of(fs, frag.sigma)
        self.rules = tuple(x > 0 for x in self.lam[1])
        # T = t / slack_den, and G = T - D over it.
        slack_den, t, t_gram = shared
        n, m_den = fs.dims.n, fs.m_rows[0]
        sig = [j - 1 for j in frag.sigma]
        hat = [j - 1 for j in complement(frag.sigma, n)]
        g = [list(row) for row in t]
        for j in hat:
            g[j][j] -= slack_den
        # S^-1 = X / si_den and M = m / m_den share the denominator
        # de = si_den * m_den, over which S^-1 M is de I on sigma's diagonal
        # block and -de I on hat's; off them, row i scales a shared product.
        si_den, pairs = frag.s_inv_pairs
        products = fs.blocks.products
        de = si_den * m_den
        h = [[0] * n for _ in range(n)]
        for block, other, diag in ((sig, hat, de), (hat, sig, -de)):
            for i in block:
                s, c = pairs[i]
                row, hi = products[s], h[i]
                hi[i] = diag
                for j in other:
                    hi[j] = c * row[j]
        g, to_x, to_z, h = size_reduce(g, shifted_gram(t, t_gram, slack_den, hat), h)
        # The widest box coordinate j goes last, where cell_hits solves it
        # rather than enumerates it: rows j and n - 1 of the box and of W
        # trade places, and so do columns j and n - 1 of W^-1 and of H'.
        extents = cube_extents(g)
        widths = [high - low for low, high in extents]
        j = widths.index(max(widths))
        for a in (extents, to_x, *to_z, *h):
            a[j], a[-1] = a[-1], a[j]
        self.extents, self.to_x, self.to_z = extents, to_x, to_z
        # Dividing by the common gcd leaves the least denominator; a shared
        # row's entries have gcd 1, so row i of m_den X has gcd |c m_den|.
        common = gcd(de, *(c * m_den for _, c in pairs), *chain.from_iterable(h))
        if common > 1:
            h = [[x // common for x in row] for row in h]
        self.cell_rows = [(s, c * m_den // common) for s, c in pairs]
        self.h2 = [[2 * x for x in row] for row in h]
        self.one2 = 2 * de // common

    def translate(self, x: Sequence[int]) -> tuple[int, ...]:
        """The translate z = W^-1 x."""
        return tuple(sum(map(mul, row, x)) for row in self.to_z)


class TilingEngine:
    """Point location for the signed tiling of one fragment set.

    Per fragment, the candidate translates for a query point p are scanned
    in the frame's size-reduced basis and tested exactly on integers.  The
    frames share T = M^-1 P M and its Gram matrix, the build's only matrix
    product, and one denominator of G, so their rows stack into one query
    (cell_coordinates, candidate_boxes), of which frame.rows are the frame's.
    """

    def __init__(self, fs: FragmentSet, w: GenericDirection):
        if fs.det_m == 0:
            raise SingularMatrixError("tiling requires an invertible matrix")
        self.fs = fs
        self.w = w
        self.expected = fs.expected_coverage()
        (m_den, m), (e, m_inv), (r, n) = fs.m_rows, fs.m_inv_rows, (fs.dims.r, fs.dims.n)
        t = int_mat_mul([row[:r] for row in m_inv], m[:r])
        shared = e * m_den, t, [[sum(map(mul, a, b)) for b in t] for a in t]
        live = [frag for frag in fs if frag.sign_class != DEGENERATE]
        self.frames = [_Frame(f, fs, w, shared, slice(i * n, i * n + n)) for i, f in enumerate(live)]
        self._slack_den = shared[0]
        _, self._shared_rows = fs.blocks.cofactors
        self._cell_rows, self._to_x, self._extents = (
            [x for frame in self.frames for x in getattr(frame, name)]
            for name in ("cell_rows", "to_x", "extents")
        )

    @cached_property
    def m_inv(self) -> Matrix:
        """M^-1 as Fractions, built from m_inv_rows when first read."""
        e, rows = self.fs.m_inv_rows
        return Matrix.from_rows([[Fraction(x, e) for x in row] for row in rows])

    def cell_coordinates(self, p_int: Sequence[int]) -> list[int]:
        """u = e S^-1 p_int of every frame, stacked: the cell coordinates of
        p - M W^-1 x, p = p_int / q, are (2 u[frame.rows] - q h2 x) / (q one2),
        one product per shared cofactor row, scaled per frame row."""
        dots = [sum(map(mul, row, p_int)) for row in self._shared_rows]
        return [c * dots[s] for s, c in self._cell_rows]

    def candidate_boxes(self, q: int, p_int: Sequence[int]) -> list[tuple[int, int]]:
        """Inclusive ranges (lo, hi) of every frame, stacked, on x = W z over
        the z whose closed tile can hold p = p_int / q (q > 0): x is
        W M^-1 p - G' y for y in the unit cube, so W M^-1 p less the
        cube_extents of G' = g / slack_den."""
        e, m_inv = self.fs.m_inv_rows
        num = [sum(map(mul, row, p_int)) for row in m_inv]
        den, sd = e * q, self._slack_den
        scale = den * sd
        b = (sum(map(mul, row, num)) * sd for row in self._to_x)
        return [
            (-((high * den - bi) // scale), (bi - low * den) // scale)
            for bi, (low, high) in zip(b, self._extents)
        ]

    def candidate_box(self, frame: _Frame, a: Sequence[Fraction]):
        """The frame's rows of candidate_boxes at lattice coordinates
        a = M^-1 p, as the tuples (lo, hi)."""
        den, num = clear_denominator(a)
        m_den, m = self.fs.m_rows
        p_int = [sum(map(mul, row, num)) for row in m]
        return tuple(zip(*self.candidate_boxes(den * m_den, p_int)[frame.rows]))

    def tiles_at(self, p: Sequence[Fraction]) -> tuple[list[tuple[TileId, str]], int]:
        """All tiles containing p, plus a count of closed-boundary incidences.

        A boundary incidence is a residual of cell_hits with some coordinate
        exactly 0 or 1; the half-open rules still decide membership, by
        cell_position, and the count only flags the event.  Tiles come in
        frame order and, within a frame, sorted by z.

        The test runs on integers that do not grow with q: with u the cell
        coordinates, 2 (u_i // q) + (u_i % q > 0) replaces 2 u_i / q in the
        doubled cell.  Where q divides u_i that is exact; elsewhere the exact
        residual lies strictly between two even integers, and the odd one
        between them touches no face and is in [0, one2] exactly when it is.
        """
        p = vector(p)
        if len(p) != self.fs.dims.n:
            raise DimensionError(f"point has length {len(p)}, expected {self.fs.dims.n}")
        q, p_int = clear_denominator(p)
        ranges = self.candidate_boxes(q, p_int)
        u = [2 * (x // q) + (x % q > 0) for x in self.cell_coordinates(p_int)]
        found: list[tuple[TileId, str]] = []
        boundary = 0
        for frame in self.frames:
            hits = []
            for x, y in cell_hits(u[frame.rows], frame.h2, frame.one2, ranges[frame.rows]):
                inside, touching = cell_position(y, frame.one2, frame.rules)
                boundary += touching
                if inside:
                    hits.append(frame.translate(x))
            if hits:
                hits.sort()
                found.extend((TileId(z=z, sigma=frame.sigma), frame.sign_class) for z in hits)
        return found, boundary

    def coverage(self, p: Sequence[Fraction]) -> CoverageReport:
        tiles, _ = self.tiles_at(p)
        pos, neg = _census(tiles)
        return CoverageReport(vector(p), tuple(tiles), pos - neg, self.expected)


def verify_constancy(
    fs: FragmentSet, w: GenericDirection, sample_count: int, seed: int
) -> VerifyReport:
    """Sample the fundamental domain and check the cover count is constant.

    Points are drawn by fundamental_point, p = M u with u uniform on the
    2^-31 grid of [0,1)^n; by lattice periodicity of the tiling, constancy
    there is constancy everywhere.  A sample on a tile boundary is decided
    by the half-open w-rules like any other; such samples are counted in
    boundary_samples.
    """
    engine = TilingEngine(fs, w)
    expected = engine.expected
    histogram: dict[tuple[int, int], int] = {}
    values: set[int] = set()
    boundary_samples = 0
    for index in range(sample_count):
        # The fixed ":0" tag field keeps the sample streams of earlier reports.
        tiles, boundary = engine.tiles_at(fundamental_point(fs, f"sample:{seed}:{index}:0"))
        boundary_samples += boundary > 0
        pos, neg = _census(tiles)
        values.add(pos - neg)
        key = (pos, neg)
        histogram[key] = histogram.get(key, 0) + 1
    return VerifyReport(
        sample_count=sample_count,
        seed=seed,
        expected=expected,
        distinct_f_values=frozenset(values),
        census_histogram=dict(sorted(histogram.items())),
        boundary_samples=boundary_samples,
        passed=values == {expected},
    )
