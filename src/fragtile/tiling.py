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
from itertools import product
from math import gcd
from operator import mul
from typing import Mapping, Sequence

from .fragments import DEGENERATE, FragmentSet, SubsetIndex, complement
from .linalg import DimensionError, Matrix, SingularMatrixError, clear_denominator, int_mat_mul, vector

SAMPLE_DENOMINATOR = 2**31
DIRECTION_DRAWS = 64


class GenericityError(Exception):
    """The direction vector w fails (or cannot satisfy) a genericity condition."""


@dataclass(frozen=True)
class GenericDirection:
    """A direction w together with the finite certificate that makes it generic.

    The certificate records, per checked matrix, how many coordinates of
    N^-1 w were verified nonzero: all invertible fragment matrices plus M
    itself.  That finite condition set also covers the restricted systems on
    the top and bottom blocks, since their coordinate vectors are subvectors
    of the fragment ones.  lambdas holds S^-1 w for every half-open rule and
    facet sign, keyed by sigma; lambda_of reads it for the matrix m that w
    was certified for and raises KeyError for any other.
    """

    w: tuple[Fraction, ...]
    w_prime: tuple[Fraction, ...]
    w_double_prime: tuple[Fraction, ...]
    certificate: tuple[tuple[str, int], ...]
    lambdas: Mapping[SubsetIndex, tuple[Fraction, ...]] = field(compare=False, repr=False)
    m: Matrix = field(compare=False, repr=False)

    def lambda_of(self, fs: FragmentSet, sigma: SubsetIndex) -> tuple[Fraction, ...]:
        """lambda_sigma = S_sigma^-1 w of a live fragment of fs."""
        m = fs.decomposition.m
        if m is not self.m and m != self.m:
            raise KeyError(f"w was not certified for the matrix of {_sigma_label(sigma)}")
        return self.lambdas[sigma]


def _sigma_label(sigma: SubsetIndex) -> str:
    return "S{%s}" % ",".join(str(i) for i in sigma)


def certify_direction(fs: FragmentSet, w: Sequence) -> GenericDirection:
    """Check every genericity condition for w exactly; raise on any zero.

    With w = wn / q, lambda_sigma = S^-1 w has entries (X_i . wn) / (e q)
    from the fragment's s_inv_rows (e, X), and M^-1 w comes the same way
    from m_inv_rows: certifying eliminates nothing."""
    dims = fs.dims
    w = vector(w)
    if len(w) != dims.n:
        raise DimensionError(f"w has length {len(w)}, expected {dims.n}")
    q, wn = clear_denominator(w)

    def times_w(inverse_rows):
        e, rows = inverse_rows
        den = e * q
        return tuple(Fraction(sum(a * x for a, x in zip(row, wn)), den) for row in rows)

    checks: list[tuple[str, int]] = []
    lambdas: dict[SubsetIndex, tuple[Fraction, ...]] = {}
    for frag in fs:
        if frag.sign_class == DEGENERATE:
            continue
        lam = times_w(frag.s_inv_rows)
        if any(x == 0 for x in lam):
            raise GenericityError(f"w is not generic: zero entry in {_sigma_label(frag.sigma)}^-1 w")
        checks.append((_sigma_label(frag.sigma), dims.n))
        lambdas[frag.sigma] = lam
    if any(x == 0 for x in times_w(fs.m_inv_rows)):
        raise GenericityError("w is not generic: zero entry in M^-1 w")
    checks.append(("M", dims.n))
    return GenericDirection(w, w[: dims.r], w[dims.r :], tuple(checks), lambdas, fs.decomposition.m)


def grid_vector(
    tag: str, dim: int, lo: int, hi: int, denom: int = SAMPLE_DENOMINATOR
) -> tuple[Fraction, ...]:
    """dim grid values numerator/denom, numerators uniform on [lo, hi).

    The stream is seeded by the tag string alone, so every draw is
    reproducible from its tag.
    """
    rng = random.Random(tag)
    return tuple(Fraction(rng.randrange(lo, hi), denom) for _ in range(dim))


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


def cell_hits(u: Sequence[int], h: Sequence[Sequence[int]], one: int, rules, ranges):
    """Integer translates z whose vector u - h z meets the closed cell.

    z runs over the box given by the inclusive (lo, hi) ranges, in
    lexicographic order; u, h and the cell corner one are integers (the
    caller clears denominators).  Yields (z, inside, touching), the
    cell_position of u - h z, for every z with u - h z in the closed cell
    [0, one]^m, m = len(u).  As in Fincke-Pohst enumeration, only the first
    c - 1 of the c = len(ranges) coordinates are enumerated: per prefix, each
    row's residual r_i is formed once, and 0 <= r_i - a_i t <= one
    (a_i = h[i][c-1]) cuts the last range by floor division to its members.
    """
    if not ranges:
        pos = cell_position(u, one, rules)
        if pos is not None:
            yield (), *pos
        return
    *head, (lo, hi) = ranges
    last = [row[len(head)] for row in h]
    for prefix in product(*(range(a, b + 1) for a, b in head)):
        t0, t1 = lo, hi
        res = []
        for ui, row, a in zip(u, h, last):
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
                yield (*prefix, t), *cell_position([r - a * t for r, a in zip(res, last)], one, rules)


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


def size_reduce(rows: Sequence[Sequence[int]]):
    """Pairwise size reduction of linearly independent integer rows.

    Returns (R, W, W^-1) with R = W * rows and W unimodular, all as integer
    rows.  While some pair has 2|<r_i, r_j>| > <r_j, r_j>, row i loses the
    nearest integer multiple of row j; each such step strictly shortens row
    i, so the loop ends and no row is ever longer than it started.  The
    products <r_i, r_j> are read from the Gram matrix, whose row and column
    i each step updates in O(n).
    """
    n = len(rows)
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    w_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    gram = [[sum(map(mul, a, b)) for b in rows] for a in rows]
    changed = True
    while changed:
        changed = False
        for j, gj in enumerate(gram):
            nj = gj[j]
            for i, gi in enumerate(gram):
                d = gi[j]
                if i == j or 2 * abs(d) <= nj:
                    continue
                k = (2 * d + nj) // (2 * nj)
                w[i] = [x - k * y for x, y in zip(w[i], w[j])]
                for row in w_inv:
                    row[j] += k * row[i]
                # <r_i - k r_j, r_l> for every l; the diagonal last
                norm = gi[i] - 2 * k * d + k * k * nj
                for col, row in enumerate(gram):
                    row[i] = gi[col] = gi[col] - k * gj[col]
                gi[i] = norm
                changed = True
    return int_mat_mul(w, rows), w, w_inv


class _Frame:
    """Per-fragment point-location data, built once per engine.

    A tile (z, sigma) can hold p only when z = M^-1 p - G y for some y in
    [0, 1]^n, where G = M^-1 S.  S = P M - M D, with P keeping the first r
    coordinates and D the identity off sigma, so G = T - D for the engine's
    T = M^-1 P M.  The rows of G are size-reduced once (G' = W G, W
    unimodular), and the scan runs over x = W z, whose box
    W M^-1 p - G' [0, 1]^n stays close to the parallelepiped it covers.  The
    coordinate vector of p - M z in the fragment basis is u - H'x with
    u = S^-1 p and H' = S^-1 M W^-1, kept as integer rows over one frame
    denominator, and doubled for query; a hit maps back by z = W^-1 x.
    S^-1 is the fragment's s_inv_rows, so a frame eliminates nothing; the
    half-open rules are the signs of the certified lambda.
    """

    __slots__ = (
        "sigma", "sign_class", "lam", "rules", "denom", "s_inv", "h", "h2", "one2",
        "to_x", "to_z", "slack_den", "slack_pos", "slack_neg",
    )

    def __init__(self, frag, fs: FragmentSet, w: GenericDirection, top):
        self.sigma = frag.sigma
        self.sign_class = frag.sign_class
        self.lam = w.lambda_of(fs, frag.sigma)
        self.rules = tuple(x > 0 for x in self.lam)
        self.slack_den, t = top  # T = t / slack_den, and G = T - D over it
        g = [list(row) for row in t]
        for j in complement(frag.sigma, fs.dims.n):
            g[j - 1][j - 1] -= self.slack_den
        g, self.to_x, self.to_z = size_reduce(g)
        self.slack_pos = [sum(x for x in row if x > 0) for row in g]
        self.slack_neg = [sum(x for x in row if x < 0) for row in g]
        # S^-1 = si / si_den and M = m / m_den share the denominator
        # si_den * m_den; dividing by the common gcd leaves the least one.
        si_den, si = frag.s_inv_rows
        m_den, m = fs.m_rows
        s_inv = [[x * m_den for x in row] for row in si]
        h = int_mat_mul(int_mat_mul(si, m), self.to_z)
        common = gcd(si_den * m_den, *(x for a in (s_inv, h) for row in a for x in row))
        self.denom = si_den * m_den // common
        self.s_inv, self.h = ([[x // common for x in row] for row in a] for a in (s_inv, h))
        self.h2 = [[2 * x for x in row] for row in self.h]
        self.one2 = 2 * self.denom

    def exact_query(self, q: int, p_int: Sequence[int]):
        """(u, h, one) for cell_hits at the point p_int / q: the cell
        coordinates of p - M W^-1 x are exactly (u - h x) / one."""
        u = [sum(map(mul, row, p_int)) for row in self.s_inv]
        return u, [[e * q for e in row] for row in self.h], self.denom * q

    def query(self, q: int, p_int: Sequence[int]):
        """(u', 2 H', 2 denom), on which cell_hits yields what it yields for
        exact_query, on integers that do not grow with q.

        With u = S^-1 p_int, row i tests v = u_i / q - (H'x)_i against
        [0, denom], and u'_i = 2 (u_i // q) + (u_i % q > 0).  Where q divides
        u_i, u'_i - 2 (H'x)_i = 2 v.  Elsewhere v is no integer, so never 0 or
        denom, and lies in the cell exactly when floor(v) lies in
        [0, denom - 1]; then u'_i - 2 (H'x)_i = 2 floor(v) + 1 is odd, never
        0 or 2 denom, and lies in [0, 2 denom] exactly when floor(v) does.
        """
        u = [sum(map(mul, row, p_int)) for row in self.s_inv]
        return [2 * (x // q) + (x % q > 0) for x in u], self.h2, self.one2

    def box(self, num: Sequence[int], den: int):
        """Inclusive bounds (lo, hi) on x = W z over the translates z whose
        closed tile can hold p, where M^-1 p = num / den (den > 0)."""
        sd = self.slack_den
        scale = den * sd
        b = [sum(e * v for e, v in zip(row, num)) * sd for row in self.to_x]
        lo = [-((sp * den - bi) // scale) for bi, sp in zip(b, self.slack_pos)]
        hi = [(bi - sn * den) // scale for bi, sn in zip(b, self.slack_neg)]
        return lo, hi

    def translate(self, x: Sequence[int]) -> tuple[int, ...]:
        """The translate z = W^-1 x."""
        return tuple(sum(e * v for e, v in zip(row, x)) for row in self.to_z)


class TilingEngine:
    """Point location for the signed tiling of one fragment set.

    Per fragment, the candidate translates for a query point p are scanned
    in the frame's size-reduced basis, over the integer box that interval
    arithmetic on the reduced rows of M^-1 S_sigma gives, and each candidate
    is tested exactly with integer arithmetic.  Each fragment's tiles come
    out sorted by z, so results do not depend on the scan order.  The frames
    are built from the fragment set's cleared m_rows and m_inv_rows, and
    share T = M^-1 P M, formed once here.
    """

    def __init__(self, fs: FragmentSet, w: GenericDirection):
        if fs.det_m == 0:
            raise SingularMatrixError("tiling requires an invertible matrix")
        self.fs = fs
        self.w = w
        self.expected = fs.expected_coverage()
        (m_den, m), (e, m_inv), r = fs.m_rows, fs.m_inv_rows, fs.dims.r
        top = e * m_den, int_mat_mul([row[:r] for row in m_inv], m[:r])
        self.frames = [_Frame(frag, fs, w, top) for frag in fs if frag.sign_class != DEGENERATE]

    @cached_property
    def m_inv(self) -> Matrix:
        """M^-1 as Fractions, built from m_inv_rows when first read."""
        e, rows = self.fs.m_inv_rows
        return Matrix.from_rows([[Fraction(x, e) for x in row] for row in rows])

    def lattice_coordinates(self, q: int, p_int: Sequence[int]) -> tuple[list[int], int]:
        """(num, den) with M^-1 p = num / den for the point p = p_int / q."""
        den, rows = self.fs.m_inv_rows
        return [sum(e * x for e, x in zip(row, p_int)) for row in rows], den * q

    def candidate_box(self, frame: _Frame, a: Sequence[Fraction]):
        """The box of x = W z that tiles_at scans in the frame at the point
        whose lattice coordinates M^-1 p are a."""
        den, num = clear_denominator(a)
        return frame.box(num, den)

    def tiles_at(self, p: Sequence[Fraction]) -> tuple[list[tuple[TileId, str]], int]:
        """All tiles containing p, plus a count of closed-boundary incidences.

        A boundary incidence is a candidate whose coordinate vector lies in
        the closed unit box with some coordinate exactly 0 or 1; the half-open
        rules still decide membership, the count only flags the event.  Tiles
        come in frame order and, within a frame, sorted by z.
        """
        p = vector(p)
        if len(p) != self.fs.dims.n:
            raise DimensionError(f"point has length {len(p)}, expected {self.fs.dims.n}")
        q, p_int = clear_denominator(p)
        num, den = self.lattice_coordinates(q, p_int)
        found: list[tuple[TileId, str]] = []
        boundary = 0
        for frame in self.frames:
            u, h, one = frame.query(q, p_int)
            ranges = list(zip(*frame.box(num, den)))
            hits = []
            for x, inside, touching in cell_hits(u, h, one, frame.rules, ranges):
                if touching:
                    boundary += 1
                if inside:
                    hits.append(frame.translate(x))
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

    Points are drawn as p = M u with u uniform on the 2^-31 grid of [0,1)^n;
    by lattice periodicity of the tiling, constancy there is constancy
    everywhere.  With u = c / q and M = A / d (fs.m_rows), p = A c / (d q)
    is formed from integers, one Fraction per coordinate.  A sample on a
    tile boundary is decided by the half-open w-rules like any other; such
    samples are counted in boundary_samples.
    """
    engine = TilingEngine(fs, w)
    n = fs.dims.n
    m_den, m_rows = fs.m_rows
    expected = engine.expected
    histogram: dict[tuple[int, int], int] = {}
    values: set[int] = set()
    boundary_samples = 0
    for index in range(sample_count):
        # The fixed ":0" tag field keeps the sample streams of earlier reports.
        u = grid_vector(f"sample:{seed}:{index}:0", n, 0, SAMPLE_DENOMINATOR)
        q, c = clear_denominator(u)
        den = m_den * q
        p = tuple(Fraction(sum(a * x for a, x in zip(row, c)), den) for row in m_rows)
        tiles, boundary = engine.tiles_at(p)
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
