"""Facets of tiles, their hyperplane collections, and the double-cover structure.

Each tile has 2(r+k) facets, indexed by the omitted generator j and a side
s in {0,1}.  Re-anchoring the s=1 facets by one lattice step (the "tilde"
parameterization) groups all facets into hyperplane collections: one per
(z, tau) with |tau| = r-1, collecting facets whose omitted generator carries a
top part, and one per (z, gamma) with |gamma| = r+1 for the bottom-part side.

Within a collection, every facet either increases or decreases the signed
cover count when crossed along the orientation w (the up/down split).  The up
facets and the down facets each project onto the same zonotope, once each,
which is why crossing a hyperplane never changes the cover count.  This module
makes all of that executable: the split, the kernel certificate behind the
zonotope tiling, sampled double-cover verification on each fragment's integer
S^-1 rows, and exact crossing scans along rays.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import add, attrgetter, mul, sub
from typing import Sequence

from .fragments import (
    DEGENERATE,
    POSITIVE,
    FragmentSet,
    SubsetIndex,
    complement,
    normalize_subset,
    shuffle_sign,
)
from .linalg import (
    DimensionError,
    LinalgError,
    clear_denominator,
    int_det,
    normalize_integer_direction,
    rat,
    vector,
)
from .tiling import (
    SAMPLE_DENOMINATOR,
    GenericDirection,
    GenericityError,
    TilingEngine,
    cell_hits,
    cell_position,
    grid_numerators,
)

TAU = "tau"
GAMMA = "gamma"
CROSSING_RESAMPLES = 10


@dataclass(frozen=True)
class FacetId:
    """A facet in plain coordinates: side s of tile (z, sigma), omitting j."""

    z: tuple[int, ...]
    sigma: SubsetIndex
    j: int
    s: int


def _translate(z: Sequence) -> tuple[int, ...]:
    """z as ints; an entry that is not an exact integer, an int or a
    Fraction of denominator 1, raises DimensionError."""
    for x in z:
        if not isinstance(x, (int, Fraction)) or x.denominator != 1:
            raise DimensionError(f"z must have integer entries, got {x!r}")
    return tuple(int(x) for x in z)


def tilde_facet(z: Sequence[int], sigma: Sequence[int], j: int, s: int) -> FacetId:
    """Resolve tilde parameters to the plain facet they name.

    The s=1 member is re-anchored one lattice step along e_j, toward lower z
    when j carries a top part (j in sigma) and toward higher z otherwise;
    s=0 members coincide with their plain form.
    """
    z = _translate(z)
    sigma = tuple(sorted(sigma))
    if s not in (0, 1):
        raise DimensionError(f"facet side must be 0 or 1, got {s}")
    step = -s if j in sigma else s
    z = tuple(zi + step if idx == j - 1 else zi for idx, zi in enumerate(z))
    return FacetId(z=z, sigma=sigma, j=j, s=s)


@dataclass(frozen=True)
class FacetCollection:
    """All tilde facets sharing one hyperplane, with degenerate members flagged."""

    kind: str
    z: tuple[int, ...]
    index: SubsetIndex
    members: tuple[FacetId, ...]
    degenerate: frozenset[FacetId]

    def live_members(self) -> tuple[FacetId, ...]:
        return tuple(f for f in self.members if f not in self.degenerate)


def facet_collection(fs: FragmentSet, index: Sequence[int], z: Sequence[int]) -> FacetCollection:
    """The collection anchored at z: tau when |index| = r-1, gamma when r+1."""
    r, n = fs.dims.r, fs.dims.n
    index = normalize_subset(index, n)
    z = _translate(z)
    if len(z) != n:
        raise DimensionError(f"z has length {len(z)}, expected {n}")
    if len(index) == r - 1:
        kind = TAU
        pairs = [(j, tuple(sorted(index + (j,)))) for j in complement(index, n)]
    elif len(index) == r + 1:
        kind = GAMMA
        pairs = [(j, tuple(i for i in index if i != j)) for j in index]
    else:
        raise DimensionError(f"index size {len(index)} is neither r-1={r - 1} nor r+1={r + 1}")
    members = []
    dead = []
    for j, sigma in pairs:
        for s in (0, 1):
            facet = tilde_facet(z, sigma, j, s)
            members.append(facet)
            if fs[sigma].sign_class == DEGENERATE:
                dead.append(facet)
    return FacetCollection(
        kind=kind, z=z, index=index, members=tuple(members), degenerate=frozenset(dead)
    )


def facet_signs(fs: FragmentSet, w: GenericDirection, facet: FacetId) -> tuple[int, int]:
    """(wsgn, tsgn) of a facet.

    wsgn is +1 when a particle crossing the facet along w enters the facet's
    tile (the facet is the tile's included boundary on that side), which
    reduces to (-1)^s * sign of the omitted lambda coordinate, the sign of
    its integer numerator; tsgn is the determinant sign of the tile's
    fragment, its sign class.
    """
    lam_j = w.lambda_of(fs, facet.sigma)[1][facet.j - 1]
    wsgn = (1 if lam_j > 0 else -1) * (1 if facet.s == 0 else -1)
    tsgn = 1 if fs[facet.sigma].sign_class == POSITIVE else -1
    return wsgn, tsgn


@dataclass(frozen=True)
class UpDownPartition:
    up: tuple[FacetId, ...]
    down: tuple[FacetId, ...]


def up_down_partition(
    fs: FragmentSet, w: GenericDirection, coll: FacetCollection
) -> UpDownPartition:
    """Split the live members by whether crossing them along w raises or
    lowers the signed cover count (sign of lambda_j times the fragment
    determinant, side-adjusted)."""
    up = []
    down = []
    for facet in coll.live_members():
        wsgn, tsgn = facet_signs(fs, w, facet)
        (up if wsgn * tsgn > 0 else down).append(facet)
    return UpDownPartition(up=tuple(up), down=tuple(down))


def h_vector(fs: FragmentSet, w: GenericDirection, tau: Sequence[int]) -> tuple[Fraction, ...]:
    """Kernel certificate of the bottom-block column family off tau.

    Entry j (over the complement of tau, ascending) is
    det([C_tau | w']) * det(Cbar off tau+j) * sgn(tau, j, rest), the closed
    form of lambda_j times the fragment determinant, on integers: with
    M = A / d and w = wn / q, the first factor is int_det of A's top rows on
    tau beside wn's, over d^(r-1) q; the second is the stored block minor
    det_bottom of sigma = tau+j, over d^k; and (tau, j, rest) is
    (sigma, rest) once j passes the indices of tau above it.  So every entry
    is an integer over d^(n-1) q, formed as one Fraction.  The closed form
    stays defined when a fragment is degenerate and always lands in the
    kernel, checked on A's bottom rows and the integer numerators.
    """
    r, n = fs.dims.r, fs.dims.n
    tau = normalize_subset(tau, n)
    if len(tau) != r - 1:
        raise DimensionError(f"tau must have size r-1, got {tau}")
    d, a = fs.m_rows
    q, wn = clear_denominator(w.w)
    tau_hat = complement(tau, n)
    lead = int_det([[row[i - 1] for i in tau] + [x] for row, x in zip(a[:r], wn)])
    h = []
    for j in tau_hat:
        sigma = tuple(sorted(tau + (j,)))
        sgn = shuffle_sign(sigma) * (-1) ** sum(t > j for t in tau)
        h.append(sgn * lead * fs[sigma].det_bottom)
    if any(sum(map(mul, (row[j - 1] for j in tau_hat), h)) for row in a[r:]):
        raise LinalgError("kernel certificate failed its exact check")
    den = d ** (n - 1) * q
    return tuple(Fraction(x, den) for x in h)


@dataclass
class DoubleCoverReport:
    kind: str
    index: SubsetIndex
    z: tuple[int, ...]
    sample_count: int
    boundary_samples: int
    failures: tuple[tuple[tuple[Fraction, ...], int, int], ...]
    passed: bool


def double_cover_check(
    fs: FragmentSet,
    w: GenericDirection,
    index: Sequence[int],
    z: Sequence[int],
    sample_count: int,
    seed: int,
) -> DoubleCoverReport:
    """Sampled verification that up and down facets each cover the zonotope once.

    Points are drawn in the open projected zonotope of the collection
    (coefficient vectors on the 2^-31 grid of (0,1)) and must lie in exactly
    one up and exactly one down facet shadow.  The half-open w-rules decide
    a sample on a shadow boundary like any other; such samples are counted
    in boundary_samples.  The grid is open because a sample on the
    zonotope's own outer boundary is not decided by the shadows' rules.

    The shadow covered is full-dimensional: Cbar_hat for tau (j in sigma)
    and C_sigma for gamma (j off sigma), based at part(M z_f).  A sample
    with coefficients c / q (c from grid_numerators, q = 2^31) on the
    columns js is x = part(M (z -+ c / q)) (minus for tau), so its cell
    coordinates are the block rows of S_sigma^-1 M (q (z - z_f) -+ c) over
    q.  With S_sigma^-1 = X / e and M = A / d, the s = 0 and s = 1 members
    of a fragment share those rows of X A on the columns js, scaled shared
    cofactor products (s_inv_pairs), so each fragment's block rows times c
    are formed once per sample, over e d q, and each member adds its anchor
    constant q (X A)(z - z_f) before cell_position tests it.  Only a failing
    sample's point is formed as Fractions.
    """
    r, n = fs.dims.r, fs.dims.n
    coll = facet_collection(fs, index, z)
    d, a = fs.m_rows
    # The zonotope's columns are sign * part(M e_j): A's part rows over d.
    if coll.kind == TAU:
        js, sign, part = complement(coll.index, n), -1, a[r:]
    else:
        js, sign, part = coll.index, 1, a[:r]
    zono_rows = [[sign * row[j - 1] for j in js] for row in part]
    up = set(up_down_partition(fs, w, coll).up)
    q = SAMPLE_DENOMINATOR
    products = fs.blocks.products
    cells = []
    for sigma, members in groupby(coll.live_members(), attrgetter("sigma")):
        e, pairs = fs[sigma].s_inv_pairs
        block = sigma if coll.kind == GAMMA else complement(sigma, n)
        _, lam = w.lambda_of(fs, sigma)
        g = [[c * v for v in products[s]] for s, c in (pairs[i - 1] for i in block)]
        anchors = [
            ([q * sum(map(mul, row, map(sub, coll.z, facet.z))) for row in g], facet in up)
            for facet in members
        ]
        rows = [[sign * row[j - 1] for j in js] for row in g]
        cells.append((rows, e * d * q, tuple(lam[i - 1] > 0 for i in block), anchors))

    boundary_samples = 0
    failures = []
    for idx in range(sample_count):
        c = grid_numerators(f"cover:{seed}:{idx}:0", len(js), 1, SAMPLE_DENOMINATOR)
        up_count = down_count = touched = 0
        for rows, one, rules, anchors in cells:
            y = [sum(map(mul, row, c)) for row in rows]
            for constants, is_up in anchors:
                pos = cell_position(map(add, y, constants), one, rules)
                if pos is not None:
                    touched |= pos[1]
                    if pos[0]:
                        up_count += is_up
                        down_count += not is_up
        boundary_samples += touched
        if (up_count, down_count) != (1, 1):
            q_rel = tuple(Fraction(sum(map(mul, row, c)), d * q) for row in zono_rows)
            failures.append((q_rel, up_count, down_count))
    return DoubleCoverReport(
        kind=coll.kind,
        index=coll.index,
        z=coll.z,
        sample_count=sample_count,
        boundary_samples=boundary_samples,
        failures=tuple(failures),
        passed=not failures,
    )


@dataclass(frozen=True)
class CrossingEvent:
    t: Fraction
    facets: tuple[FacetId, ...]
    sign_sum: int


@dataclass
class CrossingReport:
    start: tuple[Fraction, ...]
    reach: Fraction
    crossings: tuple[CrossingEvent, ...]
    f_values: tuple[int, ...]
    resamples: int
    cancellation_ok: bool
    constant: bool
    f_value: int | None
    passed: bool


def _collect_events(engine: TilingEngine, start, reach):
    """Exact facet-crossing times of the ray start + t*w over t in (0, reach).

    Fragment coordinates y0 + t*lambda meet the closed unit cell along the
    segment only if y0 lies within reach*max|lambda_i| of it, so cell_hits
    scans the union of the candidate_boxes at the two ends (the bounds are
    monotone in M^-1 p) at the start's exact cell_coordinates, in the cell
    widened by a bound on that; a residual it yields, less the widening, is
    y0's numerator y.  Every coordinate hitting 0 or 1 gives a rational
    crossing time; the hit is kept when the crossing point lies in the
    closed facet, and flagged when it touches the facet's own boundary.

    All of it runs on integers, in the frame's doubled cell scaled by the
    start's denominator: y0 = y / one, lambda = l / d (frame.lam), reach =
    rn / rd, the widening is one*ceil(rn*max|l_i| / (d*rd)), and the crossing
    of coordinate i at target T has t = a*d / (one*|l_i|) with
    a = sign(l_i)*(T*one - y_i).  So 0 < t < reach is 0 < a with
    a*d*rd < one*|l_i|*rn, and the other coordinates there are
    (y_m*|l_i| + a*l_m) / (one*|l_i|).  A Fraction t is built only for the
    crossings kept.
    """
    n = engine.fs.dims.n
    reach_num, reach_den = reach.numerator, reach.denominator
    q, p_int = clear_denominator(start)
    end = tuple(si + reach * wi for si, wi in zip(start, engine.w.w))
    ends = zip(engine.candidate_boxes(q, p_int), engine.candidate_boxes(*clear_denominator(end)))
    boxes = [(min(lo0, lo1), max(hi0, hi1)) for (lo0, hi0), (lo1, hi1) in ends]
    cells = engine.cell_coordinates(p_int)
    events: dict[Fraction, list[tuple[FacetId, bool]]] = {}
    for frame in engine.frames:
        lam_den, lam = frame.lam
        h, one = [[e * q for e in row] for row in frame.h2], frame.one2 * q
        other_rules = [frame.rules[:i] + frame.rules[i + 1 :] for i in range(n)]
        # Per coordinate i: |l_i|, the corner one*|l_i| of the cell the other
        # coordinates are tested in, and the bound one*|l_i|*rn on a*d*rd.
        abs_lam = [abs(x) for x in lam]
        corner = [one * x for x in abs_lam]
        limit = [reach_num * x for x in corner]
        scale = lam_den * reach_den
        widen = -(-reach_num * max(abs_lam) // scale) * one
        wide_u = [2 * x + widen for x in cells[frame.rows]]
        for x, wide_y in cell_hits(wide_u, h, one + 2 * widen, boxes[frame.rows]):
            y = [v - widen for v in wide_y]
            z = frame.translate(x)
            for i in range(n):
                for target in (0, 1):
                    a = target * one - y[i] if lam[i] > 0 else y[i] - target * one
                    if a <= 0 or a * scale >= limit[i]:
                        continue
                    others = (y[m] * abs_lam[i] + a * lam[m] for m in range(n) if m != i)
                    pos = cell_position(others, corner[i], other_rules[i])
                    if pos is not None:
                        facet = FacetId(z=z, sigma=frame.sigma, j=i + 1, s=target)
                        t = Fraction(a * lam_den, corner[i])
                        events.setdefault(t, []).append((facet, pos[1]))
    return events


def _classify_events(engine: TilingEngine, events):
    """Group crossings by time; a crossing is degenerate when its point lies on
    some facet's boundary or on non-parallel facets.

    Distinct collections may share one hyperplane (their anchor translates
    differ along it), so parallelism is decided on the facet normals: the
    normal of the facet omitting generator j is row j of the fragment's
    S^-1, a multiple of its shared cofactor row (s_inv_pairs).  Meeting two
    non-parallel hyperplanes at one point means the ray passes through the
    codimension-2 skeleton, which the pairing statement excludes.
    """
    fs, crossings = engine.fs, []
    _, rows = fs.blocks.cofactors
    for t in sorted(events):
        items = events[t]
        if any(flag for _, flag in items):
            return True, []
        normals = {normalize_integer_direction(rows[fs[f.sigma].s_inv_pairs[1][f.j - 1][0]]) for f, _ in items}
        if len(normals) > 1:
            return True, []
        signs = [facet_signs(engine.fs, engine.w, f) for f, _ in items]
        sign_sum = sum(wsgn * tsgn for wsgn, tsgn in signs)
        facets = tuple(
            sorted((f for f, _ in items), key=lambda f: (f.sigma, f.z, f.j, f.s))
        )
        crossings.append(CrossingEvent(t=t, facets=facets, sign_sum=sign_sum))
    return False, crossings


def crossing_check(engine: TilingEngine, p: Sequence, reach, seed: int) -> CrossingReport:
    """Scan the ray p + t*w, t in (0, reach), and verify crossing invariance.

    The crossing times cut (0, reach) into open pieces, and the signed cover
    count is read once per piece, at its midpoint: constant compares f just
    before and just after every crossing, and the wsgn*tsgn contributions
    of the facets met at each crossing are summed.  A start on a tile
    boundary needs no care: the half-open w-rules decide it, and only
    crossings at t > 0 are scanned.  Rays whose crossing points hit facet
    boundaries or several hyperplanes at once are resampled nearby, since
    the pairing statement excludes those configurations; resamples counts
    those moves.  The engine is built once per (fragment set, w) and may
    serve many rays.
    """
    w = engine.w
    reach = rat(reach)
    if reach <= 0:
        raise DimensionError("reach must be positive")
    p0 = vector(p)
    if len(p0) != engine.fs.dims.n:
        raise DimensionError(f"point has length {len(p0)}, expected {engine.fs.dims.n}")
    for attempt in range(CROSSING_RESAMPLES + 1):
        if attempt == 0:
            start = p0
        else:
            jitter = grid_numerators(f"crossing:{seed}:{attempt}", len(p0), -(2**31 - 1), 2**31)
            start = tuple(p + Fraction(x, 2**43) for p, x in zip(p0, jitter))
        degenerate, crossings = _classify_events(engine, _collect_events(engine, start, reach))
        if degenerate:
            continue
        ts = [Fraction(0)] + [c.t for c in crossings] + [reach]
        f_values = [
            engine.coverage(tuple(si + mid * wi for si, wi in zip(start, w.w))).f_value
            for mid in ((a + b) / 2 for a, b in zip(ts, ts[1:]))
        ]
        cancellation_ok = all(c.sign_sum == 0 for c in crossings)
        constant = len(set(f_values)) == 1
        return CrossingReport(
            start=start,
            reach=reach,
            crossings=tuple(crossings),
            f_values=tuple(f_values),
            resamples=attempt,
            cancellation_ok=cancellation_ok,
            constant=constant,
            f_value=f_values[0] if constant else None,
            passed=cancellation_ok and constant,
        )
    raise GenericityError(
        f"ray stayed degenerate after {CROSSING_RESAMPLES} resamples; seed {seed}"
    )
