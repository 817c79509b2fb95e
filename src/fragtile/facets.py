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
from math import ceil
from operator import mul
from typing import Sequence

from .fragments import (
    DEGENERATE,
    DegenerateFragmentError,
    FragmentSet,
    SubsetIndex,
    complement,
    normalize_subset,
)
from .linalg import (
    BlockPermutation,
    DimensionError,
    LinalgError,
    Matrix,
    clear_denominator,
    det,
    int_mat_mul,
    normalize_integer_direction,
    perm_sign,
    rat,
    vec_add,
    vec_scale,
    vector,
)
from .tiling import (
    SAMPLE_DENOMINATOR,
    GenericDirection,
    GenericityError,
    TilingEngine,
    cell_hits,
    cell_position,
    grid_vector,
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


def _unit_step(z: Sequence[int], j: int, step: int) -> tuple[int, ...]:
    return tuple(zi + step if idx == j - 1 else zi for idx, zi in enumerate(z))


def tilde_facet(z: Sequence[int], sigma: Sequence[int], j: int, s: int) -> FacetId:
    """Resolve tilde parameters to the plain facet they name.

    The s=1 member is re-anchored one lattice step along e_j, toward lower z
    when j carries a top part (j in sigma) and toward higher z otherwise;
    s=0 members coincide with their plain form.
    """
    z = tuple(int(x) for x in z)
    sigma = tuple(sorted(sigma))
    if s not in (0, 1):
        raise DimensionError(f"facet side must be 0 or 1, got {s}")
    if j in sigma:
        return FacetId(z=_unit_step(z, j, -s), sigma=sigma, j=j, s=s)
    return FacetId(z=_unit_step(z, j, +s), sigma=sigma, j=j, s=s)


def collection_of(facet: FacetId, n: int) -> tuple[str, tuple[int, ...], SubsetIndex]:
    """The unique hyperplane collection containing a plain facet."""
    if facet.j in facet.sigma:
        tau = tuple(i for i in facet.sigma if i != facet.j)
        return TAU, _unit_step(facet.z, facet.j, facet.s), tau
    gamma = tuple(sorted(facet.sigma + (facet.j,)))
    return GAMMA, _unit_step(facet.z, facet.j, -facet.s), gamma


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


def facet_collection(
    fs: FragmentSet, kind: str, z: Sequence[int], index: Sequence[int]
) -> FacetCollection:
    dims = fs.dims
    index = normalize_subset(index, dims.n)
    z = tuple(int(x) for x in z)
    if kind == TAU:
        if len(index) != dims.r - 1:
            raise DimensionError(f"tau index must have size r-1, got {index}")
        pairs = [(j, tuple(sorted(index + (j,)))) for j in complement(index, dims.n)]
    elif kind == GAMMA:
        if len(index) != dims.r + 1:
            raise DimensionError(f"gamma index must have size r+1, got {index}")
        pairs = [(j, tuple(i for i in index if i != j)) for j in index]
    else:
        raise DimensionError(f"unknown collection kind {kind!r}")
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


def lambda_vector(fs: FragmentSet, w: GenericDirection, sigma: Sequence[int]) -> tuple[Fraction, ...]:
    """Coordinates of w in the basis of the sigma fragment matrix (certified)."""
    frag = fs[sigma]
    if frag.sign_class == DEGENERATE:
        raise DegenerateFragmentError(f"fragment {frag.sigma} is degenerate")
    return w.lambda_of(fs, frag.sigma)


def facet_signs(fs: FragmentSet, w: GenericDirection, facet: FacetId) -> tuple[int, int]:
    """(wsgn, tsgn) of a facet.

    wsgn is +1 when a particle crossing the facet along w enters the facet's
    tile (the facet is the tile's included boundary on that side), which
    reduces to (-1)^s * sign of the omitted lambda coordinate; tsgn is the
    determinant sign of the tile's fragment.
    """
    frag = fs[facet.sigma]
    lam_j = lambda_vector(fs, w, facet.sigma)[facet.j - 1]
    wsgn = (1 if lam_j > 0 else -1) * (1 if facet.s == 0 else -1)
    tsgn = 1 if frag.det_s > 0 else -1
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
    form of lambda_j times the fragment determinant; det(Cbar off tau+j) is
    the stored det_cbar of the fragment tau+j.  The closed form stays
    defined when a fragment is degenerate and always lands in the kernel,
    which is verified exactly before returning.
    """
    dims = fs.dims
    tau = normalize_subset(tau, dims.n)
    if len(tau) != dims.r - 1:
        raise DimensionError(f"tau must have size r-1, got {tau}")
    d = fs.decomposition
    tau_hat = complement(tau, dims.n)
    lead_cols = [d.c[i - 1] for i in tau] + [w.w_prime]
    lead = det(Matrix.from_columns(lead_cols, rows=dims.r))
    h = []
    for j in tau_hat:
        rest = tuple(i for i in tau_hat if i != j)
        sgn = perm_sign(BlockPermutation((tau, (j,), rest)))
        h.append(lead * fs[tau + (j,)].det_cbar * sgn)
    cbar_hat = Matrix.from_columns([d.cbar[i - 1] for i in tau_hat], rows=dims.k)
    residual = cbar_hat.mat_vec(tuple(h))
    if any(x != 0 for x in residual):
        raise LinalgError("kernel certificate failed its exact check")
    return tuple(h)


@dataclass
class DoubleCoverReport:
    kind: str
    index: SubsetIndex
    z: tuple[int, ...]
    sample_count: int
    boundary_samples: int
    relative_points: tuple[tuple[Fraction, ...], ...]
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
    with coefficients c / q on the columns js is x = part(M (z -+ c / q))
    (minus for tau), so its cell coordinates are the block rows of
    S_sigma^-1 M (q (z - z_f) -+ c) over q.  With S_sigma^-1 = X / e and
    M = A / d, each member keeps those rows of X A as integer rows on
    v = (c, q) over e d, tested by cell_position.
    """
    r, n = fs.dims.r, fs.dims.n
    index = normalize_subset(index, n)
    z = tuple(int(x) for x in z)
    if len(index) == r - 1:
        kind, js, sign = TAU, complement(index, n), -1
    elif len(index) == r + 1:
        kind, js, sign = GAMMA, index, 1
    else:
        raise DimensionError(f"index size {len(index)} is neither r-1={r - 1} nor r+1={r + 1}")
    d, a = fs.m_rows
    # The zonotope's columns are sign * part(M e_j): A's part rows over d.
    part = a[:r] if kind == GAMMA else a[r:]
    zono_rows = [[sign * row[j - 1] for j in js] for row in part]
    coll = facet_collection(fs, kind, z, index)
    up = set(up_down_partition(fs, w, coll).up)
    live = coll.live_members()
    cells = []
    for facet in live:
        e, x = fs[facet.sigma].s_inv_rows
        block = facet.sigma if kind == GAMMA else complement(facet.sigma, n)
        lam = lambda_vector(fs, w, facet.sigma)
        shift = [zi - fi for zi, fi in zip(z, facet.z)]
        rows = [
            [sign * g[j - 1] for j in js] + [sum(map(mul, g, shift))]
            for g in int_mat_mul([x[i - 1] for i in block], a)
        ]
        cells.append((rows, e * d, tuple(lam[i - 1] > 0 for i in block)))

    boundary_samples = 0
    relative_points = []
    failures = []
    for idx in range(sample_count):
        coeffs = grid_vector(f"cover:{seed}:{idx}:0", len(js), 1, SAMPLE_DENOMINATOR)
        q, c = clear_denominator(coeffs)
        v = c + [q]
        positions = [
            cell_position([sum(map(mul, row, v)) for row in rows], one * q, rules)
            for rows, one, rules in cells
        ]
        boundary_samples += any(pos is not None and pos[1] for pos in positions)
        hits = [facet in up for facet, pos in zip(live, positions) if pos is not None and pos[0]]
        up_count = sum(hits)
        down_count = len(hits) - up_count
        den = d * q
        q_rel = tuple(Fraction(sum(map(mul, row, c)), den) for row in zono_rows)
        relative_points.append(q_rel)
        if (up_count, down_count) != (1, 1):
            failures.append((q_rel, up_count, down_count))
    return DoubleCoverReport(
        kind=kind,
        index=index,
        z=z,
        sample_count=sample_count,
        boundary_samples=boundary_samples,
        relative_points=tuple(relative_points),
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
    scans the segment's box in each frame's reduced basis (the one tiles_at
    scans) against the cell widened by an integer bound on that.  For each
    translate it yields, every coordinate hitting 0 or 1 gives a rational
    crossing time; the hit is kept when the crossing point lies in the
    closed facet, and flagged when it touches the facet's own boundary.

    All of it runs on integers: y0 = y / one, lambda = l / d and reach =
    rn / rd, and the crossing of coordinate i at target T has
    t = a*d / (one*|l_i|) with a = sign(l_i)*(T*one - y_i).  So 0 < t < reach
    is 0 < a with a*d*rd < one*|l_i|*rn, and the other coordinates there are
    (y_m*|l_i| + a*l_m) / (one*|l_i|).  A Fraction t is built only for the
    crossings kept.
    """
    n = engine.fs.dims.n
    reach_num, reach_den = reach.numerator, reach.denominator
    q, p_int = clear_denominator(start)
    end = vec_add(start, vec_scale(reach, engine.w.w))
    ends = [engine.lattice_coordinates(q, p_int), engine.lattice_coordinates(*clear_denominator(end))]
    events: dict[Fraction, list[tuple[FacetId, bool]]] = {}
    for frame in engine.frames:
        lam_den, lam = clear_denominator(frame.lam)
        u, h, one = frame.exact_query(q, p_int)
        widen = ceil(reach * max(abs(x) for x in frame.lam)) * one
        # The translates met anywhere along the segment: the box bounds are
        # monotone in M^-1 p, so the union of the end boxes covers the segment.
        (lo0, hi0), (lo1, hi1) = (frame.box(num, den) for num, den in ends)
        ranges = list(zip(map(min, lo0, lo1), map(max, hi0, hi1)))
        other_rules = [frame.rules[:i] + frame.rules[i + 1 :] for i in range(n)]
        # Per coordinate i: |l_i|, the corner one*|l_i| of the cell the other
        # coordinates are tested in, and the bound one*|l_i|*rn on a*d*rd.
        abs_lam = [abs(x) for x in lam]
        corner = [one * x for x in abs_lam]
        limit = [reach_num * x for x in corner]
        scale = lam_den * reach_den
        wide_u = [x + widen for x in u]
        for x, _, _ in cell_hits(wide_u, h, one + 2 * widen, frame.rules, ranges):
            y = [u[i] - sum(hij * xj for hij, xj in zip(h[i], x)) for i in range(n)]
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
    integer s_inv_rows.  Meeting two non-parallel hyperplanes at one point
    means the ray passes through the codimension-2 skeleton, which the
    pairing statement excludes.
    """
    crossings = []
    for t in sorted(events):
        items = events[t]
        if any(flag for _, flag in items):
            return True, []
        normals = {
            normalize_integer_direction(engine.fs[f.sigma].s_inv_rows[1][f.j - 1])
            for f, _ in items
        }
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

    At every crossing time the signed cover count is evaluated just before
    and just after (at half the gap to the nearest other crossing) and the
    wsgn*tsgn contributions of the facets met there are summed.  A start on a
    tile boundary is first nudged along w; rays whose crossing points hit
    facet boundaries or several hyperplanes at once are resampled nearby,
    since the pairing statement excludes those configurations.  The engine
    is built once per (fragment set, w) and may serve many rays.
    """
    w = engine.w
    reach = rat(reach)
    if reach <= 0:
        raise DimensionError("reach must be positive")
    p0 = vector(p)
    for attempt in range(CROSSING_RESAMPLES + 1):
        if attempt == 0:
            start = p0
        else:
            jitter = grid_vector(
                f"crossing:{seed}:{attempt}", len(p0), -(2**31 - 1), 2**31, 2**43
            )
            start = vec_add(p0, jitter)
        _, boundary = engine.tiles_at(start)
        events = _collect_events(engine, start, reach)
        if boundary:
            ts = sorted(events)
            delta0 = ts[0] / 2 if ts else reach / 2
            start = vec_add(start, vec_scale(delta0, w.w))
            _, boundary = engine.tiles_at(start)
            if boundary:
                continue
            events = _collect_events(engine, start, reach)
        degenerate, crossings = _classify_events(engine, events)
        if degenerate:
            continue
        t_evals = [] if crossings else [reach / 4, 3 * reach / 4]
        ts = [Fraction(0)] + [c.t for c in crossings] + [reach]
        for prev_t, t, next_t in zip(ts, ts[1:], ts[2:]):
            delta = min(t - prev_t, next_t - t) / 2
            t_evals += [t - delta, t + delta]
        f_values = [
            engine.coverage(vec_add(start, vec_scale(t, w.w))).f_value for t in t_evals
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
