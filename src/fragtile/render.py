"""Deterministic SVG rendering of 2-D tilings and 2-D slices.

All geometry is integer: render_svg picks one denominator q, the lcm of the
source's denominator and the window's, scales the source's rows and anchors
to it and clears the window over it, and every coordinate from there on is
an integer numerator over q.  Decimals appear only in the emitted document,
from the integer dec6 (6 fractional digits, round half to even).  A tile translate
is drawn when its open parallelogram meets the open window: its offset lies
strictly inside the four separating-axis strips, on integer normals, as
cell_hits' residuals show, so the polygon census is reproducible.  Elements
are grouped per fragment in lexicographic subset order, each group with its
own fill shade, polygons in lexicographic order of their integer corners.  Both
kinds of source hand over integers over one denominator: the shapes
(S_sigma for a tiling, C_sigma for a slice), the anchors (the origin, or a
slice's class offsets) and the lattice basis (M or B), whose inverse,
formed once, bounds the translate boxes.
"""
from __future__ import annotations

import sys
from math import lcm
from operator import mul

from .fragments import DEGENERATE, FragmentSet, SubsetIndex, fragment_rows
from .linalg import DimensionError, rat
from .slices import SliceLayout
from .tiling import cell_hits, cube_extents

# Pixels per drawing unit, fill color per sign class, fill opacity.
SCALE = 40
PALETTE = {
    "positive": "#d95f2b",
    "negative": "#3b6fb6",
    "degenerate": "#bbbbbb",
}
OPACITY = "0.500000"


def dec6(num: int, den: int) -> str:
    """num / den, den > 0, as an exact decimal with 6 fractional digits,
    rounded half to even."""
    n, rem = divmod(num * 10**6, den)
    if 2 * rem > den or (2 * rem == den and n % 2):
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 10**6}.{n % 10**6:06d}"


def _shade(color: str, position: int, count: int) -> str:
    """Blend a base color toward white; distinct shade per position."""
    r = int(color[1:3], 16)
    g = int(color[3:5], 16)
    b = int(color[5:7], 16)
    channel = lambda c: c + (255 - c) * position // max(count + 1, 2)
    return f"#{channel(r):02x}{channel(g):02x}{channel(b):02x}"


def _family_polygons(q: int, shape, anchors, basis, basis_inv_rows, window):
    """All translates anchor + basis z whose open parallelogram, the columns
    of shape, meets the open window; every coordinate is an integer over q,
    and basis_inv_rows is (e, X) with (basis / q)^-1 = X / e, e > 0.

    W - P, the offsets where the parallelogram P meets the window W, is a
    zonotope bounded by four strips (separating axes): on the axes (1,0),
    (0,1) and the two integer edge normals a = (-g_y, g_x), a.offset must
    lie strictly inside (min a.W - max a.P, max a.W - min a.P).  Each strip
    is scaled to [0, one], one the lcm of the four widths.  The axis strips
    put the offset in lo + diag(width) [0, 1]^2, so with basis^-1 = X / (e q)
    cell_hits scans the lattice box X (lo - anchor) / (e q) plus the
    cube_extents of X diag(width) / (e q), and draws a translate when its
    residual is strictly inside all four strips.  Returns the corners, sorted.
    """
    x0, x1, y0, y1 = window
    g1, g2 = zip(*shape)
    rect = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    cell = ((0, 0), g1, (g1[0] + g2[0], g1[1] + g2[1]), g2)
    strips = []
    for a, b in ((1, 0), (0, 1), (-g1[1], g1[0]), (-g2[1], g2[0])):
        on_rect = [a * x + b * y for x, y in rect]
        on_cell = [a * x + b * y for x, y in cell]
        low = min(on_rect) - max(on_cell)
        strips.append((a, b, low, max(on_rect) - min(on_cell) - low))
    one = lcm(*(width for *_, width in strips))
    (_, _, low_x, width_x), (_, _, low_y, width_y) = strips[:2]
    strips = [(a, b, low, one // width) for a, b, low, width in strips]
    h = [[-(a * x + b * y) * f for x, y in zip(*basis)] for a, b, _, f in strips]
    e, basis_inv = basis_inv_rows
    eq = e * q
    extents = cube_extents([[a * width_x, b * width_y] for a, b in basis_inv])
    polygons = []
    for ax, ay in anchors:
        corner = (a * (low_x - ax) + b * (low_y - ay) for a, b in basis_inv)
        box = [(-((-c - lo) // eq), (c + hi) // eq) for c, (lo, hi) in zip(corner, extents)]
        # cell_hits scans the box with range, which takes machine-size bounds.
        if any(lo < -sys.maxsize or hi >= sys.maxsize for lo, hi in box):
            raise DimensionError("window too large: its translate box does not fit a machine index")
        u = [(a * ax + b * ay - low) * f for a, b, low, f in strips]
        for z, v in cell_hits(u, h, one, box):
            if 0 < min(v) and max(v) < one:
                x, y = (o + sum(map(mul, row, z)) for o, row in zip((ax, ay), basis))
                polygons.append(tuple((x + cx, y + cy) for cx, cy in cell))
    polygons.sort()
    return polygons


def _svg_document(groups, q: int, window) -> str:
    """The document for window (x0, x1, y0, y1) and corners (X, Y), all
    integers over q: a corner's pixel is (SCALE (X - x0) / q, SCALE (y1 - Y) / q)."""
    x0, x1, y0, y1 = window
    width = dec6(SCALE * (x1 - x0), q)
    height = dec6(SCALE * (y1 - y0), q)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for group_id, fill, polygons in groups:
        lines.append(
            f'<g id="{group_id}" fill="{fill}" fill-opacity="{OPACITY}" '
            f'stroke="#222222" stroke-width="0.800000">'
        )
        for corners in polygons:
            pts = " ".join(
                f"{dec6(SCALE * (x - x0), q)},{dec6(SCALE * (y1 - y), q)}" for x, y in corners
            )
            lines.append(f'<polygon points="{pts}"/>')
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _group_id(sigma: SubsetIndex) -> str:
    return "sigma-" + "-".join(str(i) for i in sigma)


def render_svg(source, window) -> str:
    """SVG document for a full 2-D tiling (FragmentSet with r+k = 2) or a 2-D
    slice layout (SliceLayout with r = 2), in the window (x0, x1, y0, y1) of
    drawing coordinates."""
    if len(window) != 4:
        raise DimensionError(f"window has {len(window)} bounds, expected 4")
    window = x0, x1, y0, y1 = tuple(map(rat, window))
    if not (x0 < x1 and y0 < y1):
        raise DimensionError("window must be a nonempty box")
    if isinstance(source, FragmentSet):
        if source.dims.n != 2:
            raise DimensionError("full tiling rendering needs r+k = 2")
        families = [
            (frag.sigma, frag.sign_class, fragment_rows(source.decomposition, frag.sigma), ((0, 0),))
            for frag in source
            if frag.sign_class != DEGENERATE
        ]
        (den, basis), basis_inv_rows = source.m_rows, source.m_inv_rows
    elif isinstance(source, SliceLayout):
        if len(source.b_rows[1]) != 2:
            raise DimensionError("slice rendering needs r = 2")
        families = [
            (cls.sigma, cls.sign_class, cls.shape, cls.offsets)
            for cls in source.classes
            if cls.sign_class != DEGENERATE and cls.offsets
        ]
        (den, basis), basis_inv_rows = source.b_rows, source.b_inv_rows
    else:
        raise DimensionError(f"cannot render {type(source).__name__}")

    # One denominator q for the rows, the anchors and the window; from here
    # on every coordinate is an integer over q.
    q = lcm(den, *(v.denominator for v in window))
    scale = q // den
    basis = [[x * scale for x in row] for row in basis]
    window = tuple(v.numerator * (q // v.denominator) for v in window)

    class_totals: dict[str, int] = {}
    for _, sign_class, _, _ in families:
        class_totals[sign_class] = class_totals.get(sign_class, 0) + 1
    class_seen: dict[str, int] = {}
    groups = []
    for sigma, sign_class, shape, anchors in families:
        position = class_seen.get(sign_class, 0)
        class_seen[sign_class] = position + 1
        fill = _shade(PALETTE[sign_class], position, class_totals[sign_class])
        shape = [[x * scale for x in row] for row in shape]
        anchors = [tuple(x * scale for x in anchor) for anchor in anchors]
        polygons = _family_polygons(q, shape, anchors, basis, basis_inv_rows, window)
        groups.append((_group_id(sigma), fill, polygons))
    return _svg_document(groups, q, window)
