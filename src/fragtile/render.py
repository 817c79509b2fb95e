"""Deterministic SVG rendering of 2-D tilings and 2-D slices.

All geometry arrives exact; decimals appear only in the emitted document
(6 fractional digits, round half to even).  A tile translate is drawn when its
open parallelogram meets the open window: its offset lies strictly inside the
four separating-axis strips, which tiling.cell_hits decides on integers, so
the polygon census is reproducible.  Elements are grouped per fragment in
lexicographic subset order, each group with its own fill shade, offsets
ordered lexicographically.  Both kinds of source hand over integer rows
over one denominator: the shapes (S_sigma for a tiling, C_sigma for a slice)
and the lattice basis (M or B), whose inverse, formed once, bounds the
translate boxes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from operator import mul

from .fragments import DEGENERATE, FragmentSet, SubsetIndex, fragment_rows
from .linalg import DimensionError, clear_rows, rat
from .slices import SliceLayout
from .tiling import cell_hits, cube_extents

# Pixels per drawing unit, fill color per sign class, fill opacity.
SCALE = Fraction(40)
PALETTE = {
    "positive": "#d95f2b",
    "negative": "#3b6fb6",
    "degenerate": "#bbbbbb",
}
OPACITY = Fraction(1, 2)


@dataclass(frozen=True)
class RenderConfig:
    """Window (x0, x1, y0, y1) in drawing coordinates."""

    window: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        x0, x1, y0, y1 = (rat(v) for v in self.window)
        if not (x0 < x1 and y0 < y1):
            raise DimensionError("window must be a nonempty box")
        object.__setattr__(self, "window", (x0, x1, y0, y1))


def dec6(q: Fraction) -> str:
    """Exact decimal rendering with 6 fractional digits (half to even)."""
    n = round(q * 10**6)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 10**6}.{n % 10**6:06d}"


def _shade(color: str, position: int, count: int) -> str:
    """Blend a base color toward white; distinct shade per position."""
    r = int(color[1:3], 16)
    g = int(color[3:5], 16)
    b = int(color[5:7], 16)
    mix = Fraction(position, max(count + 1, 2))
    channel = lambda c: int(c + (255 - c) * mix)
    return f"#{channel(r):02x}{channel(g):02x}{channel(b):02x}"


def _corners(offset, g1, g2):
    o = offset
    return (
        (o[0], o[1]),
        (o[0] + g1[0], o[1] + g1[1]),
        (o[0] + g1[0] + g2[0], o[1] + g1[1] + g2[1]),
        (o[0] + g2[0], o[1] + g2[1]),
    )


def _family_polygons(den: int, shape, anchors, basis, basis_inv_rows, cfg: RenderConfig):
    """All translates anchor + (basis / den) z whose open parallelogram, the
    columns of shape / den, meets the open window; shape and basis are
    integer rows, and basis_inv_rows is the basis inverse as (e, X).

    W - P, the offsets where the parallelogram P meets the window W, is a
    zonotope bounded by four strips (separating axes): on the axes (1,0),
    (0,1) and the two edge normals a, a.offset must lie strictly inside
    (min a.W - max a.P, max a.W - min a.P).  Each strip is scaled to [0, 1]
    and the four rows are cleared once per anchor.  The axis strips put the
    offset in lo + diag(width) [0, 1]^2, so with basis^-1 = X / e cell_hits
    scans the lattice box X (lo - anchor) / e plus the cube_extents of
    X diag(width) / e, and draws a translate when it touches no strip's edge.
    """
    x0, x1, y0, y1 = cfg.window
    g1, g2 = ([Fraction(x, den) for x in col] for col in zip(*shape))

    def along(a, points):
        return [a[0] * px + a[1] * py for px, py in points]

    rect = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    cell = _corners((0, 0), g1, g2)
    columns = [[Fraction(x, den) for x in col] for col in zip(*basis)]
    strips = []
    for a in ((1, 0), (0, 1), (-g1[1], g1[0]), (-g2[1], g2[0])):
        low = min(along(a, rect)) - max(along(a, cell))
        width = max(along(a, rect)) - min(along(a, cell)) - low
        strips.append((a, low, width, [-x / width for x in along(a, columns)]))
    (_, low_x, width_x, _), (_, low_y, width_y, _) = strips[:2]
    e, basis_inv = basis_inv_rows
    extents = cube_extents([[a * width_x, b * width_y] for a, b in basis_inv])
    polygons = []
    for ax, ay in anchors:
        corner = (a * (low_x - ax) + b * (low_y - ay) for a, b in basis_inv)
        box = [(ceil((c + lo) / e), floor((c + hi) / e)) for c, (lo, hi) in zip(corner, extents)]
        rows = [[(a[0] * ax + a[1] * ay - low) / width, *h] for a, low, width, h in strips]
        one, cleared = clear_rows(rows)
        u, h = [row[0] for row in cleared], [row[1:] for row in cleared]
        for z, _, touching in cell_hits(u, h, one, (True,) * 4, box):
            if not touching:
                offset = [o + sum(map(mul, row, z)) for o, row in zip((ax, ay), zip(*columns))]
                polygons.append(_corners(offset, g1, g2))
    polygons.sort()
    return polygons


def _svg_document(groups, cfg: RenderConfig) -> str:
    x0, x1, y0, y1 = cfg.window
    width = (x1 - x0) * SCALE
    height = (y1 - y0) * SCALE

    def to_px(pt):
        return (pt[0] - x0) * SCALE, (y1 - pt[1]) * SCALE

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{dec6(width)}" height="{dec6(height)}" '
        f'viewBox="0 0 {dec6(width)} {dec6(height)}">',
        f'<rect width="{dec6(width)}" height="{dec6(height)}" fill="#ffffff"/>',
    ]
    for group_id, fill, polygons in groups:
        lines.append(
            f'<g id="{group_id}" fill="{fill}" fill-opacity="{dec6(OPACITY)}" '
            f'stroke="#222222" stroke-width="0.800000">'
        )
        for corners in polygons:
            pts = " ".join(
                f"{dec6(px)},{dec6(py)}" for px, py in (to_px(c) for c in corners)
            )
            lines.append(f'<polygon points="{pts}"/>')
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _group_id(sigma: SubsetIndex) -> str:
    return "sigma-" + "-".join(str(i) for i in sigma)


def render_svg(source, cfg: RenderConfig) -> str:
    """SVG document for a full 2-D tiling (FragmentSet with r+k = 2) or a 2-D
    slice layout (SliceLayout with r = 2)."""
    if isinstance(source, FragmentSet):
        if source.dims.n != 2:
            raise DimensionError("full tiling rendering needs r+k = 2")
        zero = (Fraction(0), Fraction(0))
        families = [
            (frag.sigma, frag.sign_class, fragment_rows(source.decomposition, frag.sigma), (zero,))
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

    class_totals: dict[str, int] = {}
    for _, sign_class, _, _ in families:
        class_totals[sign_class] = class_totals.get(sign_class, 0) + 1
    class_seen: dict[str, int] = {}
    groups = []
    for sigma, sign_class, shape, anchors in families:
        position = class_seen.get(sign_class, 0)
        class_seen[sign_class] = position + 1
        fill = _shade(PALETTE[sign_class], position, class_totals[sign_class])
        polygons = _family_polygons(den, shape, anchors, basis, basis_inv_rows, cfg)
        groups.append((_group_id(sigma), fill, polygons))
    return _svg_document(groups, cfg)
