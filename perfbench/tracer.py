"""Span tracing of fragtile's layers, installed from outside the package.

Each wrapped public function records a span (name, start, end, parent span,
command id) plus a few counters measured at the call.  ``cli``, ``facets``
and ``slices`` bind functions such as ``TilingEngine`` or ``crossing_check``
by name at import, so every wrapper is installed at every module-level
binding site inside the package, and methods are patched on their class.
"""
from __future__ import annotations

import sys
import time
from math import prod

from fragtile import cli, facets, fragments, linalg, render, slices, tiling

# (span name, owner, attribute): owner is a module (function bound by name)
# or a class (method).  The span name's prefix is the layer.
TARGETS = [
    ("cli.parse", cli, "parse_matrix"),
    ("fragments.decompose", fragments, "decompose"),
    ("fragments.build", fragments, "fragment_set"),
    ("linalg.det", linalg, "det"),
    ("linalg.solve", linalg, "solve"),
    ("linalg.inverse", linalg, "inverse"),
    ("linalg.mat_vec", linalg.Matrix, "mat_vec"),
    ("tiling.certify", tiling, "certify_direction"),
    ("tiling.choose_direction", tiling, "choose_generic_direction"),
    ("tiling.engine_build", tiling.TilingEngine, "__init__"),
    ("tiling.tiles_at", tiling.TilingEngine, "tiles_at"),
    ("tiling.verify", tiling, "verify_constancy"),
    ("facets.collection", facets, "facet_collection"),
    ("facets.partition", facets, "up_down_partition"),
    ("facets.double_cover", facets, "double_cover_check"),
    ("facets.crossing", facets, "crossing_check"),
    ("slices.reduce", slices, "unimodular_reduce"),
    ("slices.layout", slices, "slice_layout"),
    ("render.svg", render, "render_svg"),
]

ORIGINAL = {name: getattr(owner, attr) for name, owner, attr in TARGETS}
_mat_vec = ORIGINAL["linalg.mat_vec"]

# Span record fields.
SID, PARENT, CMD, NAME, START, END, COVER, EXTRA = range(8)


def candidate_count(engine, p) -> int:
    """Translates ``tiles_at`` scans for p: the volume of
    ``candidate_box`` summed over the engine's frames."""
    a = _mat_vec(engine.m_inv, linalg.vector(p))
    total = 0
    for frame in engine.frames:
        lo, hi = engine.candidate_box(frame, a)
        total += prod(max(0, h - l + 1) for l, h in zip(lo, hi))
    return total


def _tiles_at_extra(args, result):
    engine, p = args[0], args[1]
    found, boundary = result
    return {"candidates": candidate_count(engine, p), "hits": len(found), "boundary": boundary}


def _fragments_extra(args, fs):
    degenerate = sum(1 for f in fs if f.sign_class == fragments.DEGENERATE)
    return {"fragments": len(fs.fragments), "degenerate": degenerate}


def _layout_extra(args, layout):
    fs, window = args[0], args[2]
    live = sum(1 for f in fs if f.sign_class != fragments.DEGENERATE)
    return {
        "translates": prod(hi - lo + 1 for lo, hi in window) * live,
        "families": sum(len(c.offsets) for c in layout.classes),
    }


def _svg_extra(args, document):
    return {"polygons": document.count("<polygon "), "bytes": len(document.encode())}


EXTRA_OF = {
    "tiling.tiles_at": _tiles_at_extra,
    "fragments.build": _fragments_extra,
    "slices.layout": _layout_extra,
    "render.svg": _svg_extra,
}


class Tracer:
    """Collects spans in memory while installed; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, func):
        spans = self.spans
        stack = self._stack
        extra_of = EXTRA_OF.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][SID] if stack else -1
            span = [len(spans), parent, self.command, name, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = span[COVER] = clock()
                stack.pop()
            if extra_of is not None:
                span[EXTRA] = extra_of(args, result)
                span[COVER] = clock()
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper

    def span(self, name, func, *args):
        """Call func(*args) inside a root-level span of the given name."""
        return self._wrap(name, func)(*args)

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "fragtile" or key.startswith("fragtile.")]
        for name, owner, attr in TARGETS:
            original = ORIGINAL[name]
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def self_times(spans) -> list[float]:
    """Span duration minus the part covered by its child spans, including
    the counter bookkeeping each child does after its own end."""
    own = [s[END] - s[START] for s in spans]
    base = spans[0][SID] if spans else 0
    for s in spans:
        if s[PARENT] >= base:
            own[s[PARENT] - base] -= s[COVER] - s[START]
    return own
