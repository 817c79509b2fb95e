"""Correctness checks: failure classification, report counters and an
independent tile-location oracle."""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import ceil, floor, lcm, prod

# Discrepancies the seed commit already reports.  Each is matched on the
# report's own signature, so any other violation on the same command still
# counts as a failure.
KNOWN = {
    # slice: the radius-6 window of DEFAULT_SLICE_WINDOW_RADIUS finds fewer
    # translate classes than |det Cbar| (and the balance is off) when the
    # slice lattice period is large.
    "slice-window": lambda out: (
        "coverage_pass=true" in out
        and all(
            int(found) < int(expected)
            for found, expected in re.findall(r"offset_classes=(\d+) expected_classes=(\d+) FAIL", out)
        )
        and " FAIL" in out
    ),
    # double-cover on a gamma collection with a degenerate fragment fails on
    # every sample; whether the pairing statement covers it is open.
    "cover-degenerate-gamma": lambda out: re.search(r"samples=(\d+) redraws=\d+ failures=\1 pass=false", out)
    is not None,
}


def outcome(code: int | None, out: str, known: str | None) -> str:
    """'ok', 'known' (a recorded discrepancy) or 'failed'.

    An invocation fails when it raises (code None), exits 2, or reports a
    violation (exit 1 or pass=false) that is not a recorded discrepancy.
    """
    violation = code != 0 or "pass=false" in out
    if not violation:
        return "ok"
    if code == 1 and known is not None and KNOWN[known](out):
        return "known"
    return "failed"


def report_counts(command: str, out: str) -> dict[str, int]:
    """Machine-independent counters parsed from one command's report."""
    if command == "verify":
        return {
            "verify_samples": int(re.search(r"^samples=(\d+)", out, re.M).group(1)),
            "tiling.boundary_redraws": int(re.search(r"boundary_redraws=(\d+)", out).group(1)),
        }
    if command == "crossing":
        return {
            "crossing_rays": int(re.search(r"^rays=(\d+)", out, re.M).group(1)),
            "facets.crossings": sum(map(int, re.findall(r" crossings=(\d+)", out))),
            "facets.resamples": sum(map(int, re.findall(r" resamples=(\d+)", out))),
        }
    if command == "double-cover":
        m = re.search(r" samples=(\d+) redraws=(\d+)", out)
        return {"cover_samples": int(m.group(1)), "facets.cover_redraws": int(m.group(2))}
    return {}


def _inverse(rows):
    """Gauss-Jordan inverse over Fractions, written apart from fragtile.linalg."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [x / head for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _apply(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


class Oracle:
    """Tile location by a box scan widened by ``margin`` on every side,
    with its own inverses, bounds and half-open test."""

    def __init__(self, fs, w, margin: int = 1):
        self.m = [list(fs.decomposition.m.row(i)) for i in range(fs.dims.n)]
        self.m_inv = _inverse(self.m)
        self.margin = margin
        self.frames = []
        for frag in fs:
            if frag.sign_class == "degenerate":
                continue
            s = [list(frag.s.row(i)) for i in range(fs.dims.n)]
            s_inv = _inverse(s)
            rules = [x > 0 for x in _apply(s_inv, w.w)]
            g = _mul(self.m_inv, s)
            spans = [
                (sum((x for x in row if x > 0), Fraction(0)), sum((x for x in row if x < 0), Fraction(0)))
                for row in g
            ]
            self.frames.append((frag.sigma, s_inv, _mul(s_inv, self.m), rules, spans))

    def _boxes(self, p):
        a = _apply(self.m_inv, p)
        for sigma, s_inv, h, rules, spans in self.frames:
            lo = [ceil(ai - hi_) - self.margin for ai, (hi_, _) in zip(a, spans)]
            hi = [floor(ai - lo_) + self.margin for ai, (_, lo_) in zip(a, spans)]
            yield sigma, s_inv, h, rules, lo, hi

    def volume(self, p) -> int:
        return sum(prod(h - l + 1 for l, h in zip(lo, hi)) for *_, lo, hi in self._boxes(p))

    def tiles(self, p) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Sorted (sigma, z) of every tile whose half-open cell holds p."""
        found = []
        for sigma, s_inv, h, rules, lo, hi in self._boxes(p):
            y0 = _apply(s_inv, p)
            d = lcm(*(x.denominator for x in y0), *(x.denominator for row in h for x in row))
            y_int = [int(x * d) for x in y0]
            h_int = [[int(x * d) for x in row] for row in h]
            for z in product(*(range(l, u + 1) for l, u in zip(lo, hi))):
                for yi, row, include_zero in zip(y_int, h_int, rules):
                    num = yi - sum(c * zj for c, zj in zip(row, z))
                    if not (0 <= num < d if include_zero else 0 < num <= d):
                        break
                else:
                    found.append((sigma, z))
        return sorted(found)
