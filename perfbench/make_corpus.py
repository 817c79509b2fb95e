"""Write the benchmark's matrix corpus and its record, ``corpus.json``.

Run from the repository root:  python3 perfbench/make_corpus.py

Hand matrices come from the test suite and from the known discrepancies.
Seeded matrices follow one rule: entries of matrix i for (n, r) are drawn by
``random.Random(f"corpus:{n}:{r}:{i}").randint(lo, hi)`` row by row;
rational ones then draw a denominator from {1, 2, 3, 4} for every entry.
Singular draws are recorded and get no file; nothing else is filtered.

For each matrix the record holds det M, the fragment sign classes, whether
the slice precondition holds, and candidates per tile hit of
``TilingEngine.tiles_at`` at the verify sample points of seed 0.  A matrix
whose candidate box is too large to scan at several points keeps its exact
box volume and is marked as not scanned, with the measured time of one
point where that point holds at most ONE_POINT_LIMIT candidates.
"""
from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fragtile import (  # noqa: E402
    Dimensions,
    Matrix,
    TilingEngine,
    choose_generic_direction,
    decompose,
    det,
    fragment_set,
)
from fragtile.cli import format_matrix  # noqa: E402
from fragtile.slices import slice_precondition  # noqa: E402

from tracer import candidate_count  # noqa: E402
from workloads import verify_points  # noqa: E402

HAND = {
    "K": (1, [[1, 2], [-1, 3]], "tests/conftest.py K_ROWS"),
    "L": (1, [[1, 2], [1, 5]], "tests/conftest.py L_ROWS"),
    "M": (2, [[3, 2, -4, 1], [1, 0, 2, 2], [2, 0, -1, 1], [0, 1, -2, 3]], "tests/conftest.py M_ROWS (worked 4x4)"),
    "slice13": (1, [[-1, 1, 0], [2, 3, -3], [0, 3, 2]], "known slice discrepancy"),
    "cover13": (1, [[3, -1, 1, 0], [1, 2, 2, -1], [0, -3, -3, 2], [3, -2, 0, 1]], "known double-cover discrepancy"),
}

# (n, r, count, rational): seeded integer matrices with entries in [-3, 3].
SEEDED = [
    (3, 1, 3, False), (3, 2, 3, False),
    (4, 1, 3, False), (4, 2, 3, False), (4, 3, 3, False),
    (5, 2, 12, False), (5, 3, 6, False),
    (6, 2, 4, False), (6, 3, 8, False), (6, 4, 4, False),
    (3, 2, 2, True), (4, 2, 2, True),
]
ENTRY_RANGE = (-3, 3)
DENOMINATORS = (1, 2, 3, 4)

SCAN_LIMIT = 400_000   # candidates per point above which no full scan is run
ONE_POINT_LIMIT = 20_000_000   # ... and above which not even one point is scanned
SCAN_POINTS = 8
SCAN_SECONDS = 4.0


def seeded_rows(n: int, r: int, i: int, rational: bool):
    rng = random.Random(f"corpus:{n}:{r}:{i}")
    rows = [[rng.randint(*ENTRY_RANGE) for _ in range(n)] for _ in range(n)]
    if rational:
        rows = [[Fraction(x, rng.choice(DENOMINATORS)) for x in row] for row in rows]
    return rows


def measure(fs):
    """Candidates per hit over the first verify sample points of seed 0."""
    w = choose_generic_direction(fs, 0)
    engine = TilingEngine(fs, w)
    points = verify_points(fs.decomposition.m, 0, SCAN_POINTS)
    volumes = [candidate_count(engine, p) for p in points]
    per_point = sum(volumes) / len(volumes)
    if per_point > SCAN_LIMIT:
        entry = {"candidates_per_point": round(per_point), "scanned": False}
        if volumes[0] <= ONE_POINT_LIMIT:
            start = time.perf_counter()
            found, _ = engine.tiles_at(points[0])
            entry["one_point_s"] = round(time.perf_counter() - start, 2)
            entry["one_point_candidates_per_hit"] = round(volumes[0] / len(found), 1)
        return entry
    candidates = hits = 0
    start = time.perf_counter()
    scanned = 0
    for p, volume in zip(points, volumes):
        found, _ = engine.tiles_at(p)
        candidates += volume
        hits += len(found)
        scanned += 1
        if time.perf_counter() - start > SCAN_SECONDS:
            break
    return {
        "candidates_per_point": round(per_point),
        "scanned": True,
        "points": scanned,
        "candidates_per_hit": round(candidates / hits, 1),
        "s_per_point": round((time.perf_counter() - start) / scanned, 4),
    }


def record(name, r, rows, source, out_dir):
    n = len(rows)
    dims = Dimensions(r, n - r)
    m = Matrix.from_rows(rows)
    entry = {"name": name, "n": n, "r": r, "k": n - r, "source": source}
    d = det(m)
    if d == 0:
        entry["status"] = "singular: no tiling, no file"
        return entry
    fs = fragment_set(decompose(m, dims))
    (out_dir / f"{name}.txt").write_text(f"# {source}\n" + format_matrix(dims, m))
    entry.update(
        file=f"corpus/{name}.txt",
        det=str(d),
        positive=len(fs.by_class("positive")),
        negative=len(fs.by_class("negative")),
        degenerate=len(fs.by_class("degenerate")),
        slice_precondition=slice_precondition(fs.decomposition),
    )
    entry.update(measure(fs))
    return entry


def main() -> None:
    out_dir = HERE / "corpus"
    out_dir.mkdir(exist_ok=True)
    entries = []
    for name, (r, rows, source) in HAND.items():
        entries.append(record(name, r, rows, source, out_dir))
        print(entries[-1], flush=True)
    for n, r, count, rational in SEEDED:
        for i in range(count):
            prefix = "q" if rational else "z"
            name = f"{prefix}{n}r{r}-{i}"
            rule = f"corpus:{n}:{r}:{i} entries {ENTRY_RANGE}" + (
                f" over denominators {DENOMINATORS}" if rational else ""
            )
            entries.append(record(name, r, seeded_rows(n, r, i, rational), rule, out_dir))
            print(entries[-1], flush=True)
    rule = {
        "generator": "random.Random(f'corpus:{n}:{r}:{i}').randint(lo, hi), row by row",
        "entry_range": list(ENTRY_RANGE),
        "denominators": list(DENOMINATORS),
        "seeded": [{"n": n, "r": r, "count": c, "rational": q} for n, r, c, q in SEEDED],
        "candidates_per_hit": f"seed-0 direction, first {SCAN_POINTS} verify sample points of seed 0; "
        f"no scan above {SCAN_LIMIT} candidates per point",
    }
    (HERE / "corpus.json").write_text(
        json.dumps({"rule": rule, "matrices": entries}, indent=1) + "\n"
    )


if __name__ == "__main__":
    main()
