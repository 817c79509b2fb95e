"""Workload definitions: which commands run on which corpus matrices.

Every ``--seed`` and ``--point`` passed to the CLI is drawn from the workload
seed; the matrices are the committed files under ``corpus/`` (see
``corpus.json`` for how they were generated and what each one costs).  A
workload's command list is one *pass*; a run repeats the same pass.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from fragtile.cli import parse_matrix
from fragtile.tiling import SAMPLE_DENOMINATOR

CORPUS = Path(__file__).resolve().parent / "corpus"

POINT_DENOMINATOR = 2**16


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    matrix: str
    # Key into checks.KNOWN when the seed reports a recorded discrepancy here.
    known: str | None = None

    @property
    def name(self) -> str:
        return self.argv[0]

    def option(self, flag: str) -> str | None:
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return None


def matrix_path(name: str) -> Path:
    return CORPUS / f"{name}.txt"


def load_matrix(name: str):
    return parse_matrix(matrix_path(name).read_text())


def corpus_names() -> list[str]:
    return sorted(path.stem for path in CORPUS.glob("*.txt"))


def verify_points(m, seed: int, count: int):
    """The first ``count`` sample points ``verify --seed seed`` draws
    (before any boundary redraw): p = M u, u on the 2^-31 grid of [0,1)^n."""
    points = []
    for index in range(count):
        rng = random.Random(f"sample:{seed}:{index}:0")
        u = tuple(
            Fraction(rng.randrange(0, SAMPLE_DENOMINATOR), SAMPLE_DENOMINATOR)
            for _ in range(m.cols)
        )
        points.append(m.mat_vec(u))
    return points


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.commands: list[Command] = []

    def add(self, command: str, matrix: str, *options: str, known: str | None = None):
        argv = (command, "--matrix", str(matrix_path(matrix)), *options)
        if command not in ("fragments", "laplace", "render"):
            argv += ("--seed", str(self.rng.randrange(2**31)))
        self.commands.append(Command(argv, matrix, known))

    def point(self, matrix: str) -> str:
        """A point M u with u on the 2^-16 grid of [0,1)^n."""
        _, m = load_matrix(matrix)
        u = [Fraction(self.rng.randrange(POINT_DENOMINATOR), POINT_DENOMINATOR) for _ in range(m.cols)]
        return ",".join(str(x) for x in m.mat_vec(u))


# dense: n = 2..4 with candidate boxes under ~1e2 per tile hit, including a
# rational matrix (denominator clearing).  Per-point Fraction transforms,
# engine builds per crossing ray and the facet event scan dominate; the box
# is small, so a better candidate search should barely move it.
DENSE_VERIFY = {
    "K": 400, "L": 400, "M": 250, "z3r1-1": 300, "z3r2-0": 400, "z3r2-1": 300,
    "z4r1-0": 150, "z4r3-2": 300, "q3r2-0": 400, "q3r2-1": 300,
}
DENSE_CROSSING = ["K", "L", "z3r1-1", "z3r2-0", "q3r2-1", "z4r1-0", "M"]
DENSE_COVER = [
    ("M", "--tau", "1"), ("M", "--tau", "2"), ("M", "--tau", "3"), ("M", "--tau", "4"),
    ("M", "--gamma", "1,2,3"), ("M", "--gamma", "1,2,4"), ("M", "--gamma", "1,3,4"),
    ("M", "--gamma", "2,3,4"), ("z3r2-1", "--tau", "1"), ("z3r2-1", "--tau", "2"),
    ("z3r2-1", "--gamma", "1,2,3"),
    ("z4r1-0", "--gamma", "1,3"), ("z4r3-2", "--tau", "1,4"),
    ("q3r2-1", "--gamma", "1,2,3"), ("L", "--gamma", "1,2"),
]


def dense(seed: int) -> list[Command]:
    b = _Builder("dense", seed)
    for _ in range(2):
        for matrix, samples in DENSE_VERIFY.items():
            b.add("verify", matrix, "--samples", str(samples // 2))
        for matrix in DENSE_CROSSING:
            b.add("crossing", matrix, "--samples", "2", "--reach", "2")
        for matrix, flag, index in DENSE_COVER:
            b.add("double-cover", matrix, flag, index, "--samples", "100")
    b.add("double-cover", "cover13", "--gamma", "2,3", "--samples", "100", known="cover-degenerate-gamma")
    return b.commands


# wide: n = 5 and 6 integer matrices whose candidate boxes hold ~1e3 to
# ~5e4 translates per tile hit, so the axis-box scan in tiles_at does nearly
# all the work.  Per-point cost varies with the point by 15-50%, so every
# matrix runs as several invocations (matrix: invocations, samples each),
# and the largest boxes get the fewest points: their points vary the most
# in cost per second spent.
WIDE_VERIFY = {
    "z6r3-4": (1, 1), "z5r2-7": (2, 1), "z5r2-3": (4, 1), "z5r2-2": (6, 2),
    "z5r2-11": (10, 4), "z5r3-1": (10, 5), "z6r2-0": (10, 4), "z6r4-0": (10, 5),
    "z6r3-7": (10, 7), "z6r2-3": (10, 6), "z5r2-6": (14, 12),
}


def wide(seed: int) -> list[Command]:
    b = _Builder("wide", seed)
    rounds = max(count for count, _ in WIDE_VERIFY.values())
    for round_ in range(rounds):
        for matrix, (count, samples) in WIDE_VERIFY.items():
            if round_ < count:
                b.add("verify", matrix, "--samples", str(samples))
    return b.commands


# oneshot: many short invocations across the corpus up to n = 6, where
# set-up, the C(n,r) determinants, slice_layout and SVG dominate and
# tiles_at does little.  Work moved into engine build or precomputation
# shows here as a regression.
ONESHOT_FACETS = [
    ("M", "--tau", "2"), ("M", "--gamma", "2,3,4"), ("z4r1-1", "--gamma", "2,4"),
    ("z5r3-0", "--tau", "1,5"), ("z5r2-4", "--gamma", "1,3,5"),
    ("z6r3-1", "--tau", "2,6"), ("z6r3-5", "--gamma", "1,2,3,6"), ("z6r4-2", "--tau", "1,3,4"),
]
# Single points on n <= 4 only.  A point's cost varies with its box, and the
# p90 latency of this workload should fall well inside the band of seed-free
# ``fragments`` commands on n = 6, not next to a seeded point above it.
ONESHOT_COVERAGE = ["K", "L", "M", "z3r1-2", "z3r2-1", "z4r1-0", "z4r3-0", "q3r2-1"]
ONESHOT_SLICE = ["K", "L", "M", "z3r2-0", "z4r3-1", "z4r3-2"]
# The radius-6 slice window misses translate classes on these two matrices.
ONESHOT_SLICE_KNOWN = ["slice13", "z4r1-0"]
ONESHOT_RENDER = ["K", "L", "M", "z3r2-1"]


def oneshot(seed: int) -> list[Command]:
    b = _Builder("oneshot", seed)
    for matrix in corpus_names():
        b.add("fragments", matrix)
        b.add("laplace", matrix)
    for matrix, flag, index in ONESHOT_FACETS:
        b.add("facets", matrix, flag, index)
    for matrix in ONESHOT_COVERAGE:
        b.add("coverage", matrix, "--point", b.point(matrix))
    for matrix in ONESHOT_SLICE:
        b.add("slice", matrix, "--samples", "4")
    for matrix in ONESHOT_SLICE_KNOWN:
        b.add("slice", matrix, "--samples", "4", known="slice-window")
    for matrix in ONESHOT_RENDER:
        b.add("render", matrix)
    return b.commands


WORKLOADS = {"dense": dense, "wide": wide, "oneshot": oneshot}
