"""Command-line front end: matrix files, verification reports, SVG output.

Matrix file format: a first line "r k", then r+k rows of r+k whitespace
separated rationals ("p/q" or integer); lines whose first nonblank character
is '#' are comments.  Reports are line-oriented key=value text and are
byte-identical for identical inputs and seeds.  Exit codes: 0 success or
verified, 1 a verification found a violation, 2 bad input.
"""
from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .fragments import (
    DEGENERATE,
    Dimensions,
    FragmentSet,
    decompose,
    fragment_set,
    laplace_identity,
    sandc_identity,
    shuffle_sign,
)
from .facets import (
    GAMMA,
    TAU,
    crossing_check,
    double_cover_check,
    facet_collection,
    facet_signs,
    h_vector,
    up_down_partition,
)
from .linalg import LinalgError, Matrix, det
from .render import RenderConfig, render_svg
from .slices import SlicePreconditionError, slice_layout
from .tiling import (
    SAMPLE_DENOMINATOR,
    GenericityError,
    TilingEngine,
    certify_direction,
    choose_generic_direction,
    grid_vector,
    verify_constancy,
)

_TOKEN = re.compile(r"\S+")
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z")

DEFAULT_SLICE_WINDOW_RADIUS = 6


class MatrixParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line} col {col}: {message}")
        self.line = line
        self.col = col


class CliInputError(Exception):
    """Bad command-line input (missing files, malformed values, bad w)."""


def _rational_token(tok: str, line: int, col: int) -> Fraction:
    if not _RATIONAL.match(tok):
        raise MatrixParseError(f"malformed rational {tok!r}", line, col)
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise MatrixParseError(f"zero denominator in {tok!r}", line, col) from None


def parse_matrix(text: str) -> tuple[Dimensions, Matrix]:
    """Parse a matrix file; errors carry 1-based line and column positions."""
    rows: list[list[Fraction]] = []
    dims: Dimensions | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if dims is None:
            if len(tokens) != 2:
                raise MatrixParseError(
                    "expected dimension line 'r k'", line_no, tokens[0][1]
                )
            try:
                r = int(tokens[0][0])
                k = int(tokens[1][0])
            except ValueError:
                raise MatrixParseError("dimensions must be integers", line_no, 1) from None
            if r < 1 or k < 1:
                raise MatrixParseError("r and k must be positive", line_no, 1)
            dims = Dimensions(r=r, k=k)
            continue
        if len(rows) == dims.n:
            raise MatrixParseError(
                f"expected exactly {dims.n} matrix rows", line_no, tokens[0][1]
            )
        if len(tokens) != dims.n:
            raise MatrixParseError(
                f"expected {dims.n} entries, found {len(tokens)}", line_no, tokens[0][1]
            )
        rows.append([_rational_token(tok, line_no, col) for tok, col in tokens])
    if dims is None:
        raise MatrixParseError("empty matrix file", 1, 1)
    if len(rows) != dims.n:
        raise MatrixParseError(f"expected {dims.n} rows, found {len(rows)}", 1, 1)
    return dims, Matrix.from_rows(rows)


def format_matrix(dims: Dimensions, m: Matrix) -> str:
    lines = [f"{dims.r} {dims.k}"]
    for i in range(m.rows):
        lines.append(" ".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"


def _fmt_vec(v) -> str:
    return ",".join(str(x) for x in v)


def _fmt_subset(s) -> str:
    return "{%s}" % ",".join(str(i) for i in s)


def _parse_vec(text: str, name: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise CliInputError(f"malformed {name} value {text!r}") from None


def _parse_subset(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise CliInputError(f"malformed {name} value {text!r}") from None


def _load_fs(args) -> FragmentSet:
    try:
        text = Path(args.matrix).read_text()
    except OSError as exc:
        raise CliInputError(f"cannot read matrix file: {exc}") from None
    dims, m = parse_matrix(text)
    return fragment_set(decompose(m, dims))


def _direction(args, fs: FragmentSet):
    if args.w is not None:
        return certify_direction(fs, _parse_vec(args.w, "--w"))
    return choose_generic_direction(fs, args.seed)


def cmd_fragments(args) -> int:
    fs = _load_fs(args)
    dims = fs.dims
    print(f"r={dims.r} k={dims.k} detM={fs.det_m}")
    all_ok = True
    counts = {"positive": 0, "negative": 0, "degenerate": 0}
    for frag in fs:
        counts[frag.sign_class] += 1
        lhs, rhs = sandc_identity(fs, frag.sigma)
        ok = lhs == rhs
        all_ok = all_ok and ok
        print(
            f"sigma={_fmt_subset(frag.sigma)} detC={frag.det_c} "
            f"detCbar={frag.det_cbar} sign={shuffle_sign(frag.sigma)} "
            f"detS={frag.det_s} class={frag.sign_class} {'ok' if ok else 'FAIL'}"
        )
    print(
        f"positive={counts['positive']} negative={counts['negative']} "
        f"degenerate={counts['degenerate']} pass={'true' if all_ok else 'false'}"
    )
    return 0 if all_ok else 1


def cmd_laplace(args) -> int:
    fs = _load_fs(args)
    lhs, rhs = laplace_identity(fs)
    ok = lhs == rhs
    print(f"lhs={lhs} rhs={rhs} {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_coverage(args) -> int:
    fs = _load_fs(args)
    if args.point is None:
        raise CliInputError("coverage requires --point")
    w = _direction(args, fs)
    point = _parse_vec(args.point, "--point")
    report = TilingEngine(fs, w).coverage(point)
    print(f"point={_fmt_vec(report.point)}")
    print(f"w={_fmt_vec(w.w)}")
    for tile, sign_class in report.tiles:
        print(f"tile z={_fmt_vec(tile.z)} sigma={_fmt_subset(tile.sigma)} class={sign_class}")
    pos, neg = report.census
    ok = report.f_value == report.expected
    print(
        f"positive={pos} negative={neg} f={report.f_value} "
        f"expected={report.expected} {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def cmd_verify(args) -> int:
    fs = _load_fs(args)
    w = _direction(args, fs)
    report = verify_constancy(fs, w, args.samples, args.seed)
    print(f"samples={report.sample_count} seed={report.seed} expected={report.expected}")
    for (pos, neg), count in report.census_histogram.items():
        print(f"census pos={pos} neg={neg} count={count}")
    values = ",".join(str(v) for v in sorted(report.distinct_f_values))
    f_text = values if len(report.distinct_f_values) == 1 else "mixed"
    # Old key name kept: stdout is the contract, and perfbench/checks.py parses it.
    print(
        f"boundary_redraws={report.boundary_samples} values={values} "
        f"f={f_text} pass={'true' if report.passed else 'false'}"
    )
    return 0 if report.passed else 1


def _collection_index(args, fs: FragmentSet):
    if (args.tau is None) == (args.gamma is None):
        raise CliInputError("exactly one of --tau or --gamma is required")
    if args.tau is not None:
        return TAU, _parse_subset(args.tau, "--tau")
    return GAMMA, _parse_subset(args.gamma, "--gamma")


def _collection_z(args, fs: FragmentSet):
    if args.z is None:
        return (0,) * fs.dims.n
    z = _parse_subset(args.z, "--z")
    if len(z) != fs.dims.n:
        raise CliInputError(f"--z must have {fs.dims.n} entries")
    return z


def cmd_facets(args) -> int:
    fs = _load_fs(args)
    w = _direction(args, fs)
    kind, index = _collection_index(args, fs)
    z = _collection_z(args, fs)
    coll = facet_collection(fs, kind, z, index)
    partition = up_down_partition(fs, w, coll)
    print(f"kind={kind} index={_fmt_subset(coll.index)} z={_fmt_vec(coll.z)}")
    if kind == TAU:
        print(f"h={_fmt_vec(h_vector(fs, w, coll.index))}")
    up_set = set(partition.up)
    consistent = True
    for facet in coll.members:
        if facet in coll.degenerate:
            print(
                f"facet sigma={_fmt_subset(facet.sigma)} j={facet.j} s={facet.s} "
                f"plain_z={_fmt_vec(facet.z)} side=degenerate"
            )
            continue
        wsgn, tsgn = facet_signs(fs, w, facet)
        side = "up" if facet in up_set else "down"
        consistent = consistent and (side == "up") == (wsgn * tsgn > 0)
        print(
            f"facet sigma={_fmt_subset(facet.sigma)} j={facet.j} s={facet.s} "
            f"plain_z={_fmt_vec(facet.z)} wsgn={wsgn} tsgn={tsgn} side={side}"
        )
    print(
        f"up={len(partition.up)} down={len(partition.down)} "
        f"degenerate={len(coll.degenerate)} pass={'true' if consistent else 'false'}"
    )
    return 0 if consistent else 1


def cmd_double_cover(args) -> int:
    fs = _load_fs(args)
    w = _direction(args, fs)
    kind, index = _collection_index(args, fs)
    z = _collection_z(args, fs)
    report = double_cover_check(fs, w, index, z, args.samples, args.seed)
    # Old key name kept: stdout is the contract, and perfbench/checks.py parses it.
    print(
        f"kind={report.kind} index={_fmt_subset(report.index)} z={_fmt_vec(report.z)} "
        f"samples={report.sample_count} redraws={report.boundary_samples} "
        f"failures={len(report.failures)} pass={'true' if report.passed else 'false'}"
    )
    return 0 if report.passed else 1


def cmd_crossing(args) -> int:
    fs = _load_fs(args)
    w = _direction(args, fs)
    try:
        reach = Fraction(args.reach)
    except (ValueError, ZeroDivisionError):
        raise CliInputError(f"malformed --reach value {args.reach!r}") from None
    m = fs.decomposition.m
    n = fs.dims.n
    if args.point is not None:
        points = [_parse_vec(args.point, "--point")]
    else:
        points = [
            m.mat_vec(grid_vector(f"ray:{args.seed}:{i}", n, 0, SAMPLE_DENOMINATOR))
            for i in range(args.samples)
        ]
    print(f"w={_fmt_vec(w.w)} reach={reach}")
    engine = TilingEngine(fs, w)
    all_ok = True
    for i, point in enumerate(points):
        report = crossing_check(engine, point, reach, args.seed * 1_000_003 + i)
        all_ok = all_ok and report.passed
        f_text = str(report.f_value) if report.constant else "mixed"
        print(
            f"ray={i} crossings={len(report.crossings)} f={f_text} "
            f"cancellation={'ok' if report.cancellation_ok else 'FAIL'} "
            f"constant={'true' if report.constant else 'false'} "
            f"resamples={report.resamples} pass={'true' if report.passed else 'false'}"
        )
    print(f"rays={len(points)} pass={'true' if all_ok else 'false'}")
    return 0 if all_ok else 1


def _slice_window(fs: FragmentSet):
    radius = DEFAULT_SLICE_WINDOW_RADIUS
    return tuple((-radius, radius) for _ in range(fs.dims.n))


def cmd_slice(args) -> int:
    fs = _load_fs(args)
    w = _direction(args, fs)
    layout = slice_layout(fs, w, _slice_window(fs))
    print("B=" + ";".join(_fmt_vec(layout.b.row(i)) for i in range(layout.b.rows)))
    all_ok = True
    balance = Fraction(0)
    for cls in layout.classes:
        if cls.sign_class == DEGENERATE:
            print(f"sigma={_fmt_subset(cls.sigma)} class=degenerate offset_classes=0")
            continue
        frag = fs[cls.sigma]
        area = abs(frag.det_c)
        expected_classes = abs(frag.det_cbar)
        ok = len(cls.offsets) == expected_classes
        all_ok = all_ok and ok
        sign = 1 if cls.sign_class == "positive" else -1
        balance += sign * area * len(cls.offsets)
        print(
            f"sigma={_fmt_subset(cls.sigma)} class={cls.sign_class} area={area} "
            f"offset_classes={len(cls.offsets)} expected_classes={expected_classes} "
            f"{'ok' if ok else 'FAIL'}"
        )
    expected_balance = fs.expected_coverage() * abs(det(layout.b))
    balance_ok = balance == expected_balance
    all_ok = all_ok and balance_ok
    print(
        f"balance_lhs={balance} balance_rhs={expected_balance} "
        f"{'ok' if balance_ok else 'FAIL'}"
    )
    engine = TilingEngine(fs, w)
    zeros = (Fraction(0),) * fs.dims.k
    f_ok = True
    for i in range(args.samples):
        p_r = grid_vector(
            f"slicepoint:{args.seed}:{i}", fs.dims.r, -3 * SAMPLE_DENOMINATOR, 3 * SAMPLE_DENOMINATOR
        )
        report = engine.coverage(p_r + zeros)
        f_ok = f_ok and report.f_value == report.expected
    all_ok = all_ok and f_ok
    print(
        f"coverage_samples={args.samples} coverage_pass={'true' if f_ok else 'false'} "
        f"pass={'true' if all_ok else 'false'}"
    )
    return 0 if all_ok else 1


def cmd_render(args) -> int:
    fs = _load_fs(args)
    window = _parse_vec(args.window, "--window")
    if len(window) != 4:
        raise CliInputError("--window must be x0,x1,y0,y1")
    cfg = RenderConfig(window=(window[0], window[1], window[2], window[3]))
    if fs.dims.n == 2:
        source = fs
    elif fs.dims.r == 2:
        source = slice_layout(fs, _direction(args, fs), _slice_window(fs))
    else:
        raise CliInputError("rendering needs r+k = 2 (tiling) or r = 2 (slice)")
    document = render_svg(source, cfg)
    if args.out:
        Path(args.out).write_text(document)
        polygons = document.count("<polygon ")
        groups = document.count("<g ")
        print(f"out={args.out} polygons={polygons} groups={groups}")
    else:
        sys.stdout.write(document)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# Every flag takes a value; each subcommand registers the ones it reads.
_FLAGS = {
    "--matrix": dict(required=True, help="matrix file path"),
    "--w": dict(default=None, help="orientation vector 'a,b,...' (certified)"),
    "--seed": dict(type=int, default=0, help="seed for derived randomness"),
    "--samples": dict(type=_positive_int, default=1000, help="sample count, at least 1"),
    "--point": dict(default=None, help="query point 'a,b,...'"),
    "--tau": dict(default=None, help="size r-1 index subset 'i,j,...'"),
    "--gamma": dict(default=None, help="size r+1 index subset 'i,j,...'"),
    "--z": dict(default=None, help="integer translate 'a,b,...' (default 0)"),
    "--window": dict(default="-5,5,-5,5", help="render window x0,x1,y0,y1"),
    "--reach": dict(default="3", help="ray length for crossing scans"),
    "--out": dict(default=None, help="output path for SVG"),
}

# The flags each subcommand reads besides --matrix.
_COMMAND_FLAGS = {
    "fragments": (),
    "laplace": (),
    "coverage": ("--w", "--seed", "--point"),
    "verify": ("--w", "--seed", "--samples"),
    "facets": ("--w", "--seed", "--tau", "--gamma", "--z"),
    "double-cover": ("--w", "--seed", "--samples", "--tau", "--gamma", "--z"),
    "crossing": ("--w", "--seed", "--samples", "--point", "--reach"),
    "slice": ("--w", "--seed", "--samples"),
    "render": ("--w", "--seed", "--window", "--out"),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by runs."""
    parser = argparse.ArgumentParser(
        prog="fragtile",
        description="Signed tilings from fragment matrices: verify and render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("fragments", cmd_fragments, "fragment family, sign classes, factor identity"),
        ("laplace", cmd_laplace, "multi-row Laplace determinant identity"),
        ("coverage", cmd_coverage, "tiles containing a point and the signed count"),
        ("verify", cmd_verify, "sampled constancy of the signed cover count"),
        ("facets", cmd_facets, "facet collection, up/down split, kernel certificate"),
        ("double-cover", cmd_double_cover, "sampled once-each cover by up and down facets"),
        ("crossing", cmd_crossing, "cover count across facet crossings along rays"),
        ("slice", cmd_slice, "periodic structure of the last-k-zero slice"),
        ("render", cmd_render, "SVG of a 2-D tiling or 2-D slice"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        for flag in ("--matrix", *_COMMAND_FLAGS[name]):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _merge_flag_values(argv):
    """Join each value flag with its following token ('--point' '-2,1' becomes
    '--point=-2,1') so values with a leading minus parse cleanly."""
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _FLAGS and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_flag_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (
        CliInputError,
        MatrixParseError,
        GenericityError,
        SlicePreconditionError,
        LinalgError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
