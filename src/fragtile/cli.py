"""Command-line front end: matrix files, verification reports, SVG output.

Matrix file format (UTF-8): a first line "r k", then r+k rows of r+k
whitespace separated rationals ("p/q" or integer); lines whose first nonblank
character is '#' are comments.  Reports are line-oriented key=value text and
are byte-identical for identical inputs and seeds.  argparse reads each flag
value by its grammar; run then loads the matrix file once and hands its
fragment set to a cmd_* handler, which returns its report and exit code; run
formats it and writes stdout once, so exit 2 writes nothing on stdout, and
crossing writes its report after the last ray.  Exit codes: 0 success or
verified, 1 a verification found a violation, 2 bad input, out of memory too.
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
    NEGATIVE,
    POSITIVE,
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
from .linalg import LinalgError, Matrix
from .render import render_svg
from .slices import slice_layout
from .tiling import (
    SAMPLE_DENOMINATOR,
    GenericityError,
    TilingEngine,
    certify_direction,
    choose_generic_direction,
    fundamental_point,
    grid_vector,
    verify_constancy,
)

_TOKEN = re.compile(r"\S+")
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z", re.ASCII)

DEFAULT_SLICE_WINDOW_RADIUS = 6


class CliInputError(Exception):
    """Bad command-line input (missing files, malformed values, bad w)."""


class MatrixParseError(CliInputError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line} col {col}: {message}")
        self.line = line
        self.col = col


def _rational(tok: str) -> Fraction:
    """An integer or p/q in ASCII digits, the one numeric grammar of matrix
    files and flags; ValueError for any other token, or one with more digits
    than int takes.  An integer token skips Fraction's own string parse."""
    if not _RATIONAL.match(tok):
        raise ValueError(f"malformed rational {tok[:40]!r}")
    if "/" not in tok:
        return Fraction(int(tok))
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {tok[:40]!r}") from None


def _integer(tok: str) -> int:
    """An integer of the grammar of _rational: int rejects its p/q form."""
    if not _RATIONAL.match(tok):
        raise ValueError(f"malformed integer {tok[:40]!r}")
    return int(tok)


def _rational_token(tok: str, line: int, col: int) -> Fraction:
    try:
        return _rational(tok)
    except ValueError as exc:
        raise MatrixParseError(str(exc), line, col) from None


def parse_matrix(text: str) -> tuple[Dimensions, Matrix]:
    """Parse a matrix file; errors carry 1-based line and column positions."""
    rows: list[list[Fraction]] = []
    dims: Dimensions | None = None
    # Lines end at "\n" alone: splitlines would also break at \f, \v and
    # other characters that are whitespace to the token pattern.
    for line_no, line in enumerate(text.split("\n"), start=1):
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
                r = _integer(tokens[0][0])
                k = _integer(tokens[1][0])
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


def _load_fs(args) -> FragmentSet:
    try:
        text = Path(args.matrix).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read matrix file: {exc}") from None
    dims, m = parse_matrix(text)
    return fragment_set(decompose(m, dims))


def _direction(args, fs: FragmentSet):
    if args.w is not None:
        return certify_direction(fs, args.w)
    return choose_generic_direction(fs, args.seed)


def _value(v) -> str:
    """A report value's text: a vector joins its entries with ',', a matrix
    its rows with ';', an index subset reads {i,j,...} in increasing order,
    and a bool reads true or false."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, set):
        return "{%s}" % ",".join(map(str, sorted(v)))
    if isinstance(v, (tuple, list)):
        sep = ";" if v and isinstance(v[0], (tuple, list)) else ","
        return sep.join(map(_value, v))
    return str(v)


def _format(report) -> str:
    """The text of a report: a str (render's SVG) as it is; otherwise one
    line per (template, *values) entry, each {} of the template filled with
    the text of its value.  Templates hold the keys and the fixed words
    (tile, census, facet); a verdict word (ok, FAIL) is a value.  The
    digit-limit guard wraps this formatting and nothing else."""
    if isinstance(report, str):
        return report
    try:
        return "".join(template.format(*map(_value, values)) + "\n" for template, *values in report)
    except ValueError:  # CPython's int-to-str digit limit
        raise CliInputError("a report value has too many digits to print") from None


def cmd_fragments(args, fs):
    """fragment family, sign classes, factor identity"""
    oks = [lhs == rhs for lhs, rhs in (sandc_identity(fs, frag.sigma) for frag in fs)]
    # On an integer M the block minors are det C and det Cbar: ints print
    # the same text as Fractions of denominator 1, faster.
    ints = fs.m_rows[0] == 1
    lines = [("r={} k={} detM={}", fs.dims.r, fs.dims.k, fs.det_m)]
    for frag, ok in zip(fs, oks):
        dets = (frag.det_top, frag.det_bottom) if ints else (frag.det_c, frag.det_cbar)
        lines.append((
            "sigma={} detC={} detCbar={} sign={} detS={} class={} {}",
            set(frag.sigma), *dets, shuffle_sign(frag.sigma),
            frag.det_s.numerator if ints else frag.det_s, frag.sign_class, "ok" if ok else "FAIL",
        ))
    counts = [len(fs.by_class(c)) for c in (POSITIVE, NEGATIVE, DEGENERATE)]
    lines.append(("positive={} negative={} degenerate={} pass={}", *counts, all(oks)))
    return lines, 0 if all(oks) else 1


def cmd_laplace(args, fs):
    """multi-row Laplace determinant identity"""
    lhs, rhs = laplace_identity(fs)
    ok = lhs == rhs
    return [("lhs={} rhs={} {}", lhs, rhs, "ok" if ok else "FAIL")], 0 if ok else 1


def cmd_coverage(args, fs):
    """tiles containing a point and the signed count"""
    if args.point is None:
        raise CliInputError("coverage requires --point")
    w = _direction(args, fs)
    report = TilingEngine(fs, w).coverage(args.point)
    pos, neg = report.census
    ok = report.f_value == report.expected
    lines = [("point={}", report.point), ("w={}", w.w)]
    for tile, sign_class in report.tiles:
        lines.append(("tile z={} sigma={} class={}", tile.z, set(tile.sigma), sign_class))
    lines.append((
        "positive={} negative={} f={} expected={} {}",
        pos, neg, report.f_value, report.expected, "ok" if ok else "FAIL",
    ))
    return lines, 0 if ok else 1


def cmd_verify(args, fs):
    """sampled constancy of the signed cover count"""
    w = _direction(args, fs)
    report = verify_constancy(fs, w, args.samples, args.seed)
    lines = [("samples={} seed={} expected={}", report.sample_count, report.seed, report.expected)]
    for (pos, neg), count in report.census_histogram.items():
        lines.append(("census pos={} neg={} count={}", pos, neg, count))
    values = sorted(report.distinct_f_values)
    f_value = values[0] if len(values) == 1 else "mixed"
    # Old key name kept: stdout is the contract, and perfbench/checks.py parses it.
    lines.append((
        "boundary_redraws={} values={} f={} pass={}",
        report.boundary_samples, values, f_value, report.passed,
    ))
    return lines, 0 if report.passed else 1


def _collection(args, fs: FragmentSet):
    """(index, z) of the collection that --tau or --gamma and --z name."""
    if (args.tau is None) == (args.gamma is None):
        raise CliInputError("exactly one of --tau or --gamma is required")
    if args.tau is not None:
        kind, index, size = TAU, args.tau, fs.dims.r - 1
    else:
        kind, index, size = GAMMA, args.gamma, fs.dims.r + 1
    if len(index) != size:
        raise CliInputError(f"--{kind} must have {size} entries")
    if args.z is None:
        return index, (0,) * fs.dims.n
    if len(args.z) != fs.dims.n:
        raise CliInputError(f"--z must have {fs.dims.n} entries")
    return index, args.z


def cmd_facets(args, fs):
    """facet collection, up/down split, kernel certificate"""
    w = _direction(args, fs)
    coll = facet_collection(fs, *_collection(args, fs))
    h = h_vector(fs, w, coll.index) if coll.kind == TAU else None
    split = up_down_partition(fs, w, coll)
    up_set = set(split.up)
    lines = [("kind={} index={} z={}", coll.kind, set(coll.index), coll.z)]
    if h is not None:
        lines.append(("h={}", h))
    head = "facet sigma={} j={} s={} plain_z={}"
    for facet in coll.members:
        values = (set(facet.sigma), facet.j, facet.s, facet.z)
        if facet in coll.degenerate:
            lines.append((head + " side=degenerate", *values))
        else:
            wsgn, tsgn = facet_signs(fs, w, facet)
            side = "up" if facet in up_set else "down"
            lines.append((head + " wsgn={} tsgn={} side={}", *values, wsgn, tsgn, side))
    # pass= has no criterion yet: ROADMAP item 5's kernel-sign test gives it one.
    lines.append((
        "up={} down={} degenerate={} pass={}",
        len(split.up), len(split.down), len(coll.degenerate), True,
    ))
    return lines, 0


def cmd_double_cover(args, fs):
    """sampled once-each cover by up and down facets"""
    w = _direction(args, fs)
    index, z = _collection(args, fs)
    report = double_cover_check(fs, w, index, z, args.samples, args.seed)
    # Old key name kept: stdout is the contract, and perfbench/checks.py parses it.
    line = (
        "kind={} index={} z={} samples={} redraws={} failures={} pass={}",
        report.kind, set(report.index), report.z, report.sample_count, report.boundary_samples,
        len(report.failures), report.passed,
    )
    return [line], 0 if report.passed else 1


def cmd_crossing(args, fs):
    """cover count across facet crossings along rays"""
    w = _direction(args, fs)
    if args.point is not None:
        points = [args.point]
    else:
        points = [fundamental_point(fs, f"ray:{args.seed}:{i}") for i in range(args.samples)]
    lines = [("w={} reach={}", w.w, args.reach)]
    engine = TilingEngine(fs, w)
    all_ok = True
    for i, point in enumerate(points):
        report = crossing_check(engine, point, args.reach, args.seed * 1_000_003 + i)
        all_ok = all_ok and report.passed
        lines.append((
            "ray={} crossings={} f={} cancellation={} constant={} resamples={} pass={}",
            i, len(report.crossings), report.f_value if report.constant else "mixed",
            "ok" if report.cancellation_ok else "FAIL", report.constant, report.resamples,
            report.passed,
        ))
    lines.append(("rays={} pass={}", len(points), all_ok))
    return lines, 0 if all_ok else 1


def _slice_window(fs: FragmentSet):
    radius = DEFAULT_SLICE_WINDOW_RADIUS
    return tuple((-radius, radius) for _ in range(fs.dims.n))


def cmd_slice(args, fs):
    """periodic structure of the last-k-zero slice"""
    w = _direction(args, fs)
    layout = slice_layout(fs, w, _slice_window(fs))
    b_den, b_rows = layout.b_rows
    all_ok = True
    balance = Fraction(0)
    lines = [("B={}", [[Fraction(x, b_den) for x in row] for row in b_rows])]
    for cls in layout.classes:
        if cls.sign_class == DEGENERATE:
            lines.append(("sigma={} class=degenerate offset_classes=0", set(cls.sigma)))
            continue
        frag = fs[cls.sigma]
        area = abs(frag.det_c)
        expected_classes = abs(frag.det_cbar) / layout.g
        ok = len(cls.offsets) == expected_classes
        all_ok = all_ok and ok
        sign = 1 if cls.sign_class == "positive" else -1
        balance += sign * area * len(cls.offsets)
        lines.append((
            "sigma={} class={} area={} offset_classes={} expected_classes={} {}",
            set(cls.sigma), cls.sign_class, area, len(cls.offsets), expected_classes,
            "ok" if ok else "FAIL",
        ))
    # M U = [[Bk | B], [H / d | 0]] with U unimodular, so |det B| = |det M| / g.
    expected_balance = fs.expected_coverage() * abs(fs.det_m) / layout.g
    balance_ok = balance == expected_balance
    all_ok = all_ok and balance_ok
    verdict = "ok" if balance_ok else "FAIL"
    lines.append(("balance_lhs={} balance_rhs={} {}", balance, expected_balance, verdict))
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
    lines.append(("coverage_samples={} coverage_pass={} pass={}", args.samples, f_ok, all_ok))
    return lines, 0 if all_ok else 1


def cmd_render(args, fs):
    """SVG of a 2-D tiling or 2-D slice"""
    if len(args.window) != 4:
        raise CliInputError("--window must be x0,x1,y0,y1")
    if fs.dims.n == 2:
        source = fs
    elif fs.dims.r == 2:
        source = slice_layout(fs, _direction(args, fs), _slice_window(fs))
    else:
        raise CliInputError("rendering needs r+k = 2 (tiling) or r = 2 (slice)")
    document = render_svg(source, args.window)
    if not args.out:
        return document, 0
    Path(args.out).write_text(document)
    polygons = document.count("<polygon ")
    groups = document.count("<g ")
    return [("out={} polygons={} groups={}", args.out, polygons, groups)], 0


def _vector(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(tok.strip()) for tok in text.split(","))


def _subset(text: str) -> tuple[int, ...]:
    # An empty value is the empty subset: tau of an r = 1 matrix.
    return tuple(_integer(tok.strip()) for tok in text.split(",")) if text else ()


def _count(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise ValueError(value)
    return value


def _reader(flag: str, grammar):
    """argparse's type= for flag: grammar applied to the stripped value.  Its
    ValueError becomes a CliInputError, which argparse does not catch, so
    run reports it as it reports every other input error."""
    def read(text: str):
        try:
            return grammar(text.strip())
        except ValueError:
            raise CliInputError(f"malformed {flag} value {text[:40]!r}") from None
    return read


# Every flag takes a value: (grammar, default, help).  argparse reads each
# value by its grammar, a default string too; the two paths have none.
# Each subcommand registers the flags it reads.
_FLAGS = {
    "--matrix": (None, None, "matrix file path"),
    "--w": (_vector, None, "orientation vector 'a,b,...' (certified)"),
    "--seed": (_integer, 0, "seed for derived randomness"),
    "--samples": (_count, 1000, "sample count, at least 1"),
    "--point": (_vector, None, "query point 'a,b,...'"),
    "--tau": (_subset, None, "size r-1 index subset 'i,j,...'"),
    "--gamma": (_subset, None, "size r+1 index subset 'i,j,...'"),
    "--z": (_subset, None, "integer translate 'a,b,...' (default 0)"),
    "--window": (_vector, "-5,5,-5,5", "render window x0,x1,y0,y1"),
    "--reach": (_rational, "3", "ray length for crossing scans"),
    "--out": (None, None, "output path for SVG"),
}

# Each subcommand's handler, whose docstring is its help line, and the flags
# it reads besides --matrix.
_COMMANDS = {
    "fragments": (cmd_fragments, ()),
    "laplace": (cmd_laplace, ()),
    "coverage": (cmd_coverage, ("--w", "--seed", "--point")),
    "verify": (cmd_verify, ("--w", "--seed", "--samples")),
    "facets": (cmd_facets, ("--w", "--seed", "--tau", "--gamma", "--z")),
    "double-cover": (cmd_double_cover, ("--w", "--seed", "--samples", "--tau", "--gamma", "--z")),
    "crossing": (cmd_crossing, ("--w", "--seed", "--samples", "--point", "--reach")),
    "slice": (cmd_slice, ("--w", "--seed", "--samples")),
    "render": (cmd_render, ("--w", "--seed", "--window", "--out")),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by runs."""
    parser = argparse.ArgumentParser(
        prog="fragtile",
        description="Signed tilings from fragment matrices: verify and render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        for flag in ("--matrix", *flags):
            grammar, default, text = _FLAGS[flag]
            p.add_argument(
                flag, type=grammar and _reader(flag, grammar), default=default,
                required=flag == "--matrix", help=text,
            )
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
    try:
        args = build_parser().parse_args(_merge_flag_values(list(argv)))
        report, code = args.func(args, _load_fs(args))
        text = _format(report)
    except SystemExit as exc:  # argparse's own errors, usage and help
        return exc.code if isinstance(exc.code, int) else 2
    except (CliInputError, GenericityError, LinalgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a search too large for this machine is bad input
        print("error: out of memory", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
