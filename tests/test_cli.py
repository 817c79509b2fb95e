import random
from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest

from conftest import (
    clip_polygon_area,
    invoke,
    random_int_matrix,
    random_invertible,
    random_rational_invertible,
    reference_family_polygons,
)
from fragtile import (
    Dimensions,
    Matrix,
    RenderConfig,
    TilingEngine,
    decompose,
    det,
    fragment_set,
    inverse,
    render_svg,
    slice_layout,
    slice_precondition,
    choose_generic_direction,
)
from fragtile.cli import MatrixParseError, format_matrix, parse_matrix

K_TEXT = "1 1\n1 2\n-1 3\n"
L_TEXT = "1 1\n1 2\n1 5\n"
M_TEXT = "2 2\n3 2 -4 1\n1 0 2 2\n2 0 -1 1\n0 1 -2 3\n"
Q_TEXT = "2 1\n0 3/2 3\n-1 1/3 3\n1/2 -3/2 -1\n"


@pytest.fixture()
def matrix_files(tmp_path):
    paths = {}
    for name, text in (("K", K_TEXT), ("L", L_TEXT), ("M", M_TEXT), ("q3r2-1", Q_TEXT)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


class TestParseMatrix:
    def test_k(self):
        dims, m = parse_matrix(K_TEXT)
        assert (dims.r, dims.k) == (1, 1)
        assert m == Matrix.from_rows([[1, 2], [-1, 3]])

    def test_worked_4x4(self):
        dims, m = parse_matrix(M_TEXT)
        assert (dims.r, dims.k) == (2, 2)
        assert m.entry(0, 2) == -4

    def test_comments_and_fractions(self):
        text = "# sizes\n1 1\n# first row\n1/2 -3/4\n2 5\n"
        _, m = parse_matrix(text)
        assert m.entry(0, 0) == Fraction(1, 2)
        assert m.entry(0, 1) == Fraction(-3, 4)

    def test_zero_denominator(self):
        with pytest.raises(MatrixParseError) as info:
            parse_matrix("1 1\n1 1/0\n2 3\n")
        assert info.value.line == 2

    def test_malformed_token(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1 1\n1 2.5\n2 3\n")

    def test_row_count_mismatch(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1 1\n1 2\n")

    def test_entry_count_mismatch(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1 1\n1 2 3\n4 5\n")

    def test_round_trip(self):
        rng = random.Random(12)
        for text in (K_TEXT, L_TEXT, M_TEXT):
            dims, m = parse_matrix(text)
            assert parse_matrix(format_matrix(dims, m)) == (dims, m)
        for _ in range(5):
            n = rng.randint(2, 5)
            r = rng.randint(1, n - 1)
            dims = Dimensions(r, n - r)
            m = Matrix.from_rows(
                [
                    [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            assert parse_matrix(format_matrix(dims, m)) == (dims, m)


class TestSubcommands:
    def test_laplace_k(self, matrix_files):
        code, out, _ = invoke(["laplace", "--matrix", matrix_files["K"]])
        assert code == 0
        assert out == "lhs=-5 rhs=-5 ok\n"

    def test_fragments(self, matrix_files):
        code, out, _ = invoke(["fragments", "--matrix", matrix_files["M"]])
        assert code == 0
        assert "detM=37" in out
        assert "sigma={3,4}" in out and "class=negative" in out
        assert out.strip().endswith("pass=true")

    def test_coverage_worked_point(self, matrix_files):
        code, out, _ = invoke(
            [
                "coverage",
                "--matrix",
                matrix_files["M"],
                "--point",
                "-2,1,-1/2,-1/2",
                "--w",
                "1,1,1,1",
            ]
        )
        assert code == 0
        assert "tile z=0,-3,-1,1 sigma={2,3} class=positive" in out
        assert "tile z=0,-2,0,0 sigma={2,4} class=positive" in out
        assert "tile z=0,-2,-1,0 sigma={3,4} class=negative" in out
        assert "f=1 expected=1 ok" in out

    def test_verify(self, matrix_files):
        code, out, _ = invoke(
            ["verify", "--matrix", matrix_files["M"], "--samples", "100", "--seed", "7"]
        )
        assert code == 0
        assert "f=1" in out
        assert "pass=true" in out

    def test_facets_and_double_cover(self, matrix_files):
        code, out, _ = invoke(
            ["facets", "--matrix", matrix_files["M"], "--tau", "2", "--w", "1,1,1,1"]
        )
        assert code == 0
        assert "h=2,12,8" in out
        assert out.count("side=up") == 3 and out.count("side=down") == 3
        code, out, _ = invoke(
            [
                "double-cover",
                "--matrix",
                matrix_files["M"],
                "--gamma",
                "1,2,3",
                "--samples",
                "40",
                "--w",
                "1,1,1,1",
            ]
        )
        assert code == 0
        assert "pass=true" in out

    def test_crossing(self, matrix_files, monkeypatch):
        # one engine serves every ray of the command
        builds = []
        build = TilingEngine.__init__

        def counting(self, *args):
            builds.append(args)
            build(self, *args)

        monkeypatch.setattr(TilingEngine, "__init__", counting)
        code, out, _ = invoke(
            [
                "crossing",
                "--matrix",
                matrix_files["K"],
                "--samples",
                "3",
                "--seed",
                "2",
                "--w",
                "1,1",
                "--reach",
                "5",
            ]
        )
        assert code == 0
        assert "rays=3 pass=true" in out
        assert "f=-1" in out
        assert len(builds) == 1

    def test_slice(self, matrix_files):
        code, out, _ = invoke(
            [
                "slice",
                "--matrix",
                matrix_files["M"],
                "--samples",
                "20",
                "--w",
                "1,1,1,1",
            ]
        )
        assert code == 0
        assert "offset_classes=6 expected_classes=6 ok" in out
        assert "balance_lhs=37 balance_rhs=37 ok" in out

    def test_exit_code_agrees_with_pass_field(self, matrix_files):
        for argv in (
            ["verify", "--matrix", matrix_files["L"], "--samples", "50"],
            ["slice", "--matrix", matrix_files["K"], "--samples", "10"],
            [
                "double-cover",
                "--matrix",
                matrix_files["M"],
                "--tau",
                "1",
                "--samples",
                "30",
                "--w",
                "1,1,1,1",
            ],
        ):
            code, out, _ = invoke(argv)
            assert ("pass=true" in out) == (code == 0)


class TestFractionMatrixGuard:
    """These commands run on integer rows: those a fragment set holds, and
    the slice lattice basis and its inverse, formed once per layout.  No
    Fraction determinant, inverse, solve or matrix-vector product.  Only
    fragments is left out: its sandc_identity takes an independent
    determinant on purpose."""

    @pytest.mark.parametrize(
        "matrix, argv",
        [
            ("M", ["facets", "--tau", "2"]),
            ("q3r2-1", ["facets", "--tau", "3", "--seed", "4"]),
            ("M", ["facets", "--gamma", "1,2,4"]),
            ("M", ["crossing", "--samples", "2", "--reach", "2"]),
            ("q3r2-1", ["crossing", "--samples", "2", "--reach", "2"]),
            ("M", ["verify", "--samples", "20"]),
            ("M", ["double-cover", "--tau", "4", "--samples", "10"]),
            ("q3r2-1", ["double-cover", "--gamma", "1,2,3", "--samples", "10"]),
            ("M", ["coverage", "--point", "-2,1,-1/2,-1/2"]),
            ("K", ["slice", "--samples", "5"]),
            ("L", ["slice", "--samples", "5"]),
            ("M", ["slice", "--samples", "5"]),
            ("K", ["render"]),
            ("L", ["render"]),
            ("M", ["render"]),
        ],
    )
    def test_no_fraction_matrix_arithmetic(self, matrix_files, monkeypatch, mat_vec_log, matrix, argv):
        import sys

        from fragtile import linalg

        calls = []
        for name in ("det", "inverse", "solve"):
            original = getattr(linalg, name)

            def logged(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            # every binding site, as the elimination guard patches eliminate
            for key, module in list(sys.modules.items()):
                if (key == "fragtile" or key.startswith("fragtile.")) and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, logged)
        code, _, err = invoke(argv[:1] + ["--matrix", matrix_files[matrix]] + argv[1:])
        assert code == 0, err
        assert calls == []
        assert mat_vec_log == []


class TestInputErrors:
    def test_missing_file(self):
        code, _, err = invoke(["laplace", "--matrix", "/nonexistent/x.txt"])
        assert code == 2
        assert "error:" in err

    def test_parse_error_position(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n1 1/0\n2 3\n")
        code, _, err = invoke(["laplace", "--matrix", str(bad)])
        assert code == 2
        assert "line 2" in err

    def test_non_generic_w(self, matrix_files):
        code, _, err = invoke(
            [
                "coverage",
                "--matrix",
                matrix_files["M"],
                "--point",
                "0,0,0,0",
                "--w",
                "1,2,1,1",
            ]
        )
        assert code == 2
        assert "generic" in err

    def test_unknown_command(self):
        code, _, _ = invoke(["frobnicate", "--matrix", "x"])
        assert code == 2

    def test_missing_required_point(self, matrix_files):
        code, _, err = invoke(["coverage", "--matrix", matrix_files["M"]])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--samples", "0"],
            ["verify", "--samples", "-5"],
            ["double-cover", "--tau", "2", "--samples", "0"],
        ],
    )
    def test_samples_below_one(self, matrix_files, argv):
        code, out, err = invoke(argv[:1] + ["--matrix", matrix_files["M"]] + argv[1:])
        assert code == 2
        assert out == ""
        assert "--samples" in err

    @pytest.mark.parametrize(
        "matrix, argv, reason",
        [
            ("K", ["facets", "--gamma", ""], "--gamma must have 2 entries"),
            ("K", ["double-cover", "--gamma", "", "--samples", "5"], "--gamma must have 2 entries"),
            ("K", ["facets", "--tau", "", "--z", ""], "--z must have 2 entries"),
            ("M", ["facets", "--tau", ""], "--tau must have 1 entries"),
            # The flag names the kind: a tau-sized --gamma is not run as tau.
            ("M", ["double-cover", "--gamma", "2", "--samples", "5"], "--gamma must have 3 entries"),
            ("M", ["double-cover", "--tau", "1,2,3", "--samples", "5"], "--tau must have 1 entries"),
        ],
    )
    def test_collection_values_meet_the_size_checks(self, matrix_files, matrix, argv, reason):
        # An empty value is the empty subset, tau of an r = 1 matrix; where
        # a subset has the wrong size for its flag, the size checks exit 2.
        code, out, err = invoke(argv[:1] + ["--matrix", matrix_files[matrix]] + argv[1:])
        assert (code, out) == (2, "")
        assert reason in err

    def test_flag_foreign_to_command(self, matrix_files):
        code, out, err = invoke(["laplace", "--matrix", matrix_files["K"], "--samples", "5"])
        assert code == 2
        assert out == ""
        assert "--samples" in err

    def test_singular_matrix(self, tmp_path):
        # det M = 0: every command that needs a direction, an engine or a
        # lattice inverse exits 2 naming the singular matrix; fragments and
        # laplace still report.  The 2 x 2 files take render's full-tiling
        # path, where M^-1 bounds the translate box, also when every
        # fragment is degenerate and no family is drawn.
        path = tmp_path / "singular.txt"
        path.write_text("2 1\n1 2 0\n2 4 1\n0 0 3\n")
        plane = tmp_path / "singular2.txt"
        plane.write_text("1 1\n1 2\n2 4\n")
        zero = tmp_path / "zero2.txt"
        zero.write_text("1 1\n0 0\n0 0\n")
        for matrix, argv in (
            (path, ["verify", "--samples", "3"]),
            (path, ["coverage", "--point", "1/3,1/5,1/7"]),
            (path, ["crossing", "--samples", "1"]),
            (path, ["facets", "--gamma", "1,2,3"]),
            (path, ["double-cover", "--tau", "2", "--samples", "3"]),
            (path, ["slice", "--samples", "3"]),
            (path, ["render"]),
            (plane, ["render"]),
            (zero, ["render"]),
            (plane, ["slice", "--samples", "3"]),
        ):
            code, out, err = invoke([argv[0], "--matrix", str(matrix), *argv[1:]])
            assert (code, out) == (2, ""), (matrix.name, argv)
            assert "matrix is singular" in err, (matrix.name, argv)
        code, out, _ = invoke(["laplace", "--matrix", str(path)])
        assert (code, out) == (0, "lhs=0 rhs=0 ok\n")

    def test_runs_share_one_parser(self, matrix_files, monkeypatch):
        import argparse

        from fragtile import cli

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        first = invoke(["laplace", "--matrix", matrix_files["K"]])
        after_first = len(built)
        second = invoke(["laplace", "--matrix", matrix_files["K"], "--samples", "5"])
        third = invoke(["laplace", "--matrix", matrix_files["K"]])
        assert built.count("fragtile") == 1
        assert len(built) == after_first
        assert first == third and first[0] == 0
        assert second[0] == 2 and "--samples" in second[2]


def expected_polygon_count(fs, cfg):
    """Clipping-area oracle: translates whose clipped area is positive."""
    window = cfg.window
    x0, x1, y0, y1 = window
    m = fs.decomposition.m
    m_inv = inverse(m)
    count = 0
    for frag in fs:
        if frag.sign_class == "degenerate":
            continue
        g1 = frag.s.column(0)
        g2 = frag.s.column(1)
        smin = [min(0, g1[i]) + min(0, g2[i]) for i in range(2)]
        smax = [max(0, g1[i]) + max(0, g2[i]) for i in range(2)]
        lo_box = (x0 - smax[0], y0 - smax[1])
        hi_box = (x1 - smin[0], y1 - smin[1])
        bounds = []
        for i in range(2):
            vals = []
            for corner in product((lo_box[0], hi_box[0]), (lo_box[1], hi_box[1])):
                vals.append(sum(m_inv.entry(i, j) * corner[j] for j in range(2)))
            bounds.append((ceil(min(vals)) - 1, floor(max(vals)) + 1))
        for z in product(*(range(a, b + 1) for a, b in bounds)):
            mz = m.mat_vec(tuple(Fraction(v) for v in z))
            corners = [
                (mz[0], mz[1]),
                (mz[0] + g1[0], mz[1] + g1[1]),
                (mz[0] + g1[0] + g2[0], mz[1] + g1[1] + g2[1]),
                (mz[0] + g2[0], mz[1] + g2[1]),
            ]
            if clip_polygon_area(corners, window) > 0:
                count += 1
    return count


class TestRender:
    def test_k_polygon_census(self, kset):
        cfg = RenderConfig(window=(-5, 5, -5, 5))
        doc = render_svg(kset, cfg)
        assert doc.startswith('<?xml version="1.0"')
        assert "<svg " in doc
        produced = doc.count("<polygon ")
        assert produced >= 1
        assert produced == expected_polygon_count(kset, cfg)

    def test_l_polygon_census(self, lset):
        cfg = RenderConfig(window=(-4, 4, -4, 4))
        doc = render_svg(lset, cfg)
        assert doc.count("<polygon ") == expected_polygon_count(lset, cfg)

    def test_slice_fill_groups(self, mset, w_m):
        layout = slice_layout(mset, w_m, tuple((-6, 6) for _ in range(4)))
        doc = render_svg(layout, RenderConfig(window=(-5, 5, -5, 5)))
        fills = [
            part.split('"')[0]
            for part in doc.split('fill="')[1:]
            if not part.startswith("#ffffff")
        ]
        assert len(set(fills)) == 6
        assert doc.count("<g ") == 6

    def test_render_cli_dimension_guard(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n1 0 0\n0 1 0\n0 0 1\n")
        code, _, err = invoke(["render", "--matrix", str(path)])
        assert code == 2

    def test_render_to_file(self, matrix_files, tmp_path):
        out_path = tmp_path / "k.svg"
        code, out, _ = invoke(
            [
                "render",
                "--matrix",
                matrix_files["K"],
                "--window",
                "-3,3,-3,3",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert f"out={out_path}" in out
        assert out_path.read_text().count("<polygon ") > 0

    def test_render_stdout(self, matrix_files):
        code, out, _ = invoke(
            ["render", "--matrix", matrix_files["K"], "--window", "-2,2,-2,2"]
        )
        assert code == 0
        assert out.startswith('<?xml version="1.0"')


def svg_groups(doc):
    """{group id: [polygon points text, ...]} of an SVG document."""
    groups = {}
    for part in doc.split('<g id="')[1:]:
        gid, body = part.split('"', 1)
        groups[gid] = [p.split('"')[0] for p in body.split('<polygon points="')[1:]]
    return groups


class TestRenderAgainstSeparatingAxes:
    """render_svg's polygons against the old box scan with an exact
    separating-axis test, and each scanned translate against the area the
    window clips from it."""

    def _check(self, source, cfg):
        from fragtile import FragmentSet, render

        x0, x1, y0, y1 = cfg.window
        if isinstance(source, FragmentSet):
            zero = (Fraction(0), Fraction(0))
            basis = source.decomposition.m
            families = [(f.sigma, f.s, (zero,)) for f in source if f.sign_class != "degenerate"]
        else:
            basis = source.b
            families = [
                (c.sigma, c.shape, c.offsets)
                for c in source.classes
                if c.sign_class != "degenerate" and c.offsets
            ]
        groups = svg_groups(render_svg(source, cfg))
        assert len(groups) == len(families)
        touching = 0
        for sigma, shape, anchors in families:
            drawn, skipped = reference_family_polygons(shape, anchors, basis, cfg.window)
            expected = [
                " ".join(
                    f"{render.dec6((px - x0) * render.SCALE)},{render.dec6((y1 - py) * render.SCALE)}"
                    for px, py in corners
                )
                for corners in drawn
            ]
            assert groups["sigma-" + "-".join(map(str, sigma))] == expected, sigma
            assert all(clip_polygon_area(c, cfg.window) > 0 for c in drawn), sigma
            assert all(clip_polygon_area(c, cfg.window) == 0 for c in skipped), sigma
            # skipped translates with a corner on the closed window
            touching += sum(
                any(x0 <= px <= x1 and y0 <= py <= y1 for px, py in c) for c in skipped
            )
        return touching

    def test_seeded_2x2_matrices(self):
        rng = random.Random(23)
        for rational in (False, True):
            for _ in range(8):
                m = (
                    random_rational_invertible(rng, 2) if rational
                    else random_invertible(rng, 2, -4, 4)
                )
                fs = fragment_set(decompose(m, Dimensions(1, 1)))
                for _ in range(2):
                    x0 = Fraction(rng.randint(-12, 6), rng.randint(1, 3))
                    y0 = Fraction(rng.randint(-12, 6), rng.randint(1, 3))
                    x1 = x0 + Fraction(rng.randint(1, 12), rng.randint(1, 3))
                    y1 = y0 + Fraction(rng.randint(1, 12), rng.randint(1, 3))
                    self._check(fs, RenderConfig(window=(x0, x1, y0, y1)))

    def test_slice_layouts(self, mset, w_m):
        window = tuple((-4, 4) for _ in range(4))
        for w in (w_m, choose_generic_direction(mset, 1)):
            layout = slice_layout(mset, w, window)
            for box in ((-2, 2, -2, 2), (-3, 1, Fraction(-1, 2), Fraction(7, 3))):
                self._check(layout, RenderConfig(window=box))
        rng = random.Random(29)
        checked = 0
        while checked < 4:
            m = random_int_matrix(rng, 3, -3, 3)
            d = decompose(m, Dimensions(2, 1))
            if det(m) == 0 or not slice_precondition(d):
                continue
            fs = fragment_set(d)
            layout = slice_layout(fs, choose_generic_direction(fs, checked), ((-3, 3),) * 3)
            self._check(layout, RenderConfig(window=(-3, 3, -2, 4)))
            checked += 1

    def test_integer_windows_touch_tile_edges_and_corners(self, kset, lset):
        # The tiles of K and L have integer corners, so integer windows meet
        # some tiles only along an edge or at a corner: those are not drawn.
        touching = 0
        for fs in (kset, lset):
            for box in ((-3, 3, -3, 3), (0, 1, 0, 1), (-2, 0, 1, 3), (-1, 4, -5, -2), (2, 3, -1, 0)):
                touching += self._check(fs, RenderConfig(window=box))
        assert touching > 0


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, matrix_files, tmp_path):
        cases = [
            ["fragments", "--matrix", matrix_files["M"]],
            ["laplace", "--matrix", matrix_files["L"]],
            [
                "coverage",
                "--matrix",
                matrix_files["M"],
                "--point",
                "-2,1,-1/2,-1/2",
                "--seed",
                "5",
            ],
            ["verify", "--matrix", matrix_files["K"], "--samples", "60", "--seed", "3"],
            ["facets", "--matrix", matrix_files["M"], "--tau", "3", "--seed", "1"],
            [
                "double-cover",
                "--matrix",
                matrix_files["M"],
                "--tau",
                "4",
                "--samples",
                "25",
                "--seed",
                "2",
            ],
            [
                "crossing",
                "--matrix",
                matrix_files["L"],
                "--samples",
                "2",
                "--seed",
                "6",
                "--reach",
                "4",
            ],
            ["slice", "--matrix", matrix_files["K"], "--samples", "15", "--seed", "2"],
            ["render", "--matrix", matrix_files["L"], "--window", "-3,3,-3,3"],
        ]
        for argv in cases:
            first = invoke(argv)
            second = invoke(argv)
            assert first == second
            assert first[0] == 0
