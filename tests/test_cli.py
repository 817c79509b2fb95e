import random
import re
from fractions import Fraction
from itertools import product
from math import ceil, floor
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    clip_polygon_area,
    corpus_files,
    corpus_set,
    invoke,
    random_int_matrix,
    random_invertible,
    random_rational_invertible,
    reference_dec6,
    reference_family_polygons,
    rows_matrix,
)
from fragtile import (
    Dimensions,
    Matrix,
    TilingEngine,
    decompose,
    det,
    fragment_set,
    inverse,
    render,
    render_svg,
    slice_layout,
    choose_generic_direction,
)
from fragtile.cli import _COMMANDS, MatrixParseError, format_matrix, parse_matrix
from fragtile.linalg import DimensionError

K_TEXT = "1 1\n1 2\n-1 3\n"
L_TEXT = "1 1\n1 2\n1 5\n"
M_TEXT = "2 2\n3 2 -4 1\n1 0 2 2\n2 0 -1 1\n0 1 -2 3\n"
Q_TEXT = "2 1\n0 3/2 3\n-1 1/3 3\n1/2 -3/2 -1\n"
CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
TOO_MANY_DIGITS = "error: a report value has too many digits to print\n"
BIG_DET_TEXT = f"1 1\n{10**2500} 2\n3 {10**2500}\n"
BIG_Z = "0,0,0," + "9" * 4300


@pytest.fixture()
def matrix_files(tmp_path):
    paths = {}
    for name, text in (("K", K_TEXT), ("L", L_TEXT), ("M", M_TEXT), ("q3r2-1", Q_TEXT)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    for name in ("z3r2-1", "z4r3-1"):
        paths[name] = str(CORPUS / f"{name}.txt")
    return paths


class TestParseMatrix:
    def test_k(self):
        dims, m = parse_matrix(K_TEXT)
        assert (dims.r, dims.k) == (1, 1)
        assert m == Matrix.from_rows([[1, 2], [-1, 3]])

    def test_worked_4x4(self):
        dims, m = parse_matrix(M_TEXT)
        assert (dims.r, dims.k) == (2, 2)
        assert m.row(0)[2] == -4

    def test_comments_and_fractions(self):
        text = "# sizes\n1 1\n# first row\n1/2 -3/4\n2 5\n"
        _, m = parse_matrix(text)
        assert m.row(0) == (Fraction(1, 2), Fraction(-3, 4))

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

    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_newline_ends_a_line(self, sep):
        # Each of these is whitespace between two tokens of a row, and a
        # comment that holds one is one line: the error below is on line 4.
        _, m = parse_matrix(f"1 1\n1{sep}2\n3 4\n")
        assert m == Matrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(MatrixParseError) as info:
            parse_matrix(f"1 1\n# a{sep}b\n1 2\n3 x\n")
        assert (info.value.line, info.value.col) == (4, 3)

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


# (matrix, argv) of commands that read integer rows alone.
GUARD_COMMANDS = [
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
    ("M", ["fragments"]),
    ("q3r2-1", ["fragments"]),
    ("M", ["laplace"]),
    ("q3r2-1", ["laplace"]),
    ("z4r3-1", ["slice", "--samples", "5"]),
    ("z3r2-1", ["render"]),
]


class TestFractionMatrixGuard:
    """These commands run on integer rows: those a fragment set holds, and
    the slice lattice basis and its inverse, formed once per layout.  No
    Fraction determinant, inverse, solve or matrix-vector product, and no
    Matrix but the one the parse returns."""

    @pytest.mark.parametrize("matrix, argv", GUARD_COMMANDS)
    def test_the_parse_builds_the_only_matrix(self, matrix_files, monkeypatch, matrix, argv):
        # decompose clears the parsed Matrix, and nothing clears it again.
        import sys

        from fragtile import linalg

        n = parse_matrix(Path(matrix_files[matrix]).read_text())[0].n
        built, cleared = [], []
        init, clear_rows = linalg.Matrix.__init__, linalg.clear_rows

        def counting_init(self, rows, cols, entries):
            built.append((rows, cols))
            init(self, rows, cols, entries)

        def counting_clear_rows(a):
            if isinstance(a, linalg.Matrix):
                cleared.append((a.rows, a.cols))
            return clear_rows(a)

        monkeypatch.setattr(linalg.Matrix, "__init__", counting_init)
        for key, module in list(sys.modules.items()):
            if (key == "fragtile" or key.startswith("fragtile.")) and getattr(module, "clear_rows", None) is clear_rows:
                monkeypatch.setattr(module, "clear_rows", counting_clear_rows)
        code, _, err = invoke(argv[:1] + ["--matrix", matrix_files[matrix]] + argv[1:])
        assert code == 0, err
        assert built == [(n, n)]
        assert cleared == [(n, n)]

    @pytest.mark.parametrize("matrix, argv", GUARD_COMMANDS)
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

    def test_undecodable_matrix_file(self, tmp_path):
        # The file is read as UTF-8 under any locale; a byte that does not
        # decode is bad input on every command, not a traceback.
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"1 1\n1 2\n\xff 3\n")
        for command in _COMMANDS:
            code, out, err = invoke([command, "--matrix", str(path)])
            assert (code, out) == (2, ""), command
            assert err.startswith("error: cannot read matrix file: 'utf-8' codec can't decode"), command

    def test_flags_are_read_before_the_matrix_file(self):
        code, out, err = invoke(["coverage", "--matrix", "/nonexistent/x.txt", "--point", "1,x"])
        assert (code, out, err) == (2, "", "error: malformed --point value '1,x'\n")

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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # An exponent names a 50,001-digit point; the grammar has none.
            (["coverage", "--point", "1e50000,0"], "--point"),
            (["coverage", "--point", "1e5000000,0"], "--point"),
            # An integer past int's 4,300-digit string limit.
            (["coverage", "--point", "1" + "0" * 4300 + ",0"], "--point"),
            (["coverage", "--point", "0,0", "--w", "0.5,1"], "--w"),
            (["crossing", "--samples", "1", "--reach", "1e3"], "--reach"),
            (["crossing", "--samples", "1", "--reach", "2.5"], "--reach"),
            (["render", "--window", "-5,5,-5,5.0"], "--window"),
            # render reads --w only for a slice, but every value is checked
            # when the command line is parsed, also on K's 2 x 2 tiling.
            (["render", "--w", "1,x"], "--w"),
        ],
    )
    def test_numeric_flags_take_the_matrix_grammar(self, matrix_files, argv, flag):
        code, out, err = invoke(argv[:1] + ["--matrix", matrix_files["K"]] + argv[1:])
        assert (code, out) == (2, "")
        assert f"malformed {flag} value" in err
        assert len(err) < 200

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # int() reads "1_0" as 10 and an Arabic-Indic digit as 3; the
            # grammar takes ASCII digits only, and an index no "/".
            (["facets", "--tau", "1_0"], "--tau"),
            (["facets", "--tau", "1", "--z", "0,0,0,1_0"], "--z"),
            (["double-cover", "--gamma", "1,2,\u0663", "--samples", "5"], "--gamma"),
            (["facets", "--tau", "1/1"], "--tau"),
            (["facets", "--tau", "1", "--z", "0,0,0," + "9" * 5000], "--z"),
            (["facets", "--gamma", "1,2," + "3" * 5000], "--gamma"),
            (["coverage", "--point", "\u0663,0,0,0"], "--point"),
        ],
    )
    def test_index_flags_take_the_integer_grammar(self, matrix_files, argv, flag):
        code, out, err = invoke(argv[:1] + ["--matrix", matrix_files["M"]] + argv[1:])
        assert (code, out) == (2, "")
        assert f"malformed {flag} value" in err
        assert len(err) < 200

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "--seed", "1_0"], "--seed"),
            (["verify", "--seed", "\u0663"], "--seed"),
            (["verify", "--seed", "9" * 5000], "--seed"),
            (["verify", "--samples", "1_0"], "--samples"),
            (["verify", "--samples", "9" * 5000], "--samples"),
        ],
    )
    def test_int_flags_take_the_integer_grammar(self, matrix_files, argv, flag):
        code, out, err = invoke(argv[:1] + ["--matrix", matrix_files["K"]] + argv[1:])
        assert (code, out) == (2, "")
        assert f"malformed {flag} value" in err
        assert len(err) < 200

    def test_dimension_line_takes_the_integer_grammar(self, tmp_path):
        path = tmp_path / "dims.txt"
        path.write_text("1_0 1\n" + "1 0\n" * 11)
        code, out, err = invoke(["laplace", "--matrix", str(path)])
        assert (code, out) == (2, "")
        assert "dimensions must be integers" in err

    @pytest.mark.parametrize(
        "matrix, argv, message, companion",
        [
            # A matrix token past the 4,300-digit limit is refused where it stands.
            pytest.param(
                "1 1\n1 2\n3 " + "7" * 4301 + "\n", ["laplace"], "line 3 col 3", None,
                id="matrix-token",
            ),
            # Every token has 2,501 digits, but det M = 10^5000 - 6 has 5,000.
            # The commands that do not print det M still report.
            pytest.param(
                BIG_DET_TEXT, ["fragments"], TOO_MANY_DIGITS,
                (["coverage", "--point", "1/2,1/3"], " ok\n"),
                id="fragments-detM",
            ),
            pytest.param(
                BIG_DET_TEXT, ["laplace"], TOO_MANY_DIGITS,
                (["verify", "--samples", "20"], " pass=true\n"),
                id="laplace-detM",
            ),
            # z has 4,300 digits, which parse; a gamma member's plain z is
            # z_j + 1, with 4,301.  The tau collection's members keep z.
            pytest.param(
                M_TEXT, ["facets", "--gamma", "1,2,4", "--z", BIG_Z], TOO_MANY_DIGITS,
                (["facets", "--tau", "1", "--z", BIG_Z], " pass=true\n"),
                id="facets-member",
            ),
            # B= prints, but area = |det C| = 10^4400 has 4,401 digits.
            pytest.param(
                f"2 1\n{10**2200} 1 0\n0 {10**2200} 1\n1 0 1\n", ["slice", "--samples", "2"],
                TOO_MANY_DIGITS, None,
                id="slice-area",
            ),
            # The point and w print, but the tile holding (0, 10^4000) in the
            # lattice of M = diag(1, 10^-4000) has a z of 8,001 digits.
            pytest.param(
                f"1 1\n1 0\n0 1/{10**4000}\n", ["coverage", "--point", f"0,{10**4000}"],
                TOO_MANY_DIGITS, None,
                id="coverage-tile",
            ),
            # crossing refuses these after its w= reach= line is known.
            pytest.param(
                K_TEXT, ["crossing", "--reach", "0", "--samples", "3"],
                "error: reach must be positive\n", None,
                id="crossing-reach-zero",
            ),
            pytest.param(
                K_TEXT, ["crossing", "--reach", "-1", "--samples", "3"],
                "error: reach must be positive\n", None,
                id="crossing-reach-negative",
            ),
            pytest.param(
                K_TEXT, ["crossing", "--point", "1,2,3", "--samples", "3"],
                "error: point has length 3, expected 2\n", None,
                id="crossing-point-length",
            ),
        ],
    )
    def test_exit_2_writes_nothing_on_stdout(self, tmp_path, matrix, argv, message, companion):
        # The whole report is refused, none of it printed.
        path = tmp_path / "matrix.txt"
        path.write_text(matrix)
        code, out, err = invoke([argv[0], "--matrix", str(path), *argv[1:]])
        assert (code, out) == (2, "")
        assert message in err
        if companion is not None:
            argv, ending = companion
            code, out, _ = invoke([argv[0], "--matrix", str(path), *argv[1:]])
            assert code == 0 and out.endswith(ending)

    def test_the_digit_guard_covers_only_formatting(self, matrix_files, monkeypatch):
        # A ValueError raised while a command computes is a fault, not a
        # value too long to print: it propagates.
        from fragtile import cli

        def broken(fs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "laplace_identity", broken)
        with pytest.raises(ValueError, match="boom"):
            invoke(["laplace", "--matrix", matrix_files["K"]])

    def test_out_of_memory_is_bad_input(self, matrix_files, monkeypatch):
        # A search too large for the machine (render or crossing over a
        # huge translate range) raises MemoryError: exit 2 with a reason,
        # not a traceback and the violation code 1.  Raised here without
        # allocating anything.
        from fragtile import cli

        def exhausted(fs):
            raise MemoryError

        monkeypatch.setattr(cli, "laplace_identity", exhausted)
        assert invoke(["laplace", "--matrix", matrix_files["K"]]) == (2, "", "error: out of memory\n")

    def test_render_window_past_a_machine_index(self, matrix_files):
        # A 4,299-digit bound parses, but range() in the translate scan
        # takes machine-size bounds; the box is refused before the scan.
        window = "-5,5,-5," + "9" * 4299
        code, out, err = invoke(["render", "--matrix", matrix_files["K"], "--window", window])
        assert (code, out) == (2, "")
        assert err == "error: window too large: its translate box does not fit a machine index\n"

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


# Each value flag's grammar, written apart from cli: comma-separated
# rationals or integers in ASCII digits, or a single one.
RATIONAL = r"[+-]?[0-9]+(?:/[0-9]+)?"
INTEGER = r"[+-]?[0-9]+"
FLAG_GRAMMARS = {
    "--w": (RATIONAL, True), "--point": (RATIONAL, True), "--window": (RATIONAL, True),
    "--reach": (RATIONAL, False), "--seed": (INTEGER, False), "--samples": (INTEGER, False),
    "--tau": (INTEGER, True), "--gamma": (INTEGER, True), "--z": (INTEGER, True),
}
# Valid values of the flags each fuzzed command needs, on K and on M.
FUZZ_BASES = {
    "coverage": ({"--point": "1/3,1/5"}, {"--point": "1/3,1/5,1/7,1/11"}),
    "facets": ({"--tau": ""}, {"--tau": "2"}),
    "verify": ({"--samples": "2"},) * 2,
    "crossing": ({"--samples": "1", "--reach": "1"},) * 2,
    "render": ({},) * 2,
}
FUZZ_FLAGS = [
    (command, flag) for command in FUZZ_BASES for flag in _COMMANDS[command][1] if flag in FLAG_GRAMMARS
]
# Lists of small numbers, near misses of the grammar, and any text.
SMALL_NUMBER = st.integers(-3, 3).map(str) | st.builds("{}/{}".format, st.integers(-3, 3), st.integers(0, 3))
FLAG_TEXT = (
    st.lists(SMALL_NUMBER, max_size=5).map(",".join)
    | st.text(alphabet="0123456789/+-, x._\u0663", max_size=12)
    | st.text(max_size=12)
)


def grammar_tokens(flag: str, text: str):
    """The tokens of a value in its flag's grammar, or None for a value
    outside it.  An empty subset is in the grammar."""
    pattern, many = FLAG_GRAMMARS[flag]
    text = text.strip()
    if flag in ("--tau", "--gamma", "--z") and not text:
        return []
    tokens = [tok.strip() for tok in text.split(",")] if many else [text]
    return tokens if all(re.fullmatch(pattern, tok) for tok in tokens) else None


def checked_run(argv):
    """run's exit code and stderr, after checking that it returned 0, 1 or
    2 and, with 2, printed nothing on stdout."""
    code, out, err = invoke(argv)
    assert code in (0, 1, 2)
    assert code != 2 or out == ""
    return code, err


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "matrix.txt"


class TestInputFuzz:
    # Random input never escapes run as an exception.

    @given(data=st.binary(max_size=40) | st.binary(max_size=20).map(lambda tail: b"1 1\n1 2\n" + tail))
    @example(data=b"1 1\n1 2\n\xff 3\n")
    def test_matrix_file_bytes(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        checked_run(["laplace", "--matrix", str(fuzz_file)])

    @settings(max_examples=200)
    @given(pair=st.sampled_from(FUZZ_FLAGS), on_m=st.booleans(), value=FLAG_TEXT)
    def test_flag_values(self, pair, on_m, value):
        command, flag = pair
        tokens = grammar_tokens(flag, value)
        if tokens is not None and flag in ("--reach", "--samples", "--window"):
            # At most 2: more rays, longer rays or a wider window only cost time.
            for tok in tokens:
                num, _, den = tok.partition("/")
                assume(abs(int(num)) <= 2 * int(den or 1))
        values = {**FUZZ_BASES[command][on_m], flag: value}
        if flag == "--gamma":
            del values["--tau"]
        argv = [command, "--matrix", str(CORPUS / ("M.txt" if on_m else "K.txt"))]
        code, err = checked_run(argv + [x for item in values.items() for x in item])
        if tokens is None:
            assert code == 2 and f"malformed {flag} value" in err


def test_readme_flag_table_matches_the_parser():
    # README's "flags besides --matrix" table against every subparser.
    from fragtile import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command        | flags besides `--matrix`")[1].split("\n\n")[0]
    documented = {}
    for line in table.splitlines()[2:]:
        name, flags = (cell.strip() for cell in line.strip("|").split("|"))
        documented[name.strip("`")] = [] if flags == "none" else [f.strip("` ") for f in flags.split(",")]
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    parsed = {
        name: [
            opt
            for action in sub._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help", "--matrix")
        ]
        for name, sub in subparsers.choices.items()
    }
    assert documented == parsed


def test_readme_library_example_runs():
    # README's Library example, statement by statement: an expression
    # statement with a trailing comment must evaluate to the comment's value.
    import ast

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    source = readme.split("## Library\n\n```python\n")[1].split("```")[0]
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and comment:
            assert eval(code, namespace) == eval(comment, namespace), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 3


def expected_polygon_count(fs, window):
    """Clipping-area oracle: translates whose clipped area is positive."""
    x0, x1, y0, y1 = window = tuple(map(Fraction, window))
    m = fs.decomposition.m
    m_inv = inverse(m)
    count = 0
    for frag in fs:
        if frag.sign_class == "degenerate":
            continue
        g1, g2 = zip(*frag.s.row_list())
        smin = [min(0, g1[i]) + min(0, g2[i]) for i in range(2)]
        smax = [max(0, g1[i]) + max(0, g2[i]) for i in range(2)]
        lo_box = (x0 - smax[0], y0 - smax[1])
        hi_box = (x1 - smin[0], y1 - smin[1])
        bounds = []
        for i in range(2):
            vals = []
            for corner in product((lo_box[0], hi_box[0]), (lo_box[1], hi_box[1])):
                vals.append(sum(m_inv.row(i)[j] * corner[j] for j in range(2)))
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
        window = (-5, 5, -5, 5)
        doc = render_svg(kset, window)
        assert doc.startswith('<?xml version="1.0"')
        assert "<svg " in doc
        produced = doc.count("<polygon ")
        assert produced >= 1
        assert produced == expected_polygon_count(kset, window)

    def test_window_of_the_wrong_length(self, matrix_files, kset):
        # The library names the length; the CLI keeps its flag-named message.
        for window in ((0, 1, 2), (0, 1, 0, 1, 2)):
            with pytest.raises(DimensionError, match=f"window has {len(window)} bounds, expected 4"):
                render_svg(kset, window)
        code, out, err = invoke(["render", "--matrix", matrix_files["K"], "--window", "0,1,2"])
        assert (code, out, err) == (2, "", "error: --window must be x0,x1,y0,y1\n")

    def test_l_polygon_census(self, lset):
        window = (-4, 4, -4, 4)
        doc = render_svg(lset, window)
        assert doc.count("<polygon ") == expected_polygon_count(lset, window)

    def test_slice_fill_groups(self, mset, w_m):
        layout = slice_layout(mset, w_m, tuple((-6, 6) for _ in range(4)))
        doc = render_svg(layout, (-5, 5, -5, 5))
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


class TestDec6:
    """render.dec6(num, den) against round() of the Fraction num / den."""

    @given(st.integers(-(10**30), 10**30), st.integers(1, 10**15))
    @example(0, 1)
    @example(-1, 3 * 10**6)
    def test_matches_the_fraction_rounding(self, num, den):
        assert render.dec6(num, den) == reference_dec6(Fraction(num, den))

    @given(st.integers(0, 6), st.integers(-(10**9), 10**9), st.integers(1, 10**6))
    @example(0, 0, 1)
    @example(0, 1, 1)
    @example(0, -1, 1)
    @example(0, -2, 1)
    def test_exact_ties_round_to_even(self, j, half, m):
        # num 10^6 / den = t / 2 with t = (2 half + 1) 5^j odd, so
        # num 10^6 = den / 2 (mod den): a tie between t // 2 and t // 2 + 1.
        # The examples are t = 1, 3, -1, -3: they round down to 0, up to 2,
        # up to 0 and down to -2 (in units of 10^-6).
        t = (2 * half + 1) * 5**j
        num, den = (2 * half + 1) * m, 2**7 * 5 ** (6 - j) * m
        assert 2 * num * 10**6 == t * den
        text = render.dec6(num, den)
        assert text == reference_dec6(Fraction(num, den))
        rounded = int(text.replace(".", ""))
        assert rounded % 2 == 0 and rounded in (t // 2, t // 2 + 1)


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

    def _check(self, source, window):
        from fragtile import FragmentSet

        x0, x1, y0, y1 = box = tuple(map(Fraction, window))
        if isinstance(source, FragmentSet):
            zero = (Fraction(0), Fraction(0))
            basis = source.decomposition.m
            families = [(f.sigma, f.s, (zero,)) for f in source if f.sign_class != "degenerate"]
        else:
            basis = rows_matrix(*source.b_rows)
            den = source.b_rows[0]
            families = [
                (c.sigma, rows_matrix(den, c.shape), [tuple(Fraction(x, den) for x in o) for o in c.offsets])
                for c in source.classes
                if c.sign_class != "degenerate" and c.offsets
            ]
        groups = svg_groups(render_svg(source, window))
        assert len(groups) == len(families)
        touching = 0
        for sigma, shape, anchors in families:
            drawn, skipped = reference_family_polygons(shape, anchors, basis, box)
            expected = [
                " ".join(
                    f"{reference_dec6((px - x0) * render.SCALE)},{reference_dec6((y1 - py) * render.SCALE)}"
                    for px, py in corners
                )
                for corners in drawn
            ]
            assert groups["sigma-" + "-".join(map(str, sigma))] == expected, sigma
            assert all(clip_polygon_area(c, box) > 0 for c in drawn), sigma
            assert all(clip_polygon_area(c, box) == 0 for c in skipped), sigma
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
                    self._check(fs, (x0, x1, y0, y1))

    def test_slice_layouts(self, mset, w_m):
        window = tuple((-4, 4) for _ in range(4))
        for w in (w_m, choose_generic_direction(mset, 1)):
            layout = slice_layout(mset, w, window)
            for box in ((-2, 2, -2, 2), (-3, 1, Fraction(-1, 2), Fraction(7, 3))):
                self._check(layout, box)
        rng = random.Random(29)
        checked = 0
        while checked < 4:
            m = random_int_matrix(rng, 3, -3, 3)
            d = decompose(m, Dimensions(2, 1))
            if det(m) == 0:
                continue
            fs = fragment_set(d)
            layout = slice_layout(fs, choose_generic_direction(fs, checked), ((-3, 3),) * 3)
            self._check(layout, (-3, 3, -2, 4))
            checked += 1

    def test_corpus(self):
        # Every n = 2 corpus tiling and every r = 2 corpus slice, in the
        # default window and one whose denominators divide
        # no matrix's.  A radius-2 translate window keeps the n = 6 layouts
        # and the oracle's scan cheap; it still leaves 3 to 123 offsets.
        tilings = slices = 0
        for path in corpus_files():
            fs = corpus_set(path)
            n = fs.dims.n
            if n == 2:
                source, tilings = fs, tilings + 1
            elif fs.dims.r == 2:
                source = slice_layout(fs, choose_generic_direction(fs, 0), ((-2, 2),) * n)
                slices += 1
            else:
                continue
            for box in ((-5, 5, -5, 5), (-3, 1, Fraction(-1, 2), Fraction(7, 3))):
                self._check(source, box)
        assert (tilings, slices) == (2, 27)

    def test_integer_windows_touch_tile_edges_and_corners(self, kset, lset):
        # The tiles of K and L have integer corners, so integer windows meet
        # some tiles only along an edge or at a corner: those are not drawn.
        touching = 0
        for fs in (kset, lset):
            for box in ((-3, 3, -3, 3), (0, 1, 0, 1), (-2, 0, 1, 3), (-1, 4, -5, -2), (2, 3, -1, 0)):
                touching += self._check(fs, box)
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
