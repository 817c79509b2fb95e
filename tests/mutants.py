"""Mutation witnesses: small wrong versions of fragtile that named tests kill.

Each row of MUTANTS replaces one exact text of a module under src/fragtile
with a new one and names the tests that must fail on the result.  The runner
copies src/ to a temporary directory, applies one mutant there, runs only the
named tests against the copy, and lists the mutants that survive (every
named test passed).  The repository's own files are never changed.

    python tests/mutants.py            # every row
    python tests/mutants.py 11 12 13   # the rows with these indices

It exits 1 when a mutant survives or cannot be applied, and 0 otherwise.
tests/test_mutant_table.py checks in the tier-1 suite that each old text
occurs exactly once in src/, so the table cannot rot silently.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


# Every determinant runs the echelon branch of eliminate.
ECHELON_TESTS = (
    "tests/test_linalg.py::TestDet::test_int_det_matches_cofactor_oracle_to_size_6",
    "tests/test_linalg.py::TestFractionFreeElimination::test_echelon_mode_returns_the_gauss_jordan_contract",
    "tests/test_fragments.py::TestEliminationGuard::test_fragments_and_laplace_past_n_6",
)

MUTANTS = [
    # The extents' sums swapped: every box is empty or inside out.
    Mutant(
        "tiling",
        "(sum(x for x in row if x < 0), sum(x for x in row if x > 0))",
        "(sum(x for x in row if x > 0), sum(x for x in row if x < 0))",
        (
            "tests/test_tiling.py::TestCubeExtents::test_the_extremes_over_the_corners",
            "tests/test_tiling.py::TestSizeReduce::test_frames_match_the_product_construction",
            "tests/test_slices.py::TestScannedBoxes::test_slice_and_render_scan_the_reference_boxes",
        ),
    ),
    # Render's lower bound rounded down: one more row of translates is
    # scanned, and the same polygons are drawn, so only the box check sees it.
    Mutant(
        "render",
        "(-((-c - lo) // eq), (c + hi) // eq)",
        "((c + lo) // eq, (c + hi) // eq)",
        ("tests/test_slices.py::TestScannedBoxes::test_slice_and_render_scan_the_reference_boxes",),
    ),
    # dec6 rounding half up: a tie prints the odd neighbour, which no
    # golden window reaches, so only the tie tests see it.
    Mutant(
        "render",
        "if 2 * rem > den or (2 * rem == den and n % 2):",
        "if 2 * rem >= den:",
        ("tests/test_cli.py::TestDec6::test_exact_ties_round_to_even",),
    ),
    # The Laplace expansion of a minor table drops its last column's term:
    # block determinants and cofactors go wrong from size 2 on.
    Mutant(
        "fragments",
        "for p, j in enumerate(tau):",
        "for p, j in enumerate(tau[:-1]):",
        (
            "tests/test_fragments.py::TestMinorTables::test_corpus",
            "tests/test_fragments.py::TestMinorTables::test_tables_hold_the_block_minors",
            "tests/test_golden.py",
        ),
    ),
    # The slice key box built from M's top rows instead of its bottom block.
    Mutant(
        "slices",
        "extents = cube_extents([[row[j - 1] for j in sigma_hat] for row in v_rows])",
        "extents = cube_extents([[row[j - 1] for j in sigma_hat] for row in m_rows[:r]])",
        (
            "tests/test_slices.py::TestScannedBoxes::test_slice_and_render_scan_the_reference_boxes",
            "tests/test_slices.py::TestKeyScan::test_each_fragment_has_its_bottom_minor_of_keys",
        ),
    ),
    # A frame's upper bound read from the positive extent: the box loses
    # translates whose tiles hold the point.
    Mutant(
        "tiling",
        "(bi - low * den) // scale)",
        "(bi - high * den) // scale)",
        (
            "tests/test_tiling.py::TestSizeReduce::test_frames_match_the_product_construction",
            "tests/test_tiling.py::TestSizeReduce::test_candidate_box_is_the_scanned_box",
            "tests/test_golden.py",
        ),
    ),
    # The crossing scan over the start's box only, not the union with the
    # end's: crossings far along the ray are missed.
    Mutant(
        "facets",
        "(min(lo0, lo1), max(hi0, hi1))",
        "(lo0, hi0)",
        ("tests/test_facets.py::TestEventScan::test_worked_matrices",),
    ),
    # The crossing scan reads the widened residual as the start's
    # coordinates: every crossing time is off by the widening.
    Mutant(
        "facets",
        "y = [v - widen for v in wide_y]",
        "y = list(wide_y)",
        (
            "tests/test_facets.py::TestEventScan::test_worked_matrices",
            "tests/test_facets.py::TestCrossingScanGuard::test_cell_position_runs_only_at_crossings",
            "tests/test_facets.py::TestCrossing::test_boundary_start_scanned_as_given",
            "tests/test_golden.py",
        ),
    ),
    # Render's open-strip test admits a residual on a strip's lower edge: a
    # parallelogram that only touches the window is drawn.
    Mutant(
        "render",
        "if 0 < min(v) and max(v) < one:",
        "if 0 <= min(v) and max(v) < one:",
        (
            "tests/test_cli.py::TestRender::test_k_polygon_census",
            "tests/test_cli.py::TestRenderAgainstSeparatingAxes::test_seeded_2x2_matrices",
            "tests/test_cli.py::TestRenderAgainstSeparatingAxes::test_integer_windows_touch_tile_edges_and_corners",
            "tests/test_golden.py",
        ),
    ),
    # tiles_at classifies with the rules negated, the rules of -w: the cover
    # count stays constant, so only the oracles with w's own rules see it.
    Mutant(
        "tiling",
        "inside, touching = cell_position(y, frame.one2, frame.rules)",
        "inside, touching = cell_position(y, frame.one2, [not r for r in frame.rules])",
        (
            "tests/test_tiling.py::TestEnumerate::test_worked_point_memberships",
            "tests/test_tiling.py::TestEnumerate::test_matches_brute_force_rational",
            "tests/test_golden.py",
        ),
    ),
    # The grammar without re.ASCII reads an Arabic-Indic digit as 3.
    Mutant(
        "cli",
        '_RATIONAL = re.compile(r"[+-]?\\d+(?:/\\d+)?\\Z", re.ASCII)',
        '_RATIONAL = re.compile(r"[+-]?\\d+(?:/\\d+)?\\Z")',
        (
            "tests/test_cli.py::TestInputErrors::test_index_flags_take_the_integer_grammar",
            "tests/test_cli.py::TestInputErrors::test_int_flags_take_the_integer_grammar",
        ),
    ),
    # The lambda pair left unreduced: (e q, X wn) is the same lambda, but not
    # the least-denominator pair that lambda_of promises.
    Mutant(
        "tiling",
        "g = gcd(e * q, *nums)",
        "g = 1",
        ("tests/test_fragments.py::TestIntegerSetUp::test_fuzz_against_the_fraction_blocks",),
    ),
    # The sign class read from the block minors without the shuffle sign.
    Mutant(
        "fragments",
        "sign = shuffle_sign(sigma) * det_top * det_bottom",
        "sign = det_top * det_bottom",
        (
            "tests/test_fragments.py::TestFragmentSet::test_worked_4x4_classes",
            "tests/test_fragments.py::TestIntegerSetUp::test_fuzz_against_the_fraction_blocks",
            "tests/test_golden.py",
        ),
    ),
    # The integer-token path taken for p/q tokens too: int() refuses them.
    Mutant(
        "cli",
        'if "/" not in tok:',
        "if tok:",
        (
            "tests/test_cli.py::TestParseMatrix::test_comments_and_fractions",
            "tests/test_golden.py",
        ),
    ),
    # Echelon mode's pivot tail sliced one column late: every row below a
    # pivot is combined with the wrong entries of the pivot row.
    Mutant(
        "linalg",
        "tail = y[col:]",
        "tail = y[col + 1:]",
        ECHELON_TESTS,
    ),
    # Echelon mode without the exact division by the previous pivot: the
    # entries grow by that factor at every step from the second pivot on.
    Mutant(
        "linalg",
        "x[col:] = [(p * a - f * b) // prev for a, b in zip(x[col:], tail)]",
        "x[col:] = [(p * a - f * b) for a, b in zip(x[col:], tail)]",
        ECHELON_TESTS,
    ),
    # Echelon mode skips the first row below each pivot.
    Mutant(
        "linalg",
        "for r in range(row + 1, nrows):",
        "for r in range(row + 2, nrows):",
        ECHELON_TESTS,
    ),
    # The report formatter without its digit-limit except: a value too long
    # to print escapes run as a ValueError instead of exiting 2.
    Mutant(
        "cli",
        "    except ValueError:  # CPython's int-to-str digit limit\n"
        '        raise CliInputError("a report value has too many digits to print") from None',
        "    finally:\n        pass",
        ("tests/test_cli.py::TestInputErrors::test_exit_2_writes_nothing_on_stdout",),
    ),
    # A crossing time on two non-parallel facets raises instead of marking
    # the ray degenerate, so it is never moved to a resampled start.
    Mutant(
        "facets",
        "        if len(normals) > 1:\n            return True, []",
        '        if len(normals) > 1:\n            raise AssertionError("non-parallel facets")',
        ("tests/test_facets.py::TestClassifyEvents::test_non_parallel_normals",),
    ),
    # The adjugate's parity signs swapped: every S_sigma^-1 is negated, and
    # with it every lambda, half-open rule and cell coordinate.
    Mutant(
        "fragments",
        "pairs.append((s, -scale * g if i & 1 else scale * g))",
        "pairs.append((s, scale * g if i & 1 else -scale * g))",
        (
            "tests/test_fragments.py::TestMinorTables::test_adjugate_of_random_blocks",
            "tests/test_fragments.py::TestMinorTables::test_corpus",
            "tests/test_golden.py",
        ),
    ),
    # size_reduce steps on a tie |<r_i, r_j>| = <r_j, r_j> // 2 too: such a
    # step leaves |r_i|^2 unchanged, so it raises ValueError.
    Mutant(
        "tiling",
        "if i == j or -half <= d <= half:",
        "if i == j or -half < d < half:",
        (
            "tests/test_tiling.py::TestSizeReduce::test_matches_the_reference_reduction",
            "tests/test_tiling.py::TestSizeReduce::test_frames_match_the_product_construction",
            "tests/test_golden.py",
        ),
    ),
    # Hits mapped back with W instead of W^-1: a tile is reported at x, not
    # at the translate z = W^-1 x.
    Mutant(
        "tiling",
        "return tuple(sum(map(mul, row, x)) for row in self.to_z)",
        "return tuple(sum(map(mul, row, x)) for row in self.to_x)",
        (
            "tests/test_tiling.py::TestReducedBox::test_matches_brute_force_where_the_axis_box_is_large",
            "tests/test_golden.py",
        ),
    ),
    # The crossing scan without its widening: it scans only the translates
    # whose cell holds the start, so crossings along the ray are missed.
    Mutant(
        "facets",
        "widen = -(-reach_num * max(abs_lam) // scale) * one",
        "widen = 0",
        (
            "tests/test_facets.py::TestEventScan::test_worked_matrices",
            "tests/test_facets.py::TestCrossing::test_boundary_start_scanned_as_given",
            "tests/test_golden.py",
        ),
    ),
    # unimodular_reduce breaks a tie between equally small pivots by the
    # last column, not the first: U is another unimodular matrix, so the
    # B= rows of `slice` can differ.
    Mutant(
        "slices",
        "small = min(nz, key=lambda c: abs(cols[c][t]))",
        "small = min(reversed(nz), key=lambda c: abs(cols[c][t]))",
        (
            "tests/test_slices.py::TestUnimodularReduce::test_same_reduction_as_the_row_form_on_the_corpus",
            "tests/test_slices.py::TestUnimodularReduce::test_same_reduction_as_the_row_form_on_random_matrices",
        ),
    ),
    # unimodular_reduce leaves the earlier columns unreduced modulo each
    # pivot: [H | 0] still spans the key lattice but is not its Hermite form,
    # and U differs from the coprime case's.  The goldens do not see it.
    Mutant(
        "slices",
        "for c in range(t):",
        "for c in range(0):",
        (
            "tests/test_slices.py::TestUnimodularReduce::test_reduces_every_nonsingular_m",
            "tests/test_slices.py::TestUnimodularReduce::test_same_reduction_as_the_row_form_on_the_corpus",
        ),
    ),
    # The slice cell e in place of e d: the residuals -X_hat H v are in units
    # of 1 / (e d), so the key scan keeps the keys of a cell d times too small.
    Mutant(
        "slices",
        "one = e * m_den",
        "one = e",
        (
            "tests/test_slices.py::TestSliceLayout::test_matches_the_fraction_layout_on_the_corpus",
            "tests/test_slices.py::TestKeyIndex::test_layouts_count_classes_by_the_key_index_on_the_corpus",
            "tests/test_golden.py",
        ),
    ),
    # `slice` expects |det Cbar_hat| classes per family, not |det Cbar_hat| / g.
    Mutant(
        "cli",
        "expected_classes = abs(frag.det_cbar) / layout.g",
        "expected_classes = abs(frag.det_cbar)",
        (
            "tests/test_golden.py",
            "tests/test_census.py",
        ),
    ),
    # S^-1 M with +de on the complement's diagonal block, as on sigma's: the
    # frame's h2 no longer maps translates to the fragment basis.
    Mutant(
        "tiling",
        "(hat, sig, -de)",
        "(hat, sig, de)",
        (
            "tests/test_tiling.py::TestSizeReduce::test_frames_keep_the_translate_lattice",
            "tests/test_golden.py",
        ),
    ),
    # The narrowest box coordinate last: the same tiles, found by scanning
    # more prefixes, so only the width and prefix-count guards and the test
    # that pins W see it.
    Mutant(
        "tiling",
        "widths.index(max(widths))",
        "widths.index(min(widths))",
        (
            "tests/test_tiling.py::TestSizeReduce::test_frames_match_the_product_construction",
            "tests/test_tiling.py::TestSizeReduce::test_frames_put_the_widest_coordinate_last",
            "tests/test_tiling.py::TestSizeReduce::test_verify_past_n_6_scans_few_prefixes",
        ),
    ),
    # render_svg accepts a window of zero width or height: `render --window
    # 1,1,0,2` writes an SVG and exits 0 instead of exiting 2.
    Mutant(
        "render",
        "x0 < x1 and y0 < y1",
        "x0 <= x1 and y0 <= y1",
        ("tests/test_golden.py::test_golden_stdout[error-render-window]",),
    ),
    # facets prints each live member on the wrong side of the split that
    # up_down_partition makes; the up= and down= counts stay right.
    Mutant(
        "cli",
        'side = "up" if facet in up_set else "down"',
        'side = "down" if facet in up_set else "up"',
        ("tests/test_golden.py::test_golden_stdout[facets-M-tau]",),
    ),
    # fragments prints the integer block minors of a rational M as detC and
    # detCbar: they are det C and det Cbar scaled by a power of its
    # denominator, so the fork must stay on integer matrices.
    Mutant(
        "cli",
        "ints = fs.m_rows[0] == 1",
        "ints = True",
        ("tests/test_golden.py::test_golden_stdout[fragments-q3r2-1]",),
    ),
    # The flag reader lets a grammar's ValueError through: argparse takes it
    # and prints its usage and "invalid read value" in place of the reason.
    Mutant(
        "cli",
        'except ValueError:\n            raise CliInputError(f"malformed {flag} value',
        'except ArithmeticError:\n            raise CliInputError(f"malformed {flag} value',
        ("tests/test_cli.py::TestInputErrors::test_numeric_flags_take_the_matrix_grammar",),
    ),
    # --samples 0 is taken, and a run checks nothing.
    Mutant(
        "cli",
        "if value < 1:",
        "if value < 0:",
        ("tests/test_cli.py::TestInputErrors::test_samples_below_one",),
    ),
    # double_cover_check takes the boundary flag from each fragment's first
    # member only: a sample that touches only an s = 1 shadow's boundary is
    # not counted, which only the boundary counts on the step-1/4 grid see
    # (the block map carries the fault over; its pinned count sees it).
    Mutant(
        "facets",
        "touched |= pos[1]",
        "touched |= pos[1] and constants is anchors[0][0]",
        (
            "tests/test_facets.py::TestDoubleCover::test_matches_the_fraction_path_with_redraws",
            "tests/test_facets.py::TestDoubleCover::test_the_rules_match_the_fraction_path_on_the_corpus",
            "tests/test_tiling.py::TestBlockLinearMaps::test_double_cover_maps_with_the_block_map",
        ),
    ),
    # The shared cofactor rows of the bottom side built with the parity of
    # the other side: every S_sigma^-1 has its rows off sigma negated, so
    # lambda's entries there and the bottom cell coordinates flip sign.
    Mutant(
        "fragments",
        "row = [-table[key] if j & 1 else table[key] for j, table in enumerate(deleted)]",
        "row = [-table[key] if (j + side) & 1 else table[key] for j, table in enumerate(deleted)]",
        (
            "tests/test_fragments.py::TestMinorTables::test_adjugate_of_random_blocks",
            "tests/test_fragments.py::TestSharedCofactors::test_rows_and_lambdas_match_the_fraction_inverse",
            "tests/test_golden.py",
        ),
    ),
    # fundamental_point drops d from its denominator: every verify sample on
    # a rational matrix (d > 1) is the point d times too far out, which only
    # the rational cases of the Fraction comparison and the goldens see.
    Mutant(
        "tiling",
        "m_den * SAMPLE_DENOMINATOR",
        "SAMPLE_DENOMINATOR",
        (
            "tests/test_tiling.py::TestVerifyConstancy::test_matches_the_fraction_path",
            "tests/test_golden.py::test_golden_stdout[verify-q3r2-1]",
            "tests/test_golden.py::test_perfbench_digests[dense]",
        ),
    ),
    # render draws a slice's class offsets unscaled: an offset is an integer
    # over B's denominator d and the window's over q, so every anchor lands
    # q / d times too close to the origin.  Only windows with a denominator
    # that d does not divide see it; the render goldens' integer windows
    # give q = d.
    Mutant(
        "render",
        "tuple(x * scale for x in anchor)",
        "tuple(anchor)",
        (
            "tests/test_cli.py::TestRenderAgainstSeparatingAxes::test_slice_layouts",
            "tests/test_cli.py::TestRenderAgainstSeparatingAxes::test_corpus",
            "tests/test_slices.py::TestScannedBoxes::test_slice_and_render_scan_the_reference_boxes",
        ),
    ),
]


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the mutant's old text, which must occur exactly once, in the
    copy of src/ under root."""
    path = root / "fragtile" / f"{mutant.module}.py"
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"old text occurs {text.count(mutant.old)} times in {mutant.module}.py")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="fragtile-mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            apply(copy, mutant)
        except ValueError as exc:
            return f"error: {exc}"
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        command = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", f"pythonpath={copy}", *mutant.tests,
        ]
        result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed; 0 means every named test passed.
    if result.returncode == 1:
        return "killed"
    if result.returncode == 0:
        return "survived"
    return f"error: pytest exit {result.returncode}: {result.stdout.strip().splitlines()[-1:]}"


def main(argv: list[str]) -> int:
    """Run the rows whose indices argv names, or every row."""
    indices = [int(x) for x in argv] or range(len(MUTANTS))
    failed = 0
    for index in indices:
        mutant = MUTANTS[index]
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{index} {mutant.module}: {outcome}", flush=True)
    print(f"mutants={len(indices)} not_killed={failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
