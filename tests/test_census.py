"""The n = 2 census (ROADMAP item 12): every nonsingular 2 x 2 integer matrix
with entries in -2..2, split r = k = 1, through the library's `verify` and
`double-cover` checks and through the `slice` command.  The paper's
one-signed case and its converse (ROADMAP item 17) are checked on the census
and on the corpus."""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from pathlib import Path

from conftest import corpus_files, corpus_set, invoke
from fragtile import (
    DEGENERATE,
    NEGATIVE,
    POSITIVE,
    Dimensions,
    Matrix,
    TileId,
    TilingEngine,
    choose_generic_direction,
    decompose,
    double_cover_check,
    fragment_set,
    slice_precondition,
    verify_constancy,
)


def census() -> list[list[list[int]]]:
    """The nonsingular matrices as rows, in lexicographic order of entries."""
    return [[[a, b], [c, d]] for a, b, c, d in product(range(-2, 3), repeat=4) if a * d != b * c]


def test_verify_passes_and_double_cover_fails_only_with_a_degenerate_fragment():
    # verify with 64 samples at seed 0; double cover at z = 0 with 8 samples
    # on the two collections, tau = {} and gamma = {1, 2}.  The 256 failing
    # collections are pinned, so that a change in the count shows.
    matrices = census()
    assert len(matrices) == 496
    failures = 0
    for rows in matrices:
        fs = fragment_set(decompose(Matrix.from_rows(rows), Dimensions(1, 1)))
        w = choose_generic_direction(fs, 0)
        assert verify_constancy(fs, w, 64, seed=0).passed, rows
        degenerate = any(f.sign_class == DEGENERATE for f in fs)
        for index in ((), (1, 2)):
            if not double_cover_check(fs, w, index, (0, 0), 8, seed=0).passed:
                assert degenerate, (rows, index)
                failures += 1
    assert failures == 256


def test_slice_passes_on_every_matrix(tmp_path):
    # 160 of the bottom rows are not coprime pairs, which slice once refused.
    path = tmp_path / "m.txt"
    coprime = 0
    for rows in census():
        path.write_text("1 1\n" + "".join(f"{a} {b}\n" for a, b in rows))
        code, out, err = invoke(["slice", "--matrix", str(path), "--samples", "4"])
        assert code == 0 and out.endswith("pass=true\n"), (rows, out, err)
        coprime += slice_precondition(decompose(Matrix.from_rows(rows), Dimensions(1, 1)))
    assert coprime == 496 - 160


def one_signed_or_three_deep(fs) -> bool:
    """Whether fs has only live fragments of the sign of f, checked both ways.

    One-signed (every live fragment's class is the sign of the expected
    count f): the fragments tile properly, so every census of
    `verify_constancy(fs, w, 30, 0)` is (1, 0) or (0, 1).  Otherwise the
    centre S_sigma (1/2, ..., 1/2) of the z = 0 tile of each fragment of the
    opposite class lies in that tile and, since pos - neg = f there, in at
    least two more.  The centre is a fixed point, so this needs no sample."""
    w = choose_generic_direction(fs, 0)
    sign = POSITIVE if fs.expected_coverage() > 0 else NEGATIVE
    opposite = [f for f in fs if f.sign_class not in (sign, DEGENERATE)]
    if not opposite:
        report = verify_constancy(fs, w, 30, 0)
        assert set(report.census_histogram) <= {(1, 0), (0, 1)}, report.census_histogram
        return True
    engine = TilingEngine(fs, w)
    n = fs.dims.n
    for frag in opposite:
        tiles, _ = engine.tiles_at(frag.s.mat_vec((Fraction(1, 2),) * n))
        assert TileId(z=(0,) * n, sigma=frag.sigma) in [tile for tile, _ in tiles], frag.sigma
        assert len(tiles) >= 3, (frag.sigma, tiles)
    return False


def test_one_signed_matrices_tile_properly_on_the_census():
    # 416 of the 496 matrices are one-signed; the other 80 have both classes.
    one_signed = sum(
        one_signed_or_three_deep(fragment_set(decompose(Matrix.from_rows(rows), Dimensions(1, 1))))
        for rows in census()
    )
    assert one_signed == 416


def test_one_signed_matrices_tile_properly_on_the_corpus():
    # Every corpus matrix and the committed n = 7 and n = 8 ones.  Five are
    # one-signed, three of them with a degenerate fragment; the other 55
    # have both classes.
    matrices = Path(__file__).resolve().parent / "matrices"
    paths = corpus_files() + [matrices / "z7r3-0.txt", matrices / "z8r4-0.txt"]
    one_signed = [path.stem for path in paths if one_signed_or_three_deep(corpus_set(path))]
    assert len(paths) == 60
    assert one_signed == ["K", "q3r2-0", "slice13", "z3r1-2", "z3r2-0"]
