"""The n = 2 census (ROADMAP item 12): every nonsingular 2 x 2 integer matrix
with entries in -2..2, split r = k = 1, through the library's `verify` and
`double-cover` checks and through the `slice` command."""
from __future__ import annotations

from itertools import product

from conftest import invoke
from fragtile import (
    DEGENERATE,
    Dimensions,
    Matrix,
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
