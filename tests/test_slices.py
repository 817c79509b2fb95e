import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from conftest import (
    ReferenceReductionError,
    c_submatrices,
    corpus_files,
    corpus_set,
    identity_matrix,
    invoke,
    mat_mul,
    pair_fractions,
    random_int_matrix,
    reference_hermite_form,
    reference_key_box,
    reference_key_index,
    reference_render_boxes,
    reference_slice_layout,
    reference_slice_precondition,
    reference_unimodular_reduce,
    rows_matrix,
    split_matrices,
)
from fragtile import (
    DEGENERATE,
    Dimensions,
    Matrix,
    SingularMatrixError,
    TilingEngine,
    choose_generic_direction,
    complement,
    decompose,
    det,
    fragment_set,
    inverse,
    render_svg,
    slice_layout,
    slice_precondition,
    unimodular_reduce,
    vector,
)
from fragtile import render, slices
from fragtile.linalg import clear_rows
from fragtile.tiling import cell_hits, cell_position

WINDOW4 = tuple((-6, 6) for _ in range(4))
WINDOW2 = tuple((-8, 8) for _ in range(2))
CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
# The first FAIL line of `slice --samples 1` at seed 0 per corpus matrix on
# which the radius-6 window misses classes.
WINDOW_MISSES = {
    "z5r2-0": "sigma={1,2} class=negative area=4 offset_classes=15 expected_classes=27 FAIL",
    "z5r2-9": "sigma={1,2} class=negative area=2 offset_classes=50 expected_classes=60 FAIL",
    "z5r2-10": "sigma={1,2} class=positive area=9 offset_classes=11 expected_classes=24 FAIL",
    "z6r2-0": "sigma={1,2} class=negative area=8 offset_classes=2 expected_classes=4 FAIL",
    "z6r2-1": "sigma={1,2} class=positive area=11 offset_classes=44 expected_classes=82 FAIL",
    "z6r2-2": "sigma={1,4} class=negative area=6 offset_classes=2 expected_classes=5 FAIL",
    "z6r2-3": "sigma={1,2} class=negative area=7 offset_classes=23 expected_classes=39 FAIL",
}


class TestPrecondition:
    def test_worked_4x4(self, mset):
        assert slice_precondition(mset.decomposition)

    def test_doubled_bottom_rows(self, mset):
        m = mset.decomposition.m
        doubled = Matrix.from_rows(
            [list(m.row(0)), list(m.row(1))]
            + [[2 * x for x in m.row(i)] for i in (2, 3)]
        )
        assert not slice_precondition(decompose(doubled, Dimensions(2, 2)))

    def test_non_integer_bottom(self):
        m = Matrix.from_rows([[1, 2], [Fraction(1, 2), 3]])
        assert not slice_precondition(decompose(m, Dimensions(1, 1)))

    def test_k_and_l(self, kset, lset):
        assert slice_precondition(kset.decomposition)
        assert slice_precondition(lset.decomposition)

    # slice_precondition compares the Hermite form of m_rows' bottom rows
    # with d I_k; the reference reads the bottom parts of M's columns.
    def test_agrees_with_the_definition_on_the_corpus(self):
        corpus = corpus_files()
        assert len(corpus) == 58
        for path in corpus:
            d = corpus_set(path).decomposition
            assert slice_precondition(d) == reference_slice_precondition(d), path.stem

    @given(split_matrices())
    def test_agrees_with_the_definition_on_random_rational_matrices(self, case):
        d = decompose(*case)
        assert slice_precondition(d) == reference_slice_precondition(d)


def assert_reduces(d, reduction):
    """M U = [[Bk | A], [H | 0]] with A, Bk and H over M's denominator c, H
    lower triangular with 0 <= H[t][j] < H[t][t] for j < t (Hermite form),
    and |det U| = 1, checked on Fraction matrices."""
    u, a, bk, h = reduction
    c = clear_rows(d.m)[0]
    r, k = d.dims.r, d.dims.k
    top = [[Fraction(x, c) for x in row_bk + row_a] for row_bk, row_a in zip(bk, a)]
    bottom = [[Fraction(x, c) for x in row] + [0] * r for row in h]
    assert mat_mul(d.m, Matrix.from_rows(u)) == Matrix.from_rows(top + bottom)
    assert all(0 <= h[t][j] < h[t][t] for t in range(k) for j in range(t))
    assert all(h[t][j] == 0 for t in range(k) for j in range(t + 1, k))
    assert det(Matrix.from_rows(u)) in (1, -1)


class TestUnimodularReduce:
    def test_already_reduced(self):
        m = Matrix.from_rows([[5, 7], [1, 0]])
        reduction = unimodular_reduce(decompose(m, Dimensions(1, 1)))
        assert reduction == ([[1, 0], [0, 1]], [[7]], [[5]], [[1]])

    def test_rational_top_block(self):
        # A and Bk are integer rows over M's denominator 6.
        m = Matrix.from_rows([[Fraction(1, 2), Fraction(2, 3)], [1, 1]])
        d = decompose(m, Dimensions(1, 1))
        reduction = unimodular_reduce(d)
        assert_reduces(d, reduction)
        assert reduction == ([[1, -1], [0, 1]], [[1]], [[3]], [[6]])

    def test_worked_4x4(self, mset):
        d = mset.decomposition
        reduction = unimodular_reduce(d)
        assert_reduces(d, reduction)
        assert abs(det(Matrix.from_rows(reduction[1]))) == abs(mset.det_m) == 37

    def test_unimodular_on_random(self):
        rng = random.Random(3)
        z_rng = random.Random(4)  # apart from rng, which draws the matrices
        done = 0
        while done < 8:
            n = rng.randint(2, 5)
            r = rng.randint(1, n - 1)
            d = decompose(random_int_matrix(rng, n, -4, 4), Dimensions(r, n - r))
            if det(d.m) == 0:
                continue
            u, a, bk, h = unimodular_reduce(d)
            assert_reduces(d, (u, a, bk, h))
            # the identity slice_layout's family key rests on: M_bottom z is
            # H / c times the first k coordinates of U^-1 z
            u_inv = inverse(Matrix.from_rows(u))
            h_m = rows_matrix(d.m_rows[0], h)
            for _ in range(5):
                z = vector(z_rng.randint(-9, 9) for _ in range(n))
                assert d.m.mat_vec(z)[r:] == h_m.mat_vec(u_inv.mat_vec(z)[: n - r])
            done += 1

    def test_precondition_enforced(self):
        # Only a singular M has a rank-deficient bottom block.
        m = Matrix.from_rows([[1, 0, 0], [1, 2, 3], [2, 4, 6]])
        with pytest.raises(SingularMatrixError, match="bottom block is rank deficient"):
            unimodular_reduce(decompose(m, Dimensions(1, 2)))

    def test_reduces_every_nonsingular_m(self):
        rng = random.Random(17)
        cases = [
            # bottom row (2, 4, 6): integer, maximal minors share the factor 2
            decompose(Matrix.from_rows([[1, 0, 3], [0, 1, 5], [2, 4, 6]]), Dimensions(2, 1)),
            # a rational bottom entry: A's bottom row is not a multiple of d
            decompose(Matrix.from_rows([[1, 2], [Fraction(3, 2), 1]]), Dimensions(1, 1)),
        ]
        for _ in range(150):
            n = rng.randint(2, 6)
            r = rng.randint(1, n - 1)
            cases.append(decompose(random_int_matrix(rng, n, -4, 4), Dimensions(r, n - r)))
        outcomes = set()
        reduced = 0
        for d in cases:
            if det(d.m) != 0:
                assert_reduces(d, unimodular_reduce(d))
                reduced += 1
            coprime = reference_slice_precondition(d)
            assert slice_precondition(d) == coprime
            outcomes.add(coprime)
        assert not slice_precondition(cases[0]) and not slice_precondition(cases[1])
        assert outcomes == {True, False} and reduced > 100

    @staticmethod
    def _agrees_with_reference(d):
        # U fixes the B= bytes of `slice`, and the goldens hold five matrices.
        # In the coprime case H is d I_k, and the reference reduces the same.
        try:
            expected = reference_unimodular_reduce(d)
        except ReferenceReductionError:
            assert not slice_precondition(d)
            return False
        m_den, k = d.m_rows[0], d.dims.k
        assert unimodular_reduce(d) == (*expected, [[m_den * (i == t) for i in range(k)] for t in range(k)])
        return True

    def test_same_reduction_as_the_row_form_on_the_corpus(self):
        corpus = corpus_files()
        assert len(corpus) == 58
        reduced = [self._agrees_with_reference(corpus_set(path).decomposition) for path in corpus]
        assert 0 < sum(reduced) < len(reduced)

    @given(split_matrices())
    def test_same_reduction_as_the_row_form_on_random_matrices(self, case):
        m, dims = case
        self._agrees_with_reference(decompose(m, dims))

    def test_corpus_records(self):
        corpus = Path(__file__).resolve().parents[1] / "perfbench"
        entries = json.loads((corpus / "corpus.json").read_text())["matrices"]
        assert len(entries) == 58
        for entry in entries:
            d = corpus_set(corpus / entry["file"]).decomposition
            recorded = entry["slice_precondition"]
            assert reference_slice_precondition(d) == slice_precondition(d) == recorded, entry["name"]


class TestSliceLayout:
    def test_worked_4x4_class_counts(self, mset, w_m):
        layout = slice_layout(mset, w_m, WINDOW4)
        counts = [len(cls.offsets) for cls in layout.classes]
        assert counts == [1, 1, 1, 6, 4, 2]
        for cls in layout.classes:
            assert len(cls.offsets) == abs(det(c_submatrices(mset.decomposition, cls.sigma)[1]))

    def test_worked_4x4_areas(self, mset, w_m):
        layout = slice_layout(mset, w_m, WINDOW4)
        den = layout.b_rows[0]
        areas = [abs(det(rows_matrix(den, cls.shape))) for cls in layout.classes]
        assert areas == [2, 10, 5, 4, 4, 10]
        for cls in layout.classes:
            assert rows_matrix(den, cls.shape) == c_submatrices(mset.decomposition, cls.sigma)[0]

    def test_rational_top_rows_keep_the_denominator_of_m(self):
        # C_sigma's integer rows and B's over M's denominator, here 6.
        m = Matrix.from_rows([["1/2", 1, 0], [0, "1/3", 1], [1, 2, 3]])
        fs = fragment_set(decompose(m, Dimensions(2, 1)))
        layout = slice_layout(fs, choose_generic_direction(fs, 0), ((-3, 3),) * 3)
        assert layout.b_rows[0] == fs.m_rows[0] == 6
        assert abs(det(rows_matrix(*layout.b_rows))) == abs(fs.det_m) == Fraction(1, 2)
        for cls in layout.classes:
            assert rows_matrix(6, cls.shape) == c_submatrices(fs.decomposition, cls.sigma)[0]

    def test_signed_area_balance(self, mset, w_m):
        layout = slice_layout(mset, w_m, WINDOW4)
        total = Fraction(0)
        for cls in layout.classes:
            sign = {"positive": 1, "negative": -1, "degenerate": 0}[cls.sign_class]
            total += sign * abs(det(rows_matrix(layout.b_rows[0], cls.shape))) * len(cls.offsets)
        assert total == mset.expected_coverage() * abs(det(rows_matrix(*layout.b_rows)))

    def test_k_class_counts(self, kset, w_k):
        layout = slice_layout(kset, w_k, WINDOW2)
        assert [len(c.offsets) for c in layout.classes] == [3, 1]
        assert abs(det(rows_matrix(*layout.b_rows))) == 5

    def test_l_class_counts(self, lset, w_l):
        layout = slice_layout(lset, w_l, WINDOW2)
        assert [len(c.offsets) for c in layout.classes] == [5, 1]
        assert abs(det(rows_matrix(*layout.b_rows))) == 3

    def test_offsets_are_canonical(self, mset, w_m):
        layout = slice_layout(mset, w_m, WINDOW4)
        b_inv = inverse(rows_matrix(*layout.b_rows))
        e, x = layout.b_inv_rows
        assert e > 0 and Matrix.from_rows([[Fraction(v, e) for v in row] for row in x]) == b_inv
        for cls in layout.classes:
            assert cls.offsets == tuple(sorted(cls.offsets))
            for offset in cls.offsets:
                y = b_inv.mat_vec(offset)
                assert all(0 <= yi < 1 for yi in y)

    def test_matches_the_fraction_layout_on_the_corpus(self):
        # Every corpus matrix, seeds 0-1, against the scan of every
        # translate: radii 1 to 6 (the CLI's) up to n = 4,
        # radii 1 and 2 for n = 5 and radius 1 for n = 6, where the
        # reference scans 5^6 translates per fragment at radius 2, and one
        # asymmetric window.
        asymmetric = ((-3, 1), (-1, 4), (0, 2), (-2, 1), (0, 1), (0, 0))
        max_radius = {2: 6, 3: 6, 4: 6, 5: 2, 6: 1}
        checked = 0
        for path in corpus_files():
            fs = corpus_set(path)
            n = fs.dims.n
            windows = [((-r, r),) * n for r in range(1, max_radius[n] + 1)] + [asymmetric[:n]]
            for seed in (0, 1):
                w = choose_generic_direction(fs, seed)
                for window in windows:
                    layout = slice_layout(fs, w, window)
                    got = [(cls.sigma, cls.sign_class, cls.offsets) for cls in layout.classes]
                    assert got == reference_slice_layout(fs, w, window), (path.name, seed, window)
            checked += 1
        assert checked == 58

    def test_degenerate_class_empty(self, w_m):
        fs = fragment_set(decompose(identity_matrix(2), Dimensions(1, 1)))
        w = choose_generic_direction(fs, 1)
        layout = slice_layout(fs, w, WINDOW2)
        assert [cls.offsets for cls in layout.classes if cls.sigma == (2,)] == [()]


def scanned_keys(monkeypatch, fs, w, window):
    """What cell_hits yields in each slice_layout scan, one list per live
    fragment in fragment order, each residual classified by cell_position
    under the fragment's rules: (key, inside, touching)."""
    scans = []

    def recorded(*args):
        scans.append((args[2], list(cell_hits(*args))))
        return iter(scans[-1][1])

    monkeypatch.setattr(slices, "cell_hits", recorded)
    slice_layout(fs, w, window)
    monkeypatch.undo()
    classified = []
    live = [f.sigma for f in fs if f.sign_class != DEGENERATE]
    for sigma, (one, hits) in zip(live, scans, strict=True):
        lam = pair_fractions(w.lambda_of(fs, sigma))
        rules = tuple(lam[j - 1] > 0 for j in complement(sigma, fs.dims.n))
        classified.append([(y, *cell_position(v, one, rules)) for y, v in hits])
    return classified


class TestKeyScan:
    def test_each_fragment_has_its_bottom_minor_of_keys(self, monkeypatch):
        # Before the window filter, a live fragment's scan finds exactly
        # |det Cbar_hat| / g keys inside its half-open cell, the number of its
        # translate classes, g the covolume of the key lattice.
        live = 0
        for path in corpus_files():
            fs = corpus_set(path)
            g = reference_key_index(fs.decomposition)
            window = tuple((0, 0) for _ in range(fs.dims.n))
            for seed in (0, 1):
                scans = scanned_keys(monkeypatch, fs, choose_generic_direction(fs, seed), window)
                frags = [f for f in fs if f.sign_class != DEGENERATE]
                assert len(scans) == len(frags), path.name
                for frag, scan in zip(frags, scans):
                    assert sum(inside for _, inside, _ in scan) == abs(frag.det_cbar) / g, path.name
                    live += 1
        assert live == 938

    def test_the_scan_does_not_grow_with_the_window(self, monkeypatch):
        # The keys each fragment scans are the same at radius 3 and 6, whose
        # windows hold 7^n and 13^n translates.
        for path in corpus_files(4):
            fs = corpus_set(path)
            w = choose_generic_direction(fs, 0)
            small = scanned_keys(monkeypatch, fs, w, ((-3, 3),) * fs.dims.n)
            assert small == scanned_keys(monkeypatch, fs, w, ((-6, 6),) * fs.dims.n), path.name

    def test_the_radius_6_window_misses_classes_on_slice13(self):
        # The witness of the window: 13 of 15 and 3 of 4 classes are
        # reached, while the key scan finds all 15 and 4.
        fs = corpus_set(CORPUS / "slice13.txt")
        w = choose_generic_direction(fs, 0)
        layout = slice_layout(fs, w, ((-6, 6),) * 3)
        found = [
            (len(cls.offsets), abs(fs[cls.sigma].det_cbar))
            for cls in layout.classes
            if cls.sign_class != DEGENERATE
        ]
        assert found == [(13, 15), (3, 4)]

    @pytest.mark.parametrize("name", sorted(WINDOW_MISSES))
    def test_the_radius_6_window_misses_classes_on_the_corpus(self, name):
        """Asserted witness: beside slice13 and z4r1-0, the CLI's radius-6
        window misses translate classes on seven corpus matrices that no
        perfbench command runs, so `slice` prints FAIL and exits 1 at seed 0.
        Dropping the window filter (ROADMAP item 2) must flip these cases
        deliberately, to exit 0 with no FAIL line; no other change may."""
        code, out, err = invoke(["slice", "--matrix", str(CORPUS / f"{name}.txt"), "--samples", "1"])
        assert code == 1, err
        assert next(line for line in out.splitlines() if line.endswith("FAIL")) == WINDOW_MISSES[name]


class TestKeyIndex:
    def test_layouts_count_classes_by_the_key_index_on_the_corpus(self):
        # On every corpus matrix, det H / d^k and the layout's g are the
        # reference covolume g of the key lattice, and each live family has
        # |det Cbar_hat| / g classes in the CLI's radius-6 window, except on
        # the window misses that TestKeyScan records.  A radius-6 layout
        # takes 0.1 to 1 s at n = 6, so there g is read from a radius-0 one
        # and the class count is left to TestKeyScan's window-free scan.
        misses = set(WINDOW_MISSES) | {"slice13", "z4r1-0"}
        counted = 0
        for path in corpus_files():
            fs = corpus_set(path)
            d = fs.decomposition
            g = reference_key_index(d)
            h = unimodular_reduce(d)[3]
            assert det(Matrix.from_rows(h)) == d.m_rows[0] ** d.dims.k * g, path.stem
            n = fs.dims.n
            radius = 6 if n <= 5 else 0
            layout = slice_layout(fs, choose_generic_direction(fs, 0), ((-radius, radius),) * n)
            assert layout.g == g, path.stem
            if radius and path.stem not in misses:
                for cls in layout.classes:
                    if cls.sign_class != DEGENERATE:
                        assert len(cls.offsets) == abs(fs[cls.sigma].det_cbar) / g, (path.stem, cls.sigma)
                        counted += 1
        assert counted == 198

    @given(split_matrices())
    def test_hermite_form_on_random_rational_matrices(self, case):
        # det H is d^k times the key index wherever the bottom block has
        # full rank, which every nonsingular M's has.
        d = decompose(*case)
        try:
            reduction = unimodular_reduce(d)
        except SingularMatrixError:
            assert det(d.m) == 0 and reference_key_index(d) == 0
            return
        assert_reduces(d, reduction)
        assert det(Matrix.from_rows(reduction[3])) == d.m_rows[0] ** d.dims.k * reference_key_index(d)
        # The Hermite form is unique, so the reference's own elimination
        # reaches the same H.
        assert reduction[3] == reference_hermite_form(d.m_rows[1][d.dims.r :])


class TestScannedBoxes:
    def test_slice_and_render_scan_the_reference_boxes(self, monkeypatch):
        # Every cell_hits range that slice_layout and render_svg scan on the
        # corpus is the box their reference formulas give: the key box of
        # each live fragment, from the reference's own Hermite form, on all
        # 58 matrices, and render's lattice box per family and anchor, for
        # the full tilings of K and L and the r = 2 slices, in two windows.
        # The key box does not depend on the translate window, so a radius-2
        # one keeps the n = 6 layouts cheap.
        scanned = []

        def recording(u, h, one, ranges):
            scanned.append([tuple(r) for r in ranges])
            return cell_hits(u, h, one, ranges)

        monkeypatch.setattr(slices, "cell_hits", recording)
        monkeypatch.setattr(render, "cell_hits", recording)
        windows = [(-5, 5, -5, 5), (-3, Fraction(7, 2), -2, Fraction(9, 4))]
        layouts = renders = 0
        for path in corpus_files():
            fs = corpus_set(path)
            n = fs.dims.n
            sources = [fs] if n == 2 else []
            del scanned[:]
            layout = slice_layout(fs, choose_generic_direction(fs, 0), tuple((-2, 2) for _ in range(n)))
            live = [f for f in fs if f.sign_class != DEGENERATE]
            assert scanned == [reference_key_box(fs, f.sigma) for f in live], path.stem
            layouts += 1
            if fs.dims.r == 2:
                sources.append(layout)
            for source in sources:
                for window in windows:
                    del scanned[:]
                    render_svg(source, window)
                    assert scanned == reference_render_boxes(source, window), path.stem
                    renders += len(scanned)
        assert layouts == 58 and renders > 0


class TestSliceCoverage:
    def test_worked_4x4(self, mset, w_m):
        engine = TilingEngine(mset, w_m)
        rng = random.Random(8)
        for _ in range(10):
            p_r = (
                Fraction(rng.randint(-300, 300), 101),
                Fraction(rng.randint(-300, 300), 103),
            )
            rep = engine.coverage(p_r + (Fraction(0), Fraction(0)))
            assert rep.f_value == 1 == rep.expected

    def test_k_line_slice(self, kset, w_k):
        rep = TilingEngine(kset, w_k).coverage((Fraction(5, 7), Fraction(0)))
        assert rep.f_value == -1
