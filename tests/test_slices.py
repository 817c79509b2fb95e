import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    corpus_files,
    corpus_set,
    mat_mul,
    random_int_matrix,
    reference_slice_layout,
    reference_slice_precondition,
)
from fragtile import (
    Dimensions,
    Matrix,
    TilingEngine,
    c_submatrices,
    choose_generic_direction,
    decompose,
    det,
    fragment_set,
    inverse,
    slice_layout,
    slice_precondition,
    unimodular_reduce,
    vector,
)
from fragtile.slices import SlicePreconditionError

WINDOW4 = tuple((-6, 6) for _ in range(4))
WINDOW2 = tuple((-8, 8) for _ in range(2))


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


class TestUnimodularReduce:
    def test_already_reduced(self):
        m = Matrix.from_rows([[5, 7], [1, 0]])
        u, a, bk = unimodular_reduce(decompose(m, Dimensions(1, 1)))
        assert u == Matrix.identity(2)
        assert a == Matrix.from_rows([[7]])
        assert bk == Matrix.from_rows([[5]])

    def test_worked_4x4(self, mset):
        d = mset.decomposition
        u, a, bk = unimodular_reduce(d)
        mu = mat_mul(d.m, u)
        for t in range(2):
            for i in range(4):
                assert mu.entry(2 + t, i) == (1 if i == t else 0)
        assert det(u) in (1, -1)
        assert abs(det(a)) == abs(mset.det_m) == 37

    def test_unimodular_on_random(self):
        rng = random.Random(3)
        z_rng = random.Random(4)  # apart from rng, which draws the matrices
        done = 0
        while done < 8:
            n = rng.randint(2, 5)
            r = rng.randint(1, n - 1)
            d = decompose(random_int_matrix(rng, n, -4, 4), Dimensions(r, n - r))
            if not slice_precondition(d):
                continue
            u, a, bk = unimodular_reduce(d)
            assert det(u) in (1, -1)
            mu = mat_mul(d.m, u)
            for t in range(n - r):
                for i in range(n):
                    assert mu.entry(r + t, i) == (1 if i == t else 0)
            # the identity slice_layout's family key rests on
            u_inv = inverse(u)
            for _ in range(5):
                z = vector(z_rng.randint(-9, 9) for _ in range(n))
                assert d.m.mat_vec(z)[r:] == u_inv.mat_vec(z)[: n - r]
            done += 1

    def test_precondition_enforced(self):
        m = Matrix.from_rows([[1, 2], [2, 4]])
        with pytest.raises(SlicePreconditionError):
            unimodular_reduce(decompose(m, Dimensions(1, 1)))

    def test_rejects_exactly_what_the_precondition_rejects(self):
        rng = random.Random(17)
        cases = [
            # bottom row (2, 4, 6): integer, maximal minors share the factor 2
            decompose(Matrix.from_rows([[1, 0, 3], [0, 1, 5], [2, 4, 6]]), Dimensions(2, 1)),
            # a rational bottom entry would be truncated by the integer reduction
            decompose(Matrix.from_rows([[1, 2], [Fraction(3, 2), 1]]), Dimensions(1, 1)),
        ]
        for _ in range(150):
            n = rng.randint(2, 6)
            r = rng.randint(1, n - 1)
            cases.append(decompose(random_int_matrix(rng, n, -4, 4), Dimensions(r, n - r)))
        outcomes = set()
        for d in cases:
            try:
                unimodular_reduce(d)
                reduced = True
            except SlicePreconditionError:
                reduced = False
            assert reduced == reference_slice_precondition(d) == slice_precondition(d)
            outcomes.add(reduced)
        assert not slice_precondition(cases[0]) and not slice_precondition(cases[1])
        assert outcomes == {True, False}

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
        areas = [abs(det(cls.shape)) for cls in layout.classes]
        assert areas == [2, 10, 5, 4, 4, 10]

    def test_signed_area_balance(self, mset, w_m):
        layout = slice_layout(mset, w_m, WINDOW4)
        total = Fraction(0)
        for cls in layout.classes:
            sign = {"positive": 1, "negative": -1, "degenerate": 0}[cls.sign_class]
            total += sign * abs(det(cls.shape)) * len(cls.offsets)
        assert total == mset.expected_coverage() * abs(det(layout.b))

    def test_k_class_counts(self, kset, w_k):
        layout = slice_layout(kset, w_k, WINDOW2)
        assert [len(c.offsets) for c in layout.classes] == [3, 1]
        assert abs(det(layout.b)) == 5

    def test_l_class_counts(self, lset, w_l):
        layout = slice_layout(lset, w_l, WINDOW2)
        assert [len(c.offsets) for c in layout.classes] == [5, 1]
        assert abs(det(layout.b)) == 3

    def test_offsets_are_canonical(self, mset, w_m):
        layout = slice_layout(mset, w_m, WINDOW4)
        b_inv = inverse(layout.b)
        e, x = layout.b_inv_rows
        assert e > 0 and Matrix.from_rows([[Fraction(v, e) for v in row] for row in x]) == b_inv
        for cls in layout.classes:
            assert cls.offsets == tuple(sorted(cls.offsets))
            for offset in cls.offsets:
                y = b_inv.mat_vec(offset)
                assert all(0 <= yi < 1 for yi in y)

    def test_matches_the_fraction_layout_on_the_corpus(self):
        # Every corpus matrix that meets the precondition, seeds 0-1: the
        # CLI's radius-6 window up to n = 4, radius 1 for n = 5 and 6.
        checked = 0
        for path in corpus_files():
            fs = corpus_set(path)
            if not slice_precondition(fs.decomposition):
                continue
            radius = 6 if fs.dims.n <= 4 else 1
            window = tuple((-radius, radius) for _ in range(fs.dims.n))
            for seed in (0, 1):
                w = choose_generic_direction(fs, seed)
                layout = slice_layout(fs, w, window)
                got = [(cls.sigma, cls.sign_class, cls.offsets) for cls in layout.classes]
                assert got == reference_slice_layout(fs, w, window), (path.name, seed)
            checked += 1
        assert checked > 30

    def test_degenerate_class_empty(self, w_m):
        fs = fragment_set(decompose(Matrix.identity(2), Dimensions(1, 1)))
        w = choose_generic_direction(fs, 1)
        layout = slice_layout(fs, w, WINDOW2)
        assert layout.by_sigma((2,)).offsets == ()


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
