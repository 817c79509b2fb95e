import random
from collections.abc import Sequence
from fractions import Fraction
from itertools import product
from math import prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    axis_box_volume,
    brute_force_tiles,
    corpus_files,
    corpus_matrix,
    corpus_set,
    identity_matrix,
    invoke,
    mat_mul,
    pair_fractions,
    pip_contains,
    random_invertible,
    random_rational_invertible,
    reference_cell_hits,
    reference_size_reduce,
    reference_verify,
    split_matrices,
)
from fragtile import (
    DEGENERATE,
    NEGATIVE,
    POSITIVE,
    Dimensions,
    GenericityError,
    Matrix,
    TileId,
    TilingEngine,
    certify_direction,
    choose_generic_direction,
    complement,
    decompose,
    det,
    double_cover_check,
    facets,
    fragment_set,
    inverse,
    laplace_identity,
    solve,
    subsets,
    tiling,
    vector,
    verify_constancy,
)
from fragtile.linalg import DimensionError, clear_denominator, clear_rows, int_det, int_mat_mul
from fragtile.tiling import (
    ClearedPoint,
    cell_hits,
    cell_position,
    cube_extents,
    fundamental_point,
    grid_numerators,
    shifted_gram,
    size_reduce,
)

MATRICES = Path(__file__).resolve().parent / "matrices"
HALF = Fraction(1, 2)
WORKED_POINT = (Fraction(-2), Fraction(1), -HALF, -HALF)


def _tile_ids(engine, p):
    """The tiles holding p, in (sigma, z) lexicographic order."""
    return [tile for tile, _ in engine.tiles_at(p)[0]]


class TestGenericDirection:
    def test_all_ones_certified(self, mset, w_m):
        # one lambda vector per invertible fragment, keyed by sigma
        assert set(w_m.lambdas) == set(mset.fragments)
        assert all(len(pair_fractions(pair)) == 4 for pair in w_m.lambdas.values())
        assert w_m.w == (1, 1, 1, 1)

    def test_top_part_parallel_to_a_column_fails(self, mset):
        # w' proportional to the top part (1,2) of column 4 kills a lambda entry
        with pytest.raises(GenericityError):
            certify_direction(mset, (1, 2, 1, 1))
        certify_direction(mset, (2, 1, 1, 1))

    def test_seed_determinism(self, mset):
        a = choose_generic_direction(mset, 11)
        b = choose_generic_direction(mset, 11)
        assert a == b
        c = choose_generic_direction(mset, 12)
        assert c != a

    def test_generated_entries_in_unit_interval(self, mset):
        w = choose_generic_direction(mset, 3)
        assert all(0 < x < 1 and (2**31) % x.denominator == 0 for x in w.w)

    def test_lambdas_keyed_by_fragment_matrix(self, kset, w_k, lset, mset, w_m):
        for frag in mset:
            if frag.sign_class != "degenerate":
                assert pair_fractions(w_m.lambda_of(mset, frag.sigma)) == solve(frag.s, w_m.w)
        assert set(w_m.lambdas) == set(mset.by_class("positive") + mset.by_class("negative"))
        # a direction certified for K carries no lambda for L's fragments
        with pytest.raises(KeyError):
            TilingEngine(lset, w_k)

    def test_not_generic_for_l(self, lset):
        # the all-ones vector has a zero coordinate in this matrix's basis
        with pytest.raises(GenericityError):
            certify_direction(lset, (1, 1))


class TestGridNumerators:
    def test_draws_what_randrange_draws(self):
        # The widths of the sample, direction and jitter grids, and small
        # widths, where most getrandbits draws are redrawn.
        ranges = [(0, 2**31), (1, 2**31), (-(2**31 - 1), 2**31), (0, 1), (1, 4), (-2, 3)]
        for i in range(200):
            tag = f"sample:{i}:{i % 7}:0"
            dim = 1 + i % 6
            for lo, hi in ranges:
                rng = random.Random(tag)
                expected = [rng.randrange(lo, hi) for _ in range(dim)]
                assert grid_numerators(tag, dim, lo, hi) == expected, (tag, lo, hi)

    def test_an_empty_range_raises(self):
        # getrandbits(0) is always 0, so a width-0 rejection loop never ends.
        for lo, hi in ((0, 0), (5, 4), (2**31, 1)):
            with pytest.raises(ValueError, match="empty range"):
                grid_numerators("sample:0:0:0", 3, lo, hi)


class TestPipContains:
    def test_origin_inside_unit_box(self):
        assert pip_contains(identity_matrix(3), (1, 1, 1), (0, 0, 0))

    def test_far_corner_excluded(self):
        assert not pip_contains(identity_matrix(3), (1, 1, 1), (1, 1, 1))

    def test_negative_direction_flips_rule(self):
        assert pip_contains(identity_matrix(2), (-1, -1), (1, 1))
        assert not pip_contains(identity_matrix(2), (-1, -1), (0, 0))

    def test_singular_is_empty(self):
        assert not pip_contains(Matrix.from_rows([[1, 1], [1, 1]]), (1, 2), (0, 0))

    def test_zero_coordinate_raises(self):
        with pytest.raises(GenericityError):
            pip_contains(identity_matrix(2), (1, 0), (HALF, HALF))

    def test_worked_membership(self, mset):
        s = mset[(2, 3)].s
        mz = mset.decomposition.m.mat_vec((0, -3, -1, 1))
        q = tuple(p - v for p, v in zip(WORKED_POINT, mz))
        assert solve(s, q) == (Fraction(5, 6), HALF, HALF, Fraction(5, 6))
        assert pip_contains(s, (1, 1, 1, 1), q)


class TestEnumerate:
    def test_worked_point_memberships(self, mset, w_m):
        tiles = _tile_ids(TilingEngine(mset, w_m), WORKED_POINT)
        interior = [
            TileId(z=(0, -3, -1, 1), sigma=(2, 3)),
            TileId(z=(0, -2, 0, 0), sigma=(2, 4)),
            TileId(z=(0, -2, -1, 0), sigma=(3, 4)),
        ]
        for tile in interior:
            assert tile in tiles
        # the two boundary memberships follow the signs of the deciding
        # coordinates, both positive for the all-ones direction
        lam23 = solve(mset[(2, 3)].s, w_m.w)
        lam34 = solve(mset[(3, 4)].s, w_m.w)
        assert lam23[1] == Fraction(3, 2) > 0
        assert lam34[3] == Fraction(3, 5) > 0
        assert TileId(z=(0, 0, 0, 0), sigma=(2, 3)) in tiles
        assert TileId(z=(0, 0, 0, 0), sigma=(3, 4)) in tiles
        assert len(tiles) == 5

    def test_k_single_tile(self, kset, w_k):
        engine = TilingEngine(kset, w_k)
        rng = random.Random(4)
        for _ in range(20):
            p = (Fraction(rng.randint(-500, 500), 97), Fraction(rng.randint(-500, 500), 89))
            assert len(_tile_ids(engine, p)) == 1

    def test_lattice_periodicity(self, mset, w_m):
        p = (Fraction(1, 7), Fraction(-2, 9), Fraction(3, 11), Fraction(1, 13))
        z0 = (2, -1, 3, 0)
        shifted = tuple(
            pi + mi
            for pi, mi in zip(p, mset.decomposition.m.mat_vec(z0))
        )
        engine = TilingEngine(mset, w_m)
        base = _tile_ids(engine, p)
        moved = _tile_ids(engine, shifted)
        expected = sorted(
            (TileId(z=tuple(a + b for a, b in zip(t.z, z0)), sigma=t.sigma) for t in base),
            key=lambda t: (t.sigma, t.z),
        )
        assert moved == expected

    def test_matches_brute_force_2d(self, kset, w_k, lset, w_l):
        rng = random.Random(9)
        for fs, w in ((kset, w_k), (lset, w_l)):
            engine = TilingEngine(fs, w)
            for _ in range(10):
                p = (
                    Fraction(rng.randint(-400, 400), 101),
                    Fraction(rng.randint(-400, 400), 103),
                )
                assert _tile_ids(engine, p) == brute_force_tiles(fs, w, p)

    def test_matches_brute_force_3d(self):
        rng = random.Random(21)
        for trial in range(4):
            m = random_invertible(rng, 3, -3, 3)
            fs = fragment_set(decompose(m, Dimensions(2, 1)))
            w = choose_generic_direction(fs, trial)
            engine = TilingEngine(fs, w)
            for _ in range(5):
                p = tuple(Fraction(rng.randint(-300, 300), 107) for _ in range(3))
                assert _tile_ids(engine, p) == brute_force_tiles(fs, w, p)

    def test_matches_brute_force_rational(self, qset):
        # Points whose denominators (5, 7, 11, 13) share no factor with the
        # matrix denominators 1..4, so clearing p's denominator is exercised.
        rng = random.Random(23)
        cases = [(qset, choose_generic_direction(qset, 1))]
        for trial in range(10):
            n = rng.randint(2, 3) if trial < 6 else 4
            r = rng.randint(1, n - 1)
            fs = fragment_set(decompose(random_rational_invertible(rng, n), Dimensions(r, n - r)))
            cases.append((fs, choose_generic_direction(fs, trial)))
        for fs, w in cases:
            engine = TilingEngine(fs, w)
            for _ in range(4):
                p = tuple(
                    Fraction(rng.randint(-300, 300), rng.choice((5, 7, 11, 13)))
                    for _ in range(fs.dims.n)
                )
                assert _tile_ids(engine, p) == brute_force_tiles(fs, w, p)

    @settings(deadline=None, max_examples=40)
    @given(split_matrices(), st.integers(0, 3))
    def test_fuzz_against_brute_force(self, case, seed):
        # Random rational matrices with n <= 4: grid points of the
        # fundamental domain, and the lattice point M (1, -1, ...) on tile
        # corners, where the w-rules decide every membership.
        m, dims = case
        assume(dims.n <= 4)
        fs = fragment_set(decompose(m, dims))
        assume(fs.det_m != 0)
        w = choose_generic_direction(fs, seed)
        engine = TilingEngine(fs, w)
        corner = m.mat_vec(tuple(Fraction((-1) ** i) for i in range(dims.n)))
        for p in [fundamental_point(fs, f"fuzz:{i}") for i in range(2)] + [corner]:
            assert engine.coverage(p).f_value == fs.expected_coverage()
            # The oracle scans the axis box, which an ill-conditioned M makes
            # huge (over 5e7 candidates); the cap keeps a point to about 0.1 s.
            if axis_box_volume(fs, p) <= 20_000:
                assert _tile_ids(engine, p) == brute_force_tiles(fs, w, p)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _gram(rows):
    return [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]


def _verify_points(fs, count):
    """The first sample points verify_constancy draws at seed 0."""
    m = fs.decomposition.m
    return [
        m.mat_vec(tiling.grid_vector(f"sample:0:{i}:0", fs.dims.n, 0, tiling.SAMPLE_DENOMINATOR))
        for i in range(count)
    ]


class TestSizeReduce:
    def _fragment_sets(self):
        rng = random.Random(41)
        for n in range(2, 7):
            for rational in (False, True):
                for _ in range(2):
                    if rational:
                        m = random_rational_invertible(rng, n)
                    else:
                        m = random_invertible(rng, n, -3, 3)
                    r = rng.randint(1, n - 1)
                    yield fragment_set(decompose(m, Dimensions(r, n - r)))

    def test_unimodular_and_shortening(self):
        for fs in self._fragment_sets():
            n = fs.dims.n
            m_inv = inverse(fs.decomposition.m)
            for frag in fs:
                if frag.sign_class == "degenerate":
                    continue
                _, g = clear_rows(mat_mul(m_inv, frag.s))
                red, w, w_inv, _ = size_reduce(g, _gram(g), [])
                assert int_mat_mul(w, w_inv) == _identity(n)
                assert red == int_mat_mul(w, g)
                for before, after in zip(g, red):
                    assert sum(x * x for x in after) <= sum(x * x for x in before)
                # pairwise reduced: no row can be shortened by another
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            dot = sum(x * y for x, y in zip(red[i], red[j]))
                            assert 2 * abs(dot) <= sum(x * x for x in red[j])

    def test_matches_the_reference_reduction(self):
        # The Gram-matrix loop against the one that takes every inner
        # product from the rows; H W^-1 against the product it replaces.
        rng = random.Random(47)
        for case in range(200):
            n = 2 + case % 5
            rows = clear_rows(random_invertible(rng, n, -6, 6))[1]
            h = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
            red, w, w_inv, h_w_inv = size_reduce(rows, _gram(rows), h)
            assert (red, w, w_inv) == reference_size_reduce(rows), case
            assert h_w_inv == int_mat_mul(h, w_inv), case

    @staticmethod
    def _corpus_frames():
        """(label, T, sd, hat, G) for every frame of the corpus: G = T - sd D
        over the frame's slack denominator sd, D the identity on hat."""
        for path in corpus_files():
            fs = corpus_set(path)
            if fs.det_m == 0:
                continue
            (m_den, m), (e, m_inv), r, n = fs.m_rows, fs.m_inv_rows, fs.dims.r, fs.dims.n
            sd, t = e * m_den, int_mat_mul([row[:r] for row in m_inv], m[:r])
            for frag in fs:
                if frag.sign_class == DEGENERATE:
                    continue
                hat = [j - 1 for j in range(1, n + 1) if j not in frag.sigma]
                g = [[x - sd * (i == j and i in hat) for j, x in enumerate(row)] for i, row in enumerate(t)]
                yield (path.stem, frag.sigma), t, sd, hat, g

    def test_shifted_gram_is_the_gram_of_g(self):
        # Every frame of the corpus: G's Gram matrix from T's by the
        # corrections off sigma equals the one of G's own rows.
        frames = 0
        for label, t, sd, hat, g in self._corpus_frames():
            assert shifted_gram(t, _gram(t), sd, hat) == _gram(g), label
            frames += 1
        assert frames == 469

    def test_an_inconsistent_gram_matrix_raises(self):
        # Without the sd^2 diagonal term the shortening argument fails: the
        # loop would run forever, and instead the first step that does not
        # shorten its row raises, on every frame of the corpus.
        for label, t, sd, hat, g in self._corpus_frames():
            gram = shifted_gram(t, _gram(t), sd, hat)
            for j in hat:
                gram[j][j] -= sd * sd
            with pytest.raises(ValueError, match="Gram matrix"):
                size_reduce(g, gram, [])

    def test_frames_keep_the_translate_lattice(self):
        # h2 = 2 e H' and one2 = 2 e, H' = S^-1 M W^-1, so h2 W is one2 S^-1 M;
        # lam is lambda as (den, nums), and the rules are the signs of nums.
        for fs in self._fragment_sets():
            w = choose_generic_direction(fs, 0)
            engine = TilingEngine(fs, w)
            for frame in engine.frames:
                n = fs.dims.n
                den, nums = frame.lam
                assert pair_fractions(frame.lam) == pair_fractions(w.lambda_of(fs, frame.sigma))
                assert frame.rules == tuple(x > 0 for x in nums)
                assert int_mat_mul(frame.to_x, frame.to_z) == _identity(n)
                h = mat_mul(inverse(fs[frame.sigma].s), fs.decomposition.m)
                assert int_mat_mul(frame.h2, frame.to_x) == [
                    [x * frame.one2 for x in row] for row in h.row_list()
                ]

    def test_frames_match_the_product_construction(self):
        # Frames take G = M^-1 S as T - D and reduce it on its Gram matrix;
        # the reference multiplies M^-1 by the cleared S and takes every
        # inner product from the rows.  Both give the same W, W^-1 and boxes
        # once the reference, too, moves its widest row last: the first row
        # of G' with the largest sum |g_ij| trades places with the last row
        # of G' and of W, and with the last column of W^-1.
        corpus = [corpus_matrix(n, r, i) for n, r, i in ((4, 1, 0), (5, 2, 10), (6, 3, 4), (6, 2, 1))]
        rng = random.Random(43)
        for fs in [*corpus, *self._fragment_sets()]:
            engine = TilingEngine(fs, choose_generic_direction(fs, 0))
            e, m_inv = fs.m_inv_rows
            m = fs.decomposition.m
            points = [
                m.mat_vec([Fraction(rng.randint(-40, 40), rng.choice((1, 3, 8))) for _ in range(fs.dims.n)])
                for _ in range(3)
            ]
            boxes = [engine.candidate_boxes(*clear_denominator(p)) for p in points]
            for frame in engine.frames:
                s_den, s_rows = clear_rows(fs[frame.sigma].s)
                g, to_x, to_z = reference_size_reduce(int_mat_mul(m_inv, s_rows))
                widths = [sum(map(abs, row)) for row in g]
                j = widths.index(max(widths))
                for a in (g, to_x, *to_z):
                    a[j], a[-1] = a[-1], a[j]
                assert (frame.to_x, frame.to_z) == (to_x, to_z)
                sd = e * s_den
                for p, box in zip(points, boxes):
                    q, p_int = clear_denominator(p)
                    num, den = [sum(x * v for x, v in zip(row, p_int)) for row in m_inv], e * q
                    b = [sum(x * v for x, v in zip(row, num)) * sd for row in to_x]
                    lo = [-((sum(x for x in row if x > 0) * den - bi) // (den * sd)) for bi, row in zip(b, g)]
                    hi = [(bi - sum(x for x in row if x < 0) * den) // (den * sd) for bi, row in zip(b, g)]
                    assert box[frame.rows] == list(zip(lo, hi))
            assert len(boxes[0]) == len(engine.frames) * fs.dims.n

    def test_frames_put_the_widest_coordinate_last(self):
        # cell_hits enumerates every coordinate of x but the last, so each
        # frame's last box row is its widest, on every corpus matrix.
        frames = 0
        for fs in [*map(corpus_set, corpus_files()), *self._fragment_sets()]:
            if fs.det_m == 0:
                continue
            for frame in TilingEngine(fs, choose_generic_direction(fs, 0)).frames:
                widths = [high - low for low, high in frame.extents]
                assert widths[-1] == max(widths), frame.sigma
                frames += 1
        assert frames > 469

    @pytest.mark.parametrize("name, prefixes, hits", [("z7r3-0", 64_137, 478), ("z8r4-0", 39_113, 72)])
    def test_verify_past_n_6_scans_few_prefixes(self, monkeypatch, name, prefixes, hits):
        # ROADMAP item 10's counter guard for `verify --samples 20 --seed 0`
        # on the committed n = 7 and n = 8 matrices: the prefixes cell_hits
        # enumerates, the product of every range width but the last, summed
        # over frames and samples, stay at their count with the widest
        # coordinate last (97,698 and 50,190 before), for the same tiles.
        counts = {"prefixes": 0, "hits": 0}
        scan, locate = tiling.cell_hits, TilingEngine.tiles_at

        def counted_scan(u, h, one, ranges):
            counts["prefixes"] += prod(max(0, hi - lo + 1) for lo, hi in ranges[:-1])
            return scan(u, h, one, ranges)

        def counted_locate(engine, p):
            found, boundary = locate(engine, p)
            counts["hits"] += len(found)
            return found, boundary

        monkeypatch.setattr(tiling, "cell_hits", counted_scan)
        monkeypatch.setattr(TilingEngine, "tiles_at", counted_locate)
        code, out, err = invoke(["verify", "--matrix", str(MATRICES / f"{name}.txt"), "--samples", "20", "--seed", "0"])
        assert code == 0 and out.endswith("pass=true\n"), err
        assert counts["prefixes"] <= prefixes
        assert counts["hits"] == hits

    def test_engine_build_forms_one_matrix_product(self, monkeypatch):
        # T = M^-1 P M is the engine's one product, whatever the number of
        # frames: a frame's Gram matrix, S^-1 M and H' come without one.
        import sys

        from fragtile import linalg

        calls = []
        original = linalg.int_mat_mul

        def counted(a, b):
            calls.append(len(a))
            return original(a, b)

        for key, module in list(sys.modules.items()):
            if (key == "fragtile" or key.startswith("fragtile.")) and getattr(module, "int_mat_mul", None) is original:
                monkeypatch.setattr(module, "int_mat_mul", counted)
        for n, r, i in ((4, 1, 0), (5, 2, 10), (6, 3, 4), (6, 2, 1)):
            fs = corpus_matrix(n, r, i)
            w = choose_generic_direction(fs, 0)
            del calls[:]
            engine = TilingEngine(fs, w)
            assert len(engine.frames) > 1
            assert calls == [n], (n, r, i)

    def test_candidate_box_is_the_scanned_box(self, mset, w_m, monkeypatch):
        engine = TilingEngine(mset, w_m)
        p = (Fraction(1, 7), Fraction(-2, 9), Fraction(3, 11), Fraction(1, 13))
        scanned = []
        real = tiling.cell_hits

        def recording(u, h, one, ranges):
            scanned.append([tuple(r) for r in ranges])
            return real(u, h, one, ranges)

        monkeypatch.setattr(tiling, "cell_hits", recording)
        engine.tiles_at(p)
        a = engine.m_inv.mat_vec(p)
        boxes = [list(zip(*engine.candidate_box(frame, a))) for frame in engine.frames]
        assert scanned == boxes
        box = engine.candidate_boxes(*clear_denominator(p))
        assert scanned == [box[frame.rows] for frame in engine.frames]


class TestCubeExtents:
    @given(st.lists(st.lists(st.integers(-50, 50) | st.fractions(-50, 50, max_denominator=7), max_size=6), max_size=6))
    def test_the_extremes_over_the_corners(self, rows):
        # Each row's extent is the least and the greatest row . y over the
        # 2^m corners y of the unit cube, m <= 6, for integer rows and for
        # render's Fraction ones; an empty row spans (0, 0).
        expected = [
            (min(dots), max(dots))
            for dots in ([sum(a * y for a, y in zip(row, c)) for c in product((0, 1), repeat=len(row))] for row in rows)
        ]
        assert cube_extents(rows) == expected


class TestCellHits:
    """The last-coordinate solve against the full product scan."""

    @staticmethod
    def _case(rng, m, c, one, last=None):
        """u, h, one, rules, ranges with residuals that reach into the cell;
        last, when given, draws the last column of h."""
        scale = rng.choice((1, max(1, one // 3)))
        h = [[rng.randint(-3, 3) * scale + rng.randint(-1, 1) for _ in range(c)] for _ in range(m)]
        if last is not None and c:
            for row in h:
                row[-1] = last(rng, scale)
        u = [rng.randint(-one, 2 * one) for _ in range(m)]
        rules = [rng.random() < 0.5 for _ in range(m)]
        ranges = [(lo, lo + rng.randint(0, 4)) for lo in (rng.randint(-4, 4) for _ in range(c))]
        return u, h, one, rules, ranges

    @staticmethod
    def _check(cases):
        """Assert every case matches once each residual, checked to be
        u - h z, is classified by cell_position; return (members, touching)
        totals."""
        members = touching = 0
        for u, h, one, rules, ranges in cases:
            got = []
            for z, y in cell_hits(u, h, one, ranges):
                assert y == [a - sum(map(mul, row, z)) for a, row in zip(u, h)], (u, h, z)
                got.append((z, *cell_position(y, one, rules)))
            assert got == list(reference_cell_hits(u, h, one, rules, ranges)), (u, h, one, rules, ranges)
            members += len(got)
            touching += sum(1 for _, _, t in got if t)
        return members, touching

    def test_seeded_shapes(self):
        # m < c is the slice shape (k rows, n columns); m >= c is the frames'.
        rng = random.Random(51)
        shapes = [(1, 3), (2, 4), (1, 5), (2, 2), (3, 3), (3, 2), (4, 1), (5, 3)]
        cases = [
            self._case(rng, m, c, rng.choice((1, 2, 6, 12)))
            for m, c in shapes
            for _ in range(80)
        ]
        members, touching = self._check(cases)
        assert members > 500 and touching > 100

    def test_zero_and_negative_last_columns(self):
        rng = random.Random(52)
        columns = {
            "zero": lambda rng, scale: 0,
            "negative": lambda rng, scale: -rng.randint(1, 3) * scale,
            "mixed": lambda rng, scale: rng.choice((0, 1, -1)) * rng.randint(1, 3) * scale,
        }
        for name, last in columns.items():
            cases = [
                self._case(rng, m, c, rng.choice((1, 6, 12)), last)
                for m, c in ((1, 3), (2, 2), (3, 3), (4, 2))
                for _ in range(60)
            ]
            members, touching = self._check(cases)
            assert members > 100 and touching > 10, name

    def test_empty_ranges_and_no_columns(self):
        rng = random.Random(53)
        empty = []
        for _ in range(50):
            u, h, one, rules, ranges = self._case(rng, 2, 3, 6)
            i = rng.randrange(3)
            ranges[i] = (ranges[i][0], ranges[i][0] - 1)
            empty.append((u, h, one, rules, ranges))
        assert self._check(empty) == (0, 0)
        # no rows: every translate of the box, inside and not touching
        hits = list(cell_hits([], [], 3, [(0, 1), (2, 2)]))
        assert hits == [((0, 2), []), ((1, 2), [])]
        assert [cell_position(y, 3, ()) for _, y in hits] == [(True, False)] * 2

    def test_large_cell_corner(self):
        rng = random.Random(54)
        cases = [
            self._case(rng, m, c, 2**40 + rng.randint(-5, 5))
            for m, c in ((1, 3), (2, 4), (3, 3), (4, 2))
            for _ in range(60)
        ]
        members, _ = self._check(cases)
        assert members > 100

    def test_last_range_is_solved_not_scanned(self):
        # A product scan would visit 2e12 + 1 translates here.
        wide = [(-(10**12), 10**12)]
        assert [z for z, _ in cell_hits([7], [[2]], 5, wide)] == [(1,), (2,), (3,)]
        hits = list(cell_hits([0, 9], [[1, 0], [0, -3]], 4, [(0, 2), *wide]))
        assert hits == [((0, -3), [0, 0]), ((0, -2), [0, 3])]


class TestHalvedQuery:
    """tiles_at's small-integer query against the exact one."""

    def test_matches_the_exact_query(self, mset, w_m, qset, monkeypatch):
        rng = random.Random(55)
        sets = [(mset, w_m), (qset, choose_generic_direction(qset, 0))]
        sets += [(fs, choose_generic_direction(fs, 0)) for fs in (corpus_matrix(3, 1, 2), corpus_matrix(5, 2, 0))]
        on_boundary = members = touching = 0
        for fs, w in sets:
            engine = TilingEngine(fs, w)
            m = fs.decomposition.m
            n = fs.dims.n
            points = [
                tuple(Fraction(rng.randint(-60, 60), rng.choice((3, 7, 10))) for _ in range(n))
                for _ in range(4)
            ]
            # Points on a tile boundary: S y + M z with some y_i = 0 or 1.
            for frame in engine.frames:
                for _ in range(3):
                    y = [Fraction(rng.randint(1, 4), 5) for _ in range(n)]
                    y[rng.randrange(n)] = Fraction(rng.randint(0, 1))
                    z = [rng.randint(-2, 2) for _ in range(n)]
                    s_y = fs[frame.sigma].s.mat_vec(y)
                    points.append(tuple(a + b for a, b in zip(s_y, m.mat_vec(z))))
            for p in points:
                # The scans tiles_at makes, one per frame, and what they yield.
                scans = []

                def recording(*args):
                    scans.append((args, list(cell_hits(*args))))
                    return scans[-1][1]

                monkeypatch.setattr(tiling, "cell_hits", recording)
                engine.tiles_at(p)
                monkeypatch.undo()
                q, p_int = clear_denominator(p)
                cells = engine.cell_coordinates(p_int)
                assert len(scans) == len(engine.frames)
                for frame, ((_, _, one2, ranges), halved) in zip(engine.frames, scans):
                    # The exact query in the undoubled cell (h2 / 2, one2 / 2),
                    # each residual classified by the frame's rules.
                    u = cells[frame.rows]
                    h = [[x // 2 * q for x in row] for row in frame.h2]
                    one = one2 // 2 * q
                    got = [(x, *cell_position(y, one2, frame.rules)) for x, y in halved]
                    exact = [(x, *cell_position(y, one, frame.rules)) for x, y in cell_hits(u, h, one, ranges)]
                    assert got == exact, (p, frame.sigma)
                    if q > 1 and any(x % q == 0 for x in u):
                        on_boundary += 1
                    members += len(got)
                    touching += sum(1 for _, _, t in got if t)
        assert on_boundary > 50 and touching > 50 and members > 200


class TestReducedBox:
    """Point location where the axis box of translates is huge."""

    # Benchmark-corpus matrices whose axis box holds over 4e5 candidates per
    # point, as (n, r, i) of corpus_matrix.
    LARGE_BOX = [
        (5, 2, 0), (5, 2, 10), (5, 3, 3),
        (6, 2, 1), (6, 3, 0), (6, 3, 3), (6, 3, 6), (6, 4, 1),
    ]

    def test_matches_brute_force_where_the_axis_box_is_large(self):
        rng = random.Random(31)
        checked = 0
        for trial in range(40):
            m = random_invertible(rng, 5, -3, 3)
            r = rng.randint(1, 4)
            fs = fragment_set(decompose(m, Dimensions(r, 5 - r)))
            w = choose_generic_direction(fs, trial)
            p = m.mat_vec(tiling.grid_vector(f"point:{trial}", 5, 0, tiling.SAMPLE_DENOMINATOR))
            tiles = _tile_ids(TilingEngine(fs, w), p)
            volume = axis_box_volume(fs, p)
            # at least 1e4 axis-box candidates per hit; the cap keeps the
            # oracle's scan to a few seconds
            if volume < 10_000 * len(tiles) or volume > 250_000:
                continue
            assert tiles == brute_force_tiles(fs, w, p)
            checked += 1
        assert checked >= 2

    def test_constancy_beyond_the_axis_box(self):
        # corpus z5r2-10: its axis box holds over 1e12 candidates per point
        fs = corpus_matrix(5, 2, 10)
        assert axis_box_volume(fs, _verify_points(fs, 1)[0]) >= 10**9
        rep = verify_constancy(fs, choose_generic_direction(fs, 0), 20, 0)
        assert rep.passed
        assert rep.distinct_f_values == {fs.expected_coverage()}

    def test_candidates_per_hit(self):
        # Summed candidate_box volume per tile hit at the first 8 verify
        # points of seed 0: 7-25 on the n=5 matrices, 82-178 at n=6, where
        # the reduced boxes stay looser.
        bound = {5: 100, 6: 200}
        for n, r, i in self.LARGE_BOX:
            fs = corpus_matrix(n, r, i)
            engine = TilingEngine(fs, choose_generic_direction(fs, 0))
            candidates = hits = 0
            for p in _verify_points(fs, 8):
                a = engine.m_inv.mat_vec(p)
                for frame in engine.frames:
                    lo, hi = engine.candidate_box(frame, a)
                    volume = 1
                    for low, high in zip(lo, hi):
                        volume *= max(0, high - low + 1)
                    candidates += volume
                hits += len(engine.tiles_at(p)[0])
            assert candidates <= bound[n] * hits, (n, r, i, candidates, hits)


class TestBlockLinearMaps:
    """For L = diag(L_top, L_bottom) invertible, the fragments of LM are
    L S_sigma, so lambda_sigma of (LM, Lw) is that of (M, w) and so are the
    rules: the tiles at Lp for (LM, Lw) are the tiles at p for (M, w), and
    every sign class flips when det L < 0; the boundary counts agree too.
    This checks the set-up and tiles_at against themselves, with no
    Fraction reference, at the origin and at fundamental_point samples."""

    FLIP = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE, DEGENERATE: DEGENERATE}

    @staticmethod
    def _block_maps(rng, r, k):
        """A seeded L with entries in -3..3, and L with its first row
        negated, so that the two determinants have opposite signs."""
        while True:
            top, bottom = ([[rng.randint(-3, 3) for _ in range(s)] for _ in range(s)] for s in (r, k))
            if int_det(top) and int_det(bottom):
                break
        rows = [row + [0] * k for row in top] + [[0] * r + row for row in bottom]
        negated = [[-x for x in rows[0]]] + rows[1:]
        return [Matrix.from_rows(rows), Matrix.from_rows(negated)]

    def _check_block_map(self, fs, w, located, l, label):
        """Assert that the tiles at L p for (LM, Lw) are the tiles at p for
        (M, w), each (p, tiles_at(p)) of located, with every sign class
        flipped when det L < 0.  The block determinants scale too: det C
        by det L_top, det Cbar by det L_bottom, det S and both sides of the
        Laplace identity by det L."""
        det_l = det(l)
        flip = det_l < 0
        mapped = fragment_set(decompose(mat_mul(l, fs.decomposition.m), fs.dims))
        classes = [self.FLIP[f.sign_class] if flip else f.sign_class for f in fs]
        assert [f.sign_class for f in mapped] == classes, label
        r, rows = fs.dims.r, l.row_list()
        det_top, det_bottom = (
            det(Matrix.from_rows([row[part] for row in rows[part]])) for part in (slice(None, r), slice(r, None))
        )
        assert det_top * det_bottom == det_l, label
        for f, g in zip(fs, mapped):
            scaled = (det_top * f.det_c, det_bottom * f.det_cbar, det_l * f.det_s)
            assert (g.det_c, g.det_cbar, g.det_s) == scaled, (label, f.sigma)
        assert laplace_identity(mapped) == tuple(det_l * side for side in laplace_identity(fs)), label
        mapped_engine = TilingEngine(mapped, certify_direction(mapped, l.mat_vec(w.w)))
        for p, (tiles, boundary) in located:
            expected = [(tile, self.FLIP[c] if flip else c) for tile, c in tiles]
            assert mapped_engine.tiles_at(l.mat_vec(p)) == (expected, boundary), (label, p)

    def _check_block_swap(self, fs, w, located, label):
        """Assert the block swap's image of each (p, tiles_at(p)) of located.

        Pi moves M's bottom k rows above its top r, so Pi M splits as
        (k, r), and its fragment on sigma-hat is -Pi S_sigma.  With
        w' = -Pi w the rules are unchanged: the tiles at -Pi p for
        (Pi M, -Pi w) are (-z, sigma-hat) for the tiles (z, sigma) at p for
        (M, w), and each sign class is multiplied by (-1)^(n + r k).
        Returns whether the classes flip."""
        (r, k, n), rows = (fs.dims.r, fs.dims.k, fs.dims.n), fs.decomposition.m.row_list()
        swap = lambda v: tuple(-x for x in (*v[r:], *v[:r]))
        swapped = fragment_set(decompose(Matrix.from_rows(rows[r:] + rows[:r]), Dimensions(k, r)))
        flip = (n + r * k) % 2 == 1
        classes = [self.FLIP[f.sign_class] if flip else f.sign_class for f in fs]
        assert [swapped[complement(f.sigma, n)].sign_class for f in fs] == classes, label
        swapped_engine = TilingEngine(swapped, certify_direction(swapped, swap(w.w)))
        for p, (tiles, boundary) in located:
            expected = {
                (TileId(z=tuple(-x for x in t.z), sigma=complement(t.sigma, n)), self.FLIP[c] if flip else c)
                for t, c in tiles
            }
            got, got_boundary = swapped_engine.tiles_at(swap(p))
            assert (set(got), len(got), got_boundary) == (expected, len(tiles), boundary), (label, p)
        return flip

    def test_tiles_map_with_the_block_map(self):
        rng = random.Random("block-linear")
        corpus = corpus_files(max_n=4)
        signs = set()
        boundaries = 0
        for path in corpus:
            fs = corpus_set(path)
            assert fs.det_m != 0, path.name
            r, k, n = fs.dims.r, fs.dims.k, fs.dims.n
            w = choose_generic_direction(fs, 0)
            engine = TilingEngine(fs, w)
            points = [(0,) * n] + [fundamental_point(fs, f"block-linear:{i}") for i in range(5)]
            located = [(p, engine.tiles_at(p)) for p in points]
            for l in self._block_maps(rng, r, k):
                signs.add(det(l) < 0)
                self._check_block_map(fs, w, located, l, path.name)
                boundaries += sum(boundary > 0 for _, (_, boundary) in located)
        assert signs == {False, True}
        assert boundaries >= 2 * len(corpus)

    def test_block_swap_maps_tiles_to_their_complements(self):
        corpus = corpus_files(max_n=5)
        signs = set()
        compared = boundaries = 0
        for path in corpus:
            fs = corpus_set(path)
            w = choose_generic_direction(fs, 0)
            engine = TilingEngine(fs, w)
            points = [(Fraction(0),) * fs.dims.n] + [fundamental_point(fs, f"block-swap:{i}") for i in range(11)]
            located = [(p, engine.tiles_at(p)) for p in points]
            signs.add(self._check_block_swap(fs, w, located, path.name))
            compared += len(located)
            boundaries += sum(boundary > 0 for _, (_, boundary) in located)
        assert signs == {False, True}
        assert compared == 12 * len(corpus) == 504
        # The origin is a corner of every z = 0 tile.
        assert boundaries >= len(corpus)

    @pytest.mark.parametrize("step", [None, 4])
    def test_double_cover_maps_with_the_block_map(self, step, monkeypatch):
        # The shadows of a collection of (LM, Lw) are the images under
        # L_top or L_bottom of those of (M, w), with the same rules, so each
        # sample meets the same members: the verdict and boundary count are
        # equal, a failing point maps by that block of L, and up and down
        # swap when det L < 0, since every sign class flips.  No sample of
        # the 2^-31 grid touches a shadow boundary here; on the open grid
        # of step 1/4 many do, and the w-rules decide them.
        if step:
            grid_numerators = facets.grid_numerators
            monkeypatch.setattr(
                facets, "grid_numerators", lambda tag, dim, lo, hi: [x << 29 for x in grid_numerators(tag, dim, 1, step)]
            )
        rng = random.Random("block-linear:double-cover")
        compared = failing = boundaries = 0
        for path in corpus_files(max_n=4):
            fs = corpus_set(path)
            r, n = fs.dims.r, fs.dims.n
            w = choose_generic_direction(fs, 0)
            z = (0,) * n
            reports = [
                double_cover_check(fs, w, index, z, 30, 1) for index in (*subsets(n, r - 1), *subsets(n, r + 1))
            ]
            for l in self._block_maps(rng, r, fs.dims.k):
                mapped = fragment_set(decompose(mat_mul(l, fs.decomposition.m), fs.dims))
                mapped_w = certify_direction(mapped, l.mat_vec(w.w))
                flip = det(l) < 0
                for rep in reports:
                    got = double_cover_check(mapped, mapped_w, rep.index, z, 30, 1)
                    cols = slice(r, None) if rep.kind == "tau" else slice(None, r)
                    part = [row[cols] for row in l.row_list()[cols]]
                    expected = [
                        (tuple(sum(map(mul, row, q_rel)) for row in part), *((down, up) if flip else (up, down)))
                        for q_rel, up, down in rep.failures
                    ]
                    label = (path.stem, rep.index, flip)
                    assert (got.passed, got.boundary_samples) == (rep.passed, rep.boundary_samples), label
                    assert list(got.failures) == expected, label
                    compared += 1
                    failing += not rep.passed
                    boundaries += rep.boundary_samples
        assert (compared, failing, boundaries) == ((274, 42, 1500) if step else (274, 44, 0))

    @given(split_matrices(), st.data())
    def test_fuzz_block_map_and_swap(self, case, data):
        # Both relations on random rational matrices with n <= 5, for an L
        # whose blocks hypothesis draws with entries in -3..3, at the origin
        # and three fundamental_point samples.
        m, dims = case
        fs = fragment_set(decompose(m, dims))
        assume(fs.det_m != 0)
        r, k = dims.r, dims.k
        square = lambda s: st.lists(st.lists(st.integers(-3, 3), min_size=s, max_size=s), min_size=s, max_size=s)
        top, bottom = (data.draw(square(s).filter(int_det)) for s in (r, k))
        l = Matrix.from_rows([row + [0] * k for row in top] + [[0] * r + row for row in bottom])
        w = choose_generic_direction(fs, 0)
        engine = TilingEngine(fs, w)
        points = [(Fraction(0),) * dims.n] + [fundamental_point(fs, f"block-fuzz:{i}") for i in range(3)]
        located = [(p, engine.tiles_at(p)) for p in points]
        self._check_block_map(fs, w, located, l, m)
        self._check_block_swap(fs, w, located, m)


class TestCoverage:
    def test_worked_4x4(self, mset, w_m):
        engine = TilingEngine(mset, w_m)
        rng = random.Random(2)
        for _ in range(10):
            u = tuple(Fraction(rng.randint(0, 2**20 - 1), 2**20) for _ in range(4))
            p = mset.decomposition.m.mat_vec(u)
            rep = engine.coverage(p)
            assert rep.f_value == 1 == rep.expected
            assert rep.census in {(1, 0), (2, 1), (3, 2)}

    def test_k(self, kset, w_k):
        rep = TilingEngine(kset, w_k).coverage((Fraction(1, 3), Fraction(2, 7)))
        assert rep.f_value == -1 == rep.expected
        assert rep.census == (0, 1)

    def test_l(self, lset, w_l):
        engine = TilingEngine(lset, w_l)
        rng = random.Random(6)
        seen = set()
        for _ in range(30):
            p = (Fraction(rng.randint(-200, 200), 101), Fraction(rng.randint(-200, 200), 103))
            rep = engine.coverage(p)
            assert rep.f_value == -1
            seen.add(rep.census)
        assert seen == {(0, 1), (1, 2)}

    def test_point_of_the_wrong_length(self, mset, w_m, tmp_path):
        # zip would truncate a short point or drop a long one's tail
        engine = TilingEngine(mset, w_m)
        path = tmp_path / "M.txt"
        path.write_text("2 2\n3 2 -4 1\n1 0 2 2\n2 0 -1 1\n0 1 -2 3\n")
        for point in ((1, 2), (1, 2, 3, 4, 5)):
            for p in (point, ClearedPoint(2, list(point))):
                with pytest.raises(DimensionError, match=f"^point has length {len(point)}, expected 4$"):
                    engine.tiles_at(p)
            text = ",".join(map(str, point))
            for command in ("coverage", "crossing"):
                code, _, err = invoke([command, "--matrix", str(path), "--point", text])
                assert code == 2 and f"point has length {len(point)}" in err, command


class TestFacePoints:
    def test_the_rules_give_the_theorem_at_tile_faces(self):
        # f = expected at every vertex and face midpoint S_sigma eps,
        # eps in {0, 1/2, 1}^n, of every live fragment: the n <= 4 corpus
        # matrices and z5r2-8.  All but the centres lie on their own tile's
        # boundary, where the half-open w-rules decide membership.
        paths = corpus_files(4) + [p for p in corpus_files(5) if p.stem == "z5r2-8"]
        points = touching = 0
        for path in paths:
            fs = corpus_set(path)
            engine = TilingEngine(fs, choose_generic_direction(fs, 0))
            for frag in fs:
                if frag.sign_class == DEGENERATE:
                    continue
                for eps in product((0, HALF, 1), repeat=fs.dims.n):
                    report = engine.coverage(frag.s.mat_vec(eps))
                    assert report.f_value == report.expected, (path.stem, frag.sigma, eps)
                    points += 1
        assert len(paths) == 25 and points == 6489

    @settings(deadline=None, max_examples=40)
    @given(split_matrices(), st.integers(0, 3), st.data())
    def test_fuzz_at_face_points(self, case, seed, data):
        # Random rational matrices with n <= 5: f = expected at a grid point
        # of the fundamental domain and at S_sigma y + M z for a live sigma,
        # with one y_i drawn from {0, 1}, on a face of the tile (z, sigma),
        # where the w-rules decide membership.
        m, dims = case
        fs = fragment_set(decompose(m, dims))
        assume(fs.det_m != 0)
        engine = TilingEngine(fs, choose_generic_direction(fs, seed))
        n = dims.n
        frag = data.draw(st.sampled_from([f for f in fs if f.sign_class != DEGENERATE]))
        y = data.draw(st.lists(st.fractions(0, 1, max_denominator=6), min_size=n, max_size=n))
        y[data.draw(st.integers(0, n - 1))] = Fraction(data.draw(st.integers(0, 1)))
        z = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        face = tuple(a + b for a, b in zip(frag.s.mat_vec(y), m.mat_vec(z)))
        for p in (fundamental_point(fs, f"face:{seed}"), face):
            assert engine.coverage(p).f_value == fs.expected_coverage(), p


class TestVerifyConstancy:
    def test_worked_4x4(self, mset, w_m):
        rep = verify_constancy(mset, w_m, 300, 7)
        assert rep.passed
        assert rep.distinct_f_values == {1}
        assert set(rep.census_histogram) <= {(1, 0), (2, 1), (3, 2)}

    def test_k_traditional(self, kset, w_k):
        rep = verify_constancy(kset, w_k, 300, 7)
        assert rep.passed
        assert rep.distinct_f_values == {-1}
        assert set(rep.census_histogram) == {(0, 1)}

    def test_l_overlaps(self, lset, w_l):
        rep = verify_constancy(lset, w_l, 300, 7)
        assert rep.passed
        assert rep.distinct_f_values == {-1}
        assert set(rep.census_histogram) == {(0, 1), (1, 2)}

    def test_determinism(self, lset, w_l):
        a = verify_constancy(lset, w_l, 100, 3)
        b = verify_constancy(lset, w_l, 100, 3)
        assert a == b

    def test_matches_the_fraction_path(self, kset, w_k, lset, w_l, mset, w_m):
        # K, L, M and the corpus matrices q3r2-0, q3r2-1 and z4r3-2
        cases = [(kset, w_k), (lset, w_l), (mset, w_m)]
        for fs in (corpus_matrix(3, 2, 0, True), corpus_matrix(3, 2, 1, True), corpus_matrix(4, 3, 2)):
            cases.append((fs, choose_generic_direction(fs, 0)))
        for fs, w in cases:
            for seed in range(3):
                assert verify_constancy(fs, w, 40, seed) == reference_verify(fs, w, 40, seed)

    def test_matches_the_fraction_path_with_redraws(self, mset, w_m, lset, w_l, monkeypatch):
        # On a grid of step 1/8 many samples land on tile boundaries, where
        # the w-rules decide them; the oracle decides them the same way.  On
        # the rational q3r2-0 (d = 12) and q3r2-1 (d = 6) a sample reaches
        # tiles_at over d 2^31, which is not its least denominator.
        cases = [(mset, w_m), (lset, w_l)]
        for fs in (corpus_matrix(3, 2, 0, True), corpus_matrix(3, 2, 1, True)):
            cases.append((fs, choose_generic_direction(fs, 0)))
        grid_numerators = tiling.grid_numerators
        monkeypatch.setattr(
            tiling, "grid_numerators", lambda tag, dim, lo, hi: [x << 28 for x in grid_numerators(tag, dim, 0, 8)]
        )
        for fs, w in cases:
            rep = verify_constancy(fs, w, 40, 1)
            assert rep.boundary_samples > 0
            assert rep.passed
            assert rep == reference_verify(fs, w, 40, 1)
        assert [fs.m_rows[0] for fs, _ in cases[2:]] == [12, 6]

    def test_mat_vec_calls_do_not_grow_with_samples(self, mset, w_m, mat_vec_log):
        counts = []
        for samples in (10, 100):
            del mat_vec_log[:]
            verify_constancy(mset, w_m, samples, 3)
            counts.append(len(mat_vec_log))
        assert counts[0] == counts[1]

    def test_points_are_not_cleared_per_sample(self, mset, w_m, monkeypatch):
        # A sample reaches tiles_at as the integers it was formed from: no
        # Fraction vector is read or cleared per sample.
        log = []
        for name in ("clear_denominator", "vector"):
            func = getattr(tiling, name)
            monkeypatch.setattr(tiling, name, lambda v, name=name, func=func: log.append(name) or func(v))
        counts = []
        for samples in (10, 100):
            del log[:]
            verify_constancy(mset, w_m, samples, 3)
            counts.append(len(log))
        assert counts[0] == counts[1]

    def test_the_rules_decide_the_lattice_origin(self, mset, w_m, tmp_path, monkeypatch):
        # The lattice origin is a corner of every tile: every sample lies on
        # a boundary, and the half-open rules still give f = expected there.
        monkeypatch.setattr(tiling, "grid_numerators", lambda tag, dim, *rest: [0] * dim)
        rep = verify_constancy(mset, w_m, 3, 7)
        assert rep.passed and rep.boundary_samples == 3
        path = tmp_path / "M.txt"
        path.write_text("2 2\n3 2 -4 1\n1 0 2 2\n2 0 -1 1\n0 1 -2 3\n")
        code, out, _ = invoke(["verify", "--matrix", str(path), "--w", "1,1,1,1", "--samples", "3"])
        assert code == 0
        assert out.endswith("boundary_redraws=3 values=1 f=1 pass=true\n")


class TestClearedPoint:
    def test_reads_as_the_rational_vector(self):
        p = ClearedPoint(12, [6, -8, 0, 3])
        expected = (HALF, Fraction(-2, 3), Fraction(0), Fraction(1, 4))
        assert isinstance(p, Sequence) and not hasattr(p, "__dict__")
        assert len(p) == 4 and tuple(p) == expected and list(p) == list(expected)
        assert (p[0], p[-1], p[1:3], p[::-1]) == (expected[0], expected[-1], expected[1:3], expected[::-1])
        assert vector(p) == expected and Matrix.from_rows([[1, 1, 1, 1]]).mat_vec(p) == (Fraction(1, 12),)

    def test_fundamental_point_is_the_fraction_product(self):
        # Every corpus matrix, the rational q files included: the point is
        # M u for the grid vector u, as the Fraction product forms it.
        for path in corpus_files():
            fs = corpus_set(path)
            m, n = fs.decomposition.m, fs.dims.n
            for tag in ("sample:0:0:0", "sample:1:7:0", "ray:0:0"):
                p = fundamental_point(fs, tag)
                assert isinstance(p, ClearedPoint), path.name
                assert tuple(p) == m.mat_vec(tiling.grid_vector(tag, n, 0, tiling.SAMPLE_DENOMINATOR)), path.name

    def test_tiles_at_takes_either_form(self):
        for path in corpus_files(max_n=5):
            fs = corpus_set(path)
            engine = TilingEngine(fs, choose_generic_direction(fs, 0))
            for i in range(2):
                p = fundamental_point(fs, f"sample:0:{i}:0")
                assert engine.tiles_at(p) == engine.tiles_at(tuple(p)), path.name


class TestAverageIdentity:
    def test_examples(self, kset, lset, mset):
        assert laplace_identity(kset) == (-5, -5)
        assert laplace_identity(lset) == (-3, -3)
        assert laplace_identity(mset) == (37, 37)

    def test_volume_census(self, mset, w_m):
        # mean tile count per family approaches |det S| / |det M|
        engine = TilingEngine(mset, w_m)
        n = 10_000
        counts = {frag.sigma: [] for frag in mset}
        rng = random.Random(13)
        for _ in range(n):
            u = tuple(Fraction(rng.randint(0, 2**24 - 1), 2**24) for _ in range(4))
            tiles, _ = engine.tiles_at(mset.decomposition.m.mat_vec(u))
            per = {sigma: 0 for sigma in counts}
            f_value = 0
            for tile, sign_class in tiles:
                per[tile.sigma] += 1
                f_value += 1 if sign_class == "positive" else -1
            assert f_value == engine.expected
            for sigma, c in per.items():
                counts[sigma].append(c)
        for frag in mset:
            data = counts[frag.sigma]
            mean = Fraction(sum(data), n)
            expected = abs(frag.det_s) / Fraction(abs(mset.det_m))
            var = sum((Fraction(c) - mean) ** 2 for c in data) / n
            bound = 5 * (float(var) / n) ** 0.5 + 1e-9
            assert abs(float(mean - expected)) <= bound
