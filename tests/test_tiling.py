import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    axis_box_volume,
    brute_force_tiles,
    corpus_files,
    corpus_matrix,
    corpus_set,
    invoke,
    mat_mul,
    pip_contains,
    random_invertible,
    random_rational_invertible,
    reference_cell_hits,
    reference_size_reduce,
    reference_verify,
)
from fragtile import (
    DEGENERATE,
    Dimensions,
    GenericityError,
    Matrix,
    TileId,
    TilingEngine,
    certify_direction,
    choose_generic_direction,
    decompose,
    fragment_set,
    inverse,
    laplace_identity,
    solve,
    tiling,
    verify_constancy,
)
from fragtile.linalg import DimensionError, clear_denominator, clear_rows, int_mat_mul
from fragtile.tiling import cell_hits, size_reduce

HALF = Fraction(1, 2)
WORKED_POINT = (Fraction(-2), Fraction(1), -HALF, -HALF)


def _tile_ids(engine, p):
    """The tiles holding p, in (sigma, z) lexicographic order."""
    return [tile for tile, _ in engine.tiles_at(p)[0]]


class TestGenericDirection:
    def test_all_ones_certified(self, mset, w_m):
        # one lambda vector per invertible fragment, keyed by sigma
        assert set(w_m.lambdas) == set(mset.sigmas())
        assert all(len(lam) == 4 for lam in w_m.lambdas.values())
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
                assert w_m.lambda_of(mset, frag.sigma) == solve(frag.s, w_m.w)
        assert set(w_m.lambdas) == set(mset.by_class("positive") + mset.by_class("negative"))
        # a direction certified for K carries no lambda for L's fragments
        with pytest.raises(KeyError):
            TilingEngine(lset, w_k)

    def test_not_generic_for_l(self, lset):
        # the all-ones vector has a zero coordinate in this matrix's basis
        with pytest.raises(GenericityError):
            certify_direction(lset, (1, 1))


class TestPipContains:
    def test_origin_inside_unit_box(self):
        assert pip_contains(Matrix.identity(3), (1, 1, 1), (0, 0, 0))

    def test_far_corner_excluded(self):
        assert not pip_contains(Matrix.identity(3), (1, 1, 1), (1, 1, 1))

    def test_negative_direction_flips_rule(self):
        assert pip_contains(Matrix.identity(2), (-1, -1), (1, 1))
        assert not pip_contains(Matrix.identity(2), (-1, -1), (0, 0))

    def test_singular_is_empty(self):
        assert not pip_contains(Matrix.from_rows([[1, 1], [1, 1]]), (1, 2), (0, 0))

    def test_zero_coordinate_raises(self):
        with pytest.raises(GenericityError):
            pip_contains(Matrix.identity(2), (1, 0), (HALF, HALF))

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


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


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
                red, w, w_inv = size_reduce(g)
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

    def test_frames_keep_the_translate_lattice(self):
        # H' = S^-1 M W^-1 over the frame denominator, so H' W is S^-1 M.
        for fs in self._fragment_sets():
            w = choose_generic_direction(fs, 0)
            engine = TilingEngine(fs, w)
            for frame in engine.frames:
                n = fs.dims.n
                assert int_mat_mul(frame.to_x, frame.to_z) == _identity(n)
                h = mat_mul(inverse(fs[frame.sigma].s), fs.decomposition.m)
                assert int_mat_mul(frame.h, frame.to_x) == [
                    [x * frame.denom for x in row] for row in h.row_list()
                ]

    def test_frames_match_the_product_construction(self):
        # Frames take G = M^-1 S as T - D and reduce it on its Gram matrix;
        # the reference multiplies M^-1 by the cleared S and takes every
        # inner product from the rows.  Both give the same W, W^-1 and boxes.
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
            for frame in engine.frames:
                s_den, s_rows = clear_rows(fs[frame.sigma].s)
                g, to_x, to_z = reference_size_reduce(int_mat_mul(m_inv, s_rows))
                assert (frame.to_x, frame.to_z) == (to_x, to_z)
                sd = e * s_den
                for p in points:
                    num, den = engine.lattice_coordinates(*clear_denominator(p))
                    b = [sum(x * v for x, v in zip(row, num)) * sd for row in to_x]
                    lo = [-((sum(x for x in row if x > 0) * den - bi) // (den * sd)) for bi, row in zip(b, g)]
                    hi = [(bi - sum(x for x in row if x < 0) * den) // (den * sd) for bi, row in zip(b, g)]
                    assert frame.box(num, den) == (lo, hi)

    def test_candidate_box_is_the_scanned_box(self, mset, w_m, monkeypatch):
        engine = TilingEngine(mset, w_m)
        p = (Fraction(1, 7), Fraction(-2, 9), Fraction(3, 11), Fraction(1, 13))
        scanned = []
        real = tiling.cell_hits

        def recording(u, h, one, rules, ranges):
            scanned.append([tuple(r) for r in ranges])
            return real(u, h, one, rules, ranges)

        monkeypatch.setattr(tiling, "cell_hits", recording)
        engine.tiles_at(p)
        a = engine.m_inv.mat_vec(p)
        boxes = [list(zip(*engine.candidate_box(frame, a))) for frame in engine.frames]
        assert scanned == boxes


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
        """Assert every case matches; return (members, touching) totals."""
        members = touching = 0
        for case in cases:
            got = list(cell_hits(*case))
            assert got == list(reference_cell_hits(*case)), case
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
        # c == 0: the one empty translate, when u itself is in the cell
        assert list(cell_hits([0, 3], [[], []], 3, (True, True), [])) == [((), False, True)]
        assert list(cell_hits([2, 1], [[], []], 3, (True, False), [])) == [((), True, False)]
        assert list(cell_hits([4, 1], [[], []], 3, (True, True), [])) == []
        # no rows: every translate of the box, inside and not touching
        assert list(cell_hits([], [], 3, (), [(0, 1), (2, 2)])) == [
            ((0, 2), True, False), ((1, 2), True, False)
        ]

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
        assert [z for z, _, _ in cell_hits([7], [[2]], 5, (True,), wide)] == [(1,), (2,), (3,)]
        hits = list(cell_hits([0, 9], [[1, 0], [0, -3]], 4, (True, False), [(0, 2), *wide]))
        assert [z for z, _, _ in hits] == [(0, -3), (0, -2)]


class TestHalvedQuery:
    """tiles_at's small-integer query against the exact one."""

    def test_matches_the_exact_query(self, mset, w_m, qset):
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
                q, p_int = clear_denominator(p)
                num, den = engine.lattice_coordinates(q, p_int)
                for frame in engine.frames:
                    ranges = list(zip(*frame.box(num, den)))
                    exact = frame.exact_query(q, p_int)
                    got = list(cell_hits(*frame.query(q, p_int), frame.rules, ranges))
                    assert got == list(cell_hits(*exact, frame.rules, ranges)), (p, frame.sigma)
                    if q > 1 and any(x % q == 0 for x in exact[0]):
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
            with pytest.raises(DimensionError, match=f"length {len(point)}, expected 4"):
                engine.tiles_at(point)
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
        # the w-rules decide them; the oracle decides them the same way.
        grid_vector = tiling.grid_vector
        monkeypatch.setattr(tiling, "grid_vector", lambda tag, dim, lo, hi: grid_vector(tag, dim, 0, 8, 8))
        for fs, w in ((mset, w_m), (lset, w_l)):
            rep = verify_constancy(fs, w, 40, 1)
            assert rep.boundary_samples > 0
            assert rep.passed
            assert rep == reference_verify(fs, w, 40, 1)

    def test_mat_vec_calls_do_not_grow_with_samples(self, mset, w_m, mat_vec_log):
        counts = []
        for samples in (10, 100):
            del mat_vec_log[:]
            verify_constancy(mset, w_m, samples, 3)
            counts.append(len(mat_vec_log))
        assert counts[0] == counts[1]

    def test_the_rules_decide_the_lattice_origin(self, mset, w_m, tmp_path, monkeypatch):
        # The lattice origin is a corner of every tile: every sample lies on
        # a boundary, and the half-open rules still give f = expected there.
        monkeypatch.setattr(tiling, "grid_vector", lambda tag, dim, *rest: (Fraction(0),) * dim)
        rep = verify_constancy(mset, w_m, 3, 7)
        assert rep.passed and rep.boundary_samples == 3
        path = tmp_path / "M.txt"
        path.write_text("2 2\n3 2 -4 1\n1 0 2 2\n2 0 -1 1\n0 1 -2 3\n")
        code, out, _ = invoke(["verify", "--matrix", str(path), "--w", "1,1,1,1", "--samples", "3"])
        assert code == 0
        assert out.endswith("boundary_redraws=3 values=1 f=1 pass=true\n")


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
