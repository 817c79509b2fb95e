import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    brute_force_events,
    corpus_files,
    corpus_set,
    invoke,
    pip_contains,
    random_invertible,
    corpus_matrix,
    facet_projections,
    random_rational_invertible,
    reference_double_cover,
    solve_affine,
)
from fragtile import (
    BlockPermutation,
    DegenerateFragmentError,
    Dimensions,
    FacetId,
    Matrix,
    c_submatrices,
    collection_of,
    complement,
    crossing_check,
    certify_direction,
    decompose,
    det,
    choose_generic_direction,
    double_cover_check,
    facet_collection,
    facet_signs,
    fragment_set,
    h_vector,
    kernel_vector,
    lambda_vector,
    perm_sign,
    solve,
    subsets,
    tilde_facet,
    up_down_partition,
)
from fragtile import facets
from fragtile.facets import _collect_events
from fragtile.linalg import DimensionError, normalize_integer_direction
from fragtile.tiling import (
    SAMPLE_DENOMINATOR,
    TilingEngine,
    grid_vector,
)

# The corpus matrix cover13 (r=1): its gamma {2,3} collection fails the
# once-each cover, the recorded cover-degenerate-gamma discrepancy.
COVER13_ROWS = [[3, -1, 1, 0], [1, 2, 2, -1], [0, -3, -3, 2], [3, -2, 0, 1]]


class TestTildeFacet:
    def test_s_zero_is_plain(self):
        f = tilde_facet((1, -2, 0, 3), (2, 3), 3, 0)
        assert f == FacetId(z=(1, -2, 0, 3), sigma=(2, 3), j=3, s=0)

    def test_inside_shifts_down(self):
        f = tilde_facet((0, 0, 0, 0), (1, 2), 1, 1)
        assert f.z == (-1, 0, 0, 0)

    def test_outside_shifts_up(self):
        f = tilde_facet((0, 0, 0, 0), (2, 3), 4, 1)
        assert f.z == (0, 0, 0, 1)


class TestFacetCollection:
    def test_tau_has_two_per_missing_index(self, mset):
        coll = facet_collection(mset, "tau", (0, 0, 0, 0), (2,))
        assert len(coll.members) == 6
        assert not coll.degenerate
        assert {(f.sigma, f.j) for f in coll.members} == {
            ((1, 2), 1),
            ((2, 3), 3),
            ((2, 4), 4),
        }

    def test_gamma_has_two_per_member_index(self, mset):
        coll = facet_collection(mset, "gamma", (0, 0, 0, 0), (1, 2, 3))
        assert len(coll.members) == 6
        assert {(f.sigma, f.j) for f in coll.members} == {
            ((2, 3), 1),
            ((1, 3), 2),
            ((1, 2), 3),
        }

    def test_wrong_index_size(self, mset):
        with pytest.raises(DimensionError):
            facet_collection(mset, "tau", (0, 0, 0, 0), (1, 2))
        with pytest.raises(DimensionError):
            facet_collection(mset, "gamma", (0, 0, 0, 0), (1, 2))

    def test_asymmetric_slot_counts(self):
        # r=2, k=1: tau collections carry 2(k+1)=4 slots, gamma ones 2(r+1)=6
        m = Matrix.from_rows([[1, 0, 2], [0, 1, 1], [1, 2, 3]])
        fs = fragment_set(decompose(m, Dimensions(2, 1)))
        assert len(facet_collection(fs, "tau", (0, 0, 0), (2,)).members) == 4
        assert len(facet_collection(fs, "gamma", (0, 0, 0), (1, 2, 3)).members) == 6

    def test_membership_round_trip(self, mset):
        # a plain facet keeping its omitted index lands in the tau collection
        # anchored s steps up; losing it lands on the gamma side s steps down
        for sigma in subsets(4, 2):
            for j, s in product(range(1, 5), (0, 1)):
                plain = FacetId(z=(0, 1, -1, 2), sigma=sigma, j=j, s=s)
                kind, z, index = collection_of(plain, 4)
                if j in sigma:
                    assert kind == "tau"
                    assert index == tuple(i for i in sigma if i != j)
                    assert z == tuple(
                        a + (s if idx == j - 1 else 0)
                        for idx, a in enumerate(plain.z)
                    )
                else:
                    assert kind == "gamma"
                    assert index == tuple(sorted(sigma + (j,)))
                coll = facet_collection(mset, kind, z, index)
                assert plain in coll.members

    def test_partition_is_injective_over_window(self, kset):
        # every plain facet maps to exactly one collection slot, no slot reused
        seen = {}
        for z in product(range(-1, 2), repeat=2):
            for sigma in subsets(2, 1):
                for j, s in product((1, 2), (0, 1)):
                    plain = FacetId(z=z, sigma=sigma, j=j, s=s)
                    key = collection_of(plain, 2)
                    slot = (key, j, s)
                    assert slot not in seen
                    seen[slot] = plain


class TestLambdaVector:
    def test_worked_entries(self, mset, w_m):
        assert lambda_vector(mset, w_m, (2, 3))[1] == Fraction(3, 2)
        assert lambda_vector(mset, w_m, (3, 4))[3] == Fraction(3, 5)

    def test_defining_equation(self, mset, w_m):
        for frag in mset:
            lam = lambda_vector(mset, w_m, frag.sigma)
            assert frag.s.mat_vec(lam) == w_m.w

    def test_degenerate_raises(self):
        fs = fragment_set(decompose(Matrix.identity(2), Dimensions(1, 1)))
        w = choose_generic_direction(fs, 0)
        with pytest.raises(DegenerateFragmentError):
            lambda_vector(fs, w, (2,))

    def test_restricted_systems(self, mset, w_m):
        # the top and bottom blocks solve their own restricted systems
        for frag in mset:
            lam = lambda_vector(mset, w_m, frag.sigma)
            lam_sigma = tuple(lam[i - 1] for i in frag.sigma)
            lam_hat = tuple(lam[i - 1] for i in complement(frag.sigma, 4))
            c, cbar = c_submatrices(mset.decomposition, frag.sigma)
            assert c.mat_vec(lam_sigma) == w_m.w_prime
            assert cbar.mat_vec(lam_hat) == w_m.w_double_prime

    def test_quotient_formula(self, mset, w_m):
        # lambda as a quotient of determinants with the block-shuffle sign ratio
        d = mset.decomposition
        for tau in subsets(4, 1):
            for j in complement(tau, 4):
                sigma = tuple(sorted(tau + (j,)))
                rest = tuple(i for i in complement(tau, 4) if i != j)
                num = det(
                    Matrix.from_columns(
                        [d.c[i - 1] for i in tau] + [w_m.w_prime], rows=2
                    )
                )
                den = det(Matrix.from_columns([d.c[i - 1] for i in sigma], rows=2))
                ratio = Fraction(
                    perm_sign(BlockPermutation((tau, (j,), rest))),
                    perm_sign(BlockPermutation((sigma, rest))),
                )
                expected = (num / den) * ratio
                assert lambda_vector(mset, w_m, sigma)[j - 1] == expected


class TestFacetSigns:
    def test_sign_formula_cases(self, mset, w_m):
        up_facet = tilde_facet((0, 0, 0, 0), (2, 3), 3, 0)
        assert facet_signs(mset, w_m, up_facet) == (1, 1)

    def test_negative_family(self, mset, w_m):
        f = tilde_facet((0, 0, 0, 0), (3, 4), 4, 0)
        wsgn, tsgn = facet_signs(mset, w_m, f)
        assert tsgn == -1
        assert wsgn == 1  # deciding coordinate is 3/5 > 0

    def test_side_flip(self, mset, w_m):
        lo = facet_signs(mset, w_m, tilde_facet((0, 0, 0, 0), (1, 2), 1, 0))
        hi = facet_signs(mset, w_m, tilde_facet((0, 0, 0, 0), (1, 2), 1, 1))
        assert lo[0] == -hi[0] and lo[1] == hi[1]


class TestUpDownPartition:
    def test_worked_collection(self, mset, w_m):
        coll = facet_collection(mset, "tau", (0, 0, 0, 0), (2,))
        part = up_down_partition(mset, w_m, coll)
        assert set(part.up) == {
            tilde_facet((0, 0, 0, 0), (1, 2), 1, 0),
            tilde_facet((0, 0, 0, 0), (2, 3), 3, 0),
            tilde_facet((0, 0, 0, 0), (2, 4), 4, 0),
        }
        assert set(part.down) == {
            tilde_facet((0, 0, 0, 0), (1, 2), 1, 1),
            tilde_facet((0, 0, 0, 0), (2, 3), 3, 1),
            tilde_facet((0, 0, 0, 0), (2, 4), 4, 1),
        }

    def test_agrees_with_direct_signs(self, mset, w_m):
        indices = [("tau", tau) for tau in subsets(4, 1)]
        indices += [("gamma", gamma) for gamma in subsets(4, 3)]
        for kind, index in indices:
            coll = facet_collection(mset, kind, (0, 0, 0, 0), index)
            part = up_down_partition(mset, w_m, coll)
            assert set(part.up) | set(part.down) == set(coll.live_members())
            assert not set(part.up) & set(part.down)
            for facet in coll.live_members():
                wsgn, tsgn = facet_signs(mset, w_m, facet)
                assert (facet in part.up) == (wsgn * tsgn > 0)

    def test_tau_split_flips_as_a_whole(self, mset, w_m):
        # h_j = lambda_j * det S_sigma shares the factor det([C_tau | w'])
        # over every j, so another direction either keeps a tau collection's
        # up set or flips the side of every member at once; negating w flips.
        minus_w = certify_direction(mset, [-x for x in w_m.w])
        others = [choose_generic_direction(mset, seed) for seed in range(5)]
        for tau in subsets(4, 1):
            coll = facet_collection(mset, "tau", (0, 0, 0, 0), tau)
            up = set(up_down_partition(mset, w_m, coll).up)
            flipped = {tilde_facet(coll.z, f.sigma, f.j, 1 - f.s) for f in up}
            assert set(up_down_partition(mset, minus_w, coll).up) == flipped, tau
            for w in others:
                assert set(up_down_partition(mset, w, coll).up) in (up, flipped), (tau, w.w)

    def test_degenerate_member_excluded(self):
        fs = fragment_set(decompose(Matrix.identity(2), Dimensions(1, 1)))
        w = choose_generic_direction(fs, 0)
        coll = facet_collection(fs, "tau", (0, 0), ())
        assert len(coll.members) == 4
        assert len(coll.degenerate) == 2
        part = up_down_partition(fs, w, coll)
        assert len(part.up) + len(part.down) == 2
        for facet in coll.degenerate:
            assert facet not in part.up and facet not in part.down


class TestHVector:
    def test_worked_direction(self, mset, w_m):
        h = h_vector(mset, w_m, (2,))
        assert normalize_integer_direction(h) == (1, 6, 4)

    def test_kernel_for_all_tau(self, mset, w_m):
        d = mset.decomposition
        for tau in subsets(4, 1):
            h = h_vector(mset, w_m, tau)
            hat = complement(tau, 4)
            cbar = Matrix.from_columns([d.cbar[i - 1] for i in hat], rows=2)
            assert all(x == 0 for x in cbar.mat_vec(h))

    def test_parallel_to_kernel_vector(self, mset, w_m):
        d = mset.decomposition
        for tau in subsets(4, 1):
            h = h_vector(mset, w_m, tau)
            hat = complement(tau, 4)
            cbar = Matrix.from_columns([d.cbar[i - 1] for i in hat], rows=2)
            assert normalize_integer_direction(h) == kernel_vector(cbar)

    def test_matches_lambda_times_determinant(self, mset, w_m):
        for tau in subsets(4, 1):
            h = h_vector(mset, w_m, tau)
            for pos, j in enumerate(complement(tau, 4)):
                sigma = tuple(sorted(tau + (j,)))
                frag = mset[sigma]
                if frag.sign_class != "degenerate":
                    lam = lambda_vector(mset, w_m, sigma)
                    assert h[pos] == lam[j - 1] * frag.det_s

    def test_random_matrices(self):
        rng = random.Random(77)
        for trial in range(6):
            n = rng.randint(2, 4)
            r = rng.randint(1, n - 1)
            m = random_invertible(rng, n, -4, 4)
            fs = fragment_set(decompose(m, Dimensions(r, n - r)))
            w = choose_generic_direction(fs, trial)
            d = fs.decomposition
            for tau in subsets(n, r - 1):
                h = h_vector(fs, w, tau)
                hat = complement(tau, n)
                cbar = Matrix.from_columns([d.cbar[i - 1] for i in hat], rows=n - r)
                assert all(x == 0 for x in cbar.mat_vec(h))


class TestFacetProjections:
    def test_common_relative_interior_tau(self, mset, w_m):
        coll = facet_collection(mset, "tau", (0, 0, 0, 0), (2,))
        tops = {
            (top.base, top.generators)
            for top in (facet_projections(mset, w_m, f)[0] for f in coll.members)
        }
        d = mset.decomposition
        assert tops == {((Fraction(0), Fraction(0)), (d.c[1],))}

    def test_common_relative_interior_gamma(self, mset, w_m):
        coll = facet_collection(mset, "gamma", (0, 0, 0, 0), (1, 2, 3))
        bottoms = {
            (g.base, g.generators)
            for g in (facet_projections(mset, w_m, f)[1] for f in coll.members)
        }
        d = mset.decomposition
        assert bottoms == {((Fraction(0), Fraction(0)), (d.cbar[3],))}

    def test_top_unchanged_by_side_when_inside(self, mset, w_m):
        a = facet_projections(mset, w_m, tilde_facet((0, 0, 0, 0), (2, 3), 3, 0))
        b = facet_projections(mset, w_m, tilde_facet((0, 0, 0, 0), (2, 3), 3, 1))
        assert a[0] == b[0]

    def test_generator_split_sizes(self, mset, w_m):
        inside = FacetId(z=(0, 0, 0, 0), sigma=(1, 3), j=1, s=0)
        outside = FacetId(z=(0, 0, 0, 0), sigma=(1, 3), j=2, s=0)
        top_in, bottom_in = facet_projections(mset, w_m, inside)
        top_out, bottom_out = facet_projections(mset, w_m, outside)
        assert (len(top_in.generators), len(bottom_in.generators)) == (1, 2)
        assert (len(top_out.generators), len(bottom_out.generators)) == (2, 1)

    def test_geometry_membership(self, mset, w_m):
        f = FacetId(z=(0, 0, 0, 0), sigma=(2, 3), j=3, s=0)
        _, bottom = facet_projections(mset, w_m, f)
        # interior of the bottom shadow, then a point off the affine span rule
        mid = tuple(
            sum(Fraction(1, 2) * g[i] for g in bottom.generators)
            for i in range(2)
        )
        pos = bottom.position(tuple(b + m for b, m in zip(bottom.base, mid)))
        assert pos is not None and pos[0]
        pos = bottom.position((Fraction(10**6), Fraction(10**6)))
        assert not (pos is not None and pos[0])

    def test_fewer_generators_than_dimensions(self, mset, w_m):
        # tau top shadows and gamma bottom shadows of the worked matrix have
        # one generator in R^2; points inside, on a face and off the affine
        # span are checked against solve_affine and the half-open rules.
        xs = (-Fraction(1, 2), 0, Fraction(1, 3), 1, Fraction(3, 2))
        seen = set()
        for kind, index, shadow in (("tau", (2,), 0), ("gamma", (1, 2, 3), 1)):
            coll = facet_collection(mset, kind, (1, 0, -1, 0), index)
            for facet in coll.live_members():
                geom = facet_projections(mset, w_m, facet)[shadow]
                dim = len(geom.base)
                assert len(geom.generators) < dim
                g = Matrix.from_columns(geom.generators, rows=dim)
                units = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
                off = next(e for e in units if solve_affine(g, e) is None)
                for x, t in product(xs, (0, Fraction(1, 5))):
                    rel = tuple(x * gi + t * oi for gi, oi in zip(geom.generators[0], off))
                    point = tuple(b + r for b, r in zip(geom.base, rel))
                    coords = solve_affine(g, rel)
                    if coords is None:
                        inside = closed = touching = False
                    else:
                        inside = all(
                            (0 <= y < 1) if inc0 else (0 < y <= 1)
                            for y, inc0 in zip(coords, geom.include_zero)
                        )
                        closed = all(0 <= y <= 1 for y in coords)
                        touching = closed and any(y in (0, 1) for y in coords)
                    pos = geom.position(point)
                    assert (pos is not None and pos[0]) == inside
                    assert (pos is not None and pos[1]) == touching
                    seen.add((coords is None, inside, touching))
        # off the span, strictly inside, and on an included and an excluded face
        assert seen >= {
            (True, False, False),
            (False, True, False),
            (False, True, True),
            (False, False, True),
        }


class TestKernelSelectionTiling:
    def test_sign_pattern_tiles_zonotope(self, mset, w_m):
        # third route to the double cover: select shifted/unshifted cells by
        # the sign pattern of the canonical kernel vector and check one-cover
        d = mset.decomposition
        rng = random.Random(31)
        for tau in subsets(4, 1):
            hat = complement(tau, 4)
            v = Matrix.from_columns([d.cbar[i - 1] for i in hat], rows=2)
            h = kernel_vector(v)
            cells = []
            for pos, j in enumerate(hat):
                rest = [i for i in hat if i != j]
                sub = Matrix.from_columns([d.cbar[i - 1] for i in rest], rows=2)
                if det(sub) == 0:
                    continue
                shift = d.cbar[j - 1] if h[pos] > 0 else (Fraction(0), Fraction(0))
                cells.append((sub, shift))
            hits = 0
            trials = 0
            while trials < 100:
                coeffs = [
                    Fraction(rng.randrange(0, SAMPLE_DENOMINATOR), SAMPLE_DENOMINATOR)
                    for _ in hat
                ]
                q = tuple(
                    sum(c * d.cbar[j - 1][i] for c, j in zip(coeffs, hat))
                    for i in range(2)
                )
                covers = sum(
                    1
                    for sub, shift in cells
                    if pip_contains(sub, w_m.w_double_prime, tuple(a - b for a, b in zip(q, shift)))
                )
                trials += 1
                hits += covers
                assert covers == 1
            assert hits == trials


class TestDoubleCover:
    def test_worked_collection(self, mset, w_m):
        rep = double_cover_check(mset, w_m, (2,), (0, 0, 0, 0), 200, 7)
        assert rep.passed
        assert rep.sample_count == 200
        assert not rep.failures

    def test_all_tau(self, mset, w_m):
        for tau in subsets(4, 1):
            assert double_cover_check(mset, w_m, tau, (0, 0, 0, 0), 60, 5).passed

    def test_all_gamma(self, mset, w_m):
        for gamma in subsets(4, 3):
            assert double_cover_check(mset, w_m, gamma, (0, 0, 0, 0), 60, 5).passed

    def test_translation_equivalence(self, mset, w_m):
        base = double_cover_check(mset, w_m, (2,), (0, 0, 0, 0), 40, 9)
        moved = double_cover_check(mset, w_m, (2,), (1, -1, 0, 2), 40, 9)
        assert base.passed and moved.passed
        assert base.relative_points == moved.relative_points
        assert base.boundary_samples == moved.boundary_samples

    def test_degenerate_member_skipped(self):
        fs = fragment_set(decompose(Matrix.identity(2), Dimensions(1, 1)))
        w = choose_generic_direction(fs, 0)
        rep = double_cover_check(fs, w, (), (0, 0), 50, 3)
        assert rep.passed

    def test_2d_examples(self, kset, w_k, lset, w_l):
        for fs, w in ((kset, w_k), (lset, w_l)):
            assert double_cover_check(fs, w, (), (0, 0), 60, 2).passed
            assert double_cover_check(fs, w, (1, 2), (0, 0), 60, 2).passed

    def test_matches_the_fraction_path(self, mset, w_m, qset):
        # Every collection of M at two translates, every collection of
        # q3r2-1, and cover13's gamma {2,3}, the recorded failing witness.
        cases = [
            (mset, w_m, index, z)
            for z in ((0, 0, 0, 0), (1, -1, 0, 2))
            for index in (*subsets(4, 1), *subsets(4, 3))
        ]
        w_q = choose_generic_direction(qset, 0)
        cases += [
            (qset, w_q, index, z)
            for z in ((0, 0, 0), (1, -1, 0))
            for index in (*subsets(3, 1), *subsets(3, 3))
        ]
        for seed in (0, 1):
            for fs, w, index, z in cases:
                rep = double_cover_check(fs, w, index, z, 30, seed)
                assert rep == reference_double_cover(fs, w, index, z, 30, seed)
        cover13 = fragment_set(decompose(Matrix.from_rows(COVER13_ROWS), Dimensions(1, 3)))
        w_c = choose_generic_direction(cover13, 0)
        rep = double_cover_check(cover13, w_c, (2, 3), (0, 0, 0, 0), 100, 0)
        assert not rep.passed
        assert rep == reference_double_cover(cover13, w_c, (2, 3), (0, 0, 0, 0), 100, 0)

    def test_matches_the_fraction_path_on_random_rational_matrices(self):
        # Seeded rational matrices, n = 3..5, every tau and gamma collection
        # at a nonzero translate.
        rng = random.Random(37)
        checked = set()
        for n in (3, 4, 5):
            for trial in range(2):
                r = rng.randint(1, n - 1)
                fs = fragment_set(decompose(random_rational_invertible(rng, n), Dimensions(r, n - r)))
                w = choose_generic_direction(fs, trial)
                z = tuple(rng.randint(-2, 2) for _ in range(n - 1)) + (rng.choice((-1, 1)),)
                for index in (*subsets(n, r - 1), *subsets(n, r + 1)):
                    rep = double_cover_check(fs, w, index, z, 12, trial)
                    assert rep == reference_double_cover(fs, w, index, z, 12, trial), (n, index)
                    checked.add(rep.kind)
        assert checked == {"tau", "gamma"}

    def test_matches_the_fraction_path_with_redraws(self, mset, w_m, monkeypatch):
        # On the open grid of step 1/4 many samples touch a shadow boundary,
        # where the w-rules decide them; the oracle decides them the same way.
        grid_vector = facets.grid_vector
        monkeypatch.setattr(facets, "grid_vector", lambda tag, dim, lo, hi: grid_vector(tag, dim, 1, 4, 4))
        boundary_samples = 0
        for index in (*subsets(4, 1), *subsets(4, 3)):
            rep = double_cover_check(mset, w_m, index, (1, -1, 0, 2), 20, 2)
            assert rep.passed
            assert rep == reference_double_cover(mset, w_m, index, (1, -1, 0, 2), 20, 2)
            boundary_samples += rep.boundary_samples
        assert boundary_samples > 0

    def test_the_rules_match_the_fraction_path_on_the_corpus(self, monkeypatch):
        # Every tau and gamma collection of the n <= 4 corpus matrices on the
        # open grid of step 1/4, where the w-rules decide the shadow
        # boundaries: both paths must decide each sample alike.
        grid_vector = facets.grid_vector
        monkeypatch.setattr(facets, "grid_vector", lambda tag, dim, lo, hi: grid_vector(tag, dim, 1, 4, 4))
        collections = boundary_samples = 0
        for path in corpus_files(4):
            fs = corpus_set(path)
            w = choose_generic_direction(fs, 0)
            n, r = fs.dims.n, fs.dims.r
            z = (0,) * n
            for index in (*subsets(n, r - 1), *subsets(n, r + 1)):
                rep = double_cover_check(fs, w, index, z, 20, 2)
                assert rep == reference_double_cover(fs, w, index, z, 20, 2), (path.stem, index)
                collections += 1
                boundary_samples += rep.boundary_samples
        assert collections == 137 and boundary_samples > collections

    def test_mat_vec_calls_do_not_grow_with_samples(self, mset, w_m, mat_vec_log):
        for index in ((2,), (1, 2, 3)):
            counts = []
            for samples in (10, 100):
                del mat_vec_log[:]
                double_cover_check(mset, w_m, index, (1, -1, 0, 2), samples, 3)
                counts.append(len(mat_vec_log))
            assert counts[0] == counts[1]

    def test_the_rules_decide_the_collection_base(self, mset, w_m, tmp_path, monkeypatch):
        # Zero coefficients give the collection's base point, a corner of
        # every s=0 shadow.  For tau {2} the rules cover it once from each
        # side.  It is also a vertex of the zonotope, which the shadows'
        # rules need not cover (tau {3}: neither side); hence the open grid.
        monkeypatch.setattr(facets, "grid_vector", lambda tag, dim, *rest: (Fraction(0),) * dim)
        rep = double_cover_check(mset, w_m, (2,), (0, 0, 0, 0), 3, 5)
        assert rep.passed and rep.boundary_samples == 3
        rep = double_cover_check(mset, w_m, (3,), (0, 0, 0, 0), 3, 5)
        assert [failure[1:] for failure in rep.failures] == [(0, 0)] * 3
        path = tmp_path / "M.txt"
        path.write_text("2 2\n3 2 -4 1\n1 0 2 2\n2 0 -1 1\n0 1 -2 3\n")
        code, out, _ = invoke(
            ["double-cover", "--matrix", str(path), "--tau", "2", "--w", "1,1,1,1", "--samples", "3"]
        )
        assert code == 0
        assert out.endswith("samples=3 redraws=3 failures=0 pass=true\n")


class TestCrossing:
    def test_worked_4x4_rays(self, mset, w_m):
        rng = random.Random(15)
        engine = TilingEngine(mset, w_m)
        for i in range(5):
            u = tuple(Fraction(rng.randrange(0, 2**20), 2**20) for _ in range(4))
            p = mset.decomposition.m.mat_vec(u)
            rep = crossing_check(engine, p, 3, 100 + i)
            assert rep.passed
            assert rep.f_value == 1
            assert len(rep.crossings) >= 3
            assert all(c.sign_sum == 0 for c in rep.crossings)

    def test_k_rays(self, kset, w_k):
        rep = crossing_check(TilingEngine(kset, w_k), (Fraction(1, 7), Fraction(1, 9)), 6, 1)
        assert rep.passed
        assert rep.f_value == -1
        assert len(rep.crossings) >= 3

    def test_segment_without_crossings(self, mset, w_m):
        p = (Fraction(1, 7), Fraction(2, 11), Fraction(-1, 3), Fraction(1, 5))
        engine = TilingEngine(mset, w_m)
        events = _collect_events(engine, p, Fraction(3))
        first = min(events)
        rep = crossing_check(engine, p, first / 2, 3)
        assert rep.crossings == ()
        assert rep.constant
        assert rep.f_value == 1

    def test_boundary_start_perturbed(self, mset, w_m):
        # a lattice image sits on tile corners; the scan must nudge it first
        p = mset.decomposition.m.mat_vec((1, 0, -1, 0))
        rep = crossing_check(TilingEngine(mset, w_m), p, 2, 4)
        assert rep.passed
        assert rep.f_value == 1


def _event_table(events):
    return {
        t: sorted(((f.sigma, f.z, f.j, f.s), touching) for f, touching in items)
        for t, items in events.items()
    }


class TestEventScan:
    """The crossing scan against the exact face times of brute_force_events."""

    @staticmethod
    def check(fs, w, start, reach):
        engine = TilingEngine(fs, w)
        got = _event_table(_collect_events(engine, start, Fraction(reach)))
        assert got == _event_table(brute_force_events(fs, w, start, reach))
        return got

    @staticmethod
    def grid_start(fs, tag):
        return grid_vector(tag, fs.dims.n, -2 * SAMPLE_DENOMINATOR, 2 * SAMPLE_DENOMINATOR)

    @staticmethod
    def lattice_start(fs):
        z = (1, -1, 0, 2)[: fs.dims.n]
        return fs.decomposition.m.mat_vec(tuple(Fraction(v) for v in z))

    def test_worked_matrices(self, kset, w_k, lset, w_l, mset, w_m, qset):
        w_q = choose_generic_direction(qset, 4)
        crossings = 0
        touching = 0
        for fs, w in ((kset, w_k), (lset, w_l), (mset, w_m), (qset, w_q)):
            starts = [self.grid_start(fs, f"events:{i}") for i in range(2)]
            for start in starts + [self.lattice_start(fs)]:
                table = self.check(fs, w, start, 2)
                crossings += len(table)
                touching += sum(flag for items in table.values() for _, flag in items)
        assert crossings > 0 and touching > 0

    def test_rational_corpus(self):
        # corpus q3r2-0 and q3r2-1: rational M and lambda, and a rational reach
        for i in range(2):
            fs = corpus_matrix(3, 2, i, rational=True)
            for seed in range(3):
                w = choose_generic_direction(fs, seed)
                self.check(fs, w, self.grid_start(fs, f"events:q{i}:{seed}"), Fraction(7, 3))
                self.check(fs, w, self.lattice_start(fs), Fraction(5, 2))

    def test_random_rational(self):
        rng = random.Random(41)
        for trial in range(8):
            n = rng.randint(2, 4)
            r = rng.randint(1, n - 1)
            fs = fragment_set(decompose(random_rational_invertible(rng, n), Dimensions(r, n - r)))
            w = choose_generic_direction(fs, trial)
            self.check(fs, w, self.grid_start(fs, f"events:{trial}"), Fraction(3, 2))
            self.check(fs, w, self.lattice_start(fs), 1)
