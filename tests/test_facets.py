import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, strategies as st

from conftest import (
    BlockPermutation,
    brute_force_events,
    c_submatrices,
    collection_of,
    column_parts,
    corpus_files,
    corpus_set,
    identity_matrix,
    invoke,
    kernel_vector,
    matrix_from_columns,
    pair_fractions,
    perm_sign,
    pip_contains,
    random_invertible,
    corpus_matrix,
    facet_projections,
    random_rational_invertible,
    reference_double_cover,
    reference_h_vector,
    solve_affine,
    split_matrices,
)
from fragtile import (
    DEGENERATE,
    DegenerateFragmentError,
    Dimensions,
    FacetId,
    Matrix,
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
    fundamental_point,
    grid_vector,
)

# The corpus matrix cover13 (r=1): its gamma {2,3} collection fails the
# once-each cover, the recorded cover-degenerate-gamma discrepancy.
COVER13_ROWS = [[3, -1, 1, 0], [1, 2, 2, -1], [0, -3, -3, 2], [3, -2, 0, 1]]


@pytest.fixture(scope="module")
def cover13_set():
    return fragment_set(decompose(Matrix.from_rows(COVER13_ROWS), Dimensions(1, 3)))


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

    def test_non_integer_z_is_refused(self):
        # int() once truncated 7/2 to 3, naming another facet.
        for z in ((Fraction(7, 2), 0, 0, 0), (0, 0.9, 0, 0), (0, 0, 2.0, 0)):
            with pytest.raises(DimensionError, match="integer entries"):
                tilde_facet(z, (1, 2), 1, 1)
        f = tilde_facet((Fraction(7), Fraction(-4, 2), 0, 0), (1, 2), 1, 1)
        assert f.z == (6, -2, 0, 0) and all(type(x) is int for x in f.z)


class TestFacetCollection:
    def test_tau_has_two_per_missing_index(self, mset):
        coll = facet_collection(mset, (2,), (0, 0, 0, 0))
        assert len(coll.members) == 6
        assert not coll.degenerate
        assert {(f.sigma, f.j) for f in coll.members} == {
            ((1, 2), 1),
            ((2, 3), 3),
            ((2, 4), 4),
        }

    def test_gamma_has_two_per_member_index(self, mset):
        coll = facet_collection(mset, (1, 2, 3), (0, 0, 0, 0))
        assert len(coll.members) == 6
        assert {(f.sigma, f.j) for f in coll.members} == {
            ((2, 3), 1),
            ((1, 3), 2),
            ((1, 2), 3),
        }

    def test_wrong_index_size(self, mset):
        with pytest.raises(DimensionError):
            facet_collection(mset, (1, 2), (0, 0, 0, 0))
        with pytest.raises(DimensionError):
            facet_collection(mset, (1, 2, 3, 4), (0, 0, 0, 0))

    def test_z_of_the_wrong_length(self, mset, w_m):
        # A short z once lost anchor coordinates in the shift's zip, and the
        # double cover then reported failures that do not happen.
        for z in ((5,), (0, 0, 0), (1, 2, 3, 4, 5, 6, 7)):
            message = f"z has length {len(z)}, expected 4"
            with pytest.raises(DimensionError, match=message):
                facet_collection(mset, (1,), z)
            with pytest.raises(DimensionError, match=message):
                double_cover_check(mset, w_m, (1,), z, 20, 0)
        assert double_cover_check(mset, w_m, (1,), (5, 0, 0, 0), 20, 0).passed

    def test_non_integer_z_is_refused(self, mset, w_m):
        # int() once truncated z: (7/2, 0.9, 0, 0) named the collection at
        # (3, 0, 0, 0), and the double cover checked z = 0 for (1/2, 0, 0, 0).
        for z in ((Fraction(7, 2), 0.9, 0, 0), (Fraction(1, 2), 0, 0, 0), (0, 0, 0, 1.0)):
            with pytest.raises(DimensionError, match="integer entries"):
                facet_collection(mset, (1,), z)
            with pytest.raises(DimensionError, match="integer entries"):
                double_cover_check(mset, w_m, (1,), z, 20, 0)
        coll = facet_collection(mset, (1,), (Fraction(4), Fraction(-6, 3), 0, 0))
        assert coll == facet_collection(mset, (1,), (4, -2, 0, 0))
        assert all(type(x) is int for x in coll.z)

    @pytest.mark.parametrize("fixture", ["kset", "mset", "qset", "cover13_set"])
    def test_kind_follows_the_index_size(self, request, fixture):
        # |index| = r-1 names a tau collection and r+1 a gamma one; the
        # members are the r-subsets one index away from it.
        fs = request.getfixturevalue(fixture)
        r, n = fs.dims.r, fs.dims.n
        z = tuple(range(n))
        for kind, size in (("tau", r - 1), ("gamma", r + 1)):
            for index in subsets(n, size):
                coll = facet_collection(fs, index, z)
                assert (coll.kind, coll.index, coll.z) == (kind, index, z)
                for f in coll.members:
                    assert len(set(f.sigma) ^ set(index)) == 1
                    assert collection_of(f, n) == (kind, z, index)

    @pytest.mark.parametrize("fixture", ["kset", "mset", "qset", "cover13_set"])
    def test_size_r_index_rejected_like_double_cover(self, request, fixture):
        fs = request.getfixturevalue(fixture)
        w = choose_generic_direction(fs, 0)
        index, z = next(subsets(fs.dims.n, fs.dims.r)), (0,) * fs.dims.n
        with pytest.raises(DimensionError) as from_collection:
            facet_collection(fs, index, z)
        with pytest.raises(DimensionError) as from_cover:
            double_cover_check(fs, w, index, z, 1, 0)
        assert str(from_collection.value) == str(from_cover.value)
        assert "neither r-1" in str(from_cover.value)

    def test_asymmetric_slot_counts(self):
        # r=2, k=1: tau collections carry 2(k+1)=4 slots, gamma ones 2(r+1)=6
        m = Matrix.from_rows([[1, 0, 2], [0, 1, 1], [1, 2, 3]])
        fs = fragment_set(decompose(m, Dimensions(2, 1)))
        assert len(facet_collection(fs, (2,), (0, 0, 0)).members) == 4
        assert len(facet_collection(fs, (1, 2, 3), (0, 0, 0)).members) == 6

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
                coll = facet_collection(mset, index, z)
                assert plain in coll.members

    def test_partition_is_injective_over_window(self, kset):
        # every plain facet is a member of the collection it is keyed to,
        # and no (collection, j, s) slot is used twice
        seen = {}
        for z in product(range(-1, 2), repeat=2):
            for sigma in subsets(2, 1):
                for j, s in product((1, 2), (0, 1)):
                    plain = FacetId(z=z, sigma=sigma, j=j, s=s)
                    kind, key_z, index = collection_of(plain, 2)
                    assert plain in facet_collection(kset, index, key_z).members
                    slot = ((kind, key_z, index), j, s)
                    assert slot not in seen
                    seen[slot] = plain


class TestLambdaVector:
    def test_worked_entries(self, mset, w_m):
        assert pair_fractions(w_m.lambda_of(mset, (2, 3)))[1] == Fraction(3, 2)
        assert pair_fractions(w_m.lambda_of(mset, (3, 4)))[3] == Fraction(3, 5)

    def test_defining_equation(self, mset, w_m):
        for frag in mset:
            lam = pair_fractions(w_m.lambda_of(mset, frag.sigma))
            assert frag.s.mat_vec(lam) == w_m.w

    def test_degenerate_raises(self):
        fs = fragment_set(decompose(identity_matrix(2), Dimensions(1, 1)))
        w = choose_generic_direction(fs, 0)
        assert fs[(2,)].sign_class == "degenerate"
        with pytest.raises(DegenerateFragmentError):
            w.lambda_of(fs, (2,))

    def test_foreign_matrix_raises_key_error(self, kset, lset, w_k, w_l):
        # (1,) is live in both matrices; each w is certified for one of them.
        with pytest.raises(KeyError):
            w_k.lambda_of(lset, (1,))
        with pytest.raises(KeyError):
            w_l.lambda_of(kset, (1,))
        # a degenerate sigma of another matrix is still that matrix's error
        identity = fragment_set(decompose(identity_matrix(2), Dimensions(1, 1)))
        with pytest.raises(KeyError):
            w_k.lambda_of(identity, (2,))

    def test_restricted_systems(self, mset, w_m):
        # the top and bottom blocks solve their own restricted systems
        for frag in mset:
            lam = pair_fractions(w_m.lambda_of(mset, frag.sigma))
            lam_sigma = tuple(lam[i - 1] for i in frag.sigma)
            lam_hat = tuple(lam[i - 1] for i in complement(frag.sigma, 4))
            c, cbar = c_submatrices(mset.decomposition, frag.sigma)
            assert c.mat_vec(lam_sigma) == w_m.w[:2]
            assert cbar.mat_vec(lam_hat) == w_m.w[2:]

    def test_quotient_formula(self, mset, w_m):
        # lambda as a quotient of determinants with the block-shuffle sign ratio
        d = mset.decomposition
        c_cols = column_parts(d)[0]
        for tau in subsets(4, 1):
            for j in complement(tau, 4):
                sigma = tuple(sorted(tau + (j,)))
                rest = tuple(i for i in complement(tau, 4) if i != j)
                num = det(
                    matrix_from_columns(
                        [c_cols[i - 1] for i in tau] + [w_m.w[:2]], rows=2
                    )
                )
                den = det(matrix_from_columns([c_cols[i - 1] for i in sigma], rows=2))
                ratio = Fraction(
                    perm_sign(BlockPermutation((tau, (j,), rest))),
                    perm_sign(BlockPermutation((sigma, rest))),
                )
                expected = (num / den) * ratio
                assert pair_fractions(w_m.lambda_of(mset, sigma))[j - 1] == expected


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
        coll = facet_collection(mset, (2,), (0, 0, 0, 0))
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
            coll = facet_collection(mset, index, (0, 0, 0, 0))
            assert coll.kind == kind
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
            coll = facet_collection(mset, tau, (0, 0, 0, 0))
            up = set(up_down_partition(mset, w_m, coll).up)
            flipped = {tilde_facet(coll.z, f.sigma, f.j, 1 - f.s) for f in up}
            assert set(up_down_partition(mset, minus_w, coll).up) == flipped, tau
            for w in others:
                assert set(up_down_partition(mset, w, coll).up) in (up, flipped), (tau, w.w)

    def test_degenerate_member_excluded(self):
        fs = fragment_set(decompose(identity_matrix(2), Dimensions(1, 1)))
        w = choose_generic_direction(fs, 0)
        coll = facet_collection(fs, (), (0, 0))
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
        cbar_cols = column_parts(d)[1]
        for tau in subsets(4, 1):
            h = h_vector(mset, w_m, tau)
            hat = complement(tau, 4)
            cbar = matrix_from_columns([cbar_cols[i - 1] for i in hat], rows=2)
            assert all(x == 0 for x in cbar.mat_vec(h))

    def test_parallel_to_kernel_vector(self, mset, w_m):
        d = mset.decomposition
        cbar_cols = column_parts(d)[1]
        for tau in subsets(4, 1):
            h = h_vector(mset, w_m, tau)
            hat = complement(tau, 4)
            cbar = matrix_from_columns([cbar_cols[i - 1] for i in hat], rows=2)
            assert normalize_integer_direction(h) == kernel_vector(cbar)

    def test_matches_lambda_times_determinant(self, mset, w_m):
        for tau in subsets(4, 1):
            h = h_vector(mset, w_m, tau)
            for pos, j in enumerate(complement(tau, 4)):
                sigma = tuple(sorted(tau + (j,)))
                frag = mset[sigma]
                if frag.sign_class != "degenerate":
                    lam = pair_fractions(w_m.lambda_of(mset, sigma))
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
            cbar_cols = column_parts(d)[1]
            for tau in subsets(n, r - 1):
                h = h_vector(fs, w, tau)
                hat = complement(tau, n)
                cbar = matrix_from_columns([cbar_cols[i - 1] for i in hat], rows=n - r)
                assert all(x == 0 for x in cbar.mat_vec(h))

    def test_matches_the_fraction_closed_form_on_the_corpus(self):
        # Every tau of every corpus matrix at three directions, degenerate
        # fragments included: the integer certificate equals the Fraction
        # determinant times the permutation-word sign.
        cases = degenerate = 0
        for path in corpus_files():
            fs = corpus_set(path)
            for seed in range(3):
                w = choose_generic_direction(fs, seed)
                for tau in subsets(fs.dims.n, fs.dims.r - 1):
                    assert h_vector(fs, w, tau) == reference_h_vector(fs, w, tau), (path.name, seed, tau)
                    cases += 1
                    degenerate += any(
                        fs[tau + (j,)].sign_class == "degenerate" for j in complement(tau, fs.dims.n)
                    )
        assert cases == 1233
        assert degenerate > 0


class TestFacetProjections:
    def test_common_relative_interior_tau(self, mset, w_m):
        coll = facet_collection(mset, (2,), (0, 0, 0, 0))
        tops = {
            (top.base, top.generators)
            for top in (facet_projections(mset, w_m, f)[0] for f in coll.members)
        }
        d = mset.decomposition
        c_cols = column_parts(d)[0]
        assert tops == {((Fraction(0), Fraction(0)), (c_cols[1],))}

    def test_common_relative_interior_gamma(self, mset, w_m):
        coll = facet_collection(mset, (1, 2, 3), (0, 0, 0, 0))
        bottoms = {
            (g.base, g.generators)
            for g in (facet_projections(mset, w_m, f)[1] for f in coll.members)
        }
        d = mset.decomposition
        cbar_cols = column_parts(d)[1]
        assert bottoms == {((Fraction(0), Fraction(0)), (cbar_cols[3],))}

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
            coll = facet_collection(mset, index, (1, 0, -1, 0))
            for facet in coll.live_members():
                geom = facet_projections(mset, w_m, facet)[shadow]
                dim = len(geom.base)
                assert len(geom.generators) < dim
                g = matrix_from_columns(geom.generators, rows=dim)
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
        cbar_cols = column_parts(d)[1]
        rng = random.Random(31)
        for tau in subsets(4, 1):
            hat = complement(tau, 4)
            v = matrix_from_columns([cbar_cols[i - 1] for i in hat], rows=2)
            h = kernel_vector(v)
            cells = []
            for pos, j in enumerate(hat):
                rest = [i for i in hat if i != j]
                sub = matrix_from_columns([cbar_cols[i - 1] for i in rest], rows=2)
                if det(sub) == 0:
                    continue
                shift = cbar_cols[j - 1] if h[pos] > 0 else (Fraction(0), Fraction(0))
                cells.append((sub, shift))
            hits = 0
            trials = 0
            while trials < 100:
                coeffs = [
                    Fraction(rng.randrange(0, SAMPLE_DENOMINATOR), SAMPLE_DENOMINATOR)
                    for _ in hat
                ]
                q = tuple(
                    sum(c * cbar_cols[j - 1][i] for c, j in zip(coeffs, hat))
                    for i in range(2)
                )
                covers = sum(
                    1
                    for sub, shift in cells
                    if pip_contains(sub, w_m.w[2:], tuple(a - b for a, b in zip(q, shift)))
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

    def test_translation_equivalence(self, mset, w_m, cover13_set):
        base = double_cover_check(mset, w_m, (2,), (0, 0, 0, 0), 40, 9)
        moved = double_cover_check(mset, w_m, (2,), (1, -1, 0, 2), 40, 9)
        assert base.passed and moved.passed
        assert base.failures == moved.failures
        assert base.boundary_samples == moved.boundary_samples
        # A failure's point is relative to the collection's base, so the
        # failing witness reports the same points at every translate.
        w_c = choose_generic_direction(cover13_set, 0)
        base, moved = (double_cover_check(cover13_set, w_c, (2, 3), z, 20, 9) for z in ((0,) * 4, (1, -1, 0, 2)))
        assert len(base.failures) == 20 and base.failures == moved.failures

    def test_degenerate_member_skipped(self):
        fs = fragment_set(decompose(identity_matrix(2), Dimensions(1, 1)))
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

    @given(split_matrices(), st.integers(0, 3))
    def test_fuzz_against_the_fraction_path(self, case, seed):
        # Random rational matrices with n <= 4 and det M != 0: every tau and
        # gamma collection at z = 0 fails and meets a boundary on the same
        # samples as the Fraction path.
        m, dims = case
        assume(dims.n <= 4)
        fs = fragment_set(decompose(m, dims))
        assume(fs.det_m != 0)
        w = choose_generic_direction(fs, seed)
        n, r = dims.n, dims.r
        z = (0,) * n
        for index in (*subsets(n, r - 1), *subsets(n, r + 1)):
            rep = double_cover_check(fs, w, index, z, 8, seed)
            ref = reference_double_cover(fs, w, index, z, 8, seed)
            assert (rep.failures, rep.boundary_samples) == (ref.failures, ref.boundary_samples), index

    def test_matches_the_fraction_path_with_redraws(self, mset, w_m, monkeypatch):
        # On the open grid of step 1/4 many samples touch a shadow boundary,
        # where the w-rules decide them; the oracle decides them the same way.
        grid_numerators = facets.grid_numerators
        monkeypatch.setattr(
            facets, "grid_numerators", lambda tag, dim, lo, hi: [x << 29 for x in grid_numerators(tag, dim, 1, 4)]
        )
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
        grid_numerators = facets.grid_numerators
        monkeypatch.setattr(
            facets, "grid_numerators", lambda tag, dim, lo, hi: [x << 29 for x in grid_numerators(tag, dim, 1, 4)]
        )
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
        monkeypatch.setattr(facets, "grid_numerators", lambda tag, dim, *rest: [0] * dim)
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

    def test_boundary_start_scanned_as_given(self, kset, lset, mset, qset):
        # A lattice image M z sits on tile corners.  The w-rules decide it,
        # so the scan starts there unless a degenerate crossing moved the ray.
        for fs in (kset, lset, mset, qset):
            z = (1, 0, -1, 0)[: fs.dims.n]
            p = fs.decomposition.m.mat_vec(tuple(Fraction(v) for v in z))
            as_given = 0
            for seed in range(3):
                w = choose_generic_direction(fs, seed)
                rep = crossing_check(TilingEngine(fs, w), p, 2, 4)
                assert rep.passed
                assert rep.f_value == fs.expected_coverage()
                if rep.resamples == 0:
                    assert rep.start == p
                    as_given += 1
                times = sorted(brute_force_events(fs, w, rep.start, 2))
                assert [c.t for c in rep.crossings] == times
                assert len(rep.f_values) == len(rep.crossings) + 1
            assert as_given > 0


class TestCrossingScanGuard:
    """Each crossing attempt scans the segment once, from the start it was
    given, and reads f once per open piece between crossings: no boundary
    probe of the start and no second scan."""

    def test_one_scan_and_one_location_per_piece(self, mset, w_m, monkeypatch):
        engine = TilingEngine(mset, w_m)
        scans = []
        locations = []
        collect, tiles_at = facets._collect_events, TilingEngine.tiles_at

        def logged_collect(*args):
            scans.append(args[1])
            return collect(*args)

        def logged_tiles_at(self, p):
            locations.append(p)
            return tiles_at(self, p)

        monkeypatch.setattr(facets, "_collect_events", logged_collect)
        monkeypatch.setattr(TilingEngine, "tiles_at", logged_tiles_at)
        # Two lattice starts on tile corners, four generic starts, and the
        # start of golden crossing-M-jittered, whose first ray is degenerate.
        m = mset.decomposition.m
        rays = [(m.mat_vec(tuple(map(Fraction, z))), 2) for z in ((0, 0, 0, 0), (1, 0, -1, 0))]
        rays += [(fundamental_point(mset, f"guard:{i}"), 3) for i in range(4)]
        rays.append(((1, 0, 0, 0), 2))
        resampled = 0
        for i, (p, reach) in enumerate(rays):
            scans.clear()
            locations.clear()
            rep = crossing_check(engine, p, reach, i)
            assert len(scans) == rep.resamples + 1
            assert scans[-1] == rep.start
            assert len(locations) == len(rep.crossings) + 1
            resampled += rep.resamples > 0
        assert 0 < resampled < len(rays)

    def test_cell_position_runs_only_at_crossings(self, mset, monkeypatch):
        # The scan classifies no candidate.  While _collect_events runs, every
        # cell_position call comes from it, one per (candidate, coordinate,
        # target) whose crossing time t = (target - y0_i) / lambda_i, from the
        # Fraction coordinates y0 = S^-1 (start - M z), lies in (0, reach).
        import sys

        from fragtile import tiling

        collect, scan, position = facets._collect_events, facets.cell_hits, tiling.cell_position
        # Per _collect_events call: start, reach, the translates each frame's
        # scan yields, and the caller of each cell_position call.
        records, active = [], []

        def logged_collect(engine, start, reach):
            records.append((start, reach, [], []))
            active.append(records[-1])
            try:
                return collect(engine, start, reach)
            finally:
                active.pop()

        def logged_scan(*args):
            hits = list(scan(*args))
            active[-1][2].append([hit[0] for hit in hits])
            return iter(hits)

        def logged_position(*args):
            if active:
                active[-1][3].append(sys._getframe(1).f_code.co_name)
            return position(*args)

        monkeypatch.setattr(facets, "_collect_events", logged_collect)
        monkeypatch.setattr(facets, "cell_hits", logged_scan)
        monkeypatch.setattr(facets, "cell_position", logged_position)
        monkeypatch.setattr(tiling, "cell_position", logged_position)
        m = mset.decomposition.m
        total = 0
        for seed in range(3):
            w = choose_generic_direction(mset, seed)
            engine = TilingEngine(mset, w)
            del records[:]
            crossing_check(engine, fundamental_point(mset, f"ray:{seed}:0"), 3, seed * 1_000_003)
            assert records
            for start, reach, scans, callers in records:
                expected = 0
                for frame, xs in zip(engine.frames, scans, strict=True):
                    lam = pair_fractions(w.lambda_of(mset, frame.sigma))
                    for x in xs:
                        shift = m.mat_vec(frame.translate(x))
                        y0 = solve(mset[frame.sigma].s, [a - b for a, b in zip(start, shift)])
                        expected += sum(
                            0 < (target - y) / l < reach for y, l in zip(y0, lam) for target in (0, 1)
                        )
                assert set(callers) <= {"_collect_events"}, seed
                assert len(callers) == expected, seed
                total += expected
        assert total > 50


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


class TestClassifyEvents:
    """A crossing time is degenerate when its facets lie on non-parallel
    hyperplanes, even when no crossing touches a facet boundary."""

    def test_non_parallel_normals(self, mset, w_m):
        engine = TilingEngine(mset, w_m)
        sigma = next(f.sigma for f in mset if f.sign_class != DEGENERATE)
        # Rows 1 and 2 of an invertible S_sigma^-1 are not parallel; sides
        # 0 and 1 of one generator share a normal.
        normals = mset[sigma].s_inv_rows[1]
        assert normalize_integer_direction(normals[0]) != normalize_integer_direction(normals[1])
        zero = (0,) * 4
        first, across, parallel = (
            FacetId(z=zero, sigma=sigma, j=j, s=s) for j, s in ((1, 0), (2, 0), (1, 1))
        )
        t = Fraction(1, 2)
        assert facets._classify_events(engine, {t: [(first, False), (across, False)]}) == (True, [])
        degenerate, crossings = facets._classify_events(
            engine, {t: [(first, False), (parallel, False)]}
        )
        assert not degenerate
        assert [(c.t, c.facets) for c in crossings] == [(t, (first, parallel))]
