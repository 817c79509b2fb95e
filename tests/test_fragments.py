import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    BlockPermutation,
    M_ROWS,
    Q_ROWS,
    corpus_files,
    corpus_matrix,
    invoke,
    perm_sign,
    random_dims,
    random_int_matrix,
    random_invertible,
    random_rational_invertible,
)
from fragtile import (
    DEGENERATE,
    NEGATIVE,
    POSITIVE,
    Dimensions,
    Matrix,
    TilingEngine,
    c_submatrices,
    choose_generic_direction,
    complement,
    decompose,
    det,
    fragment_matrix,
    fragment_set,
    inverse,
    laplace_identity,
    sandc_identity,
    shuffle_sign,
    solve,
    subsets,
    unimodular_reduce,
)
from fragtile.linalg import DimensionError, clear_rows


class TestDecompose:
    def test_worked_4x4_column_one(self, mset):
        d = mset.decomposition
        assert d.c[0] == (3, 1)
        assert d.cbar[0] == (-2, 0)

    def test_2x2_column_two(self, kset):
        d = kset.decomposition
        assert d.c[1] == (2,)
        assert d.cbar[1] == (-3,)

    def test_zero_bottom_rows(self):
        m = Matrix.from_rows([[1, 2], [0, 0]])
        d = decompose(m, Dimensions(1, 1))
        assert d.cbar == ((0,), (0,))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            decompose(Matrix.from_rows([[1, 2], [3, 4]]), Dimensions(2, 2))


class TestFragmentMatrix:
    def test_worked_4x4(self, mset):
        s = fragment_matrix(mset.decomposition, (1, 4))
        assert s == Matrix.from_rows(
            [[3, 0, 0, 1], [1, 0, 0, 2], [0, 0, 1, 0], [0, -1, 2, 0]]
        )

    def test_k_sigma_one(self, kset):
        assert fragment_matrix(kset.decomposition, (1,)) == Matrix.from_rows(
            [[1, 0], [0, -3]]
        )

    def test_l_sigma_two(self, lset):
        assert fragment_matrix(lset.decomposition, (2,)) == Matrix.from_rows(
            [[0, 2], [-1, 0]]
        )

    def test_wrong_subset_size(self, mset):
        with pytest.raises(DimensionError):
            fragment_matrix(mset.decomposition, (1,))

    def test_column_zero_blocks(self, mset):
        d = mset.decomposition
        for sigma in subsets(4, 2):
            s = fragment_matrix(d, sigma)
            for i in range(1, 5):
                col = s.column(i - 1)
                if i in sigma:
                    assert col[2:] == (0, 0)
                else:
                    assert col[:2] == (0, 0)


class TestCSubmatrices:
    def test_worked_4x4(self, mset):
        c, cbar = c_submatrices(mset.decomposition, (1, 4))
        assert c == Matrix.from_rows([[3, 1], [1, 2]])
        assert cbar == Matrix.from_rows([[0, 1], [-1, 2]])

    def test_top_pair(self, mset):
        c, _ = c_submatrices(mset.decomposition, (1, 2))
        assert c == Matrix.from_rows([[3, 2], [1, 0]])

    def test_empty_subset(self, mset):
        c, cbar = c_submatrices(mset.decomposition, ())
        assert c.cols == 0 and c.rows == 2
        m = mset.decomposition.m
        negated_bottom = Matrix.from_rows(
            [[-m.entry(2 + i, j) for j in range(4)] for i in range(2)]
        )
        assert cbar == negated_bottom

    def test_general_sizes(self, mset):
        c, cbar = c_submatrices(mset.decomposition, (2,))
        assert c.cols == 1 and cbar.cols == 3


class TestFragmentSet:
    def test_worked_4x4_classes(self, mset):
        assert mset.by_class(POSITIVE) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
        assert mset.by_class(NEGATIVE) == ((3, 4),)
        assert mset.by_class(DEGENERATE) == ()

    def test_k_both_negative(self, kset):
        assert kset[(1,)].det_s == -3
        assert kset[(2,)].det_s == -2
        assert kset.by_class(NEGATIVE) == ((1,), (2,))

    def test_identity_has_degenerate(self):
        fs = fragment_set(decompose(Matrix.identity(2), Dimensions(1, 1)))
        assert fs[(1,)].sign_class == NEGATIVE
        assert fs[(1,)].det_s == -1
        assert fs[(2,)].sign_class == DEGENERATE
        assert fs[(2,)].det_s == 0

    def test_class_partition(self, mset):
        everything = (
            set(mset.by_class(POSITIVE))
            | set(mset.by_class(NEGATIVE))
            | set(mset.by_class(DEGENERATE))
        )
        assert everything == set(mset.sigmas())
        assert len(mset.sigmas()) == 6


class TestIdentities:
    def test_laplace_k(self, kset):
        assert laplace_identity(kset) == (-5, -5)

    def test_laplace_l(self, lset):
        assert laplace_identity(lset) == (-3, -3)

    def test_laplace_worked_4x4(self, mset):
        lhs, rhs = laplace_identity(mset)
        assert lhs == rhs == 37
        assert [f.det_s for f in mset] == [2, 10, 5, 24, 16, -20]

    @pytest.mark.parametrize(
        "sigma,pair",
        [
            ((1, 4), (5, 5)),
            ((3, 4), (-20, -20)),
            ((1, 3), (10, 10)),
        ],
    )
    def test_factorization_pairs(self, mset, sigma, pair):
        assert sandc_identity(mset, sigma) == pair

    def test_factorization_factors(self, mset):
        # frozen factor values for two of the families
        c, cbar = c_submatrices(mset.decomposition, (3, 4))
        assert det(c) == -10
        assert det(cbar) == 2
        assert shuffle_sign((3, 4)) == 1
        c, cbar = c_submatrices(mset.decomposition, (2, 4))
        assert det(c) == 4
        assert det(cbar) == -4
        assert shuffle_sign((2, 4)) == -1
        # the index-sum sign against the block permutation's inversions, and
        # h_vector's sign of the word (tau, j, rest): j passes the indices of
        # tau above it to give (sigma, rest)
        for n in range(1, 9):
            for r in range(n + 1):
                for sigma in subsets(n, r):
                    block = BlockPermutation((sigma, complement(sigma, n)))
                    assert shuffle_sign(sigma) == perm_sign(block), sigma
                for tau in subsets(n, r):
                    for j in complement(tau, n):
                        sigma = tuple(sorted(tau + (j,)))
                        rest = complement(sigma, n)
                        sign = shuffle_sign(sigma) * (-1) ** sum(t > j for t in tau)
                        assert sign == perm_sign((tau, (j,), rest)), (tau, j)

    def test_factorization_all_sigmas(self, mset, kset, lset):
        for fs in (mset, kset, lset):
            for sigma in fs.sigmas():
                lhs, rhs = sandc_identity(fs, sigma)
                assert lhs == rhs

    @given(st.integers(0, 10**6))
    def test_identities_on_random_matrices(self, seed):
        rng = random.Random(seed)
        dims = random_dims(rng)
        m = random_int_matrix(rng, dims.n)
        fs = fragment_set(decompose(m, dims))
        lhs, rhs = laplace_identity(fs)
        assert lhs == rhs
        for sigma in fs.sigmas():
            a, b = sandc_identity(fs, sigma)
            assert a == b


def test_complement():
    assert complement((1, 4), 5) == (2, 3, 5)
    assert complement((), 3) == (1, 2, 3)


def test_expected_coverage(mset, kset, lset):
    assert mset.expected_coverage() == 1
    assert kset.expected_coverage() == -1
    assert lset.expected_coverage() == -1


def _factorization_sets():
    """Fragment sets of the worked M, corpus q3r2-1 and z6r3-4, and seeded
    integer and rational matrices with n = 2..6, all invertible.  Small
    integer entries leave some fragments degenerate."""
    rng = random.Random(61)
    sets = [
        fragment_set(decompose(Matrix.from_rows(M_ROWS), Dimensions(2, 2))),
        fragment_set(decompose(Matrix.from_rows(Q_ROWS), Dimensions(2, 1))),
        corpus_matrix(6, 3, 4),
    ]
    for n in range(2, 7):
        for m in (random_invertible(rng, n, -2, 2), random_rational_invertible(rng, n)):
            r = rng.randint(1, n - 1)
            sets.append(fragment_set(decompose(m, Dimensions(r, n - r))))
    return sets


class TestBlockFactorization:
    def test_determinants_match_fresh_eliminations(self):
        degenerate = 0
        for fs in _factorization_sets():
            for frag in fs:
                c, cbar = c_submatrices(fs.decomposition, frag.sigma)
                assert frag.det_s == det(frag.s), frag.sigma
                assert frag.det_c == det(c), frag.sigma
                assert frag.det_cbar == det(cbar), frag.sigma
                degenerate += frag.sign_class == DEGENERATE
        assert degenerate > 0

    def test_inverses_and_lambdas_match_fresh_eliminations(self):
        for seed, fs in enumerate(_factorization_sets()):
            w = choose_generic_direction(fs, seed)
            r, n = fs.dims.r, fs.dims.n
            for frag in fs:
                if frag.sign_class == DEGENERATE:
                    assert frag.s_inv_rows is None, frag.sigma
                    continue
                e, x = frag.s_inv_rows
                s_inv = Matrix.from_rows([[Fraction(v, e) for v in row] for row in x])
                assert s_inv == inverse(frag.s), frag.sigma
                # the two blocks: C^-1 on sigma's top columns, Cbar^-1 off it
                c, cbar = c_submatrices(fs.decomposition, frag.sigma)
                hat = complement(frag.sigma, n)
                assert [s_inv.row(i - 1)[:r] for i in frag.sigma] == inverse(c).row_list()
                assert [s_inv.row(j - 1)[r:] for j in hat] == inverse(cbar).row_list()
                assert w.lambda_of(fs, frag.sigma) == solve(frag.s, w.w), frag.sigma


class TestEliminationGuard:
    """Building a fragment set, certifying a direction and building an
    engine eliminate M and the fragments' blocks, never a whole fragment."""

    def _record(self, monkeypatch):
        """Patch the one integer elimination loop wherever it is bound, so
        every wrapper's call passes through it; return the log of (ncols,
        leading columns of each row) per elimination."""
        import fragtile
        from fragtile import cli, facets, fragments, linalg, render, slices, tiling

        log = []
        eliminate = linalg.eliminate

        def logged(rows, ncols):
            log.append((ncols, [list(row[:ncols]) for row in rows]))
            return eliminate(rows, ncols)

        for module in (fragtile, linalg, fragments, tiling, facets, slices, cli, render):
            if getattr(module, "eliminate", None) is eliminate:
                monkeypatch.setattr(module, "eliminate", logged)
        return log

    def test_only_m_is_eliminated_at_full_size(self, monkeypatch):
        decompositions = [fs.decomposition for fs in _factorization_sets()]
        log = self._record(monkeypatch)
        for seed, d in enumerate(decompositions):
            del log[:]
            fs = fragment_set(d)
            TilingEngine(fs, choose_generic_direction(fs, seed))
            full = [rows for ncols, rows in log if ncols == d.dims.n]
            # det M and M^-1, which serves M^-1 w and the engine alike
            assert len(full) == 2, seed
            assert all(rows == clear_rows(d.m)[1] for rows in full), seed
            # the block eliminations are logged too
            assert len(log) > 2

    @pytest.mark.parametrize("argv", [["slice", "--samples", "5"], ["render"]])
    def test_slice_and_render_invert_each_basis_once(self, monkeypatch, tmp_path, argv):
        # On M: det M and M^-1 at full size, the slice basis B once; U is
        # never inverted, nor B again per fragment family.
        path = tmp_path / "M.txt"
        path.write_text("2 2\n" + "".join(" ".join(map(str, row)) + "\n" for row in M_ROWS))
        d = decompose(Matrix.from_rows(M_ROWS), Dimensions(2, 2))
        b_rows = clear_rows(unimodular_reduce(d)[1])[1]
        log = self._record(monkeypatch)
        code, _, err = invoke([argv[0], "--matrix", str(path), *argv[1:]])
        assert code == 0, err
        assert [rows for ncols, rows in log if ncols == 4] == [clear_rows(d.m)[1]] * 2
        assert [rows for ncols, rows in log if ncols == 2].count(b_rows) == 1


def test_fragment_set_builds_no_matrix(monkeypatch):
    # Every corpus matrix: the family is built on integer rows alone, and
    # the fragment matrix s is assembled only when read.
    from fragtile.cli import parse_matrix

    corpus = corpus_files()
    assert len(corpus) > 50
    decompositions = [decompose(m, dims) for dims, m in map(parse_matrix, (p.read_text() for p in corpus))]
    built = []
    init = Matrix.__init__

    def counting_init(self, rows, cols, entries):
        built.append((rows, cols))
        init(self, rows, cols, entries)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    for path, d in zip(corpus, decompositions):
        fs = fragment_set(d)
        assert built == [], path.name
    frag = fs.fragments[fs.sigmas()[0]]
    assert frag.s == fragment_matrix(d, frag.sigma)
    assert built
