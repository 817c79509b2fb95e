import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    BlockPermutation,
    M_ROWS,
    Q_ROWS,
    c_submatrices,
    column_parts,
    corpus_files,
    corpus_matrix,
    corpus_set,
    cramer_solve,
    det_cofactor,
    identity_matrix,
    invoke,
    matrix_from_columns,
    pair_fractions,
    perm_sign,
    random_dims,
    random_int_matrix,
    random_invertible,
    random_rational_invertible,
    rows_matrix,
    split_matrices,
)
from fragtile import (
    DEGENERATE,
    NEGATIVE,
    POSITIVE,
    Dimensions,
    Matrix,
    TilingEngine,
    choose_generic_direction,
    complement,
    decompose,
    det,
    fragment_matrix,
    fragment_rows,
    fragment_set,
    inverse,
    laplace_identity,
    sandc_identity,
    shuffle_sign,
    solve,
    subsets,
    unimodular_reduce,
)
from fragtile import cli, fragments
from fragtile.cli import parse_matrix
from fragtile.fragments import BlockMinors, Fragment
from fragtile.linalg import DimensionError, clear_rows, int_det, int_inverse, int_mat_mul

MATRICES = Path(__file__).resolve().parent / "matrices"


class TestDecompose:
    def test_worked_4x4_column_one(self, mset):
        d = mset.decomposition
        c, cbar = column_parts(d)
        assert c[0] == (3, 1)
        assert cbar[0] == (-2, 0)
        assert d.m_rows == (1, M_ROWS)
        assert mset.m_rows is d.m_rows

    def test_2x2_column_two(self, kset):
        d = kset.decomposition
        c, cbar = column_parts(d)
        assert c[1] == (2,)
        assert cbar[1] == (-3,)
        assert [row[1] for row in d.m_rows[1]] == [2, 3]

    def test_zero_bottom_rows(self):
        m = Matrix.from_rows([[1, 2], [0, 0]])
        d = decompose(m, Dimensions(1, 1))
        assert column_parts(d)[1] == ((0,), (0,))
        assert d.m_rows == (1, [[1, 2], [0, 0]])

    def test_rational_rows_clear_to_the_least_denominator(self):
        m = Matrix.from_rows([["1/2", 1], ["-2/3", "1/6"]])
        assert decompose(m, Dimensions(1, 1)).m_rows == (6, [[3, 6], [-4, 1]])

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
            cols = list(zip(*fragment_matrix(d, sigma).row_list()))
            for i in range(1, 5):
                col = cols[i - 1]
                if i in sigma:
                    assert col[2:] == (0, 0)
                else:
                    assert col[:2] == (0, 0)


class TestFragmentRows:
    """fragment_rows over M's denominator against S_sigma assembled from the
    parsed Matrix's columns (conftest.column_parts)."""

    @staticmethod
    def _check(d):
        c, cbar = column_parts(d)
        (r, k, n), den = (d.dims.r, d.dims.k, d.dims.n), d.m_rows[0]
        for sigma in subsets(n, r):
            expected = matrix_from_columns(
                [c[i - 1] + (0,) * k if i in sigma else (0,) * r + cbar[i - 1] for i in range(1, n + 1)]
            )
            assert rows_matrix(den, fragment_rows(d, sigma)) == expected, sigma
            assert fragment_matrix(d, sigma) == expected, sigma

    def test_worked_4x4(self, mset):
        rows = fragment_rows(mset.decomposition, (4, 1))
        assert rows == [[3, 0, 0, 1], [1, 0, 0, 2], [0, 0, 1, 0], [0, -1, 2, 0]]

    def test_wrong_subset_size(self, mset):
        with pytest.raises(DimensionError):
            fragment_rows(mset.decomposition, (1, 2, 3))

    def test_corpus(self):
        corpus = corpus_files()
        assert len(corpus) == 58
        for path in corpus:
            dims, m = parse_matrix(path.read_text())
            self._check(decompose(m, dims))

    @given(split_matrices())
    def test_random_rational_matrices(self, case):
        m, dims = case
        self._check(decompose(m, dims))


class TestCSubmatrices:
    """The conftest oracle that splits M's columns, on the worked matrix."""

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
            [[-m.row(2 + i)[j] for j in range(4)] for i in range(2)]
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
        fs = fragment_set(decompose(identity_matrix(2), Dimensions(1, 1)))
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
        assert everything == set(mset.fragments)
        assert len(mset.fragments) == 6


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
            for sigma in fs.fragments:
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
        for sigma in fs.fragments:
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
                assert pair_fractions(w.lambda_of(fs, frag.sigma)) == solve(frag.s, w.w), frag.sigma


class TestEliminationGuard:
    """Building a fragment set, certifying a direction and building an
    engine eliminate M alone: the blocks' determinants and adjugates come
    from minor tables, and no whole fragment is eliminated."""

    def _record(self, monkeypatch):
        """Patch the one integer elimination loop wherever it is bound, so
        every wrapper's call passes through it; return the log of (ncols,
        leading columns of each row) per elimination, and keep each one's
        keyword arguments, in the same order, in self.kwargs."""
        import fragtile
        from fragtile import cli, facets, fragments, linalg, render, slices, tiling

        log = []
        self.kwargs = []
        eliminate = linalg.eliminate

        def logged(rows, ncols, **kwargs):
            log.append((ncols, [list(row[:ncols]) for row in rows]))
            self.kwargs.append(kwargs)
            return eliminate(rows, ncols, **kwargs)

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
            # det M and M^-1, which serves M^-1 w and the engine alike, and
            # nothing else: no block is eliminated
            assert len(full) == 2, seed
            assert all(rows == clear_rows(d.m)[1] for rows in full), seed
            assert len(log) == 2, seed

    @pytest.mark.parametrize("argv", [["slice", "--samples", "5"], ["render"]])
    def test_slice_and_render_invert_each_basis_once(self, monkeypatch, tmp_path, argv):
        # On M: det M and M^-1 at full size, the slice basis B once; U is
        # never inverted, nor B again per fragment family.
        path = tmp_path / "M.txt"
        path.write_text("2 2\n" + "".join(" ".join(map(str, row)) + "\n" for row in M_ROWS))
        d = decompose(Matrix.from_rows(M_ROWS), Dimensions(2, 2))
        b_rows = unimodular_reduce(d)[1]
        log = self._record(monkeypatch)
        code, _, err = invoke([argv[0], "--matrix", str(path), *argv[1:]])
        assert code == 0, err
        assert [rows for ncols, rows in log if ncols == 4] == [clear_rows(d.m)[1]] * 2
        assert [rows for ncols, rows in log if ncols == 2].count(b_rows) == 1

    @pytest.mark.parametrize("name, det_m", [("z7r3-0", -2913), ("z8r4-0", -27717)])
    def test_fragments_and_laplace_past_n_6(self, monkeypatch, name, det_m):
        # The committed seeded n=7 and n=8 matrices (ROADMAP item 10):
        # `fragments` eliminates M and each fragment matrix once, every one
        # in echelon mode, and both identities hold.
        path = MATRICES / f"{name}.txt"
        dims, m = parse_matrix(path.read_text())
        n, r = dims.n, dims.r
        rows = clear_rows(m)[1]
        log = self._record(monkeypatch)
        code, out, err = invoke(["fragments", "--matrix", str(path)])
        assert code == 0, err
        head, *lines, summary = out.splitlines()
        assert head == f"r={r} k={n - r} detM={det_m}"
        assert len(lines) == comb(n, r)
        assert all(line.endswith(" ok") for line in lines)
        assert summary.endswith(" pass=true")
        full = [kwargs for (ncols, _), kwargs in zip(log, self.kwargs) if ncols == n]
        assert len(full) == 1 + comb(n, r)
        assert full == [{"reduced": False}] * len(full)
        assert log[0] == (n, rows)
        # detM against the Gauss-Jordan elimination of the same rows
        assert int_inverse(rows)[0] == det_m
        assert invoke(["laplace", "--matrix", str(path)]) == (0, f"lhs={det_m} rhs={det_m} ok\n", "")


def test_fragment_set_builds_no_matrix(monkeypatch):
    # Every corpus matrix: the family is built on integer rows alone, and
    # the fragment matrix s is assembled only when read.
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
    frag = next(iter(fs))
    assert frag.s == fragment_matrix(d, frag.sigma)
    assert built


def _adjugate(blocks, side, cols, scale):
    """scale * adj B for a side's block on cols, written out from the shared
    cofactor rows of adjugate_pairs."""
    part = slice(blocks.r) if side == 0 else slice(blocks.r, None)
    _, rows = blocks.cofactors
    return [[c * x for x in rows[s][part]] for s, c in blocks.adjugate_pairs(side, cols, scale)]


def _check_tables(fs):
    """Every block's determinant and adjugate from the minor tables against
    int_inverse of the block, and every live s_inv_rows against inverse(s).
    B adj B = det B I holds for a singular block too, where int_inverse
    gives no adjugate."""
    (d, a), (r, k, n) = fs.m_rows, (fs.dims.r, fs.dims.k, fs.dims.n)
    singular = 0
    for frag in fs:
        sides = (
            (0, frag.sigma, a[:r], frag.det_c * d**r),
            (1, complement(frag.sigma, n), [[-x for x in row] for row in a[r:]], frag.det_cbar * d**k),
        )
        for side, cols, rows, det_table in sides:
            block = [[row[j - 1] for j in cols] for row in rows]
            det_block, adj = int_inverse(block)
            assert det_table == det_block, (frag.sigma, cols)
            table_adj = _adjugate(fs.blocks, side, cols, 1)
            assert adj is None or table_adj == adj, (frag.sigma, cols)
            identity = [[det_block * (i == j) for j in range(len(cols))] for i in range(len(cols))]
            assert int_mat_mul(block, table_adj) == identity, (frag.sigma, cols)
            singular += adj is None
        if frag.sign_class == DEGENERATE:
            assert frag.s_inv_rows is None, frag.sigma
        else:
            e, x = frag.s_inv_rows
            assert Matrix.from_rows([[Fraction(v, e) for v in row] for row in x]) == inverse(frag.s), frag.sigma
    return singular


@st.composite
def singular_prone_matrices(draw):
    """(M, dims), n <= 6, entries a/b with |a| <= 3, b <= 4; some columns
    zeroed and some top or bottom parts copied from another column, so
    blocks (and M itself) are often singular."""
    n = draw(st.integers(2, 6))
    r = draw(st.integers(1, n - 1))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    for _ in range(draw(st.integers(0, 2))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        for row in rows[:r] if draw(st.booleans()) else rows[r:]:
            row[dst] = row[src]
    return Matrix.from_rows(rows), Dimensions(r, n - r)


class TestMinorTables:
    """The block determinants and adjugates that the minor tables give,
    against a fresh elimination of each block."""

    def test_corpus(self):
        corpus = corpus_files()
        assert len(corpus) == 58
        singular = sum(_check_tables(corpus_set(path)) for path in corpus)
        assert singular > 0

    def test_adjugate_of_random_blocks(self):
        # Seeded integer row blocks, r <= 4 rows by n <= 7 columns, with
        # about a third of the entries 0, padded by a zero column to the top
        # rows of a square matrix whose other rows are 0, and negated to its
        # bottom rows: on every r-subset of columns whose minor is nonzero,
        # the adjugate that the shared cofactor rows give is int_inverse's,
        # on either side.
        rng = random.Random("adjugate-blocks")
        checked = 0
        for _ in range(120):
            r = rng.randint(1, 4)
            n = rng.randint(r, 7)
            rows = [[rng.choice((0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(r)]
            padded = [row + [0] for row in rows]
            zeros = [[0] * (n + 1) for _ in range(n + 1 - r)]
            negated = [[-x for x in row] for row in padded]
            sides = (0, BlockMinors(1, padded + zeros, r)), (1, BlockMinors(1, zeros + negated, n + 1 - r))
            for side, blocks in sides:
                for cols in subsets(n, r):
                    det_block, adj = int_inverse([[row[j - 1] for j in cols] for row in rows])
                    if det_block:
                        assert _adjugate(blocks, side, cols, 1) == adj, (rows, cols, side)
                        assert _adjugate(blocks, side, cols, -3) == [[-3 * x for x in row] for row in adj]
                        checked += 1
        assert checked > 1600

    @given(singular_prone_matrices())
    def test_random_rational_matrices(self, case):
        m, dims = case
        _check_tables(fragment_set(decompose(m, dims)))

    def test_tables_hold_the_block_minors(self, mset):
        d, a = mset.m_rows
        top = fragments.minor_table(a[:2], 4)
        assert top == {(1, 2): -2, (1, 3): 10, (1, 4): 5, (2, 3): 4, (2, 4): 4, (3, 4): -10}
        assert fragments.minor_table([], 4) == {(): 1}

    def test_patched_top_table_fails_both_identities(self, monkeypatch, tmp_path):
        # The identities are checked by eliminations that do not read the
        # tables: one wrong minor of M's top rows fails sigma={1,3} in
        # fragments and the sum in laplace.
        path = tmp_path / "M.txt"
        path.write_text("2 2\n" + "".join(" ".join(map(str, row)) + "\n" for row in M_ROWS))
        build = fragments.minor_table

        def patched(rows, n):
            table = build(rows, n)
            if rows == M_ROWS[:2]:
                table[(1, 3)] += 1
            return table

        monkeypatch.setattr(fragments, "minor_table", patched)
        code, out, _ = invoke(["fragments", "--matrix", str(path)])
        assert code == 1
        failing = [line for line in out.splitlines() if line.endswith(" FAIL")]
        assert failing == ["sigma={1,3} detC=11 detCbar=-1 sign=-1 detS=11 class=positive FAIL"]
        assert out.splitlines()[-1].endswith("pass=false")
        code, out, _ = invoke(["laplace", "--matrix", str(path)])
        assert code == 1
        assert out == "lhs=37 rhs=38 FAIL\n"


def _count_first_reads(monkeypatch, cls, name):
    """Replace the cached property cls.name by one that logs the instance
    on each first read; return the log."""
    log = []
    func = cls.__dict__[name].func

    def logged(self):
        log.append(self)
        return func(self)

    prop = cached_property(logged)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return log


class TestLazyInverses:
    """S_sigma^-1, as its (shared row, scale) pairs, is formed only when a
    command reads it, never for a degenerate fragment, and each set builds
    its "row deleted" tables once."""

    def _logs(self, monkeypatch):
        return (
            _count_first_reads(monkeypatch, Fragment, "s_inv_pairs"),
            _count_first_reads(monkeypatch, BlockMinors, "deleted"),
        )

    def test_determinant_commands_invert_nothing(self, monkeypatch):
        inverses, tables = self._logs(monkeypatch)
        for path in corpus_files():
            for command in ("fragments", "laplace"):
                code, _, err = invoke([command, "--matrix", str(path)])
                assert code == 0, (path.name, command, err)
        assert inverses == [] and tables == []

    @pytest.mark.parametrize("name", ["cover13", "z4r2-1", "z5r2-0", "z5r3-3", "q4r2-1"])
    def test_no_degenerate_fragment_is_inverted(self, monkeypatch, name):
        path = corpus_files()[0].parent / f"{name}.txt"
        dims = corpus_set(path).dims
        point = ",".join(f"1/{p}" for p in (3, 5, 7, 11, 13, 17)[: dims.n])
        tau = ",".join(map(str, range(1, dims.r)))
        inverses, tables = self._logs(monkeypatch)
        for argv in (["verify", "--samples", "5"], ["coverage", "--point", point], ["facets", "--tau", tau]):
            del inverses[:], tables[:]
            code, _, err = invoke([argv[0], "--matrix", str(path), *argv[1:]])
            assert code == 0, (argv, err)
            assert inverses, argv
            assert all(frag.sign_class != DEGENERATE for frag in inverses), argv
            assert len(set(map(id, inverses))) == len(inverses), argv
            assert Counter(map(id, tables)) == Counter({id(inverses[0].blocks): 1}), argv


class TestSharedCofactors:
    """Every live S_sigma^-1 is one (shared cofactor row, scale) pair per
    row, from the C(n, r-1) + C(n, k-1) rows that BlockMinors holds."""

    @given(split_matrices())
    @example((rows_matrix(2, [[2, 1], [1, 3]]), Dimensions(1, 1)))
    @example((rows_matrix(1, [[2, 1, 0], [1, 3, 1], [0, 1, 2]]), Dimensions(1, 2)))
    @example((rows_matrix(3, [[2, 1, 0], [1, 3, 1], [1, 1, 2]]), Dimensions(2, 1)))
    def test_rows_and_lambdas_match_the_fraction_inverse(self, case):
        # r = 1 or k = 1 reads the side's one shared row, of the empty key.
        m, dims = case
        fs = fragment_set(decompose(m, dims))
        inverses = {
            frag.sigma: inverse(fragment_matrix(fs.decomposition, frag.sigma))
            for frag in fs
            if frag.sign_class != DEGENERATE
        }
        for sigma, s_inv in inverses.items():
            e, x = fs[sigma].s_inv_rows
            assert Matrix.from_rows([[Fraction(v, e) for v in row] for row in x]) == s_inv, sigma
        if fs.det_m == 0:
            return
        w = choose_generic_direction(fs, 0)
        for sigma, s_inv in inverses.items():
            assert pair_fractions(w.lambda_of(fs, sigma)) == s_inv.mat_vec(w.w), sigma

    def test_cell_coordinates_dot_each_shared_row_once(self, monkeypatch):
        # A machine-free counter guard (ROADMAP item 10): per point,
        # cell_coordinates makes one dot product per shared row and only
        # scales it per frame row, so a z6r3 corpus matrix takes 30, where
        # one per frame row would take 6 per live frame, up to 120.
        import builtins

        from fragtile import tiling

        engines = []
        for path in corpus_files():
            fs = corpus_set(path)
            if fs.det_m != 0:
                engines.append((path.stem, TilingEngine(fs, choose_generic_direction(fs, 0))))
        calls = []

        def counted(*args):
            calls.append(1)
            return builtins.sum(*args)

        for module in (fragments, tiling):
            monkeypatch.setattr(module, "sum", counted, raising=False)
        rng = random.Random("shared-dots")
        for name, engine in engines:
            n, r = engine.fs.dims.n, engine.fs.dims.r
            for _ in range(3):
                del calls[:]
                u = engine.cell_coordinates([rng.randint(-99, 99) for _ in range(n)])
                assert len(calls) == comb(n, r - 1) + comb(n, n - r - 1), name
                assert len(calls) == 30 or not name.startswith("z6r3"), name
                assert len(u) == n * len(engine.frames), name


class TestIntegerSetUp:
    """The fragment family and the direction certificate keep integers:
    block minors and lambda pairs (den, nums).  A Fraction is formed only
    where a report prints one."""

    @given(split_matrices())
    def test_fuzz_against_the_fraction_blocks(self, case):
        m, dims = case
        fs = fragment_set(decompose(m, dims))
        for frag in fs:
            c, cbar = c_submatrices(fs.decomposition, frag.sigma)
            det_s = det_cofactor(frag.s)
            assert (frag.det_c, frag.det_cbar, frag.det_s) == (det_cofactor(c), det_cofactor(cbar), det_s)
            assert frag.sign_class == (POSITIVE if det_s > 0 else NEGATIVE if det_s < 0 else DEGENERATE)
        lhs, rhs = laplace_identity(fs)
        assert lhs == rhs
        if fs.det_m == 0:
            return
        w = choose_generic_direction(fs, 0)
        for frag in fs:
            if frag.sign_class != DEGENERATE:
                den, nums = w.lambda_of(fs, frag.sigma)
                assert den > 0 and gcd(den, *nums) == 1, frag.sigma
                assert pair_fractions((den, nums)) == cramer_solve(frag.s, w.w), frag.sigma

    def test_set_up_builds_n_plus_one_fractions(self, monkeypatch):
        # Per matrix: w's n entries, drawn as Fractions, and det M.
        cases = []
        for path in corpus_files():
            dims, m = parse_matrix(path.read_text())
            if int_det(clear_rows(m)[1]):
                cases.append((path.name, dims, m))
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)

        counts = {}
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        for name, dims, m in cases:
            del built[:]
            fs = fragment_set(decompose(m, dims))
            TilingEngine(fs, choose_generic_direction(fs, 0))
            counts[name] = len(built)
        monkeypatch.undo()
        assert counts == {name: dims.n + 1 for name, dims, _ in cases}

    def test_verify_forms_no_fraction_determinant(self, monkeypatch):
        sets = []

        def recorded(d):
            sets.append(fragment_set(d))
            return sets[-1]

        monkeypatch.setattr(cli, "fragment_set", recorded)
        paths = corpus_files()
        for path in paths:
            code, _, err = invoke(["verify", "--matrix", str(path), "--samples", "5"])
            assert code == 0, (path.name, err)
        assert len(sets) == len(paths)
        for fs in sets:
            for frag in fs:
                assert not {"det_c", "det_cbar", "det_s"} & frag.__dict__.keys(), frag.sigma
