import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    BlockPermutation,
    BlockPermutationError,
    RankDeficiencyError,
    cramer_inverse,
    cramer_solve,
    det_cofactor,
    identity_matrix,
    kernel_by_minors,
    kernel_vector,
    mat_mul,
    matrix_from_columns,
    perm_sign,
    random_invertible,
    solve_affine,
    word_sign,
)
from fragtile import (
    DimensionError,
    Matrix,
    SingularMatrixError,
    det,
    inverse,
    solve,
)
from fragtile.linalg import eliminate, int_det, normalize_integer_direction

K = Matrix.from_rows([[1, 2], [-1, 3]])
L = Matrix.from_rows([[1, 2], [1, 5]])
M4 = Matrix.from_rows([[3, 2, -4, 1], [1, 0, 2, 2], [2, 0, -1, 1], [0, 1, -2, 3]])


def small_square(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def sparse_rows(nrows, ncols):
    """Integer rows with about half the entries 0, so that pivot searches
    swap rows and skip columns."""
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def elimination_inputs(draw):
    """(rows, ncols): an n x n square, a singular square (last row a
    combination of two others), or a wide [B | I] eliminated on B's n
    columns, for n = 0..6."""
    n = draw(st.integers(0, 6))
    rows = draw(sparse_rows(n, n))
    shape = draw(st.sampled_from(["square", "singular", "wide"]))
    if shape == "singular" and n:
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])] if n > 1 else [0]
    if shape == "wide":
        rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    return rows, n


class TestDet:
    def test_identity(self):
        assert det(identity_matrix(4)) == 1

    def test_2x2_formula(self):
        assert det(K) == 1 * 3 - 2 * (-1) == 5

    def test_worked_4x4(self):
        # cross-check: the six top/bottom minor products of this matrix
        assert det(M4) == 37 == 2 + 10 + 5 + 24 + 16 - 20

    def test_non_square(self):
        with pytest.raises(DimensionError):
            det(Matrix(2, 3, [1, 2, 3, 4, 5, 6]))

    def test_empty(self):
        assert det(Matrix(0, 0, [])) == 1

    def test_singular(self):
        assert det(Matrix.from_rows([[1, 2], [2, 4]])) == 0

    @given(small_square())
    def test_matches_cofactor_oracle(self, rows):
        m = Matrix.from_rows(rows)
        assert det(m) == det_cofactor(m)

    @given(st.integers(0, 6).flatmap(lambda n: sparse_rows(n, n)))
    def test_int_det_matches_cofactor_oracle_to_size_6(self, rows):
        assert int_det(rows) == det_cofactor(Matrix.from_rows(rows))


class TestSolve:
    def test_identity(self):
        b = (Fraction(3), Fraction(-1, 2))
        assert solve(identity_matrix(2), b) == b

    @pytest.mark.parametrize(
        "w", [(1, 1, 1, 1), (2, 3, 5, 7), (Fraction(1, 3), 1, Fraction(-2, 5), 4)]
    )
    def test_fragment_entry_two(self, w):
        s = Matrix.from_rows([[0, 2, -4, 0], [0, 0, 2, 0], [-2, 0, 0, -1], [0, 0, 0, -3]])
        x = solve(s, tuple(Fraction(v) for v in w))
        assert x[1] == Fraction(w[0], 2) + Fraction(w[1])

    @pytest.mark.parametrize("w", [(1, 1, 1, 1), (2, 3, 5, 7)])
    def test_fragment_entry_four(self, w):
        s = Matrix.from_rows([[0, 0, -4, 1], [0, 0, 2, 2], [-2, 0, 0, 0], [0, -1, 0, 0]])
        x = solve(s, tuple(Fraction(v) for v in w))
        assert x[3] == Fraction(w[0], 5) + Fraction(2 * w[1], 5)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve(Matrix.from_rows([[1, 1], [1, 1]]), (1, 2))

    @given(small_square(), st.integers(0, 10**6))
    def test_round_trip_and_cramer(self, rows, seed):
        import random

        m = Matrix.from_rows(rows)
        if det_cofactor(m) == 0:
            return
        rng = random.Random(seed)
        b = tuple(Fraction(rng.randint(-9, 9)) for _ in range(m.rows))
        x = solve(m, b)
        assert m.mat_vec(x) == b
        assert x == cramer_solve(m, b)

    def test_cramer_alternating_form(self):
        # removing column i and appending the right side carries (-1)^(n-i)
        m = M4
        b = (Fraction(1), Fraction(2), Fraction(-3), Fraction(5))
        x = solve(m, b)
        n = 4
        m_cols = list(zip(*m.row_list()))
        for i in range(n):
            cols = [m_cols[j] for j in range(n) if j != i] + [b]
            quotient = det(matrix_from_columns(cols)) / det(m)
            assert x[i] == (-1) ** (n - 1 - i) * quotient


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=4, max_size=4))
def test_cramer_version_two(cols):
    # alternating minor-weighted sum of the columns vanishes
    v = matrix_from_columns(cols)
    v_cols = list(zip(*v.row_list()))
    total = [Fraction(0)] * 3
    for i in range(4):
        sub = matrix_from_columns([v_cols[j] for j in range(4) if j != i], rows=3)
        c = (-1) ** i * det(sub)
        for t in range(3):
            total[t] += c * v.row(t)[i]
    assert all(x == 0 for x in total)


class TestInverse:
    def test_identity(self):
        assert inverse(identity_matrix(3)) == identity_matrix(3)

    def test_2x2_adjugate(self):
        expected = Matrix.from_rows(
            [[Fraction(5, 3), Fraction(-2, 3)], [Fraction(-1, 3), Fraction(1, 3)]]
        )
        assert inverse(L) == expected

    def test_all_zero_singular(self):
        with pytest.raises(SingularMatrixError):
            inverse(Matrix.from_rows([[0, 0], [0, 0]]))

    def test_random_round_trip(self):
        import random

        rng = random.Random(5)
        for n in (2, 3, 4, 5):
            m = random_invertible(rng, n)
            assert mat_mul(m, inverse(m)) == identity_matrix(n)


class TestKernelVector:
    def test_forced_by_structure(self):
        v = Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
        assert kernel_vector(v) == (0, 0, 1)

    def test_worked_2x3(self):
        v = Matrix.from_rows([[-2, 1, -1], [0, 2, -3]])
        assert kernel_vector(v) == (1, 6, 4)

    def test_forced_linear_relation(self):
        v = Matrix.from_rows([[2, 3, 5], [1, -1, 0]])
        assert kernel_vector(v) == (1, 1, -1)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            kernel_vector(Matrix.from_rows([[1, 2, 3], [2, 4, 6]]))

    def test_wrong_shape(self):
        with pytest.raises(DimensionError):
            kernel_vector(Matrix.from_rows([[1, 2], [3, 4]]))

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=4, max_size=4),
            min_size=3,
            max_size=3,
        )
    )
    def test_kernel_property_and_minor_oracle(self, rows):
        v = Matrix.from_rows(rows)
        oracle = kernel_by_minors(v)
        if all(x == 0 for x in oracle):
            with pytest.raises(RankDeficiencyError):
                kernel_vector(v)
            return
        h = kernel_vector(v)
        assert any(x != 0 for x in h)
        assert all(x == 0 for x in v.mat_vec(h))
        assert h == normalize_integer_direction(oracle)
        assert all(x.denominator == 1 for x in h)
        first = next(x for x in h if x != 0)
        assert first > 0


class TestPermSign:
    def test_identity_block(self):
        assert perm_sign(BlockPermutation(((1, 2, 3, 4),))) == 1

    def test_three_blocks(self):
        assert perm_sign(BlockPermutation(((1, 5), (4,), (2, 3)))) == -1

    def test_interleaved(self):
        assert perm_sign(BlockPermutation(((1, 3), (2, 4)))) == -1

    def test_overlapping_blocks(self):
        with pytest.raises(BlockPermutationError):
            BlockPermutation(((1, 2), (2, 3)))

    def test_incomplete_blocks(self):
        with pytest.raises(BlockPermutationError):
            BlockPermutation(((1, 2), (4,)))

    def test_unsorted_block(self):
        with pytest.raises(BlockPermutationError):
            BlockPermutation(((2, 1), (3,)))

    @given(st.permutations(list(range(1, 7))), st.integers(1, 6))
    def test_blocks_match_flat_word(self, shuffled, pieces):
        # cut a shuffled arrangement into sorted blocks; the block sign must
        # equal the inversion sign of the concatenated word
        bounds = sorted({0, len(shuffled)} | {i % len(shuffled) for i in range(pieces)})
        blocks = tuple(
            tuple(sorted(shuffled[a:b]))
            for a, b in zip(bounds, bounds[1:])
            if shuffled[a:b]
        )
        bp = BlockPermutation(blocks)
        assert perm_sign(bp) == word_sign(bp.word)


def test_solve_affine_consistency():
    a = matrix_from_columns([(1, 0, 2), (0, 1, 1)])
    assert solve_affine(a, (3, 4, 10)) == (3, 4)
    assert solve_affine(a, (3, 4, 11)) is None
    with pytest.raises(RankDeficiencyError):
        solve_affine(matrix_from_columns([(1, 2), (2, 4)]), (1, 2))


def _seeded_rows(rng, nrows, ncols, rational):
    """Entries in [-3, 3], about a third of them zero, over denominators
    1..5 when rational."""
    def entry():
        num = 0 if rng.random() < 0.3 else rng.randint(-3, 3)
        return Fraction(num, rng.randint(1, 5) if rational else 1)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _make_singular(rng, rows):
    """Replace the last row by a rational combination of the others (zero
    for a single row)."""
    a, b = Fraction(rng.randint(-2, 2), rng.randint(1, 3)), Fraction(rng.randint(-2, 2))
    if len(rows) == 1:
        rows[-1] = [Fraction(0)] * len(rows[0])
    else:
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    return rows


def _differential_cases():
    """Seeded (n, rows, singular) for n = 1..6, integer and rational, each
    once invertible-or-not as drawn and once made singular."""
    rng = random.Random(8)
    cases = []
    for n in range(1, 7):
        for rational in (False, True):
            for _ in range(4 if n < 6 else 2):
                rows = _seeded_rows(rng, n, n, rational)
                cases.append((n, rows, det_cofactor(Matrix.from_rows(rows)) == 0))
            cases.append((n, _make_singular(rng, _seeded_rows(rng, n, n, rational)), True))
    return cases


class TestFractionFreeElimination:
    """det, inverse, solve and kernel_vector against oracles that share no
    code with the integer elimination loop."""

    def test_det_inverse_solve_against_cramer(self):
        rng = random.Random(9)
        singular = 0
        for n, rows, is_singular in _differential_cases():
            m = Matrix.from_rows(rows)
            assert det(m) == det_cofactor(m), rows
            b = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
            if is_singular:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    inverse(m)
                with pytest.raises(SingularMatrixError):
                    solve(m, b)
                continue
            assert inverse(m) == cramer_inverse(m), rows
            assert solve(m, b) == cramer_solve(m, b), rows
        assert singular >= 12

    def test_kernel_vector_against_minors(self):
        rng = random.Random(10)
        deficient = 0
        for k in range(1, 6):
            for rational in (False, True):
                for make_deficient in (False, False, True):
                    rows = _seeded_rows(rng, k, k + 1, rational)
                    if make_deficient:
                        rows = _make_singular(rng, rows)
                    v = Matrix.from_rows(rows)
                    oracle = kernel_by_minors(v)
                    if all(x == 0 for x in oracle):
                        deficient += 1
                        with pytest.raises(RankDeficiencyError):
                            kernel_vector(v)
                    else:
                        assert kernel_vector(v) == normalize_integer_direction(oracle), rows
        assert deficient >= 10

    @given(elimination_inputs())
    def test_echelon_mode_returns_the_gauss_jordan_contract(self, case):
        rows, ncols = case
        reduced, echelon = [list(row) for row in rows], [list(row) for row in rows]
        pivots, last, sign = eliminate(reduced, ncols)
        assert eliminate(echelon, ncols, reduced=False) == (pivots, last, sign)
        # below each pivot echelon mode leaves 0, and from the last pivot
        # row down both modes leave the same rows
        for i, col in enumerate(pivots):
            assert all(row[col] == 0 for row in echelon[i + 1:])
        last_row = max(len(pivots) - 1, 0)
        assert echelon[last_row:] == reduced[last_row:]
