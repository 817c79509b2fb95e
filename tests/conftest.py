"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: cofactor
expansion for determinants, the Cramer quotient for solving, signed maximal
minors for kernels, and wide-box scans for tile location.  Expected values in
the tests were frozen from these oracles.  The permutation-word sign
(BlockPermutation, perm_sign) and kernel_vector, which the library no longer
uses, live here as oracles for its index-sum signs and kernel certificate.
"""
from __future__ import annotations

import faulthandler
import os
import random
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import pytest
from hypothesis import settings, strategies as st

from fragtile import (
    DimensionError,
    Dimensions,
    LinalgError,
    Matrix,
    certify_direction,
    decompose,
    fragment_set,
)
from fragtile.linalg import clear_rows, eliminate, normalize_integer_direction

# Imported here, not inside invoke: fragtile.cli binds grid_vector and its
# other helpers by name on first import, so a first import under a test's
# monkeypatch would keep the patched function after the test.
from fragtile.cli import parse_matrix, run

settings.register_profile("suite", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("suite")

# A test that runs longer than this fails; the slowest one takes about 5 s.
TEST_TIMEOUT_S = 120
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # The terminal's stderr, duplicated before any test's output is captured.
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _timeout(request):
    """Fail the test once it has run TEST_TIMEOUT_S seconds.

    The alarm's handler raises in the test's own frame, so the failure names
    the test and shows where it stood.  A test stuck inside one C call never
    lets that handler run; at twice the limit faulthandler writes every
    thread's stack to the terminal and ends the run.
    """

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran longer than {TEST_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    faulthandler.dump_traceback_later(2 * TEST_TIMEOUT_S, exit=True, file=request.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


K_ROWS = [[1, 2], [-1, 3]]
L_ROWS = [[1, 2], [1, 5]]
M_ROWS = [
    [3, 2, -4, 1],
    [1, 0, 2, 2],
    [2, 0, -1, 1],
    [0, 1, -2, 3],
]
# The rational corpus matrix q3r2-1 (r=2, k=1): denominators 1 to 3.
Q_ROWS = [
    [0, Fraction(3, 2), 3],
    [-1, Fraction(1, 3), 3],
    [Fraction(1, 2), Fraction(-3, 2), -1],
]


@pytest.fixture(scope="session")
def kset():
    return fragment_set(decompose(Matrix.from_rows(K_ROWS), Dimensions(1, 1)))


@pytest.fixture(scope="session")
def lset():
    return fragment_set(decompose(Matrix.from_rows(L_ROWS), Dimensions(1, 1)))


@pytest.fixture(scope="session")
def mset():
    return fragment_set(decompose(Matrix.from_rows(M_ROWS), Dimensions(2, 2)))


@pytest.fixture(scope="session")
def qset():
    return fragment_set(decompose(Matrix.from_rows(Q_ROWS), Dimensions(2, 1)))


@pytest.fixture(scope="session")
def w_k(kset):
    return certify_direction(kset, [1, 1])


@pytest.fixture(scope="session")
def w_l(lset):
    # (1, 1) is not generic for this matrix: its second inverse coordinate
    # vanishes, so the fixtures use (1, 2).
    return certify_direction(lset, [1, 2])


@pytest.fixture(scope="session")
def w_m(mset):
    return certify_direction(mset, [1, 1, 1, 1])


@pytest.fixture
def mat_vec_log(monkeypatch):
    """A list that gains one entry per Matrix.mat_vec call during the test."""
    log = []
    mat_vec = Matrix.mat_vec

    def logged(self, v):
        log.append(self.rows)
        return mat_vec(self, v)

    monkeypatch.setattr(Matrix, "mat_vec", logged)
    return log


class RankDeficiencyError(LinalgError):
    """A matrix does not have the rank the operation requires."""


class BlockPermutationError(LinalgError):
    """Blocks do not form a valid ordered partition of {1..n}."""


def kernel_vector(v: Matrix) -> tuple[Fraction, ...]:
    """Canonical nonzero kernel vector of a k x (k+1) matrix of rank k: the
    elimination exposes the one free column, and the null space it spans is
    returned as normalize_integer_direction gives it."""
    if v.cols != v.rows + 1:
        raise DimensionError(f"expected k x (k+1) matrix, got {v.rows}x{v.cols}")
    _, m = clear_rows(v)
    pivots, last, _ = eliminate(m, v.cols)
    if len(pivots) < v.rows:
        raise RankDeficiencyError("rank below row count: kernel dimension exceeds 1")
    free = next(c for c in range(v.cols) if c not in pivots)
    h = [0] * v.cols
    h[free] = last
    for r, col in enumerate(pivots):
        h[col] = -m[r][free]
    return normalize_integer_direction(h)


@dataclass(frozen=True)
class BlockPermutation:
    """A permutation of {1..n} written as an ordered list of sorted blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in blocks))
        word = self.word
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise BlockPermutationError(
                f"blocks {self.blocks} are overlapping or incomplete over [{n}]"
            )
        for b in self.blocks:
            if list(b) != sorted(b):
                raise BlockPermutationError(f"block {b} is not sorted ascending")

    @property
    def word(self) -> tuple[int, ...]:
        return tuple(x for b in self.blocks for x in b)


def word_sign(word: Sequence[int]) -> int:
    """Sign of a permutation word of {1..n} by inversion count."""
    inversions = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inversions % 2 else 1


def perm_sign(p: BlockPermutation | Iterable[Iterable[int]]) -> int:
    """Sign of the permutation obtained by concatenating the blocks in order."""
    if not isinstance(p, BlockPermutation):
        p = BlockPermutation(p)
    return word_sign(p.word)


def reference_h_vector(fs, w, tau) -> tuple[Fraction, ...]:
    """The kernel certificate as h_vector computed it on Fractions: the
    determinant of the Fraction matrix [C_tau | w'], the stored det_cbar of
    the fragment tau+j, and the inversion sign of the word (tau, j, rest);
    Cbar_hat h = 0 is checked with a Fraction matrix."""
    from fragtile import complement, det

    c, cbar = column_parts(fs.decomposition)
    r, n = fs.dims.r, fs.dims.n
    tau = tuple(sorted(tau))
    tau_hat = complement(tau, n)
    lead = det(matrix_from_columns([c[i - 1] for i in tau] + [w.w[:r]], rows=r))
    h = []
    for j in tau_hat:
        rest = tuple(i for i in tau_hat if i != j)
        h.append(lead * fs[tau + (j,)].det_cbar * perm_sign((tau, (j,), rest)))
    cbar_hat = matrix_from_columns([cbar[i - 1] for i in tau_hat], rows=fs.dims.k)
    if any(x != 0 for x in cbar_hat.mat_vec(tuple(h))):
        raise LinalgError("kernel certificate failed its exact check")
    return tuple(h)


def collection_of(facet, n: int) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """The one hyperplane collection holding a plain facet, as (kind, z,
    index): keeping the omitted j in sigma gives the tau collection
    sigma - j anchored s steps up along e_j, and a j off sigma gives the
    gamma collection sigma + j anchored s steps down."""
    step = [int(i == facet.j - 1) for i in range(n)]
    if facet.j in facet.sigma:
        tau = tuple(i for i in facet.sigma if i != facet.j)
        return "tau", tuple(a + facet.s * b for a, b in zip(facet.z, step)), tau
    gamma = tuple(sorted(facet.sigma + (facet.j,)))
    return "gamma", tuple(a - facet.s * b for a, b in zip(facet.z, step)), gamma


def pair_fractions(pair) -> tuple[Fraction, ...]:
    """A lambda pair (den, nums), as lambda_of gives it, as the Fraction
    vector nums / den."""
    den, nums = pair
    return tuple(Fraction(x, den) for x in nums)


def invoke(argv):
    """Run the CLI in-process, capturing (exit code, stdout, stderr)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def det_cofactor(m: Matrix) -> Fraction:
    """First-row cofactor expansion; exponential, fine for n <= 5."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    first, *rest = m.row_list()
    if n == 1:
        return first[0]
    total = Fraction(0)
    for j in range(n):
        if first[j] == 0:
            continue
        minor = Matrix.from_rows([[row[c] for c in range(n) if c != j] for row in rest])
        total += (-1) ** j * first[j] * det_cofactor(minor)
    return total


def cramer_solve(a: Matrix, b) -> tuple[Fraction, ...]:
    """Solution entries as quotients of column-replaced determinants."""
    n = a.rows
    d = det_cofactor(a)
    a_cols = list(zip(*a.row_list()))
    out = []
    for i in range(n):
        cols = [list(a_cols[j]) if j != i else list(b) for j in range(n)]
        out.append(det_cofactor(matrix_from_columns(cols)) / d)
    return tuple(out)


def kernel_by_minors(v: Matrix) -> tuple[Fraction, ...]:
    """Alternating signed maximal minors: an exact kernel vector of a
    k x (k+1) matrix (possibly zero when the rank drops)."""
    n = v.cols
    v_cols = list(zip(*v.row_list()))
    out = []
    for i in range(n):
        sub = matrix_from_columns([v_cols[j] for j in range(n) if j != i], rows=v.rows)
        out.append((-1) ** i * det_cofactor(sub))
    return tuple(out)


def column_parts(d) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[Fraction, ...], ...]]:
    """(c, cbar): the top parts c_i and the negated bottom parts cbar_i of
    M's columns, split from the rows of the parsed Matrix, apart from the
    cleared m_rows that the library reads."""
    r = d.dims.r
    cols = list(zip(*d.m.row_list()))
    return tuple(col[:r] for col in cols), tuple(tuple(-x for x in col[r:]) for col in cols)


def rows_matrix(den: int, rows) -> Matrix:
    """The Fraction matrix of integer rows over a denominator."""
    return Matrix.from_rows([[Fraction(x, den) for x in row] for row in rows])


def matrix_from_columns(cols, rows: int | None = None) -> Matrix:
    """The Fraction matrix with the given columns; rows gives the height
    when there are none."""
    if not cols:
        return Matrix(rows, 0, [])
    return Matrix.from_rows(list(zip(*cols, strict=True)))


def identity_matrix(n: int) -> Matrix:
    """The n x n identity as a Fraction matrix."""
    return Matrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def c_submatrices(d, sigma) -> tuple[Matrix, Matrix]:
    """(C_sigma, Cbar_complement) as Fraction matrices, from column_parts:
    top columns on sigma, bottom columns off it.  sigma may have any size;
    the facet checks need sizes r-1 and r+1 as well as the fragment case r."""
    from fragtile import complement

    c, cbar = column_parts(d)
    sigma = tuple(sorted(sigma))
    return (
        matrix_from_columns([c[i - 1] for i in sigma], rows=d.dims.r),
        matrix_from_columns([cbar[j - 1] for j in complement(sigma, d.dims.n)], rows=d.dims.k),
    )


def reference_slice_precondition(d) -> bool:
    """The slice precondition by its definition: the bottom k rows of M are
    integer and the gcd of all k x k minors of the bottom-block column
    family is 1."""
    from itertools import combinations
    from math import gcd

    k = d.dims.k
    cbar = column_parts(d)[1]
    if any(x.denominator != 1 for col in cbar for x in col):
        return False
    g = 0
    for cols in combinations(cbar, k):
        g = gcd(g, int(det_cofactor(matrix_from_columns(cols, rows=k))))
        if g == 1:
            return True
    return False


def reference_key_index(d) -> Fraction:
    """The covolume g of the key lattice M_bottom Z^n by its definition, apart
    from the library's Hermite form: the bottom-block column family cleared
    by the lcm c of its denominators, the gcd of its k x k minors, over c^k.
    A live fragment has |det Cbar_hat| / g translate classes in the slice."""
    from itertools import combinations
    from math import gcd, lcm

    k = d.dims.k
    cbar = column_parts(d)[1]
    c = lcm(*(x.denominator for col in cbar for x in col))
    g = 0
    for cols in combinations([[x * c for x in col] for col in cbar], k):
        g = gcd(g, int(det_cofactor(matrix_from_columns(cols, rows=k))))
    return Fraction(g, c**k)


class ReferenceReductionError(Exception):
    """reference_unimodular_reduce's input is outside the coprime case."""


def reference_unimodular_reduce(d):
    """slices.unimodular_reduce as it stood when it worked on rows and took
    only an integer bottom block with coprime maximal minors, through three
    closures that each loop over the rows of the bottom block stacked over
    U; the library now holds that matrix as a list of columns and reduces
    every bottom block of full rank to its Hermite form.  In the coprime case
    the pivots and U are the library's, and (U, A, Bk) its first three
    returns; elsewhere it raises ReferenceReductionError."""
    n, r, k = d.dims.n, d.dims.r, d.dims.k
    m_den, m_rows = d.m_rows
    if any(x % m_den for row in m_rows[r:] for x in row):
        raise ReferenceReductionError("bottom block must be integer")
    bottom = [[x // m_den for x in row] for row in m_rows[r:]]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows = bottom + u

    def swap_cols(a: int, b: int) -> None:
        for row in rows:
            row[a], row[b] = row[b], row[a]

    def negate_col(a: int) -> None:
        for row in rows:
            row[a] = -row[a]

    def add_multiple(dst: int, src: int, mult: int) -> None:
        for row in rows:
            row[dst] += mult * row[src]

    for t in range(k):
        while True:
            nz = [c for c in range(t, n) if bottom[t][c] != 0]
            if not nz:
                raise ReferenceReductionError("bottom block is rank deficient")
            if len(nz) == 1:
                pivot_col = nz[0]
                break
            smallest = min(nz, key=lambda c: abs(bottom[t][c]))
            for c in nz:
                if c == smallest:
                    continue
                add_multiple(c, smallest, -(bottom[t][c] // bottom[t][smallest]))
        if pivot_col != t:
            swap_cols(pivot_col, t)
        if bottom[t][t] < 0:
            negate_col(t)
        if bottom[t][t] != 1:
            raise ReferenceReductionError(
                f"pivot {bottom[t][t]} exceeds 1: maximal minors share a factor"
            )
        for c in range(n):
            if c != t and bottom[t][c] != 0:
                add_multiple(c, t, -bottom[t][c])

    mu = [[sum(a * b for a, b in zip(row, col)) for col in zip(*u)] for row in m_rows]
    if mu[r:] != [[m_den * (i == t) for i in range(n)] for t in range(k)]:
        raise ReferenceReductionError("column reduction failed to certify")
    return u, [row[k:] for row in mu[:r]], [row[:k] for row in mu[:r]]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Fraction matrix product, column by column; the library multiplies
    integer rows only (linalg.int_mat_mul)."""
    return matrix_from_columns([a.mat_vec(col) for col in zip(*b.row_list())], rows=a.rows)


def reference_slice_layout(fs, w, window):
    """Slice translate families as slice_layout once formed them, by
    scanning every translate z of the window on Fraction matrices: each
    family keyed by the first k coordinates of U^-1 z, its offset
    B frac(B^-1 p_r(M z)), with U and B inverted by reference_rref.
    Returns (sigma, sign_class, offsets) per fragment."""
    from math import floor
    from operator import mul

    from fragtile import DEGENERATE, complement, unimodular_reduce
    from fragtile.linalg import int_mat_mul
    from fragtile.tiling import cell_hits, cell_position

    def rref_inverse(a):
        n = a.rows
        aug = [list(a.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        reference_rref(aug, n)
        return Matrix.from_rows([row[n:] for row in aug])

    dims = fs.dims
    m_den, m_rows = fs.m_rows
    u_rows, b_rows, _, _ = unimodular_reduce(fs.decomposition)
    b_lattice = Matrix.from_rows([[Fraction(x, m_den) for x in row] for row in b_rows])
    b_inv = rref_inverse(b_lattice)
    u_inv_rows = [[int(x) for x in row] for row in rref_inverse(Matrix.from_rows(u_rows)).row_list()[: dims.k]]
    c_full = matrix_from_columns(column_parts(fs.decomposition)[0])
    out = []
    for frag in fs:
        if frag.sign_class == DEGENERATE:
            out.append((frag.sigma, frag.sign_class, ()))
            continue
        sigma_hat = complement(frag.sigma, dims.n)
        lam = pair_fractions(w.lambda_of(fs, frag.sigma))
        rules = tuple(lam[j - 1] > 0 for j in sigma_hat)
        e, x = frag.s_inv_rows
        h = int_mat_mul([x[j - 1][dims.r :] for j in sigma_hat], m_rows[dims.r :])
        families = {}
        for z, y in cell_hits([0] * dims.k, h, e * m_den, window):
            key = tuple(sum(map(mul, row, z)) for row in u_inv_rows)
            if cell_position(y, e * m_den, rules)[0] and key not in families:
                frac = tuple(y - floor(y) for y in b_inv.mat_vec(c_full.mat_vec(z)))
                families[key] = b_lattice.mat_vec(frac)
        out.append((frag.sigma, frag.sign_class, tuple(sorted(families.values()))))
    return out


def random_int_matrix(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> Matrix:
    return Matrix.from_rows([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def random_invertible(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> Matrix:
    while True:
        m = random_int_matrix(rng, n, lo, hi)
        if det_cofactor(m) != 0:
            return m


def random_rational_invertible(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> Matrix:
    """Matrix of entries a/b with a in [lo, hi] and b in 1..4, |det| >= 1.

    A smaller determinant makes the translate boxes of the brute-force
    oracles grow like 1/|det| in every coordinate.
    """
    while True:
        m = Matrix.from_rows(
            [[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        )
        if abs(det_cofactor(m)) >= 1:
            return m


@st.composite
def split_matrices(draw):
    """(M, dims), n <= 5, entries a/b with |a| <= 3 and b <= 4; in about
    half the draws the bottom k rows are integer, in the rest rational."""
    n = draw(st.integers(2, 5))
    r = draw(st.integers(1, n - 1))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    bottom = st.integers(-3, 3).map(Fraction) if draw(st.booleans()) else rational
    rows = [[draw(rational if i < r else bottom) for _ in range(n)] for i in range(n)]
    return Matrix.from_rows(rows), Dimensions(r, n - r)


def corpus_matrix(n: int, r: int, i: int, rational: bool = False):
    """Fragment set of seeded benchmark-corpus matrix i for (n, r): entries
    randint(-3, 3) row by row from random.Random(f"corpus:{n}:{r}:{i}"); a
    rational one (q{n}r{r}-{i}) then divides each entry by a denominator
    drawn from (1, 2, 3, 4) by the same stream."""
    rng = random.Random(f"corpus:{n}:{r}:{i}")
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if rational:
        rows = [[Fraction(x, rng.choice((1, 2, 3, 4))) for x in row] for row in rows]
    return fragment_set(decompose(Matrix.from_rows(rows), Dimensions(r, n - r)))


def corpus_files(max_n: int = 6) -> list[Path]:
    """The benchmark corpus matrix files (perfbench/corpus) with n <= max_n,
    sorted by name."""
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
    return [p for p in sorted(corpus.glob("*.txt")) if parse_matrix(p.read_text())[0].n <= max_n]


def corpus_set(path: Path):
    """Fragment set of one corpus matrix file."""
    dims, m = parse_matrix(path.read_text())
    return fragment_set(decompose(m, dims))


def random_dims(rng: random.Random, max_n: int = 6) -> Dimensions:
    r = rng.randint(1, max_n - 1)
    k = rng.randint(1, max_n - r)
    return Dimensions(r, k)


def _cleared(rows):
    """(d, d*rows): the least common denominator of rational rows and the
    integer rows it scales them to."""
    from math import lcm

    d = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return d, [[int(x * d) for x in row] for row in rows]


def _axis_boxes(fs, p, margin: int = 0):
    """Per live fragment, the axis box of translates z whose closed tile can
    hold p, from the rows of M^-1 S (no basis change), widened by margin."""
    from math import ceil, floor

    m = fs.decomposition.m
    m_inv = cramer_inverse(m)
    a = m_inv.mat_vec(tuple(Fraction(x) for x in p))
    boxes = []
    for frag in fs:
        if frag.sign_class == "degenerate":
            continue
        g = mat_mul(m_inv, frag.s)
        ranges = []
        for i in range(m.rows):
            pos = sum((x for x in g.row(i) if x > 0), Fraction(0))
            neg = sum((x for x in g.row(i) if x < 0), Fraction(0))
            ranges.append((ceil(a[i] - pos) - margin, floor(a[i] - neg) + margin))
        boxes.append((frag, ranges))
    return boxes


def axis_box_volume(fs, p) -> int:
    """Translates an axis-aligned candidate box scan visits for p, summed
    over the live fragments."""
    from math import prod

    return sum(
        prod(max(0, hi - lo + 1) for lo, hi in ranges) for _, ranges in _axis_boxes(fs, p)
    )


def brute_force_tiles(fs, w, p, margin: int = 1):
    """Tile location by scanning a widened axis box with this module's
    half-open membership test; independent of the engine's search.

    An exact closed-cell prefilter skips translates whose closed tile misses
    p: y = S^-1 (p - M z) is tested against [0, 1]^n with this module's
    Cramer inverse and every denominator cleared once, so the prefilter is
    integer arithmetic.  pip_contains decides each translate that passes.
    """
    from itertools import product

    from fragtile import TileId, vector

    m = fs.decomposition.m
    n = m.rows
    p = vector(p)
    dm, m_int = _cleared(m.row_list())
    dp, (p_int,) = _cleared([p])
    found = []
    for frag, ranges in _axis_boxes(fs, p, margin):
        ds, s_inv = _cleared(cramer_inverse(frag.s).row_list())
        # one * y = base - step z, with one = ds * dp * dm.
        one = ds * dp * dm
        base = [dm * sum(e * x for e, x in zip(row, p_int)) for row in s_inv]
        step = [[dp * sum(row[k] * m_int[k][j] for k in range(n)) for j in range(n)] for row in s_inv]
        for z in product(*(range(lo, hi + 1) for lo, hi in ranges)):
            for b, row in zip(base, step):
                y = b - sum(e * v for e, v in zip(row, z))
                if y < 0 or y > one:
                    break
            else:
                mz = m.mat_vec(tuple(Fraction(v) for v in z))
                q = tuple(pi - mi for pi, mi in zip(p, mz))
                if pip_contains(frag.s, w.w, q):
                    found.append(TileId(z=z, sigma=frag.sigma))
    return sorted(found, key=lambda t: (t.sigma, t.z))


def pip_contains(n_mat: Matrix, w, q) -> bool:
    """Exact membership of q in the half-open parallelepiped of n_mat.

    The parallelepiped of a singular matrix is empty.  Otherwise q belongs
    iff its coordinate vector y = n_mat^-1 q satisfies 0 <= y_i < 1 where
    (n_mat^-1 w)_i > 0 and 0 < y_i <= 1 where it is negative.  It eliminates
    n_mat itself, so it reads nothing a fragment caches.
    """
    from fragtile import GenericityError, det, solve, vector

    if det(n_mat) == 0:
        return False
    w = vector(w)
    q = vector(q)
    lam = solve(n_mat, w)
    if any(x == 0 for x in lam):
        raise GenericityError("direction is not generic for this parallelepiped")
    y = solve(n_mat, q)
    for yi, li in zip(y, lam):
        if li > 0:
            if not (0 <= yi < 1):
                return False
        else:
            if not (0 < yi <= 1):
                return False
    return True


def solve_affine(a: Matrix, b):
    """Solve a*x = b for a rectangular a with independent columns.

    Returns the unique exact solution, or None when the system is
    inconsistent (b outside the column span).  Raises RankDeficiencyError if
    the columns are dependent, since then no unique solution exists.
    """
    from fragtile import vector

    nrows, ncols = a.rows, a.cols
    if len(b) != nrows:
        raise DimensionError(f"right-hand side length {len(b)} vs {nrows} rows")
    aug = [list(a.row(i)) + [x] for i, x in enumerate(vector(b))]
    if len(reference_rref(aug, ncols)) < ncols:
        raise RankDeficiencyError("columns are linearly dependent")
    if any(row[ncols] != 0 for row in aug[ncols:]):
        return None
    return tuple(row[ncols] for row in aug[:ncols])


def reference_rref(rows, ncols: int) -> list[int]:
    """Gauss-Jordan over Fractions, in place (later columns ride along):
    returns the pivot columns; row i then has a 1 in column pivots[i] and 0
    in the other pivot columns, and rows below len(pivots) are zero in the
    first ncols columns."""
    nrows = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        piv = next((r for r in range(row, nrows) if rows[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            rows[row], rows[piv] = rows[piv], rows[row]
        pivot = rows[row][col]
        if pivot != 1:
            rows[row] = [x / pivot for x in rows[row]]
        for r in range(nrows):
            if r != row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[row])]
        pivots.append(col)
    return pivots


def reference_cell_hits(u, h, one, rules, ranges):
    """The translate scan cell_hits ran before it solved the last coordinate:
    every z of the box in lexicographic order, each row tested in turn.
    Kept as the reference the solved scan must reproduce yield for yield."""
    from itertools import product

    m = len(u)
    cols = range(len(ranges))
    for z in product(*(range(lo, hi + 1) for lo, hi in ranges)):
        inside = True
        touching = False
        for i in range(m):
            row = h[i]
            num = u[i] - sum(row[j] * z[j] for j in cols)
            if num < 0 or num > one:
                break
            if num == 0:
                touching = True
                if not rules[i]:
                    inside = False
            elif num == one:
                touching = True
                if rules[i]:
                    inside = False
        else:
            yield z, inside, touching


def reference_size_reduce(rows):
    """Pairwise size reduction with every inner product taken afresh from the
    rows: the loop fragtile.tiling.size_reduce ran before it kept a Gram
    matrix.  Returns (R, W, W^-1) like it."""
    n = len(rows)
    red = [list(row) for row in rows]
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    w_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    norms = [sum(x * x for x in row) for row in red]
    changed = True
    while changed:
        changed = False
        for j in range(n):
            nj = norms[j]
            for i in range(n):
                if i == j:
                    continue
                d = sum(x * y for x, y in zip(red[i], red[j]))
                if 2 * abs(d) <= nj:
                    continue
                k = (2 * d + nj) // (2 * nj)
                red[i] = [x - k * y for x, y in zip(red[i], red[j])]
                w[i] = [x - k * y for x, y in zip(w[i], w[j])]
                for row in w_inv:
                    row[j] += k * row[i]
                norms[i] = sum(x * x for x in red[i])
                changed = True
    return red, w, w_inv


def cramer_inverse(a: Matrix) -> Matrix:
    """Inverse column by column from Cramer quotients."""
    n = a.rows
    cols = [cramer_solve(a, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    return matrix_from_columns(cols)


def brute_force_events(fs, w, start, reach, margin: int = 1):
    """Facet crossings of the segment start + t*w, t in (0, reach), by exact
    face times over a widened translate box; independent of the engine.

    Returns {t: [(FacetId, touching), ...]} like the crossing scan, where
    touching flags a crossing point on the facet's own boundary.
    """
    from itertools import product
    from math import ceil, floor

    from fragtile import FacetId, vector

    m = fs.decomposition.m
    n = m.rows
    m_inv = cramer_inverse(m)
    start = vector(start)
    reach = Fraction(reach)
    end = tuple(s + reach * x for s, x in zip(start, w.w))
    ends = (m_inv.mat_vec(start), m_inv.mat_vec(end))
    events = {}
    for frag in fs:
        if frag.sign_class == "degenerate":
            continue
        s_inv = cramer_inverse(frag.s)
        lam = s_inv.mat_vec(w.w)
        g = mat_mul(m_inv, frag.s)
        ranges = []
        for i in range(n):
            pos = sum((x for x in g.row(i) if x > 0), Fraction(0))
            neg = sum((x for x in g.row(i) if x < 0), Fraction(0))
            lo = min(ceil(a[i] - pos) for a in ends) - margin
            hi = max(floor(a[i] - neg) for a in ends) + margin
            ranges.append(range(lo, hi + 1))
        for z in product(*ranges):
            mz = m.mat_vec(tuple(Fraction(v) for v in z))
            y0 = s_inv.mat_vec(tuple(p - q for p, q in zip(start, mz)))
            for i in range(n):
                for target in (0, 1):
                    t = (target - y0[i]) / lam[i]
                    if not 0 < t < reach:
                        continue
                    others = [y0[j] + t * lam[j] for j in range(n) if j != i]
                    if all(0 <= y <= 1 for y in others):
                        facet = FacetId(z=z, sigma=frag.sigma, j=i + 1, s=target)
                        touching = any(y in (0, 1) for y in others)
                        events.setdefault(t, []).append((facet, touching))
    return events


def reference_verify(fs, w, sample_count: int, seed: int):
    """verify_constancy through the rational path it replaced: each sample
    point is the Fraction product M u of the seeded grid vector u, located
    with tiles_at, which decides boundary samples by the w-rules; same
    report."""
    from fragtile import TilingEngine, VerifyReport
    from fragtile.tiling import SAMPLE_DENOMINATOR, grid_vector

    engine = TilingEngine(fs, w)
    m = fs.decomposition.m
    histogram = {}
    values = set()
    boundary_samples = 0
    for index in range(sample_count):
        u = grid_vector(f"sample:{seed}:{index}:0", fs.dims.n, 0, SAMPLE_DENOMINATOR)
        tiles, boundary = engine.tiles_at(m.mat_vec(u))
        if boundary:
            boundary_samples += 1
        pos = sum(1 for _, cls in tiles if cls == "positive")
        neg = sum(1 for _, cls in tiles if cls == "negative")
        values.add(pos - neg)
        histogram[(pos, neg)] = histogram.get((pos, neg), 0) + 1
    return VerifyReport(
        sample_count=sample_count,
        seed=seed,
        expected=engine.expected,
        distinct_f_values=frozenset(values),
        census_histogram=dict(sorted(histogram.items())),
        boundary_samples=boundary_samples,
        passed=values == {engine.expected},
    )


@dataclass(frozen=True)
class FacetGeometry:
    """Half-open affine cell: base + sum of x_i * generator_i.

    Coordinate i ranges over [0,1) when include_zero[i] is true and over
    (0,1] otherwise.  Generators must be linearly independent; there may be
    fewer of them than dimensions.
    """

    base: tuple[Fraction, ...]
    generators: tuple[tuple[Fraction, ...], ...]
    include_zero: tuple[bool, ...]

    @cached_property
    def _coordinate_map(self):
        """(left inverse, left null rows) of the generator matrix.

        Row-reducing [G | I] leaves G's left inverse beside the pivot rows
        and, when G has fewer columns than rows, rows spanning its left null
        space below them: a vector lies in the span exactly when those rows
        annihilate it.
        """
        dim = len(self.base)
        count = len(self.generators)
        aug = [
            [g[i] for g in self.generators] + [Fraction(int(i == j)) for j in range(dim)]
            for i in range(dim)
        ]
        if len(reference_rref(aug, count)) < count:
            raise RankDeficiencyError("facet generators are linearly dependent")
        left = Matrix(count, dim, [x for row in aug[:count] for x in row[count:]])
        null = Matrix(dim - count, dim, [x for row in aug[count:] for x in row[count:]])
        return left, null

    def position(self, point):
        """cell_position of the point's exact coordinates in the generator
        frame: None off the affine span or the closed cell, else (inside,
        touching)."""
        from fragtile.tiling import cell_position

        rhs = tuple(Fraction(p) - b for p, b in zip(point, self.base))
        left, null = self._coordinate_map
        if any(x != 0 for x in null.mat_vec(rhs)):
            return None
        return cell_position(left.mat_vec(rhs), 1, self.include_zero)


def facet_projections(fs, w, facet):
    """Geometry of the facet's shadow on the first r and last k coordinates.

    The omitted generator j contributes only an offset (its top or bottom
    part, on the s=1 side); the remaining generators split between the two
    shadows by whether they carry a top or a bottom part, with half-open
    rules given by the matching lambda coordinates.
    """
    from fragtile import complement

    dims = fs.dims
    d = fs.decomposition
    c, cbar = column_parts(d)
    lam = pair_fractions(w.lambda_of(fs, facet.sigma))
    mz = d.m.mat_vec(tuple(Fraction(x) for x in facet.z))
    in_sigma = facet.j in facet.sigma
    shadows = []
    for idx, base, parts, holds_j in (
        (facet.sigma, mz[: dims.r], c, in_sigma),
        (complement(facet.sigma, dims.n), mz[dims.r :], cbar, not in_sigma),
    ):
        gens = [i for i in idx if i != facet.j]
        if facet.s == 1 and holds_j:
            base = tuple(b + x for b, x in zip(base, parts[facet.j - 1]))
        shadows.append(FacetGeometry(
            base=base,
            generators=tuple(parts[i - 1] for i in gens),
            include_zero=tuple(lam[i - 1] > 0 for i in gens),
        ))
    return shadows[0], shadows[1]


def reference_double_cover(fs, w, index, z, sample_count: int, seed: int):
    """double_cover_check through the rational path it replaced: each sample
    is the Fraction point zonotope * coeffs + base, placed in every live
    shadow by FacetGeometry.position, whose w-rules decide boundary samples;
    coefficients are drawn from the open grid, and the report is the same."""
    from fragtile import (
        DoubleCoverReport,
        complement,
        facet_collection,
        up_down_partition,
    )
    from fragtile.facets import SAMPLE_DENOMINATOR, grid_numerators

    d = fs.decomposition
    c, cbar = column_parts(d)
    index = tuple(sorted(index))
    z = tuple(z)
    mz = d.m.mat_vec(tuple(Fraction(x) for x in z))
    if len(index) == fs.dims.r - 1:
        kind, js, gens, base, shadow = "tau", complement(index, fs.dims.n), cbar, mz[fs.dims.r :], 1
    else:
        kind, js, gens, base, shadow = "gamma", index, c, mz[: fs.dims.r], 0
    zonotope = matrix_from_columns([gens[j - 1] for j in js], rows=len(base))
    coll = facet_collection(fs, index, z)
    up = set(up_down_partition(fs, w, coll).up)
    live = coll.live_members()
    cells = [facet_projections(fs, w, facet)[shadow] for facet in live]
    boundary_samples = 0
    failures = []
    for idx in range(sample_count):
        numerators = grid_numerators(f"cover:{seed}:{idx}:0", len(js), 1, SAMPLE_DENOMINATOR)
        q_rel = zonotope.mat_vec([Fraction(x, SAMPLE_DENOMINATOR) for x in numerators])
        q_abs = tuple(a + b for a, b in zip(q_rel, base))
        positions = [cell.position(q_abs) for cell in cells]
        if any(pos is not None and pos[1] for pos in positions):
            boundary_samples += 1
        hits = [f in up for f, pos in zip(live, positions) if pos is not None and pos[0]]
        if (sum(hits), len(hits) - sum(hits)) != (1, 1):
            failures.append((q_rel, sum(hits), len(hits) - sum(hits)))
    return DoubleCoverReport(
        kind=kind,
        index=index,
        z=z,
        sample_count=sample_count,
        boundary_samples=boundary_samples,
        failures=tuple(failures),
        passed=not failures,
    )


def reference_dec6(q: Fraction) -> str:
    """The decimal render printed before it moved to integers: round() of
    the Fraction q * 10^6 (half to even), then 6 fractional digits."""
    n = round(q * 10**6)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 10**6}.{n % 10**6:06d}"


def reference_family_polygons(shape, anchors, basis, window, margin: int = 1):
    """A translate scan apart from cell_hits, each parallelogram tested
    against the window by an exact separating-axis test on Fraction
    projections.  A translate can meet the window only if its offset lies
    in the axis box [lo, hi] of the window minus the parallelogram's
    extent, so z_1 runs over the bounds of basis^-1 [lo, hi] and, per z_1,
    z_2 over the Fraction interval that keeps both offset coordinates in
    [lo, hi], each widened by margin.  Returns (drawn, skipped), the sorted
    corner tuples of the translates whose open parallelogram meets the open
    window and of the other translates scanned."""
    from itertools import product
    from math import ceil, floor

    x0, x1, y0, y1 = window
    rect = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    g1, g2 = zip(*shape.row_list())
    smin = [min(0, g1[i]) + min(0, g2[i]) for i in range(2)]
    smax = [max(0, g1[i]) + max(0, g2[i]) for i in range(2)]
    basis_inv = cramer_inverse(basis)

    def span(points, axis):
        values = [px * axis[0] + py * axis[1] for px, py in points]
        return min(values), max(values)

    axes = [a for a in ((1, 0), (0, 1), (-g1[1], g1[0]), (-g2[1], g2[0])) if a != (0, 0)]
    window_spans = [span(rect, axis) for axis in axes]

    def meets(corners):
        for axis, (b0, b1) in zip(axes, window_spans):
            a0, a1 = span(corners, axis)
            if not (a0 < b1 and b0 < a1):
                return False
        return True

    drawn, skipped = [], []
    for anchor in anchors:
        lo = (x0 - smax[0] - anchor[0], y0 - smax[1] - anchor[1])
        hi = (x1 - smin[0] - anchor[0], y1 - smin[1] - anchor[1])
        box = product((lo[0], hi[0]), (lo[1], hi[1]))
        ends = [basis_inv.row(0)[0] * p + basis_inv.row(0)[1] * q for p, q in box]
        for z1 in range(ceil(min(ends)) - margin, floor(max(ends)) + margin + 1):
            # lo_i <= basis[i][0] z_1 + basis[i][1] z_2 <= hi_i on both axes
            shifted = [(row[0] * z1, row[1]) for row in basis.row_list()]
            if any(b == 0 and not lo[i] <= a <= hi[i] for i, (a, b) in enumerate(shifted)):
                continue
            cuts = [sorted(((lo[i] - a) / b, (hi[i] - a) / b)) for i, (a, b) in enumerate(shifted) if b]
            low, high = max(c[0] for c in cuts), min(c[1] for c in cuts)
            if low > high:
                continue
            for z in product((z1,), range(ceil(low) - margin, floor(high) + margin + 1)):
                o = tuple(anchor[i] + sum(basis.row(i)[j] * z[j] for j in range(2)) for i in range(2))
                corners = (
                    (o[0], o[1]),
                    (o[0] + g1[0], o[1] + g1[1]),
                    (o[0] + g1[0] + g2[0], o[1] + g1[1] + g2[1]),
                    (o[0] + g2[0], o[1] + g2[1]),
                )
                (drawn if meets(corners) else skipped).append(corners)
    return sorted(drawn), sorted(skipped)


def reference_hermite_form(rows) -> list[list[int]]:
    """The lower-triangular Hermite form H of the column lattice of integer
    rows of full row rank k: H[t][t] > 0 and 0 <= H[t][j] < H[t][t] for
    j < t.  Each pivot column absorbs the later columns by one extended-gcd
    step per pair (a unimodular 2 x 2 column map), and the earlier columns
    are then reduced modulo it; slices.unimodular_reduce reaches the same
    unique form by repeated remainders instead."""

    def extended_gcd(a, b):
        # (g, x, y) with x a + y b = g = gcd(a, b) >= 0
        x0, y0, x1, y1 = 1, 0, 0, 1
        while b:
            q, a, b = a // b, b, a % b
            x0, x1, y0, y1 = x1, x0 - q * x1, y1, y0 - q * y1
        return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)

    k = len(rows)
    cols = [list(col) for col in zip(*rows)]
    for t in range(k):
        for c in range(t + 1, len(cols)):
            a, b = cols[t][t], cols[c][t]
            if b:
                g, x, y = extended_gcd(a, b)
                cols[t], cols[c] = (
                    [x * p + y * q for p, q in zip(cols[t], cols[c])],
                    [a // g * q - b // g * p for p, q in zip(cols[t], cols[c])],
                )
        if cols[t][t] < 0:
            cols[t] = [-p for p in cols[t]]
        pivot = cols[t][t]
        if pivot == 0:
            raise ValueError("rows are rank deficient")
        for c in range(t):
            mult = cols[c][t] // pivot
            cols[c] = [p - mult * q for p, q in zip(cols[c], cols[t])]
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def reference_key_box(fs, sigma) -> list[tuple[int, int]]:
    """The box of keys v that slice_layout scans for sigma, from its
    definition: v = H^-1 y over the points y = A_hat x of the unit cube, with
    A = d M_bottom M's cleared bottom rows, A_hat their columns off sigma,
    and H the reference_hermite_form of A; per row of H^-1 A_hat (Fractions,
    by forward substitution), the ceiling of the sum of its negative entries
    and the floor of the sum of its positive ones."""
    from math import ceil, floor

    from fragtile import complement

    bottom = fs.m_rows[1][fs.dims.r :]
    h = reference_hermite_form(bottom)
    cols = []
    for j in complement(sigma, fs.dims.n):
        v = []
        for i, row in enumerate(h):
            v.append((bottom[i][j - 1] - sum(row[c] * v[c] for c in range(i))) / Fraction(row[i]))
        cols.append(v)
    return [
        (ceil(sum(x for x in row if x < 0)), floor(sum(x for x in row if x > 0)))
        for row in zip(*cols)
    ]


def reference_lattice_box(basis_inv_rows, lo, hi) -> list[tuple[int, int]]:
    """Integer bounds of (X / e) p over the box lo <= p <= hi, for (e, X):
    per row, the least and the greatest a_i p_i at each coordinate's ends."""
    from math import ceil, floor

    e, x = basis_inv_rows
    bounds = []
    for row in x:
        low = sum(min(a * p, a * q) for a, p, q in zip(row, lo, hi))
        high = sum(max(a * p, a * q) for a, p, q in zip(row, lo, hi))
        bounds.append((ceil(low / e), floor(high / e)))
    return bounds


def reference_render_boxes(source, window) -> list[list[tuple[int, int]]]:
    """The ranges render_svg hands cell_hits, in scan order, from the box
    formula it used before cube_extents: per family and anchor, the
    reference_lattice_box of the basis inverse over the axis box of offsets
    whose parallelogram can meet the window."""
    from fragtile import DEGENERATE, FragmentSet, fragment_rows

    x0, x1, y0, y1 = map(Fraction, window)
    if isinstance(source, FragmentSet):
        zero = (Fraction(0), Fraction(0))
        families = [
            (fragment_rows(source.decomposition, f.sigma), (zero,))
            for f in source
            if f.sign_class != DEGENERATE
        ]
        den, basis_inv_rows = source.m_rows[0], source.m_inv_rows
    else:
        families = [(c.shape, c.offsets) for c in source.classes if c.sign_class != DEGENERATE and c.offsets]
        den, basis_inv_rows = source.b_rows[0], source.b_inv_rows
    boxes = []
    for shape, anchors in families:
        g1, g2 = ([Fraction(x, den) for x in col] for col in zip(*shape))
        smin = [min(0, g1[i]) + min(0, g2[i]) for i in range(2)]
        smax = [max(0, g1[i]) + max(0, g2[i]) for i in range(2)]
        for ax, ay in anchors:
            lo = (x0 - smax[0] - ax, y0 - smax[1] - ay)
            hi = (x1 - smin[0] - ax, y1 - smin[1] - ay)
            boxes.append(reference_lattice_box(basis_inv_rows, lo, hi))
    return boxes


def clip_polygon_area(subject, window) -> Fraction:
    """Sutherland-Hodgman clip of a convex polygon against an axis box,
    then the shoelace area; exact throughout."""
    x0, x1, y0, y1 = window
    edges = [
        lambda p: p[0] - x0,
        lambda p: x1 - p[0],
        lambda p: p[1] - y0,
        lambda p: y1 - p[1],
    ]
    poly = list(subject)
    for inside in edges:
        if not poly:
            return Fraction(0)
        clipped = []
        for i, cur in enumerate(poly):
            prev = poly[i - 1]
            cur_in = inside(cur) >= 0
            prev_in = inside(prev) >= 0
            if cur_in != prev_in:
                t = inside(prev) / (inside(prev) - inside(cur))
                clipped.append(
                    (
                        prev[0] + t * (cur[0] - prev[0]),
                        prev[1] + t * (cur[1] - prev[1]),
                    )
                )
            if cur_in:
                clipped.append(cur)
        poly = clipped
    area = Fraction(0)
    for i, cur in enumerate(poly):
        prev = poly[i - 1]
        area += prev[0] * cur[1] - cur[0] * prev[1]
    return abs(area) / 2
