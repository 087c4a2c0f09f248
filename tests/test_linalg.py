from fractions import Fraction
from itertools import product
from math import gcd
from random import Random

import pytest

from biforms import (
    QMat,
    Subspace,
    det,
    kernel_basis,
    rank,
    rref,
    singular_system,
    top_minors,
)

from biforms import linalg
from biforms.linalg import _bareiss, _echelon, _rank
from helpers import (cofactor_det, is_rref_basis, oracle, oracle_matmul, oracle_matvec,
                     oracle_residual)


def zeros(rows, cols):
    """The rows x cols zero matrix, built as the package builds its results."""
    return QMat._make([[0] * cols for _ in range(rows)], 1, cols)


def rand_mat(rng, rows, cols, lo=-9, hi=9):
    return QMat([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_rref_examples():
    eye = QMat.identity(3)
    reduced, rk, piv = rref(eye)
    assert reduced == eye and rk == 3 and piv == (0, 1, 2)
    z = zeros(2, 3)
    assert rref(z) == (z, 0, ())
    reduced, rk, piv = rref(QMat([[1, 2], [2, 4]]))
    assert reduced == QMat([[1, 2], [0, 0]]) and rk == 1 and piv == (0,)
    f = Fraction
    cases = [
        ([[1, 2], [3, 4]], [[1, 0], [0, 1]], (0, 1)),                 # last pivot -2
        ([[0, 1, 2], [0, 2, 5]], [[0, 1, 0], [0, 0, 1]], (1, 2)),     # column 0 skipped
        ([[2, 3, 1], [4, 3, 0]], [[1, 0, f(-1, 2)], [0, 1, f(2, 3)]], (0, 1)),  # over 6
    ]
    for rows, literal, pivots in cases:
        m = QMat(rows)
        assert rref(m) == (QMat(literal), 2, pivots)
        assert kernel_basis(m) == Subspace.from_vectors(m.cols, oracle.kernel(m.entries, m.cols)[1])
        columns = oracle.rref(m.transpose().entries)[0]
        assert Subspace.from_vectors(m.rows, m.transpose().entries) == \
            Subspace.from_vectors(m.rows, columns)


def test_rref_matches_plain_gauss_jordan():
    rng = Random("rref-oracle")
    for _ in range(40):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = rand_mat(rng, rows, cols)
        reduced, rk, piv = rref(m)
        o_rows, o_rank, o_piv = oracle.rref(m.entries)
        assert rk == o_rank and list(piv) == o_piv
        assert [list(r) for r in reduced.entries] == o_rows + [[0] * m.cols] * (m.rows - o_rank)


def test_rref_rank_deficient_matches_oracle():
    # force rank deficiency and zero/duplicate columns to exercise the
    # column-skipping path of the fraction-free forward pass
    rng = Random("rref-deficient")
    for _ in range(40):
        rows, cols, inner = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 3)
        a = rand_mat(rng, rows, inner, -5, 5)
        b = rand_mat(rng, inner, cols, -5, 5)
        m = a * b
        perturbed = rng.random() < 0.5
        if perturbed:
            entries = [list(r) for r in m.entries]
            for r in entries:
                r[rng.randrange(cols)] = 0
            m = QMat(entries)
        reduced, rk, piv = rref(m)
        o_rows, o_rank, o_piv = oracle.rref(m.entries)
        assert rk == o_rank and list(piv) == o_piv
        assert [list(r) for r in reduced.entries] == o_rows + [[0] * m.cols] * (m.rows - o_rank)
        if not perturbed:
            assert rk <= inner


def test_rref_with_fractions():
    m = QMat([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    reduced, rk, _ = rref(m)
    assert rk == 1
    assert reduced.entries[0] == (Fraction(1), Fraction(2, 3))
    rng = Random("rref-fractions")
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = QMat([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(cols)]
                  for _ in range(rows)])
        reduced, rk, piv = rref(m)
        o_rows, o_rank, o_piv = oracle.rref(m.entries)
        assert rk == o_rank and list(piv) == o_piv
        assert [list(r) for r in reduced.entries] == o_rows + [[0] * m.cols] * (m.rows - o_rank)


def test_rref_shapes_match_oracle():
    # tall, wide, zero, rank-deficient and rational matrices of the sizes
    # transvectant matrices reach
    rng = Random("rref-shapes")

    def rational(rows, cols):
        return QMat([[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
                     for _ in range(rows)])

    cases = [zeros(rows, cols) for rows, cols in [(1, 1), (3, 5), (5, 3)]]
    for rows, cols in [(18, 9), (9, 18), (12, 12), (1, 10), (10, 1), (2, 9), (3, 20), (7, 72)]:
        inner = max(1, min(rows, cols) // 2)
        cases += [
            rand_mat(rng, rows, cols),
            rand_mat(rng, rows, inner) * rand_mat(rng, inner, cols),
            rational(rows, cols),
            rational(rows, inner) * rand_mat(rng, inner, cols),
        ]
    for m in cases:
        reduced, rk, piv = rref(m)
        o_rows, o_rank, o_piv = oracle.rref(m.entries)
        assert rk == o_rank and list(piv) == o_piv
        assert [list(r) for r in reduced.entries] == o_rows + [[0] * m.cols] * (m.rows - o_rank)


def test_kernel_examples():
    assert kernel_basis(QMat.identity(4)).dim == 0
    k = kernel_basis(QMat([[1, 1]]))
    assert k.dim == 1 and k.basis == QMat([[1, -1]])
    cases = [
        (zeros(2, 3), QMat.identity(3)),                                # kernel Q^3
        (QMat([[1, 2, 0], [0, 0, 1]]), QMat([[1, Fraction(-1, 2), 0]])),  # column 1 skipped
        (QMat([[1, 2], [3, 4], [5, 7]]), zeros(0, 2)),                  # full column rank
    ]
    for m, basis in cases:
        assert kernel_basis(m) == Subspace(m.cols, basis)
        assert kernel_basis(m) == Subspace.from_vectors(m.cols, oracle.kernel(m.entries, m.cols)[1])


def test_kernel_basis_runs_one_elimination(monkeypatch):
    calls = []

    def counted(work):
        calls.append(len(work))
        return _echelon(work)

    monkeypatch.setattr(linalg, "_echelon", counted)
    m = QMat([[1, 2, 0, 3, 1], [2, 4, 1, 6, 0], [3, 6, 1, 9, 1]])  # wide, rank 2
    assert kernel_basis(m).dim == 3
    assert calls == [3]


def test_kernel_basis_eliminates_the_half_turned_matrix(monkeypatch):
    # the turn does not show in the basis (the RREF ignores row order), only
    # in the time a banded m takes, so the matrix reaching _echelon is checked
    seen = []

    def recorded(work):
        seen.append([list(row) for row in work])
        return _echelon(work)

    monkeypatch.setattr(linalg, "_echelon", recorded)
    m = QMat([[1, 2, 0, 3, 1], [2, 4, 1, 6, 0], [3, 6, 1, 9, 1]])
    kernel_basis(m)
    assert seen == [[[m._num[m.rows - 1 - i][m.cols - 1 - j] for j in range(m.cols)]
                     for i in range(m.rows)]]


def test_tall_injective_map_takes_no_echelon(monkeypatch):
    # the rank-only pass decides injectivity; the zero kernel is stored as
    # the echelon route stores it: no rows, denominator 1
    def refuse(work):
        raise AssertionError("an injective map reached _echelon")

    monkeypatch.setattr(linalg, "_echelon", refuse)
    rng = Random("tall-injective")
    cases = [QMat([[1, 2], [3, 4], [5, 7]]), QMat.identity(4), QMat([[], []]), QMat([]),
             QMat([[6, 4], [0, 10], [15, 0]]),
             QMat([[Fraction(1, 2), 0], [0, Fraction(2, 3)], [1, 1]])]
    for rows, cols in [(9, 5), (12, 12), (18, 9), (30, 4)]:
        m = rand_mat(rng, rows, cols)
        scale = [rng.choice([1, 2, 6, -35]) for _ in range(rows)]
        cases.append(QMat([[k * x for x in row] for k, row in zip(scale, m.entries)]))
    for m in cases:
        assert m.rows >= m.cols and oracle.rank(m.entries) == m.cols
        ker = kernel_basis(m)
        assert ker == Subspace(m.cols, zeros(0, m.cols))
        assert (ker.ambient_dim, ker.basis._num, ker.basis._den, ker.basis.cols) == \
            (m.cols, (), 1, m.cols)


def test_tall_rank_deficient_map_eliminates_content_free_rows(monkeypatch):
    seen = []

    def recorded(work):
        seen.append([list(row) for row in work])
        return _echelon(work)

    monkeypatch.setattr(linalg, "_echelon", recorded)
    # 5 x 3 of rank 2, every row with a common factor but the last: its
    # rows reach _echelon reversed, each reversed and over its content
    m = QMat([[2, 4, 6], [3, 0, 3], [10, 5, 15], [0, 7, 7], [1, 1, 2]])
    assert oracle.rank(m.entries) == 2
    ker = kernel_basis(m)
    assert seen == [[[2, 1, 1], [1, 1, 0], [3, 1, 2], [1, 0, 1], [3, 2, 1]]]
    assert ker == Subspace(3, QMat([[1, 1, -1]]))
    assert ker == Subspace.from_vectors(3, oracle.kernel(m.entries, 3)[1])


def test_kernel_basis_matches_oracle_on_scaled_rows():
    # per-row factors survive QMat's reduction by the common one: each row
    # is divided by its own content before elimination
    rng = Random("kernel-scaled-rows")
    factors = [1, 1, -1, 2, 6, -15, 49, 2 ** 20, 3 ** 13]
    deficient = 0
    for _ in range(120):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if rng.random() < 0.5:   # rank at most inner, often one short of cols
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            m = rand_mat(rng, rows, inner, -5, 5) * rand_mat(rng, inner, cols, -5, 5)
        else:
            m = rand_mat(rng, rows, cols)
        scale = [rng.choice(factors) for _ in range(rows)]
        m = QMat([[k * x for x in row] for k, row in zip(scale, m.entries)])
        ker = kernel_basis(m)
        expected = Subspace.from_vectors(cols, oracle.kernel(m.entries, cols)[1])
        assert ker == expected, m
        deficient += rows >= cols and expected.dim > 0
    assert deficient >= 10


def test_matrices_without_rows_keep_their_width():
    # the null space of a 0 x n matrix is all of Q^n
    full = kernel_basis(zeros(0, 3))
    assert full.ambient_dim == 3 and full.dim == 3
    assert full == Subspace.from_vectors(3, QMat.identity(3).entries)
    assert kernel_basis(QMat([], 2)).dim == 2
    assert rref(zeros(0, 3))[0] == zeros(0, 3)
    assert Subspace.from_vectors(3, []) == Subspace(3, zeros(0, 3))
    assert zeros(0, 3).transpose() == zeros(3, 0)
    assert zeros(3, 0).transpose() == zeros(0, 3)
    assert QMat.from_columns([[], []]) == zeros(0, 2)
    assert zeros(2, 0) * zeros(0, 3) == zeros(2, 3)
    assert zeros(0, 2) * QMat([[1, 2, 3], [4, 5, 6]]) == zeros(0, 3)
    with pytest.raises(ValueError):
        zeros(0, 3) * QMat.identity(2)
    with pytest.raises(ValueError):
        Subspace(3, zeros(0, 2))
    assert singular_system([], 2).dim == 6


def _wide_cases(rng):
    """Wide matrices up to 7 x 72: random ones (almost surely of full row
    rank early), ones whose first 2 * rows columns are zero or repeat one
    column (the rank shows only late), and rank-deficient products."""
    cases = []
    for rows, cols in [(1, 3), (2, 9), (3, 20), (4, 30), (5, 48), (7, 56), (7, 72)]:
        head = 2 * rows
        tail = rand_mat(rng, rows, cols - head)
        column = [rng.randint(-9, 9) for _ in range(rows)]
        inner = rng.randint(1, rows - 1) if rows > 1 else 1
        cases += [
            rand_mat(rng, rows, cols),
            QMat([[0] * head + list(row) for row in tail.entries]),
            QMat([[x] * head + list(row) for x, row in zip(column, tail.entries)]),
            rand_mat(rng, rows, inner, -4, 4) * rand_mat(rng, inner, cols, -4, 4),
            zeros(rows, cols),
        ]
    return cases


def test_rank_nullity_randomized():
    rng = Random("rank-nullity")
    cases = [rand_mat(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(30)]
    for m in cases + _wide_cases(rng):
        # one oracle elimination per matrix: a kernel basis of the right size,
        # in the kernel and in canonical RREF, is the unique RREF of the kernel
        rk = oracle.rref(m.entries)[1]
        ker = kernel_basis(m)
        assert rank(m) == rk
        assert ker.ambient_dim == m.cols and ker.dim == m.cols - rk
        assert is_rref_basis(ker.basis)
        for v in ker.basis.entries:
            assert not any(oracle_matvec(m.entries, v))


class _Untouchable(int):
    """An int whose arithmetic and truth value raise: an entry that must not be read."""

    def _refuse(self, *args):
        raise AssertionError("an entry past full row rank was used")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __floordiv__ = __mod__ = __divmod__ = __rdivmod__ = __neg__ = __bool__ = _refuse


def test_rank_stops_at_full_row_rank():
    # full row rank within the first 6 columns: the other 34 are never read
    rng = Random("rank-early-stop")
    head = [[1] + [rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
    assert oracle.rank(head) == 3
    m = QMat._make([row + [_Untouchable(7)] * 34 for row in head], 1)
    assert any(type(x) is _Untouchable for x in m._num[0])
    assert rank(m) == 3
    # the last pivot in column 2: not even column 3 is read
    head = [[1, 0, 0], [0, 0, 2], [0, 3, 0]]
    m = QMat._make([row + [_Untouchable(7)] * 34 for row in head], 1)
    assert rank(m) == 3


def test_rank_of_tall_matrix_stops_at_full_column_rank():
    # the tall matrix is eliminated by its columns: rows past full column
    # rank are never read
    rng = Random("rank-tall-stop")
    head = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
    head[0][0] = 1
    while oracle.rank(head) < 4:
        head[rng.randrange(4)][rng.randrange(4)] = rng.randint(-9, 9)
    m = QMat._make(head + [[_Untouchable(7)] * 4 for _ in range(30)], 1)
    assert m.rows == 34 and any(type(x) is _Untouchable for x in m._num[-1])
    assert rank(m) == 4
    # full column rank in the first two rows of a 2-column matrix
    m = QMat._make([[0, 3], [2, 0]] + [[_Untouchable(7)] * 2 for _ in range(10)], 1)
    assert rank(m) == 2


def _cut(rows, bounds):
    """The column blocks of integer rows between consecutive bounds."""
    return [[row[lo:hi] for row in rows] for lo, hi in zip(bounds, bounds[1:])]


def test_block_fed_rank_matches_oracle():
    # a later block is appended in the rows' original order, whatever the swaps
    assert _rank(_cut([[0, 1], [1, 0], [0, 0]], (0, 1, 2))) == 2
    assert _rank(_cut([[0, 0, 1], [0, 1, 0], [1, 0, 0]], (0, 1, 2, 3))) == 3
    rng = Random("block-rank")
    swapped = 0
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 10)
        k = rng.randint(0, min(rows, cols))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
        m = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
             for i in range(rows)]
        if rng.random() < 0.5:   # leading zeros in the top row: a pivot swap comes early
            z = rng.randint(1, cols)
            m[0] = [0] * z + m[0][z:]
        bounds = sorted({0, cols, *rng.sample(range(1, cols + 1), rng.randint(0, cols))})
        swapped += len(bounds) > 2 and not m[0][0] and any(row[0] for row in m)
        assert _rank(_cut(m, bounds)) == oracle.rank(m), (m, bounds)
    assert swapped >= 20


def test_block_after_full_row_rank_is_never_pulled():
    def blocks(*given):
        yield from given
        raise AssertionError("a block past full row rank was built")

    assert _rank(blocks([[0, 1, 5], [1, 0, 7]])) == 2
    # a pivot swap in the first block, full row rank in the second
    assert _rank(blocks([[0], [1]], [[1], [0]])) == 2
    # a zero first block, full row rank in the third
    assert _rank(blocks([[0], [0]], [[1], [2]], [[3], [5]])) == 2


def test_span_invariant_under_row_ops():
    rng = Random("col-ops")
    for _ in range(20):
        n = rng.randint(2, 5)
        m = rand_mat(rng, n, rng.randint(2, 6))
        while True:
            g = rand_mat(rng, n, n, -4, 4)
            if det(g) != 0:
                break
        assert Subspace.from_vectors(m.cols, m.entries) == \
            Subspace.from_vectors(m.cols, (g * m).entries)


def test_subspace_ops():
    w = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
    for row in w.basis.entries:
        assert w.contains(row)
    assert w.contains([0, 0, 0])
    w1 = Subspace.from_vectors(2, [[1, 0], [0, 1]])
    w2 = Subspace.from_vectors(2, [[1, 1], [1, -1]])
    assert w1 == w2
    assert w1 != Subspace.from_vectors(3, [[1, 0, 0]])


def test_det_matches_cofactor_oracle():
    rng = Random("det-oracle")
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rand_mat(rng, n, n)
        assert det(m) == cofactor_det(m.entries)
    m = QMat([[Fraction(1, 2), 1], [1, Fraction(3, 2)]])
    assert det(m) == Fraction(1, 2) * Fraction(3, 2) - 1
    # the cases that the determinant's stop at the last pivot must get right
    assert det(QMat([])) == 1
    assert det(QMat([[-7]])) == -7 and det(QMat([[0]])) == 0
    late = swapped = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        # singular through the last column alone: a combination of the others
        coef = [rng.randint(-3, 3) for _ in range(n - 1)]
        singular = [row[:-1] + [sum(k * x for k, x in zip(coef, row))] for row in rows]
        late += rank(QMat([row[:-1] for row in singular])) == n - 1
        # a zero row
        zero_row = [row[:] for row in rows]
        zero_row[rng.randrange(n)] = [0] * n
        # leading zeros, most in the top rows: pivot swaps, so the sign counts
        stair = [[0] * (n - 1 - i) + row[n - 1 - i:] for i, row in enumerate(rows)]
        swapped += cofactor_det(stair) != 0
        for case in (singular, zero_row, stair):
            m = QMat(case)
            assert det(m) == cofactor_det(m.entries), case
        assert det(QMat(singular)) == 0 and det(QMat(zero_row)) == 0
    assert late >= 40 and swapped >= 40


def test_bareiss_exact_division_check_fires():
    work = [[2, 1], [3, 5], [4, 7]]

    def blocks():
        yield work
        work[2][0] += 1     # a stored multiplier, corrupted before the next block
        yield [[1], [1], [1]]

    with pytest.raises(ArithmeticError):
        _bareiss(blocks())


def test_rref_exact_division_check_fires(monkeypatch):
    # d_0 = 2 does not divide the last pivot D = 1: a corrupted entry of the
    # first echelon row leaves (D row_0 - row_0[p_1] N_1) / d_0 inexact
    def corrupted(blocks, complete=True):
        blocks = list(blocks)
        out = _bareiss(blocks, complete)
        blocks[0][0][2] += 1
        return out

    monkeypatch.setattr(linalg, "_bareiss", corrupted)
    with pytest.raises(ArithmeticError):
        rref(QMat([[2, 1, 0], [1, 1, 1]]))


def test_top_minors_examples():
    assert top_minors(QMat.identity(2)) == (Fraction(1),)
    m = QMat([[1, 0], [0, 1], [0, 0]])
    assert top_minors(m) == (Fraction(1), Fraction(0), Fraction(0))
    degenerate = QMat([[1, 2], [2, 4], [3, 6]])
    assert all(x == 0 for x in top_minors(degenerate))
    with pytest.raises(ValueError):
        top_minors(QMat([[1, 2, 3]]))


def test_top_minors_scale_by_det():
    rng = Random("plucker")
    for _ in range(20):
        cols = rng.randint(1, 3)
        rows = rng.randint(cols, 6)
        m = rand_mat(rng, rows, cols)
        while True:
            g = rand_mat(rng, cols, cols, -4, 4)
            if det(g) != 0:
                break
        scaled = top_minors(m * g)
        base = top_minors(m)
        d = det(g)
        assert scaled == tuple(d * x for x in base)


def test_top_minors_match_per_subset_det():
    from itertools import combinations
    rng = Random("top-minors-det")
    # C10's shapes (b + 1) x dim for b = 5, 7, 9 among them
    shapes = [(1, 1), (4, 1), (5, 2), (6, 3), (4, 4), (7, 3), (6, 5)]
    shapes += [(rows, cols) for rows in (6, 8) for cols in range(1, 6)] + [(10, 5)]
    for rows, cols in shapes:
        integer = rand_mat(rng, rows, cols)
        rational = QMat([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(cols)]
                         for _ in range(rows)])
        low_rank = integer * QMat([[1] * cols] + [[0] * cols] * (cols - 1))
        zero_column = QMat([row[:-1] + (0,) for row in rational.entries])
        repeated_row = QMat(rational.entries[:-1] + rational.entries[:1])
        zero_row = QMat(rational.entries[1:] + ((0,) * cols,))
        # a transposed RREF basis over its denominator, as C10 passes W
        rref_basis = Subspace.from_vectors(rows, rational.transpose().entries).basis.transpose()
        for m in (integer, rational, low_rank, zero_column, repeated_row, zero_row, rref_basis):
            expected = tuple(det(QMat([m.entries[i] for i in subset]))
                             for subset in combinations(range(rows), m.cols))
            assert top_minors(m) == expected
    assert top_minors(QMat([[], []])) == (Fraction(1),)
    assert top_minors(QMat([])) == (Fraction(1),)


def rand_rational_mat(rng, rows, cols):
    return QMat([[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
                 for _ in range(rows)])


def assert_canonical(m):
    """m holds integer row tuples over one den > 0, reduced, matching its entries."""
    num, den = m._num, m._den
    assert type(num) is tuple and all(type(row) is tuple for row in num)
    assert all(type(x) is int for row in num for x in row)
    assert type(den) is int and den > 0
    assert gcd(den, *(x for row in num for x in row)) == 1
    assert m.rows == len(num)
    assert all(len(row) == m.cols for row in num)
    assert all(type(x) is Fraction for row in m.entries for x in row)
    assert m.entries == tuple(tuple(Fraction(x, den) for x in row) for row in num)


def test_qmat_storage_invariants():
    rng = Random("qmat-storage")
    half = Fraction(1, 2)
    mats = [
        QMat([]), QMat([[], []]), zeros(0, 3), zeros(3, 0), zeros(2, 3),
        QMat.identity(0), QMat.identity(3),
        QMat([[half, -3], [Fraction(-4, 6), 0]]), QMat([[2, 4], [6, -8]]),
        QMat([[Fraction(2, 3), Fraction(4, 3)]]), QMat([[-7]]),
        QMat.from_columns([[1, half], [Fraction(-1, 3), 0], [4, 5]]), QMat.from_columns([]),
        rand_mat(rng, 4, 3), rand_rational_mat(rng, 3, 5),
    ]
    derived = []
    for m in mats:
        derived += [m.transpose(), 2 * m, m * Fraction(-3, 4), 0 * m, rref(m)[0]]
        if m.cols:
            derived.append(m * rand_rational_mat(rng, m.cols, 2))
        derived.append(Subspace.from_vectors(m.cols, m.entries).basis if m.rows else m)
    derived += [QMat.identity(2) * zeros(2, 3), Subspace.from_vectors(4, []).basis,
                Subspace.from_vectors(3, [[half, 0, -1], [1, 0, -2], [0, Fraction(2, 7), 0]]).basis]
    everything = mats + derived
    for m in everything:
        assert_canonical(m)
    # equality and hashing are those of the shape and entries, whatever the route
    same = [QMat([[1, 2], [3, 4]]) * half, QMat([[half, 1], [Fraction(3, 2), 2]]),
            QMat.from_columns([[half, Fraction(3, 2)], [1, 2]]),
            QMat([[2, 4], [6, 8]]) * Fraction(1, 4)]
    for a, b in product(everything + same, repeat=2):
        assert (a == b) == ((a.cols, a.entries) == (b.cols, b.entries))
        if a == b:
            assert hash(a) == hash(b)
    assert len(set(same)) == 1
    # a matrix without rows keeps its width, however it was built
    assert zeros(0, 3) == QMat([], 3) != QMat([]) and zeros(0, 3).cols == 3
    assert hash(zeros(0, 3)) != hash(zeros(0, 2))
    assert zeros(3, 0) == QMat([[], [], []]) != QMat([])
    assert repr(QMat([[half, -2]])) == "QMat([['1/2', '-2']])"
    assert repr(zeros(0, 3)) == "QMat([], cols=3)" != repr(QMat([]))
    with pytest.raises(ValueError):
        QMat([[1, 2], [3]])


def test_floats_are_refused_at_the_rational_boundary():
    # 0.5 is exact in binary, so refusing it is about the type, not the value
    from biforms import RING_XY, BinaryForm, GroupPair, MPoly, from_binomial_coeffs
    w = Subspace.from_vectors(2, [[1, 0]])
    px = MPoly.variable(RING_XY, "X")
    refusals = (lambda: QMat([[1, 0.5]]), lambda: BinaryForm.from_coeff_vector(1, [0.5, 1]),
                lambda: GroupPair(((0.5, 0), (0, 1)), ((1, 0), (0, 1))),
                lambda: w.residual([1, 0.5]), lambda: QMat([[1]]) * 0.5,
                lambda: 0.5 * BinaryForm.parse("X"), lambda: from_binomial_coeffs(1, [0.5, 1]),
                lambda: MPoly(RING_XY, {(1, 0): 0.5}), lambda: MPoly.constant(RING_XY, 0.5),
                lambda: px * 0.5, lambda: 0.5 * px, lambda: px.scale(0.5), lambda: px + 0.5,
                lambda: px.evaluate([0.5, 1]))
    for build in refusals:
        with pytest.raises(TypeError, match="0.5"):
            build()
    # ints, bools, Fractions and the strings QMat's repr prints still go in
    half = Fraction(1, 2)
    assert QMat([[True, half]]) == QMat([[1, "1/2"]]) == QMat([[2, 1]]) * half
    assert half * QMat([[2, 1]]) == QMat([[1, half]])
    x = BinaryForm.parse("X")
    assert 2 * x == BinaryForm.parse("2*X") == 4 * (half * x)
    assert BinaryForm.from_coeff_vector(1, [half, False]) == BinaryForm.parse("1/2*X")
    assert w.residual([True, half]) == (0, half)
    assert GroupPair(((half, 0), (0, True)), ((1, 0), (0, 1))).g1 == QMat([[half, 0], [0, 1]])
    assert MPoly(RING_XY, {(1, 0): half}) == px * "1/2" == half * px == px.scale(Fraction(2, 4))
    assert MPoly.constant(RING_XY, True) == MPoly(RING_XY, {(0, 0): 1})
    assert (px * px).evaluate([half, 1]) == Fraction(1, 4) == px.evaluate(["1/4", 0])


def test_products_match_fraction_oracle():
    rng = Random("qmat-products")
    for _ in range(60):
        rows, inner, cols = rng.randint(1, 5), rng.randint(0, 5), rng.randint(1, 5)
        make = rand_rational_mat if rng.random() < 0.6 else rand_mat
        m, n = make(rng, rows, inner), make(rng, inner, cols)
        entries = [list(r) for r in m.entries]
        assert [list(r) for r in (m * n).entries] == oracle_matmul(entries, n.entries)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert (c * m).entries == (m * c).entries == tuple(tuple(c * x for x in r) for r in entries)
        with pytest.raises(ValueError):
            m * zeros(inner + 1, 2)


def test_residual_and_contains_match_fraction_oracle():
    rng = Random("subspace-residual")
    for _ in range(40):
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        w = Subspace.from_vectors(n, rand_rational_mat(rng, k, n).entries if k else [])
        basis = [list(r) for r in w.basis.entries]
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in basis]
        inside = [sum((c * x for c, x in zip(coeffs, col)), Fraction(0))
                  for col in zip(*basis)] if basis else [0] * n
        outside = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        for v in (inside, outside, [0] * n, [rng.randint(-9, 9) for _ in range(n)]):
            expected = oracle_residual(basis, v)
            assert w.residual(v) == expected
            assert w.contains(v) == (not any(expected))
        assert w.contains(inside)
        with pytest.raises(ValueError):
            w.residual([0] * (n + 1))
