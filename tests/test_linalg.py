from fractions import Fraction
from random import Random

import pytest

from biforms import (
    QMat,
    Subspace,
    column_space,
    det,
    kernel_basis,
    rank,
    rref,
    top_minors,
)

from helpers import oracle_det, oracle_rref


def rand_mat(rng, rows, cols, lo=-9, hi=9):
    return QMat([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_rref_examples():
    eye = QMat.identity(3)
    reduced, rk, piv = rref(eye)
    assert reduced == eye and rk == 3 and piv == (0, 1, 2)
    z = QMat.zero(2, 3)
    assert rref(z) == (z, 0, ())
    reduced, rk, piv = rref(QMat([[1, 2], [2, 4]]))
    assert reduced == QMat([[1, 2], [0, 0]]) and rk == 1 and piv == (0,)


def test_rref_matches_plain_gauss_jordan():
    rng = Random("rref-oracle")
    for _ in range(40):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = rand_mat(rng, rows, cols)
        reduced, rk, piv = rref(m)
        o_rows, o_rank, o_piv = oracle_rref([list(r) for r in m.entries])
        assert rk == o_rank and list(piv) == o_piv
        assert [list(r) for r in reduced.entries] == o_rows


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
        o_rows, o_rank, o_piv = oracle_rref([list(r) for r in m.entries])
        assert rk == o_rank and list(piv) == o_piv
        assert [list(r) for r in reduced.entries] == o_rows
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
        o_rows, o_rank, o_piv = oracle_rref([list(r) for r in m.entries])
        assert rk == o_rank and list(piv) == o_piv
        assert [list(r) for r in reduced.entries] == o_rows


def test_rref_shapes_match_oracle():
    # tall, wide, zero, rank-deficient and rational matrices of the sizes
    # transvectant matrices reach
    rng = Random("rref-shapes")

    def rational(rows, cols):
        return QMat([[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
                     for _ in range(rows)])

    cases = [QMat.zero(rows, cols) for rows, cols in [(1, 1), (3, 5), (5, 3)]]
    for rows, cols in [(18, 9), (9, 18), (12, 12), (1, 10), (10, 1)]:
        inner = max(1, min(rows, cols) // 2)
        cases += [
            rand_mat(rng, rows, cols),
            rand_mat(rng, rows, inner) * rand_mat(rng, inner, cols),
            rational(rows, cols),
            rational(rows, inner) * rand_mat(rng, inner, cols),
        ]
    for m in cases:
        reduced, rk, piv = rref(m)
        o_rows, o_rank, o_piv = oracle_rref([list(r) for r in m.entries])
        assert rk == o_rank and list(piv) == o_piv
        assert [list(r) for r in reduced.entries] == o_rows


def test_kernel_examples():
    assert kernel_basis(QMat.identity(4)).dim == 0
    k = kernel_basis(QMat([[1, 1]]))
    assert k.dim == 1 and k.basis == QMat([[1, -1]])


def test_rank_nullity_randomized():
    rng = Random("rank-nullity")
    for _ in range(30):
        m = rand_mat(rng, rng.randint(1, 8), rng.randint(1, 8))
        ker = kernel_basis(m)
        assert rank(m) + ker.dim == m.cols
        for v in ker.basis.entries:
            assert all(x == 0 for x in m.matvec(v))


def test_column_space_examples():
    assert column_space(QMat.identity(3)).dim == 3
    assert column_space(QMat.zero(3, 2)).dim == 0
    w = column_space(QMat([[1], [2]]))
    assert w.dim == 1 and w.contains([1, 2]) and not w.contains([1, 3])


def test_column_space_invariant_under_column_ops():
    rng = Random("col-ops")
    for _ in range(20):
        n = rng.randint(2, 5)
        m = rand_mat(rng, rng.randint(2, 6), n)
        while True:
            g = rand_mat(rng, n, n, -4, 4)
            if det(g) != 0:
                break
        assert column_space(m) == column_space(m * g)


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
        assert det(m) == oracle_det([list(r) for r in m.entries])
    m = QMat([[Fraction(1, 2), 1], [1, Fraction(3, 2)]])
    assert det(m) == Fraction(1, 2) * Fraction(3, 2) - 1


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
