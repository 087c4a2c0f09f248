from fractions import Fraction
from math import factorial
from random import Random

import pytest

from biforms import (
    BiForm,
    BinaryForm,
    G3Element,
    GroupPair,
    LiePair,
    Subspace,
    TernaryForm,
    act,
    act_binary,
    act_on_subspace,
    act_ternary,
    bitransvectant,
    det_scalar,
    lie_act,
    matrix_of_binary_action,
    projective_stabilizer_dim,
    subspace_stabilizer_dim,
    tensor_product,
    ternary_basis,
    weight_of,
)
from biforms.actions import SL2_F, SL2_H
from biforms.checks import FREENESS_GRID
from biforms.poly import MPoly, RING_BI
from biforms.sampling import (
    random_biform,
    random_binary_form,
    random_group_pair,
    random_invertible2,
    random_lie_pair,
    random_sl_pair,
    random_subspace,
)
from helpers import (
    oracle_projective_stabilizer_dim,
    oracle_subspace_stabilizer_dim,
    pair_text,
)

IDENT = ((1, 0), (0, 1))
MINUS = ((-1, 0), (0, -1))
SWAP = ((0, 1), (1, 0))


def test_act_examples():
    f = BiForm.parse("X1^2*X2 - Y1^2*Y2")
    g = GroupPair(MINUS, MINUS)
    a, b = f.bidegree
    assert act(g, f) == (-1) ** (a + b) * f
    # second-factor center is invisible on even second degree
    h = BiForm.parse("X1*X2^2 + Y1*Y2^2")
    assert act(GroupPair(IDENT, MINUS), h) == h
    c = BiForm.parse("X1*Y2^2 + Y1*X2^2")
    assert act(GroupPair(SWAP, SWAP), c) == c


def test_group_pair_is_sl_flag():
    assert GroupPair(IDENT, MINUS).is_sl
    assert not GroupPair(((2, 0), (0, 1)), IDENT).is_sl
    swapped = GroupPair(SWAP, IDENT)
    assert not swapped.is_sl  # det -1


def test_act_is_group_action():
    rng = Random("group-action")
    for _ in range(20):
        f = random_biform(rng, rng.randint(1, 2), rng.randint(1, 4))
        g = random_group_pair(rng)
        h = random_group_pair(rng)
        assert act(g * h, f) == act(g, act(h, f))
        assert act(GroupPair.identity(), f) == f
    with pytest.raises(ValueError):
        GroupPair(((1, 0), (0, 0)), IDENT)


def test_act_ternary_examples():
    cyc = G3Element.substitution([(0, 1, 0), (0, 0, 1), (1, 0, 0)])  # X->Y->Z->X
    assert act_ternary(cyc, TernaryForm.parse("X^2*Y")) == TernaryForm.parse("Y^2*Z")
    eye = G3Element([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    f = TernaryForm.parse("X*Y*Z + X^3")
    assert act_ternary(eye, f) == f
    diag = G3Element([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert act_ternary(diag, TernaryForm.parse("X*Y*Z")) == TernaryForm.parse("30*X*Y*Z")


def test_act_matches_binary_action_on_tensor_products():
    rng = Random("tensor-action")
    for _ in range(20):
        p = random_binary_form(rng, rng.randint(0, 3))
        q = random_binary_form(rng, rng.randint(0, 4))
        g1, g2 = random_invertible2(rng), random_invertible2(rng)
        assert act(GroupPair(g1, g2), tensor_product(p, q)) == tensor_product(
            act_binary(g1, p), act_binary(g2, q))
    with pytest.raises(ValueError):
        lie_act(LiePair(SL2_H, SL2_H), p)
    with pytest.raises(ValueError):
        act_ternary(G3Element([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), tensor_product(p, q))


def _random_g3(rng):
    while True:
        try:
            return G3Element([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        except ValueError:  # singular
            continue


def test_act_ternary_is_group_action():
    rng = Random("ternary-action")
    for _ in range(15):
        d = rng.randint(0, 4)
        basis = ternary_basis(d)
        f = TernaryForm.from_coeff_vector(d, [rng.randint(-5, 5) for _ in basis])
        g, h = _random_g3(rng), _random_g3(rng)
        gh = G3Element([[sum(g.mat[i][k] * h.mat[k][j] for k in range(3)) for j in range(3)]
                        for i in range(3)])
        assert act_ternary(gh, f) == act_ternary(g, act_ternary(h, f))


def test_lie_act_examples():
    f = BiForm.parse("X1^2*X2^3")
    h1 = LiePair(SL2_H, ((0, 0), (0, 0)))
    assert lie_act(h1, f) == 2 * f
    f2 = BiForm.parse("X1*X2^4")
    lower = LiePair(((0, 0), (0, 0)), SL2_F)  # Y d/dX on the second pair
    assert lie_act(lower, f2) == BiForm.parse("4*X1*X2^3*Y2")
    zero = LiePair(((0, 0), (0, 0)), ((0, 0), (0, 0)))
    assert lie_act(zero, f).is_zero()
    with pytest.raises(ValueError):
        LiePair(((1, 0), (0, 0)), ((0, 0), (0, 0)))


def test_lie_bracket_compatibility():
    rng = Random("bracket")
    for _ in range(15):
        f = random_biform(rng, 2, 3)
        x = random_lie_pair(rng)
        y = random_lie_pair(rng)
        lhs = lie_act(x.bracket(y), f)
        rhs = lie_act(x, lie_act(y, f)) - lie_act(y, lie_act(x, f))
        assert lhs == rhs


def test_lie_leibniz():
    rng = Random("leibniz")
    for _ in range(10):
        x = random_lie_pair(rng)
        f = random_biform(rng, 1, 2)
        g = random_biform(rng, 1, 3)
        prod = BiForm((2, 5), f.poly * g.poly)
        lhs = lie_act(x, prod)
        rhs = BiForm((2, 5), lie_act(x, f).poly * g.poly + f.poly * lie_act(x, g).poly)
        assert lhs == rhs


def test_exp_of_nilpotent_matches_act():
    rng = Random("exp")
    for _ in range(10):
        k1, k2 = rng.randint(-3, 3), rng.randint(-3, 3)
        upper_first = rng.random() < 0.5
        x1 = ((0, k1), (0, 0)) if upper_first else ((0, 0), (k1, 0))
        x2 = ((0, 0), (k2, 0)) if upper_first else ((0, k2), (0, 0))
        x = LiePair(x1, x2)
        g = GroupPair(
            ((1 + Fraction(0), x1[0][1]), (x1[1][0], 1 + Fraction(0))),
            ((1 + Fraction(0), x2[0][1]), (x2[1][0], 1 + Fraction(0))),
        )
        f = random_biform(rng, 2, 3)
        total = BiForm.zero(f.bidegree)
        term = f
        k = 0
        while not term.is_zero():
            total = total + Fraction(1, factorial(k)) * term
            term = lie_act(x, term)
            k += 1
        assert act(g, f) == total


def test_projective_stabilizer_examples():
    mono = BiForm.parse("X1^2*X2^5")
    assert projective_stabilizer_dim(mono) >= 2
    rng = Random("stab-25")
    f = random_biform(rng, 2, 5)
    assert projective_stabilizer_dim(f) == 0
    c = BiForm.parse("X1*Y2^2 + Y1*X2^2")
    assert projective_stabilizer_dim(c) == 1
    with pytest.raises(ValueError):
        projective_stabilizer_dim(BiForm.zero((1, 2)))


def test_subspace_stabilizer_examples():
    b = 6
    highest = Subspace.from_vectors(b + 1, [[1] + [0] * b])
    assert subspace_stabilizer_dim(highest) == 2
    rng = Random("stab-sub")
    assert subspace_stabilizer_dim(random_subspace(rng, 6, 2)) == 0   # 2-dim in V_5
    assert subspace_stabilizer_dim(random_subspace(rng, 7, 3)) == 0   # 3-dim in V_6
    with pytest.raises(ValueError):
        subspace_stabilizer_dim(Subspace.zero(5))


def test_stabilizer_dims_match_oracle_on_freeness_grid():
    rng = Random("stab-oracle-grid")
    for (a, b) in FREENESS_GRID:
        f = random_biform(rng, a, b)
        for form in (f, Fraction(2, 7) * f):
            assert projective_stabilizer_dim(form) == oracle_projective_stabilizer_dim(form) == 0
        # RREF bases of random subspaces carry non-integer entries
        w = random_subspace(rng, b + 1, a + 1)
        assert subspace_stabilizer_dim(w) == oracle_subspace_stabilizer_dim(w) == 0


def _torus_eigenform(rng, a, b, step):
    """Monomials on the line k2 = step*k1 of Y-exponents: an eigenform of step*H1 - H2."""
    terms = {(a - k1, k1, b - step * k1, step * k1): Fraction(rng.choice([-3, 1, 2, 5]), 3)
             for k1 in range(a + 1) if step * k1 <= b}
    return BiForm((a, b), MPoly(RING_BI, terms))


def test_projective_stabilizer_matches_oracle_on_special_orbits():
    rng = Random("stab-oracle-special")
    for b in (2, 3, 5, 6):
        ref = BiForm.parse(f"X1*Y2^{b} + Y1*X2^{b}")
        assert projective_stabilizer_dim(ref) == oracle_projective_stabilizer_dim(ref) == 1
        for _ in range(2):
            moved = act(random_group_pair(rng), ref)
            assert projective_stabilizer_dim(moved) == oracle_projective_stabilizer_dim(moved) == 1
    for (a, b) in [(1, 3), (2, 4), (2, 5), (3, 6)]:
        # decomposables: the dimension is that of the factors' stabilizers
        p, q = random_binary_form(rng, a), random_binary_form(rng, b)
        decomposable = BiForm.parse(pair_text(p, "1") + "*" + pair_text(q, "2"))
        assert projective_stabilizer_dim(decomposable) == \
            oracle_projective_stabilizer_dim(decomposable)
        # torus eigenforms and their translates are fixed by a torus
        eigen = [BiForm.parse(f"X1^{a}*X2^{b}")]
        for step in range(1, b // a + 1):
            form = _torus_eigenform(rng, a, b, step)
            eigen += [form, act(random_sl_pair(rng), form)]
        for f in eigen:
            dim = projective_stabilizer_dim(f)
            assert dim == oracle_projective_stabilizer_dim(f) and dim >= 1


def test_subspace_stabilizer_matches_oracle_on_special_subspaces():
    rng = Random("stab-oracle-subspace")
    for b in (3, 5, 6, 8):
        for dim in range(1, b + 1):
            picks = sorted(rng.sample(range(b + 1), dim))
            units = [[int(j == i) for j in range(b + 1)] for i in picks]
            mono = Subspace.from_vectors(b + 1, units)
            moved = act_on_subspace(random_invertible2(rng), mono)
            for w in (mono, moved):
                got = subspace_stabilizer_dim(w)
                assert got == oracle_subspace_stabilizer_dim(w) and got >= 1


def test_det_scalar_examples():
    rng = Random("det-scalar")
    g = GroupPair(IDENT, MINUS)
    w = random_subspace(rng, 6, 3)          # 3-dim subspace of V_5
    assert det_scalar(g, w) == -1
    assert det_scalar(GroupPair.identity(), w) == 1
    w2 = random_subspace(rng, 6, 2)
    assert det_scalar(g, w2) == 1
    # non-invariant subspace is rejected
    shear = GroupPair(IDENT, ((1, 1), (0, 1)))
    bad = Subspace.from_vectors(6, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    with pytest.raises(ValueError):
        det_scalar(shear, bad)


def test_weight_of_examples():
    torus = (0, 2, 0, 1)
    v4 = BiForm.parse("Y1*Y2^6")
    assert weight_of(v4, torus, -4) == 4
    v0 = BiForm.parse("X1*X2^2*Y2^4 + Y1*X2^4*Y2^2")
    assert weight_of(v0, torus, -4) == 0
    f = BiForm.parse("X1*X2 + Y1*Y2")
    assert weight_of(f, (0, 0, 0, 0), 0) == 0
    assert weight_of(f, torus, 0) is None  # mixed weights


def test_matrix_of_binary_action():
    rng = Random("action-matrix")
    from biforms.sampling import random_invertible2
    for b in (2, 5):
        g = random_invertible2(rng)
        a_mat = matrix_of_binary_action(g, b)
        f = BinaryForm.from_coeff_vector(b, [rng.randint(-9, 9) for _ in range(b + 1)])
        assert a_mat.matvec(f.coeff_vector()) == act_binary(g, f).coeff_vector()


def test_transvectant_equivariance():
    rng = Random("equivariance")
    for _ in range(50):
        g = random_sl_pair(rng)
        a, a2 = rng.randint(1, 2), rng.randint(1, 2)
        b, b2 = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(a, a2))
        s = rng.randint(0, min(b, b2))
        f = random_biform(rng, a, b)
        h = random_biform(rng, a2, b2)
        assert bitransvectant(act(g, f), act(g, h), r, s) == \
            act(g, bitransvectant(f, h, r, s))


def test_center_scalar_bookkeeping():
    from biforms.forms import biform_basis
    from biforms.poly import MPoly, RING_BI
    for a in range(0, 9):
        for b in range(0, 9):
            for exps in biform_basis(a, b):
                mono = BiForm((a, b), MPoly(RING_BI, {exps: Fraction(1)}))
                assert act(GroupPair(MINUS, IDENT), mono) == (-1) ** a * mono
                assert act(GroupPair(IDENT, MINUS), mono) == (-1) ** b * mono


def test_act_on_subspace_consistency():
    rng = Random("subspace-action")
    from biforms.sampling import random_invertible2
    w = random_subspace(rng, 6, 3)
    g = random_invertible2(rng)
    acted = act_on_subspace(g, w)
    for v in w.basis.entries:
        f = BinaryForm.from_coeff_vector(5, v)
        assert acted.contains(act_binary(g, f).coeff_vector())
    assert acted.dim == w.dim
