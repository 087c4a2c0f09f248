import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial
from random import Random

import pytest

from biforms import (
    BiForm,
    BinaryForm,
    G3Element,
    GroupPair,
    LiePair,
    QMat,
    Subspace,
    TernaryForm,
    act,
    act_ternary,
    bitransvectant,
    det_scalar,
    lie_act,
    lie_act_binary,
    matrix_of_binary_action,
    projective_stabilizer_dim,
    subspace_stabilizer_dim,
    tensor_product,
    ternary_basis,
    weight_of,
)
from biforms import linalg
from biforms.actions import SL2_F, SL2_H
from biforms.checks import FREENESS_GRID, run_check
from biforms.sampling import random_biform, random_binary_form, random_sl_pair, random_subspace
from helpers import (
    like,
    oracle,
    oracle_act_on_subspace,
    oracle_action_rows,
    oracle_commutator,
    oracle_det_scalar,
    oracle_lie_act,
    oracle_matvec,
    pair_text,
    random_group_pair,
    random_invertible2,
    random_lie_pair,
    random_traceless,
    rows,
    times,
    to_dict,
    to_form,
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


def test_act_is_group_action():
    rng = Random("group-action")
    for _ in range(20):
        f = random_biform(rng, rng.randint(1, 2), rng.randint(1, 4))
        g = random_group_pair(rng)
        h = random_group_pair(rng)
        assert act(g * h, f) == act(g, act(h, f))
        assert act(GroupPair(IDENT, IDENT), f) == f
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


def _oracle_act_binary(g, p):
    """The binary form p acted on by one 2x2 matrix g, through oracle.act_binary."""
    return like(p, oracle.act_binary(to_dict(p), rows(g)))


def test_act_matches_binary_action_on_tensor_products():
    rng = Random("tensor-action")
    for _ in range(20):
        p = random_binary_form(rng, rng.randint(0, 3))
        q = random_binary_form(rng, rng.randint(0, 4))
        g1, g2 = random_invertible2(rng), random_invertible2(rng)
        assert act(GroupPair(g1, g2), tensor_product(p, q)) == tensor_product(
            _oracle_act_binary(g1, p), _oracle_act_binary(g2, q))
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
        gh = G3Element(g.mat * h.mat)
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
        bracket = LiePair(oracle_commutator(rows(x.x1), rows(y.x1)),
                          oracle_commutator(rows(x.x2), rows(y.x2)))
        lhs = lie_act(bracket, f)
        rhs = lie_act(x, lie_act(y, f)) - lie_act(y, lie_act(x, f))
        assert lhs == rhs


def test_lie_leibniz():
    rng = Random("leibniz")
    for _ in range(10):
        x = random_lie_pair(rng)
        f = random_biform(rng, 1, 2)
        g = random_biform(rng, 1, 3)
        lhs = lie_act(x, times(f, g))
        rhs = times(lie_act(x, f), g) + times(f, lie_act(x, g))
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
        subspace_stabilizer_dim(Subspace.from_vectors(5, []))


def _oracle_projective_stabilizer_dim(f):
    return oracle.projective_stabilizer_dim(to_dict(f), oracle.biform_basis(*f.bidegree))


def _oracle_subspace_stabilizer_dim(w):
    return oracle.subspace_stabilizer_dim(rows(w.basis), w.ambient_dim - 1)


def test_stabilizer_dims_match_oracle_on_freeness_grid():
    rng = Random("stab-oracle-grid")
    for (a, b) in FREENESS_GRID:
        f = random_biform(rng, a, b)
        for form in (f, Fraction(2, 7) * f):
            assert projective_stabilizer_dim(form) == _oracle_projective_stabilizer_dim(form) == 0
        # RREF bases of random subspaces carry non-integer entries
        w = random_subspace(rng, b + 1, a + 1)
        assert subspace_stabilizer_dim(w) == _oracle_subspace_stabilizer_dim(w) == 0


def _torus_eigenform(rng, a, b, step):
    """Monomials on the line k2 = step*k1 of Y-exponents: an eigenform of step*H1 - H2."""
    terms = {(a - k1, k1, b - step * k1, step * k1): Fraction(rng.choice([-3, 1, 2, 5]), 3)
             for k1 in range(a + 1) if step * k1 <= b}
    return to_form(BiForm, (a, b), terms)


def test_projective_stabilizer_matches_oracle_on_special_orbits():
    rng = Random("stab-oracle-special")
    for b in (2, 3, 5, 6):
        ref = BiForm.parse(f"X1*Y2^{b} + Y1*X2^{b}")
        assert projective_stabilizer_dim(ref) == _oracle_projective_stabilizer_dim(ref) == 1
        for _ in range(2):
            moved = act(random_group_pair(rng), ref)
            assert projective_stabilizer_dim(moved) == _oracle_projective_stabilizer_dim(moved) == 1
    for (a, b) in [(1, 3), (2, 4), (2, 5), (3, 6)]:
        # decomposables: the dimension is that of the factors' stabilizers
        p, q = random_binary_form(rng, a), random_binary_form(rng, b)
        decomposable = BiForm.parse(pair_text(p, "1") + "*" + pair_text(q, "2"))
        assert projective_stabilizer_dim(decomposable) == \
            _oracle_projective_stabilizer_dim(decomposable)
        # torus eigenforms and their translates are fixed by a torus
        eigen = [BiForm.parse(f"X1^{a}*X2^{b}")]
        for step in range(1, b // a + 1):
            form = _torus_eigenform(rng, a, b, step)
            eigen += [form, act(random_sl_pair(rng), form)]
        for f in eigen:
            dim = projective_stabilizer_dim(f)
            assert dim == _oracle_projective_stabilizer_dim(f) and dim >= 1


def test_subspace_stabilizer_matches_oracle_on_special_subspaces():
    rng = Random("stab-oracle-subspace")
    for b in (3, 5, 6, 8):
        for dim in range(1, b + 1):
            picks = sorted(rng.sample(range(b + 1), dim))
            units = [[int(j == i) for j in range(b + 1)] for i in picks]
            mono = Subspace.from_vectors(b + 1, units)
            g = random_invertible2(rng)
            moved = Subspace.from_vectors(b + 1, oracle_act_on_subspace(g, rows(mono.basis), b))
            for w in (mono, moved):
                got = subspace_stabilizer_dim(w)
                assert got == _oracle_subspace_stabilizer_dim(w) and got >= 1


def _stabilizer_systems(monkeypatch):
    """Wrap linalg._bareiss; the returned list gets, for each 7-row forward
    pass stopped at full rank (a form's stabilizer system), (columns read,
    entries built, blocks pulled)."""
    seen = []
    bareiss = linalg._bareiss

    def recorded(blocks, complete=True):
        sizes, rows = [], []

        def pulled():
            for block in blocks:
                rows.append(len(block))
                sizes.append(sum(map(len, block)))   # before a later block extends its rows
                yield block
        pivots, sign = bareiss(pulled(), complete)
        if not complete and rows[0] == 7:
            read = pivots[-1] + 1 if len(pivots) == 7 else sum(sizes) // 7
            seen.append((read, sum(sizes), len(sizes)))
        return pivots, sign

    monkeypatch.setattr(linalg, "_bareiss", recorded)
    return seen


def test_form_stabilizer_reads_seven_columns_on_the_freeness_grid(monkeypatch):
    # the column plan reaches rank 7 in its first block, whose 7 columns are
    # all that is read or built; the second block is never pulled
    seen = _stabilizer_systems(monkeypatch)
    rng = Random("stab-plan-grid")
    for (a, b) in FREENESS_GRID:
        for f in (random_biform(rng, a, b), Fraction(3, 5) * random_biform(rng, a, b)):
            assert projective_stabilizer_dim(f) == 0
            assert seen.pop() == (7, 49, 1), (a, b)
    assert not seen


def test_c09_pass_work_counts(monkeypatch):
    # natural column order read 10,721 columns and built 107,100 entries here
    seen = _stabilizer_systems(monkeypatch)
    assert run_check("C09", 0).status == "pass"
    assert len(seen) == 1100
    assert sum(read for read, _, _ in seen) == 7700
    assert sum(built for _, built, _ in seen) == 53900
    assert {pulled for _, _, pulled in seen} == {1}


EDGE_SHAPES = [(a, b) for a in range(4) for b in range(5)] + [(1, 10), (2, 10)]


def _edge_forms(rng, a, b):
    """Random, monomial, torus-eigen and decomposable forms of bidegree (a, b),
    each monomial or eigenform also moved by a random group pair."""
    forms = [random_biform(rng, a, b), random_biform(rng, a, b)]
    special = [to_form(BiForm, (a, b), {(a - k1, k1, b - k2, k2): 1})
               for k1, k2 in sorted({(0, 0), (a, b), (a // 2, b // 2), (a, 0)})]
    for step in range(1, b // a + 1) if a else ():
        special.append(_torus_eigenform(rng, a, b, step))
    forms.append(tensor_product(random_binary_form(rng, a), random_binary_form(rng, b)))
    return forms + special + [act(random_group_pair(rng), f) for f in special]


def test_projective_stabilizer_matches_oracle_on_edge_shapes():
    # missing slices (a = 0), fewer than 7 columns, and the rest block of a
    # rank-deficient system, at every small bidegree and two long ones
    rng = Random("stab-oracle-edge")
    for (a, b) in EDGE_SHAPES:
        for f in _edge_forms(rng, a, b):
            assert projective_stabilizer_dim(f) == _oracle_projective_stabilizer_dim(f), (a, b, f)


def test_subspace_stabilizer_matches_oracle_on_small_monomial_subspaces():
    rng = Random("stab-oracle-small-subspace")
    with pytest.raises(ValueError):   # V_0 has no proper nonzero subspace
        subspace_stabilizer_dim(Subspace.from_vectors(1, [[1]]))
    for b in (1, 2):
        for dim in range(1, b + 1):
            for picks in itertools.combinations(range(b + 1), dim):
                units = [[int(j == i) for j in range(b + 1)] for i in picks]
                mono = Subspace.from_vectors(b + 1, units)
                g = random_invertible2(rng)
                moved = Subspace.from_vectors(b + 1, oracle_act_on_subspace(g, rows(mono.basis), b))
                for w in (mono, moved):
                    got = subspace_stabilizer_dim(w)
                    assert got == _oracle_subspace_stabilizer_dim(w) and got >= 1, (b, picks)


def test_det_scalar_examples():
    rng = Random("det-scalar")
    g = GroupPair(IDENT, MINUS)
    w = random_subspace(rng, 6, 3)          # 3-dim subspace of V_5
    assert det_scalar(g, w) == -1
    assert det_scalar(GroupPair(IDENT, IDENT), w) == 1
    w2 = random_subspace(rng, 6, 2)
    assert det_scalar(g, w2) == 1
    # non-invariant subspace is rejected
    shear = GroupPair(IDENT, ((1, 1), (0, 1)))
    bad = Subspace.from_vectors(6, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    with pytest.raises(ValueError):
        det_scalar(shear, bad)


def _invariant_pairs(rng, b):
    """(g2, W) with W a subspace of V_b that g2 maps into itself: the centre on
    any W, a rational torus element on monomial W, an upper shear on the span
    of the first monomials and a lower shear on the span of the last ones."""
    n = b + 1
    t = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
    dim = rng.randint(1, n)
    units = sorted(rng.sample(range(n), dim))
    return [
        (MINUS, random_subspace(rng, n, rng.randint(0, n))),
        (((t, 0), (0, Fraction(rng.randint(1, 9), rng.randint(1, 9)))),
         Subspace.from_vectors(n, [[int(j == i) for j in range(n)] for i in units])),
        (((1, t), (0, 1)), Subspace.from_vectors(n, [[int(j == i) for j in range(n)]
                                                     for i in range(dim)])),
        (((1, 0), (t, -1)), Subspace.from_vectors(n, [[int(j == i) for j in range(n)]
                                                      for i in range(n - dim, n)])),
    ]


def _oracle_det_scalar(g, w):
    return oracle_det_scalar(rows(g.g2), rows(w.basis), w.ambient_dim - 1)


def test_det_scalar_matches_oracle():
    rng = Random("det-scalar-oracle")
    for b in range(0, 9):
        for g2, w in _invariant_pairs(rng, b):
            g = GroupPair(random_invertible2(rng), g2)
            assert det_scalar(g, w) == _oracle_det_scalar(g, w)
        w = random_subspace(rng, b + 1, rng.randint(1, b)) if b > 1 else None
        if w is not None:
            # a random subspace is not invariant under a random matrix
            g = GroupPair(IDENT, random_invertible2(rng))
            for route in (det_scalar, _oracle_det_scalar):
                with pytest.raises(ValueError):
                    route(g, w)
    assert det_scalar(GroupPair(IDENT, MINUS), Subspace.from_vectors(4, [])) == 1


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
    for b in (2, 5):
        g = random_invertible2(rng)
        a_mat = matrix_of_binary_action(g, b)
        f = BinaryForm.from_coeff_vector(b, [rng.randint(-9, 9) for _ in range(b + 1)])
        assert oracle_matvec(rows(a_mat), f.coeff_vector()) == \
            _oracle_act_binary(g, f).coeff_vector()


# integer, diagonal, swap, two shears, negative entries, and rational matrices
ORACLE_MATRICES = (
    IDENT, MINUS, SWAP, ((2, 0), (0, -3)), ((1, 4), (0, 1)), ((1, 0), (-3, 1)),
    ((-2, -7), (5, -1)), ((Fraction(5, 2), 1), (Fraction(1, 3), -2)),
    ((Fraction(1, 3), 0), (4, Fraction(5, 2))),
)


def _oracle_forms(rng, form_type, degree, basis):
    """Zero, two single monomials (one rational) and two dense forms (one rational)."""
    pick = [rng.randrange(len(basis)) for _ in range(2)]
    vectors = [[0] * len(basis),
               [int(i == pick[0]) for i in range(len(basis))],
               [Fraction(-5, 2) * (i == pick[1]) for i in range(len(basis))],
               [rng.randint(-9, 9) for _ in basis],
               [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in basis]]
    return [form_type.from_coeff_vector(degree, v) for v in vectors]


def test_act_matches_oracle():
    rng = Random("act-oracle")
    for a in range(4):
        for b in range(9):
            basis = BiForm.zero((a, b)).coeff_vector()
            for f in _oracle_forms(rng, BiForm, (a, b), basis):
                pairs = [GroupPair(rng.choice(ORACLE_MATRICES), rng.choice(ORACLE_MATRICES)),
                         random_group_pair(rng)]
                for g in pairs:
                    expected = oracle.act_pair(to_dict(f), rows(g.g1), rows(g.g2))
                    assert act(g, f) == like(f, expected)


def test_act_binary_and_matrix_match_oracle():
    # column k of the matrix is oracle.act_binary of the k-th monomial
    rng = Random("act-binary-oracle")
    for d in range(9):
        mats = [*ORACLE_MATRICES, random_invertible2(rng), random_invertible2(rng)]
        for g in mats:
            assert matrix_of_binary_action(g, d) == QMat(oracle_action_rows(rows(g), d))
    with pytest.raises(ValueError):
        matrix_of_binary_action(((1, 2), (2, 4)), 3)
    with pytest.raises(ValueError):
        act(GroupPair(IDENT, IDENT), BinaryForm.zero(2))
    # the degree is an int >= 0 and not a bool, as a form's degree is
    for b in (-1, 1.5, True):
        with pytest.raises(ValueError):
            matrix_of_binary_action(IDENT, b)
    # V_b needs b >= 0, so a subspace of Q^0 has no det_scalar
    with pytest.raises(ValueError):
        det_scalar(GroupPair(IDENT, IDENT), Subspace.from_vectors(0, []))


UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# C13's scalings and torus elements
C13_ELEMENTS = tuple(G3Element(m) for m in (
    [[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 2]], [[Fraction(1, 3), 0, 0], [0, 1, 0], [0, 0, 3]],
    [[2, 0, 0], [0, 3, 0], [0, 0, Fraction(5, 7)]], [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 4]]))


def _ternary_images(g):
    """oracle.substitute's images for the rows g of a 3x3 matrix: the j-th
    variable goes to sum_i g[i][j] * (the i-th variable)."""
    return [{u: g[i][j] for i, u in enumerate(UNITS) if g[i][j]} for j in range(3)]


def test_act_ternary_matches_oracle():
    rng = Random("ternary-oracle")
    permutations = [G3Element.substitution([UNITS[i] for i in p])
                    for p in itertools.permutations(range(3))]
    rational = G3Element([[Fraction(2, 3), -1, 0], [4, Fraction(-1, 5), 2], [1, 0, Fraction(7, 2)]])
    for d in range(6):
        basis = ternary_basis(d)
        elements = [*permutations, *C13_ELEMENTS, rational, _random_g3(rng), _random_g3(rng)]
        for f in _oracle_forms(rng, TernaryForm, d, basis):
            for g in elements:
                expected = oracle.substitute(to_dict(f), _ternary_images(rows(g.mat)), 3)
                assert act_ternary(g, f) == like(f, expected)
    with pytest.raises(ValueError):
        act_ternary(rational, BinaryForm.zero(2))


def _act_on_c10_pattern(rng, elements):
    """elements[0] on every monomial and on one dense rational form of each
    bidegree up to (4, 8), C10's access pattern, with elements[1] and
    elements[2] taking every other form in turn, each against oracle.act_pair;
    the matrix of each element's g2 on V_b against oracle_action_rows.
    Returns the (G, d) keys of the acting matrices."""
    keys = set()
    for a in range(5):
        for b in range(9):
            n = (a + 1) * (b + 1)
            vectors = [[int(i == k) for i in range(n)] for k in range(n)]
            vectors.append([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
            for k, v in enumerate(vectors):
                f = BiForm.from_coeff_vector((a, b), v)
                for g in (elements[0], elements[1 + k % 2]):
                    expected = oracle.act_pair(to_dict(f), rows(g.g1), rows(g.g2))
                    assert act(g, f) == like(f, expected)
                    keys |= {(g.g1._num, a), (g.g2._num, b)}
            for g in elements:
                assert matrix_of_binary_action(g.g2, b) == QMat(oracle_action_rows(rows(g.g2), b))
    return keys


def test_representation_cache_on_the_c10_pattern(monkeypatch):
    import biforms.actions as actions_mod
    cached = actions_mod._representation
    rng = Random("representation-cache")
    elements = (GroupPair(MINUS, IDENT), random_group_pair(rng),
                GroupPair(((Fraction(1, 2), 3), (0, Fraction(-2, 3))),
                          ((1, Fraction(1, 5)), (2, 1))))
    before = cached.cache_info()
    keys = _act_on_c10_pattern(rng, elements)
    after = cached.cache_info()
    assert after.hits - before.hits > 1000
    assert after.maxsize == 256 and after.currsize <= 256
    value = cached(((2, 1), (1, 1)), 3)
    assert type(value) is tuple
    assert all(type(c) is tuple and all(type(p) is tuple for p in c) for c in value)
    assert value is cached(((2, 1), (1, 1)), 3)
    # 2x2 and 3x3 keys of the same degree sit in the cache side by side
    g3 = ((2, -1, 0), (1, 3, 1), (0, 1, -2))
    for d in range(5):
        two, three = cached(((2, 1), (1, 1)), d), cached(g3, d)
        assert cached(((2, 1), (1, 1)), d) is two and cached(g3, d) is three
        matrix = oracle_action_rows([[2, 1], [1, 1]], d)
        assert [dict(c) for c in two] == [{j: row[k] for j, row in enumerate(matrix) if row[k]}
                                          for k in range(d + 1)]
        basis = ternary_basis(d)
        assert [{basis[j]: x for j, x in c} for c in three] == [
            oracle.substitute({e: 1}, _ternary_images(g3), 3) for e in basis]
    # bounded to 4 keys, the interleaved elements evict each other's columns,
    # which are rebuilt: more misses than keys
    small = lru_cache(maxsize=4)(cached.__wrapped__)
    monkeypatch.setattr(actions_mod, "_representation", small)
    _act_on_c10_pattern(rng, elements)
    info = small.cache_info()
    assert info.currsize == 4 and info.misses > len(keys) and info.hits


# zero, E, F, H and two rational traceless matrices
ORACLE_TRACELESS = (
    ((0, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, -1)),
    ((Fraction(5, 2), Fraction(-1, 3)), (4, Fraction(-5, 2))),
    ((Fraction(-2, 7), 3), (Fraction(1, 6), Fraction(2, 7))),
)


def test_lie_act_matches_oracle():
    rng = Random("lie-oracle")
    for a in range(4):
        for b in range(7):
            basis = BiForm.zero((a, b)).coeff_vector()
            for f in _oracle_forms(rng, BiForm, (a, b), basis):
                pairs = [LiePair(rng.choice(ORACLE_TRACELESS), rng.choice(ORACLE_TRACELESS)),
                         random_lie_pair(rng)]
                for x in pairs:
                    expected = oracle_lie_act(to_dict(f), [rows(x.x1), rows(x.x2)])
                    assert lie_act(x, f) == like(f, expected)
    for d in range(9):
        for f in _oracle_forms(rng, BinaryForm, d, BinaryForm.zero(d).coeff_vector()):
            for x in (*ORACLE_TRACELESS, random_traceless(rng)):
                assert lie_act_binary(x, f) == like(f, oracle_lie_act(to_dict(f), [rows(x)]))
    with pytest.raises(ValueError):
        lie_act_binary(((1, 0), (0, 1)), BinaryForm.zero(2))
    with pytest.raises(ValueError):
        lie_act_binary(((1, 0), (0, -1)), BiForm.zero((1, 1)))


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
    for a in range(0, 9):
        for b in range(0, 9):
            for exps in biform_basis(a, b):
                mono = to_form(BiForm, (a, b), {exps: Fraction(1)})
                assert act(GroupPair(MINUS, IDENT), mono) == (-1) ** a * mono
                assert act(GroupPair(IDENT, MINUS), mono) == (-1) ** b * mono
