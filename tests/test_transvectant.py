import importlib
import re
from fractions import Fraction
from random import Random

import pytest

from biforms import (
    BiForm,
    BinaryForm,
    QMat,
    apolar_diffop,
    bitransvectant,
    cg_components,
    kernel_basis,
    rank,
    specialized_1s,
    tensor_product,
    transvectant,
    transvectant_matrix,
)
from biforms.checks import PAIRING_14, PAIRING_18, REFERENCE_12, SLICE_WITNESS_16
from biforms.forms import biform_basis
from biforms.sampling import random_biform, random_binary_form

from helpers import (
    oracle,
    oracle_apolar_diffop,
    oracle_transvectant_matrix,
    times,
    to_dict,
    to_form,
)

# the module, not the function of the same name that the package exports
KERNEL = importlib.import_module("biforms.transvectant")


def test_transvectant_examples():
    p = BinaryForm.parse("X^2 + X*Y")
    q = BinaryForm.parse("Y^2 - X^2")
    assert transvectant(p, q, 0) == times(p, q)
    assert transvectant(BinaryForm.parse("X"), BinaryForm.parse("Y"), 1) == \
        BinaryForm.parse("1", degree=0)
    t = transvectant(BinaryForm.parse("X^2*Y^6"), BinaryForm.parse("X^4"), 2)
    assert t == BinaryForm.parse("360*X^4*Y^4")
    with pytest.raises(ValueError):
        transvectant(p, q, 3)


def test_transvectant_against_monomial_oracle():
    rng = Random("transvectant-oracle")
    for _ in range(60):
        d, e = rng.randint(1, 7), rng.randint(1, 7)
        r = rng.randint(0, min(d, e))
        p = random_binary_form(rng, d)
        q = random_binary_form(rng, e)
        # integer operands, then rational ones: q over e + 1 as C04 scales it
        rational = (Fraction(rng.randint(1, 9), rng.randint(2, 7)) * p, Fraction(1, e + 1) * q)
        for p, q in [(p, q), rational]:
            expected = oracle.transvectant_pairs(to_dict(p), to_dict(q), (r,))
            assert transvectant(p, q, r) == to_form(BinaryForm, d + e - 2 * r, expected)


def test_symmetry_and_bilinearity():
    rng = Random("symmetry")
    for _ in range(50):
        d, e = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(d, e))
        p = random_binary_form(rng, d)
        q = random_binary_form(rng, e)
        t = transvectant(p, q, r)
        assert transvectant(q, p, r) == (-1) ** r * t
        assert t.degree == d + e - 2 * r
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        p0 = random_binary_form(rng, d)
        assert transvectant(alpha * p + p0, q, r) == alpha * t + transvectant(p0, q, r)


def _refuse(*args):
    raise AssertionError(f"called with {args}")


def test_apolar_does_not_read_the_cayley_weights(monkeypatch):
    # C04 compares apolar_diffop with the Cayley kernel, so it must not share its weights
    monkeypatch.setattr(KERNEL, "_weights", _refuse)
    p, q = BinaryForm.parse("X^3 - 2*X*Y^2 + 5*Y^3"), BinaryForm.parse("X*Y - Y^2")
    expected = oracle_apolar_diffop(to_dict(p), to_dict(q))
    assert apolar_diffop(p, q) == to_form(BinaryForm, 1, expected)
    with pytest.raises(AssertionError):
        transvectant(p, q, 2)


# (name, form type, lhs, rhs, r, s, words): the work estimate of `biforms transvect`
_CAYLEY_WORDS = [
    ("cayley-work", BinaryForm, "X^2000*Y^2000", "X^2000*Y^2000", 2000, 0, 4_694_346),
    ("vanishing-cayley-terms", BinaryForm, "X^4300", "Y^4300", 4300, 0, 5_445),
    ("binary", BinaryForm, "X^3 - 2*X*Y^2 + 5*Y^3", "X*Y - Y^2", 2, 0, 12),
    # X1*X2^2*Y2^6 visits first-pair order 0 only
    ("some-orders-unvisited", BiForm, "X1*X2^2*Y2^6 + Y1*X2^6*Y2^2", "X1*Y2^4 + Y1*X2^4",
     1, 2, 12),
    ("long-coefficients", BiForm,
     "123456789012345678901234567890*X1^2*X2^3 - 7/3*X1*Y1*Y2^3 + Y1^2*X2*Y2^2",
     "X1*X2^4 + 99999999999999999999*Y1*Y2^4", 1, 3, 36),
    ("order-out-of-range", BiForm, "X1*X2^2 + Y1*Y2^2", "X1*X2 - Y1*Y2", 2, 1, 0),
]


@pytest.mark.parametrize("kind, lhs, rhs, r, s, words", [case[1:] for case in _CAYLEY_WORDS],
                         ids=[case[0] for case in _CAYLEY_WORDS])
def test_cayley_words_pinned(kind, lhs, rhs, r, s, words):
    assert KERNEL._cayley_words(kind.parse(lhs), kind.parse(rhs), r, s) == words


def test_cayley_words_computes_no_weight(monkeypatch):
    # the estimate is checked before the kernel runs, so it must not compute or cache a weight
    for name in ("_weights", "perm", "comb"):
        monkeypatch.setattr(KERNEL, name, _refuse)
    f = BinaryForm.parse("X^2000*Y^2000")
    assert KERNEL._cayley_words(f, f, 2000, 0) == 4_694_346


def test_apolar_examples():
    assert apolar_diffop(BinaryForm.parse("X^2"), BinaryForm.parse("Y")) == \
        BinaryForm.parse("2*X")
    p = BinaryForm.parse("X^3 - 2*X*Y^2")
    one = BinaryForm.parse("1", degree=0)
    assert apolar_diffop(p, one) == p
    with pytest.raises(ValueError):
        apolar_diffop(BinaryForm.parse("X"), BinaryForm.parse("X^2"))


def test_apolar_ratio_is_one_for_all_degree_pairs():
    # frozen constant table: the extreme transvectant and the differential
    # substitution route agree on the nose for every (d, d') with d' <= d
    rng = Random("apolar-table")
    for d in range(1, 7):
        for e in range(1, d + 1):
            for _ in range(50):
                p = random_binary_form(rng, d)
                q = random_binary_form(rng, e)
                assert apolar_diffop(p, q) == transvectant(p, q, e)


def test_apolar_matches_oracle():
    rng = Random("apolar-oracle")
    cases = [(BinaryForm.parse("X^2"), BinaryForm.parse("Y")),
             (BinaryForm.parse("1/2*X^3 - 2/3*Y^3"), BinaryForm.parse("3", degree=0)),
             (BinaryForm.zero(4), BinaryForm.parse("X*Y")),
             (BinaryForm.parse("X^4 + Y^4"), BinaryForm.zero(2)),
             # e = 0, e = d (down to d = 0), q without middle terms, unlike denominators
             (BinaryForm.parse("2/3*X^5 - X^2*Y^3 + 7/4*Y^5"), BinaryForm.parse("5/6", degree=0)),
             (BinaryForm.parse("1/2*X^3 + X*Y^2 - 5/3*Y^3"), BinaryForm.parse("2/5*X^3 - 1/7*Y^3")),
             (BinaryForm.parse("3/4", degree=0), BinaryForm.parse("-2/9", degree=0)),
             (BinaryForm.parse("X^6 - 2/3*X^3*Y^3 + 5*Y^6"), BinaryForm.parse("X^4 - 3/2*Y^4")),
             (BinaryForm.parse("1/3*X^2*Y - 5/4*Y^3"), BinaryForm.parse("2/5*X*Y - 7/9*Y^2"))]
    for _ in range(200):
        d = rng.randint(0, 7)
        p, q = random_binary_form(rng, d), random_binary_form(rng, rng.randint(0, d))
        cases.append((Fraction(rng.randint(1, 9), rng.randint(1, 9)) * p,
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * q))
    for p, q in cases:
        expected = oracle_apolar_diffop(to_dict(p), to_dict(q))
        assert apolar_diffop(p, q) == to_form(BinaryForm, p.degree - q.degree, expected)


def test_bitransvectant_examples():
    h = BiForm.parse("X1*X2^2*Y2^6 + Y1*X2^6*Y2^2")
    hp = BiForm.parse("X1*Y2^4 + Y1*X2^4")
    assert bitransvectant(h, hp, 1, 2).is_zero()
    f = BiForm.parse("X1*X2 + Y1*Y2")
    g = BiForm.parse("X1*Y2 - Y1*X2")
    assert bitransvectant(f, g, 0, 0) == times(f, g)
    t = bitransvectant(BiForm.parse("X1*X2"), BiForm.parse("Y1*Y2"), 1, 1)
    assert t == BiForm.parse("1", (0, 0))
    with pytest.raises(ValueError):
        bitransvectant(f, g, 2, 0)


def test_bitransvectant_antisymmetry():
    rng = Random("bi-antisym")
    for _ in range(30):
        a, b = rng.randint(1, 2), rng.randint(1, 5)
        a2, b2 = rng.randint(1, 2), rng.randint(1, 5)
        r = rng.randint(0, min(a, a2))
        s = rng.randint(0, min(b, b2))
        f = random_biform(rng, a, b)
        g = random_biform(rng, a2, b2)
        assert bitransvectant(g, f, r, s) == (-1) ** (r + s) * bitransvectant(f, g, r, s)
    # odd total order on equal arguments kills the form
    for b in range(2, 7):
        f = random_biform(rng, 1, b)
        assert bitransvectant(f, f, 1, 2).is_zero()


def test_factorization_on_decomposables():
    rng = Random("factorization")
    for _ in range(40):
        a, a2 = rng.randint(0, 3), rng.randint(0, 3)
        b, b2 = rng.randint(0, 6), rng.randint(0, 6)
        r = rng.randint(0, min(a, a2))
        s = rng.randint(0, min(b, b2))
        p1, p2 = random_binary_form(rng, a), random_binary_form(rng, b)
        q1, q2 = random_binary_form(rng, a2), random_binary_form(rng, b2)
        lhs = bitransvectant(tensor_product(p1, p2), tensor_product(q1, q2), r, s)
        rhs = tensor_product(transvectant(p1, q1, r), transvectant(p2, q2, s))
        assert lhs == rhs


def test_out_of_range_orders_are_refused():
    # each order above the smaller degree of its pair (not the larger) or below 0
    f, g = BiForm.parse("X1^2*X2 + Y1^2*Y2"), BiForm.parse("X1*X2^3 - Y1*Y2^3")
    for r, s, message in [(2, 0, "first-pair order 2 out of range for (2, 1)"),
                          (-1, 0, "first-pair order -1 out of range for (2, 1)"),
                          (0, 2, "second-pair order 2 out of range for (1, 3)"),
                          (0, -1, "second-pair order -1 out of range for (1, 3)")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            bitransvectant(f, g, r, s)
        with pytest.raises(ValueError, match=re.escape(message)):
            transvectant_matrix(f, r, s, g.bidegree)
    with pytest.raises(ValueError, match=re.escape("first-pair order 2 out of range for (3, 1)")):
        transvectant(BinaryForm.parse("X^3"), BinaryForm.parse("X + Y"), 2)
    with pytest.raises(ValueError, match=re.escape("second-pair order 3 out of range for (2, 4)")):
        specialized_1s(BiForm.parse("X1*X2^2"), BiForm.parse("Y1*Y2^4"), 3)


def test_specialized_1s_examples():
    f = BiForm.parse("X1*X2^2*Y2^6 + Y1*X2^6*Y2^2")
    g = BiForm.parse("X1*Y2^4 + Y1*X2^4")
    assert specialized_1s(f, g, 2).is_zero()
    t = specialized_1s(BiForm.parse("X1*X2^2"), BiForm.parse("Y1*Y2^2"), 2)
    assert t == BiForm.parse("4", (0, 0))
    # total order 1 + s is odd for even s, so the pairing of f with itself dies
    assert specialized_1s(f, f, 2).is_zero()
    assert specialized_1s(f, f, 4).is_zero()
    with pytest.raises(ValueError):
        specialized_1s(BiForm.parse("X1^2*X2^2"), g, 1)


def test_specialized_1s_agrees_with_double_sum():
    rng = Random("aa1")
    for _ in range(100):
        b, b2 = rng.randint(0, 8), rng.randint(0, 8)
        s = rng.randint(0, min(b, b2))
        f = random_biform(rng, 1, b)
        g = random_biform(rng, 1, b2)
        assert specialized_1s(f, g, s) == bitransvectant(f, g, 1, s)


def test_transvectant_matrix_examples():
    h0 = BiForm.parse("X1*X2^3*Y2^3 + Y1*(X2^4*Y2^2 + X2^2*Y2^4)")
    m = transvectant_matrix(h0, 1, 2, (1, 2))
    assert (m.rows, m.cols) == (5, 6)
    assert rank(m) == 5
    assert kernel_basis(m).dim == 1
    h = BiForm.parse("X1*X2^2*Y2^6 + Y1*X2^6*Y2^2")
    assert rank(transvectant_matrix(h, 1, 2, (1, 4))) == 9
    z = transvectant_matrix(BiForm.zero((1, 6)), 1, 2, (1, 2))
    assert all(x == 0 for row in z.entries for x in row)


def test_transvectant_matrix_columns_match_direct_evaluation():
    rng = Random("matrix-columns")
    f = random_biform(rng, 1, 4)
    m = transvectant_matrix(f, 1, 1, (1, 2))
    for j, exps in enumerate(biform_basis(1, 2)):
        e = to_form(BiForm, (1, 2), {exps: Fraction(1)})
        assert tuple(row[j] for row in m.entries) == bitransvectant(f, e, 1, 1).coeff_vector()


def _oracle_cases():
    """(f, g, r, s) on a seeded grid: every order pair from (0, 0) to the
    maximum, integer, rational, zero and single-monomial operands."""
    rng = Random("cayley-oracle")

    def operand(a, b):
        kind = rng.randrange(5)
        if kind == 0:
            return BiForm.zero((a, b))
        if kind == 1:
            return BiForm.from_coeff_vector((a, b), [
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in biform_basis(a, b)])
        if kind == 2:
            # one term, so f's orders too run over a single nonzero range
            vec = [0] * len(biform_basis(a, b))
            vec[rng.randrange(len(vec))] = Fraction(rng.randint(1, 9), rng.randint(1, 6))
            return BiForm.from_coeff_vector((a, b), vec)
        return random_biform(rng, a, b)

    for _ in range(40):
        a, a2 = rng.randint(0, 2), rng.randint(0, 2)
        b, b2 = rng.randint(0, 5), rng.randint(0, 5)
        f, g = operand(a, b), operand(a2, b2)
        for r in range(min(a, a2) + 1):
            for s in range(min(b, b2) + 1):
                yield f, g, r, s


def _oracle_bitransvectant(f, g, r, s):
    (a, b), (a2, b2) = f.bidegree, g.bidegree
    terms = oracle.transvectant_pairs(to_dict(f), to_dict(g), (r, s))
    return to_form(BiForm, (a + a2 - 2 * r, b + b2 - 2 * s), terms)


def _oracle_matrix(f, r, s, source):
    return QMat(oracle_transvectant_matrix(to_dict(f), f.bidegree, r, s, source))


def test_bitransvectant_matches_oracle():
    for f, g, r, s in _oracle_cases():
        assert bitransvectant(f, g, r, s) == _oracle_bitransvectant(f, g, r, s)
    h, hp = BiForm.parse(PAIRING_18), BiForm.parse(PAIRING_14)
    for x, y in [(h, hp), (hp, h), (h, h), (BiForm.parse(SLICE_WITNESS_16), BiForm.parse(REFERENCE_12))]:
        for r, s in [(0, 0), (1, 0), (0, 2), (1, 2)]:
            assert bitransvectant(x, y, r, s) == _oracle_bitransvectant(x, y, r, s)


def test_transvectant_matrix_matches_oracle():
    for f, g, r, s in _oracle_cases():
        source = g.bidegree
        assert transvectant_matrix(f, r, s, source) == _oracle_matrix(f, r, s, source)
    # the paper fixtures with the source bidegrees of their T_(1,2) pairings
    for text, source in [(PAIRING_18, (1, 4)), (SLICE_WITNESS_16, (1, 2)),
                         (PAIRING_14, (1, 8)), (REFERENCE_12, (1, 6))]:
        f = BiForm.parse(text)
        assert transvectant_matrix(f, 1, 2, source) == _oracle_matrix(f, 1, 2, source)


def test_cg_components():
    assert cg_components(6, 2) == [8, 6, 4]
    assert cg_components(5, 0) == [5]
    assert cg_components(4, 4) == [8, 6, 4, 2, 0]
    for d in range(0, 11):
        for e in range(0, 11):
            assert sum(k + 1 for k in cg_components(d, e)) == (d + 1) * (e + 1)


def test_warm_cayley_computes_no_falling_factorial(monkeypatch):
    rng = Random("warm-cayley")
    p, q = random_binary_form(rng, 5), random_binary_form(rng, 4)
    f, g = random_biform(rng, 2, 5), random_biform(rng, 1, 4)

    def calls():
        return (transvectant(p, q, 2), bitransvectant(f, g, 1, 2),
                transvectant_matrix(f, 1, 2, (1, 4)))

    cold = calls()
    monkeypatch.setattr(KERNEL, "perm", _refuse)
    monkeypatch.setattr(KERNEL, "comb", _refuse)
    assert calls() == cold


def test_cold_weight_cache_keeps_the_sides_apart():
    # f's signed row and an operand's unsigned row of one (y, x, r) are two
    # cache entries: from a cleared cache, each pair of calls below meets
    # such a key on one side first and then on the other, in both orders
    rng = Random("cold-cache")
    for _ in range(40):
        a, b = rng.randint(0, 2), rng.randint(0, 5)
        r, s = rng.randint(0, a), rng.randint(0, b)
        f, g = random_biform(rng, a, b), random_biform(rng, a, b)
        p, q = random_binary_form(rng, b), random_binary_form(rng, b)
        for pair in [(f, g), (g, f)]:
            KERNEL._weights.cache_clear()
            for x, y in (pair, pair[::-1]):
                assert bitransvectant(x, y, r, s) == _oracle_bitransvectant(x, y, r, s)
        for pair in [(p, q), (q, p)]:
            KERNEL._weights.cache_clear()
            for x, y in (pair, pair[::-1]):
                expected = oracle.transvectant_pairs(to_dict(x), to_dict(y), (s,))
                assert transvectant(x, y, s) == to_form(BinaryForm, 2 * b - 2 * s, expected)
