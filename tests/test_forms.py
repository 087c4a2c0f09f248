from fractions import Fraction
from random import Random

import pytest

from biforms import (
    BiForm,
    BinaryForm,
    MPoly,
    TernaryForm,
    binomial_coeffs,
    from_binomial_coeffs,
    parse_form,
    binary_basis,
    biform_basis,
    tensor_product,
    ternary_basis,
    RING_BI,
    RING_XY,
    RING_XYZ,
)
from biforms.forms import embed_first, embed_second, extract_first, extract_second
from biforms.sampling import random_binary_form
from helpers import oracle_biform_basis, oracle_binary_basis, oracle_ternary_basis


# (class, degree, a form of that degree, a wrong degree, a negative degree,
#  an inhomogeneous text, a poly in another ring)
FORM_CASES = [
    (BinaryForm, 3, "X^2*Y - 2*Y^3", 2, -1, "X^2 + X", MPoly.variable(RING_XYZ, "Z")),
    (BiForm, (1, 2), "X1*Y2^2 + 5*Y1*X2^2", (2, 1), (1, -1), "X1*Y2^2 + X1^2*Y2^2",
     MPoly.variable(RING_XY, "X")),
    (TernaryForm, 2, "X^2 - 3/2*Y*Z", 3, -2, "X^2 + Y^3", MPoly.variable(RING_BI, "X1")),
]


def test_homogeneity_guards():
    for cls, degree, text, wrong, negative, inhomogeneous, foreign in FORM_CASES:
        f = cls.parse(text)
        assert cls(degree, f.poly) == f
        for bad in (
            lambda: cls(wrong, f.poly),
            lambda: cls(degree, foreign),
            lambda: cls.from_poly(foreign),
            lambda: cls.zero(negative),
            lambda: cls.from_coeff_vector(negative, []),
            lambda: cls.parse(inhomogeneous),
            lambda: cls(degree, parse_form(inhomogeneous, cls.ring)),
            lambda: cls.from_coeff_vector(degree, f.coeff_vector()[:-1]),
            lambda: cls.from_coeff_vector(degree, f.coeff_vector() + (1,)),
            lambda: cls.parse("0"),
            lambda: cls.from_poly(MPoly.zero(cls.ring)),
        ):
            with pytest.raises(ValueError):
                bad()


def test_zero_form_keeps_degree():
    z = BinaryForm.zero(5)
    assert z.degree == 5 and z.is_zero()
    assert len(z.coeff_vector()) == 6
    assert BiForm.zero((2, 3)).bidegree == (2, 3)


def test_binomial_coeffs_examples():
    f = BinaryForm.parse("10*X^3*Y^3", degree=6)
    alphas = binomial_coeffs(f)
    assert alphas[3] == Fraction(1, 2)
    assert all(a == 0 for i, a in enumerate(alphas) if i != 3)
    d = 7
    xd = BinaryForm.parse("X^7")
    assert binomial_coeffs(xd)[d] == 1
    g = BinaryForm.parse("3*X^5*Y", degree=6)
    assert binomial_coeffs(g)[5] == Fraction(1, 2)


def test_binomial_roundtrip_all_degrees():
    rng = Random("binomial")
    for d in range(13):
        f = random_binary_form(rng, d)
        assert from_binomial_coeffs(d, binomial_coeffs(f)) == f
        alphas = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1)]
        assert binomial_coeffs(from_binomial_coeffs(d, alphas)) == alphas


def test_coeff_vector_roundtrip():
    f = BiForm.parse("X1*Y2^2 + 5*Y1*X2^2")
    assert BiForm.from_coeff_vector((1, 2), f.coeff_vector()) == f
    for cls, degree, text, *_ in FORM_CASES:
        for g in (cls.parse(text), cls.zero(degree)):
            vec = g.coeff_vector()
            assert cls.from_coeff_vector(degree, vec) == g
            assert hash(cls.from_coeff_vector(degree, vec)) == hash(g)


def test_bases_match_explicit_loops():
    for d in range(11):
        assert binary_basis(d) == oracle_binary_basis(d)
        assert ternary_basis(d) == oracle_ternary_basis(d)
        for e in range(11):
            assert biform_basis(d, e) == oracle_biform_basis(d, e)


def test_embed_extract():
    p = BinaryForm.parse("X^2 - 3*X*Y")
    assert extract_first(embed_first(p)) == p
    assert extract_second(embed_second(p)) == p
    t = tensor_product(p, BinaryForm.parse("Y^3"))
    assert t.bidegree == (2, 3)
    assert t.poly.coefficient((2, 0, 0, 3)) == 1
    assert t.poly.coefficient((1, 1, 0, 3)) == -3


def test_pq_split():
    f = BiForm.parse("X1*X2^3*Y2^3 + Y1*(X2^4*Y2^2 + X2^2*Y2^4)")
    p, q = f.pq()
    assert p == BinaryForm.parse("X^3*Y^3")
    assert q == BinaryForm.parse("X^4*Y^2 + X^2*Y^4")
    assert BiForm.from_pq(p, q) == f


def test_form_arithmetic_guards():
    with pytest.raises(ValueError):
        BinaryForm.parse("X^2") + BinaryForm.parse("X^3")
    assert 2 * BinaryForm.parse("X^2") == BinaryForm.parse("2*X^2")
