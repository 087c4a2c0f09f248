from fractions import Fraction
from math import gcd
from random import Random

import pytest

from biforms import (
    BiForm,
    BinaryForm,
    TernaryForm,
    from_binomial_coeffs,
    parse_form,
    to_string,
    binary_basis,
    biform_basis,
    tensor_product,
    ternary_basis,
)
from biforms.sampling import random_binary_form
from helpers import oracle, oracle_binomial_coeffs, oracle_ternary_basis, to_dict, to_form


# (class, degree, a form of that degree, a wrong degree, a negative degree,
#  an inhomogeneous text, a variable of another ring)
FORM_CASES = [
    (BinaryForm, 3, "X^2*Y - 2*Y^3", 2, -1, "X^2 + X", "Z"),
    (BiForm, (1, 2), "X1*Y2^2 + 5*Y1*X2^2", (2, 1), (1, -1), "X1*Y2^2 + X1^2*Y2^2", "X"),
    (TernaryForm, 2, "X^2 - 3/2*Y*Z", 3, -2, "X^2 + Y^3", "X1"),
]


def test_homogeneity_guards():
    for cls, degree, text, wrong, negative, inhomogeneous, foreign in FORM_CASES:
        f = cls.parse(text)
        assert cls.parse(text, degree) == f == to_form(cls, degree, to_dict(f))
        for bad in (
            lambda: cls.parse(foreign),
            lambda: cls.zero(negative),
            lambda: cls.from_coeff_vector(negative, []),
            lambda: cls.parse(text, negative),
            lambda: cls.from_coeff_vector(degree, f.coeff_vector()[:-1]),
            lambda: cls.from_coeff_vector(degree, f.coeff_vector() + (1,)),
        ):
            with pytest.raises(ValueError):
                bad()
        for bad in (lambda: cls.parse(text, wrong), lambda: cls.parse(inhomogeneous),
                    lambda: cls.parse(inhomogeneous, degree)):
            with pytest.raises(ValueError, match="is not of degree"):
                bad()
        with pytest.raises(ValueError, match="zero polynomial needs an explicit degree"):
            cls.parse("0")
        assert cls.parse("0", degree) == cls.zero(degree)


def test_negative_degrees_have_empty_bases():
    assert binary_basis(-2) == biform_basis(-2, 0) == biform_basis(1, -1) == ternary_basis(-3) == []


def test_zero_form_keeps_degree():
    z = BinaryForm.zero(5)
    assert z.degree == 5 and z.is_zero()
    assert len(z.coeff_vector()) == 6
    assert BiForm.zero((2, 3)).bidegree == (2, 3)


def test_binomial_coeffs_examples():
    half = Fraction(1, 2)
    assert from_binomial_coeffs(6, [0, 0, 0, half, 0, 0, 0]) == BinaryForm.parse("10*X^3*Y^3")
    assert from_binomial_coeffs(7, [0] * 7 + [1]) == BinaryForm.parse("X^7")
    assert from_binomial_coeffs(6, [0] * 5 + [half, 0]) == BinaryForm.parse("3*X^5*Y")
    assert from_binomial_coeffs(2, [1, 1, 1]) == BinaryForm.parse("(X + Y)^2")
    with pytest.raises(ValueError):
        from_binomial_coeffs(3, [1, 2, 3])


def test_binomial_roundtrip_all_degrees():
    rng = Random("binomial")
    for d in range(13):
        f = random_binary_form(rng, d)
        assert from_binomial_coeffs(d, oracle_binomial_coeffs(to_dict(f), d)) == f
        alphas = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1)]
        assert oracle_binomial_coeffs(to_dict(from_binomial_coeffs(d, alphas)), d) == alphas


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
        assert binary_basis(d) == oracle.binary_basis(d)
        assert ternary_basis(d) == oracle_ternary_basis(d)
        for e in range(11):
            assert biform_basis(d, e) == oracle.biform_basis(d, e)


def test_embed_extract():
    p = BinaryForm.parse("X^2 - 3*X*Y")
    t = tensor_product(p, BinaryForm.parse("Y^3"))
    assert t.bidegree == (2, 3)
    assert to_dict(t) == {(2, 0, 0, 3): 1, (1, 1, 0, 3): -3}


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


# (class, degrees, basis function) for the storage-invariant tests
STORAGE_CASES = [
    (BinaryForm, [0, 1, 4, 7], binary_basis),
    (BiForm, [(0, 0), (1, 3), (2, 2), (3, 1)], lambda d: biform_basis(*d)),
    (TernaryForm, [0, 1, 3], ternary_basis),
]


def _is_canonical(f, n):
    return (type(f._num) is tuple and len(f._num) == n and all(type(x) is int for x in f._num)
            and type(f._den) is int and f._den > 0 and gcd(f._den, *f._num) == 1)


def _storage_samples(rng, cls, degree, basis):
    """The zero form, integer and rational forms, one with a common factor,
    each through every public constructor."""
    n = len(basis)
    vectors = [[0] * n,
               [rng.randint(-9, 9) for _ in basis],
               [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in basis],
               [Fraction(6 * rng.randint(-3, 3), 4) for _ in basis],
               [Fraction(5, 7) * (i == n - 1) for i in range(n)]]
    forms = [cls.zero(degree)]
    for vec in vectors:
        f = cls.from_coeff_vector(degree, vec)
        terms = {e: Fraction(c) for e, c in zip(basis, vec) if c}
        forms += [f, to_form(cls, degree, terms), cls.parse(oracle.to_text(terms, cls.ring), degree),
                  cls.parse(str(f), degree)]
    return forms


def test_storage_invariants():
    rng = Random("storage")
    for cls, degrees, basis_of in STORAGE_CASES:
        for degree in degrees:
            basis = basis_of(degree)
            forms = _storage_samples(rng, cls, degree, basis)
            derived = []
            for f in forms:
                g = rng.choice(forms)
                derived += [f + g, f - g, -f, 0 * f, 3 * f, Fraction(-2, 3) * f,
                            Fraction(1, 3) * (3 * f), (f + g) - g]
            for f in forms + derived:
                assert _is_canonical(f, len(basis))
                assert f.is_zero() == (f._den == 1 and not any(f._num))
                assert cls.from_coeff_vector(degree, f.coeff_vector()) == f
                assert cls.parse(str(f), degree) == f
                terms = to_dict(f)
                assert str(f) == to_string(parse_form(oracle.to_text(terms, cls.ring), cls.ring))
                for g in rng.sample(forms + derived, 12):
                    assert (f == g) == (terms == to_dict(g))
                    if f == g:
                        assert hash(f) == hash(g)


def test_storage_of_other_constructors():
    rng = Random("storage-more")
    for d in range(6):
        p = random_binary_form(rng, d)
        q = BinaryForm.from_coeff_vector(d, [Fraction(rng.randint(-9, 9), 6) for _ in range(d + 1)])
        alphas = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1)]
        made = [from_binomial_coeffs(d, alphas), BiForm.from_pq(p, q), tensor_product(q, p),
                *BiForm.from_pq(q, p).pq()]
        for f in made:
            assert _is_canonical(f, len(f.coeff_vector()))
            assert type(f).parse(str(f), f._degree) == f
        first = {(i, j, 0, 0): c for (i, j), c in to_dict(q).items()}
        second = {(0, 0, k, l): c for (k, l), c in to_dict(p).items()}
        assert to_dict(tensor_product(q, p)) == oracle.pmul(first, second)


def test_repr_rebuilds_the_form():
    # zero, integer, rational and negative coefficients, for every form type
    names = {"__builtins__": {}, "BinaryForm": BinaryForm, "BiForm": BiForm,
             "TernaryForm": TernaryForm}
    assert repr(BinaryForm.parse("X^3")) == "BinaryForm.parse('X^3', 3)"
    assert repr(BiForm.zero((1, 2))) == "BiForm.parse('0', (1, 2))"
    rng = Random("repr")
    for cls, degrees, basis_of in STORAGE_CASES:
        for degree in degrees:
            for f in _storage_samples(rng, cls, degree, basis_of(degree)):
                for g in (f, -f, Fraction(-7, 3) * f):
                    assert eval(repr(g), names) == g
