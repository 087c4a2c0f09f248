from fractions import Fraction
from math import gcd
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
    to_string,
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
from helpers import dict_diff, oracle, oracle_ternary_basis, to_dict


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


def test_negative_degrees_have_empty_bases():
    assert binary_basis(-2) == biform_basis(-2, 0) == biform_basis(1, -1) == ternary_basis(-3) == []


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
        assert binary_basis(d) == oracle.binary_basis(d)
        assert ternary_basis(d) == oracle_ternary_basis(d)
        for e in range(11):
            assert biform_basis(d, e) == oracle.biform_basis(d, e)


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
        poly = MPoly(cls.ring, {e: c for e, c in zip(basis, vec)})
        forms += [f, cls(degree, poly), cls.from_poly(poly, degree), cls.parse(str(f), degree)]
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
                assert cls.from_poly(f.poly, degree) == f
                assert str(f) == to_string(f.poly)
                for g in rng.sample(forms + derived, 12):
                    assert (f == g) == (f.poly == g.poly)
                    if f == g:
                        assert hash(f) == hash(g)


def test_storage_of_other_constructors():
    rng = Random("storage-more")
    for d in range(6):
        p = random_binary_form(rng, d)
        q = BinaryForm.from_coeff_vector(d, [Fraction(rng.randint(-9, 9), 6) for _ in range(d + 1)])
        alphas = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1)]
        made = [from_binomial_coeffs(d, alphas), BiForm.from_pq(p, q), tensor_product(q, p),
                embed_first(q), embed_second(q), *BiForm.from_pq(q, p).pq(),
                extract_first(embed_first(q)), extract_second(embed_second(q))]
        if d:
            made += [q.dx(), q.dy(), q.dx(d), q.dy(d + 1)]
        for f in made:
            assert _is_canonical(f, len(f.coeff_vector()))
            assert type(f).from_poly(f.poly, f._degree) == f
        first = {(i, j, 0, 0): c for (i, j), c in to_dict(q).items()}
        second = {(0, 0, k, l): c for (k, l), c in to_dict(p).items()}
        assert to_dict(tensor_product(q, p)) == oracle.pmul(first, second)
        if d:
            assert to_dict(q.dx()) == dict_diff(to_dict(q), 0)
            assert to_dict(q.dy(2)) == _diff(to_dict(q), 1, 2)


def _diff(terms, slot, order):
    """The order-th partial derivative of a dict in one variable slot, by dict_diff."""
    for _ in range(order):
        terms = dict_diff(terms, slot)
    return terms


def test_derivative_orders():
    # order 0 is the form itself; a negative order is an error
    rng = Random("derivative-orders")
    for d in range(5):
        q = BinaryForm.from_coeff_vector(d, [Fraction(rng.randint(-9, 9), 4) for _ in range(d + 1)])
        assert q.dx(0) == q and q.dy(0) == q
        for k in range(d + 2):
            assert to_dict(q.dx(k)) == _diff(to_dict(q), 0, k)
            assert to_dict(q.dy(k)) == _diff(to_dict(q), 1, k)
        for method in (q.dx, q.dy):
            with pytest.raises(ValueError):
                method(-1)
