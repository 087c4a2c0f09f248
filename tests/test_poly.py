from fractions import Fraction
from random import Random

import pytest

from biforms import MPoly, RING_BI, RING_XY, parse_form


def rand_poly(rng, ring, max_exp=4, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(0, max_exp) for _ in ring)
        c = rng.randint(-9, 9)
        if c:
            terms[e] = terms.get(e, 0) + c
    return MPoly(ring, {e: c for e, c in terms.items() if c})


def test_multiply_examples():
    x = MPoly.variable(RING_XY, "X")
    y = MPoly.variable(RING_XY, "Y")
    assert (x + y) * (x - y) == x * x - y * y
    p = parse_form("X^2 + 3*X*Y", RING_XY)
    assert p * MPoly.zero(RING_XY) == MPoly.zero(RING_XY)
    c = parse_form("X1*Y2^2 + Y1*X2^2", RING_BI)
    assert c * c == parse_form("X1^2*Y2^4 + 2*X1*Y1*X2^2*Y2^2 + Y1^2*X2^4", RING_BI)


def test_ring_mismatch_rejected():
    p = MPoly.variable(RING_XY, "X")
    q = MPoly.variable(RING_BI, "X1")
    with pytest.raises(ValueError):
        p * q
    with pytest.raises(ValueError):
        p + q


def test_ring_laws_randomized():
    rng = Random("ring-laws")
    for _ in range(25):
        p = rand_poly(rng, RING_XY)
        q = rand_poly(rng, RING_XY)
        r = rand_poly(rng, RING_XY)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p.diff("X").diff("Y") == p.diff("Y").diff("X")


def test_differentiate_examples():
    p = parse_form("X^2*Y^6", RING_XY)
    assert p.diff("Y", 2) == parse_form("30*X^2*Y^4", RING_XY)
    assert parse_form("X^4", RING_XY).diff("Y") == MPoly.zero(RING_XY)
    assert parse_form("X^6*Y^2", RING_XY).diff("X", 2) == parse_form("30*X^4*Y^2", RING_XY)


def test_evaluate_examples():
    assert parse_form("X^2 - Y^2", RING_XY).evaluate([1, 1]) == 0
    f = parse_form("X1*Y2^2 + Y1*X2^2", RING_BI)
    assert f.evaluate([1, 0, 0, 1]) == 1
    assert parse_form("3/7*X^2*Y", RING_XY).evaluate([7, 1]) == 21
    with pytest.raises(ValueError):
        f.evaluate([1, 2, 3])


def test_evaluate_matches_substitution_randomized():
    rng = Random("eval")
    for _ in range(20):
        p = rand_poly(rng, RING_XY)
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2)]
        images = [MPoly.constant(RING_XY, v) for v in pt]
        assert MPoly.constant(RING_XY, p.evaluate(pt)) == p.substitute(images)


def test_power():
    x = MPoly.variable(RING_XY, "X")
    y = MPoly.variable(RING_XY, "Y")
    assert (x + y) ** 3 == parse_form("X^3 + 3*X^2*Y + 3*X*Y^2 + Y^3", RING_XY)
    assert (x + y) ** 0 == MPoly.constant(RING_XY, 1)


def test_zero_coefficients_never_stored():
    p = parse_form("X - X", RING_XY)
    assert p.is_zero() and not p.terms
    q = parse_form("X*Y + X*Y", RING_XY) - parse_form("2*X*Y", RING_XY)
    assert q.is_zero()


def test_arithmetic_results_are_canonical():
    # results of + - * scale diff neg skip validation; they must equal a
    # validated construction of the same terms in every observable way
    rng = Random("lean-mpoly")
    for ring in (RING_XY, RING_BI):
        x = MPoly.variable(ring, ring[0])
        for _ in range(30):
            p, q = rand_poly(rng, ring), rand_poly(rng, ring)
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            p = p.scale(c) + q
            results = [p + q, p - q, (p + q) - q, p - p, p * q, (x - q) * (x + q), -p,
                       p.scale(c), 3 * p, p + 2, 2 - p, p * MPoly.zero(ring), p ** 2]
            results += [p.diff(v) for v in ring] + [p.diff(ring[0], 3)]
            for res in results:
                assert all(type(v) is Fraction and v != 0 for v in res.terms.values())
                fresh = MPoly(ring, dict(res.terms))
                assert res == fresh and hash(res) == hash(fresh)
                assert res.items_sorted() == fresh.items_sorted()
                assert str(res) == str(fresh)
