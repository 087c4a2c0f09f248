from fractions import Fraction
from random import Random

import pytest

from biforms import MPoly, ParseError, RING_BI, RING_XY, RING_XYZ, parse_form, to_string

from test_poly import rand_poly


def test_grammar_examples():
    f = parse_form("X1*Y2^2 + Y1*X2^2", RING_BI)
    assert f.coefficient((1, 0, 0, 2)) == 1
    assert f.coefficient((0, 1, 2, 0)) == 1
    assert parse_form("0", RING_XY).is_zero()
    g = parse_form("3/7*X^2*Y - X*Y^2", RING_XY)
    assert g.coefficient((2, 1)) == Fraction(3, 7)
    assert g.coefficient((1, 2)) == -1
    assert len(g.terms) == 2


def test_precedence():
    assert parse_form("-X^2", RING_XY) == -parse_form("X^2", RING_XY)
    assert parse_form("2*X^2", RING_XY) == parse_form("X^2 + X^2", RING_XY)
    assert parse_form("(X + Y)^2", RING_XY) == parse_form("X^2 + 2*X*Y + Y^2", RING_XY)
    assert parse_form("1/2^2", RING_XY) == MPoly.constant(RING_XY, Fraction(1, 4))
    assert parse_form("X - -Y", RING_XY) == parse_form("X + Y", RING_XY)
    assert parse_form("2 - 3*X", RING_XY) == parse_form("-3*X + 2", RING_XY)


def test_errors_with_position():
    with pytest.raises(ParseError) as err:
        parse_form("X + ", RING_XY)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_form("X + W", RING_XY)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_form("1/0*X", RING_XY)
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_form("3X", RING_XY)  # juxtaposition is not multiplication
    with pytest.raises(ParseError):
        parse_form("X^Y", RING_XY)
    with pytest.raises(ParseError):
        parse_form("(X + Y", RING_XY)
    with pytest.raises(ParseError):
        parse_form("X # Y", RING_XY)
    with pytest.raises(ParseError) as err:
        parse_form("X^²", RING_XY)  # a digit to str.isdigit, not a decimal one
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_form("X^3 + \u0664*Y^3", RING_XY)  # a decimal digit, but not ASCII
    assert err.value.position == 6
    # a literal past the digit cap is refused by the parser, at its position
    assert parse_form("9" * 4300 + "*X", RING_XY) == int("9" * 4300) * MPoly.variable(RING_XY, "X")
    with pytest.raises(ParseError) as err:
        parse_form("X + " + "1" * 4301 + "*X", RING_XY)
    assert err.value.position == 4
    assert "position 4" in str(err.value) and "set_int_max_str_digits" not in str(err.value)


def test_work_budget_spans_the_whole_parse():
    dense = "(X1+Y1)^128*(X2+Y2)^128"
    assert len(parse_form(dense, RING_BI).terms) == 129 ** 2
    with pytest.raises(ParseError, match="term operations"):
        parse_form(dense + "*X1" * 300, RING_BI)
    with pytest.raises(ParseError, match="term operations"):
        parse_form("-" * 90 + f"({dense})", RING_BI)
    # a sum spends its length, not the square of it
    assert parse_form(" + ".join(["X1"] * 50_000), RING_BI) == parse_form("50000*X1", RING_BI)
    # the pairs of a product weigh more as its coefficients grow
    shape = "({c}*X1 + {c}*Y1)*(X1+Y1)^100*({c}*X2 + {c}*Y2)*(X2+Y2)^100"
    assert len(parse_form(shape.format(c=7), RING_BI).terms) == 102 ** 2
    with pytest.raises(ParseError, match="term operations"):
        parse_form(shape.format(c="7" * 1000), RING_BI)


def test_parse_print_roundtrip_randomized():
    rng = Random("roundtrip")
    for ring in (RING_XY, RING_BI, RING_XYZ):
        for _ in range(30):
            p = rand_poly(rng, ring)
            assert parse_form(to_string(p), ring) == p


def test_print_parse_is_canonicalization():
    text = "Y*X + X*Y + 2/4*X^2"
    canon = to_string(parse_form(text, RING_XY))
    assert canon == "1/2*X^2 + 2*X*Y"
    assert to_string(parse_form(canon, RING_XY)) == canon


def test_print_forms():
    assert to_string(MPoly.zero(RING_XY)) == "0"
    assert to_string(parse_form("-X - 1", RING_XY)) == "-X - 1"
    assert to_string(parse_form("X2^2*Y1", RING_BI)) == "Y1*X2^2"
    # the printer's digit cap is the parser's, so whatever prints parses back
    x = parse_form("X", RING_XY)
    c = Fraction(10 ** 4300 - 1, 2 ** 14282)   # 4,300 digits above and below the bar
    assert all(10 ** 4299 <= n < 10 ** 4300 for n in (c.numerator, c.denominator))
    longest = MPoly.constant(RING_XY, c) * x
    assert parse_form(to_string(longest), RING_XY) == longest
    for c in (Fraction(10 ** 4300, 7), Fraction(7, 10 ** 4300)):
        with pytest.raises(ValueError, match="longer than 4300 digits"):
            to_string(MPoly.constant(RING_XY, c) * x)
