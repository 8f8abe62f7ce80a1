from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiblike.rationals import as_rational, as_rationals, format_rational, parse_rational_list


def test_decimal_strings_parse_exactly():
    assert as_rational("0.2") == Fraction(1, 5)
    assert as_rational("0.3") == Fraction(3, 10)
    assert as_rational("3/10") == Fraction(3, 10)
    assert as_rational("-7") == Fraction(-7)
    assert as_rational(4) == Fraction(4)
    assert as_rational(Fraction(2, 6)) == Fraction(1, 3)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        as_rational(0.2)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        as_rational("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational_list("1,2/0")


def test_format_rational():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(13, 5)) == "13/5"
    assert format_rational(Fraction(-3, 7)) == "-3/7"


def test_parse_rational_list():
    assert parse_rational_list("0.2, 0.3") == (Fraction(1, 5), Fraction(3, 10))
    assert parse_rational_list("1,2,3") == as_rationals([1, 2, 3])
    with pytest.raises(ValueError):
        parse_rational_list("1,,2")
    with pytest.raises(ValueError):
        parse_rational_list("")


@given(st.fractions(), st.fractions())
def test_arithmetic_is_exact(x, y):
    assert (x + y) - y == x
    assert as_rational(format_rational(x * y)) == x * y


@given(st.fractions())
def test_format_parse_round_trip(x):
    assert as_rational(format_rational(x)) == x
