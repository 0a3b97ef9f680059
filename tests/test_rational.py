from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ramanujan_primes import parse_k, parse_ratio
from ramanujan_primes.rational import ceil_div, format_fraction


def test_parse_ratio_fraction_string():
    assert parse_ratio("3/2") == Fraction(3, 2)
    assert parse_ratio("48/19") == Fraction(48, 19)


def test_parse_ratio_decimal_string_is_exact():
    # 745.8 is not representable in binary; the parse must not go
    # through float
    assert parse_ratio("745.8") == Fraction(7458, 10)
    assert parse_ratio("143.7") == Fraction(1437, 10)
    assert parse_ratio("2.53") == Fraction(253, 100)


def test_parse_ratio_passthrough():
    assert parse_ratio(7) == Fraction(7)
    assert parse_ratio(Fraction(5, 3)) == Fraction(5, 3)


def test_parse_ratio_rejects_float():
    with pytest.raises(TypeError):
        parse_ratio(1.5)


@pytest.mark.parametrize("text", ["", "abc", "1/0", "1..5", "2/3/4"])
def test_parse_ratio_rejects_junk(text):
    with pytest.raises(ValueError):
        parse_ratio(text)


@pytest.mark.parametrize("text", ["1", "1/1", "0.5", "-2", "19/20"])
def test_parse_k_requires_k_above_one(text):
    with pytest.raises(ValueError):
        parse_k(text)


def test_parse_k_accepts_valid():
    assert parse_k("2") == Fraction(2)
    assert parse_k("29/3") == Fraction(29, 3)


@given(a=st.integers(-10 ** 9, 10 ** 9), b=st.integers(1, 10 ** 6))
def test_ceil_div_matches_fraction_ceil(a, b):
    assert ceil_div(a, b) == math.ceil(Fraction(a, b))


def test_ceil_div_rejects_nonpositive_denominator():
    with pytest.raises(ValueError):
        ceil_div(5, 0)
    with pytest.raises(ValueError):
        ceil_div(5, -3)


def test_format_fraction_integer_is_plain():
    assert format_fraction(Fraction(5)) == "5"
    assert format_fraction(Fraction(10, 2)) == "5"


def test_format_fraction_shows_fraction_and_decimal():
    assert format_fraction(Fraction(1, 2)) == "1/2 (~ 0.5)"
    assert format_fraction(Fraction(1, 3)) == "1/3 (~ 0.333333333333)"
    assert format_fraction(Fraction(3, 26)) == "3/26 (~ 0.115384615385)"

