import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tangentia.rationals import _integer, _integers, binomial


def test_binomial_small_values():
    assert binomial(7, 3) == 35
    assert binomial(5, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0


def test_binomial_negative_upper_argument():
    # C(-1, k) = (-1)^k, C(-2, k) = (-1)^k (k+1)
    for k in range(8):
        assert binomial(-1, k) == (-1) ** k
        assert binomial(-2, k) == (-1) ** k * (k + 1)
    assert binomial(-4, 2) == 10


def test_binomial_agrees_with_math_comb():
    for n in range(0, 30):
        for k in range(0, 30):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_exhaustive_integrality_box():
    # the falling factorial divided by k! must be an exact integer for
    # every integer n; verified against an independent Fraction product
    for n in range(-50, 51):
        for k in range(0, 21):
            product = Fraction(1)
            for i in range(k):
                product *= Fraction(n - i, i + 1)
            assert product.denominator == 1
            assert binomial(n, k) == product


def _falling_factorial_binomial(n, k):
    """Reference: n(n-1)...(n-k+1) / k!, one factor at a time."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    quot, rem = divmod(num, math.factorial(k))
    assert rem == 0  # k! divides any product of k consecutive integers
    return quot


@given(st.integers(-10**6, 10**6), st.integers(-3, 60))
def test_binomial_matches_falling_factorial(n, k):
    assert binomial(n, k) == _falling_factorial_binomial(n, k)


@given(st.integers(-200, 200), st.integers(0, 40))
def test_binomial_pascal_rule(n, k):
    assert binomial(n, k) + binomial(n, k + 1) == binomial(n + 1, k + 1)


def test_rat_is_normalized_fraction():
    q = Fraction(6, -8)
    assert (q.numerator, q.denominator) == (-3, 4)
    assert Fraction(2, 4) == Fraction(1, 2)


def test_parse_and_format_round_trip():
    # str() is the serialization the CLI prints; Fraction() reads it back
    for text in ["35/16", "-45/8", "244", "0", "-12333/64"]:
        assert str(Fraction(text)) == text
    assert Fraction(" 3/4 ") == Fraction(3, 4)


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        Fraction("three quarters")


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals)
def test_format_parse_identity(q):
    assert Fraction(str(q)) == q


def _integral_by_fraction(value):
    """Oracle for the integer rule: a number, not a string, whose Fraction
    exists and has denominator 1."""
    if isinstance(value, str):  # Fraction parses strings; the rule refuses them
        return False
    try:
        return Fraction(value).denominator == 1
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        return False


sizes = st.one_of(
    st.integers(-10**30, 10**30), st.booleans(), st.fractions(max_denominator=12),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.from_regex(r"\A-?\d{1,3}\Z"), st.none(), st.complex_numbers(max_magnitude=4),
    st.just([2]),
)


def _floor_phrase(least):
    if least is None:
        return "an integer"
    return "a positive integer" if least == 1 else f"an integer >= {least}"


bounds = st.one_of(st.none(), st.integers(-3, 3))


@given(st.lists(sizes, max_size=4), bounds, bounds)
def test_integer_rule_matches_fraction_oracle(values, least, most):
    ints = _integers(values)
    if all(map(_integral_by_fraction, values)):
        assert ints == tuple(values) and all(type(i) is int for i in ints)
    else:
        assert ints is None
    # no floor and no budget are the defaults
    given_bounds = {k: v for k, v in (("least", least), ("most", most)) if v is not None}
    for value in values:
        if not (_integral_by_fraction(value) and (least is None or value >= least)):
            message = f"size must be {_floor_phrase(least)}, got {value!r}"
        elif most is not None and value > most:  # the budget is read after the floor
            message = f"size is budgeted to at most {most}, got {int(value)}"
        else:
            read = _integer(value, "size", **given_bounds)
            assert read == value and type(read) is int
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _integer(value, "size", **given_bounds)
