import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tangentia import covers
from tangentia.covers import (
    divisors,
    instanton_numbers,
    integrality_report,
    local_cover,
    multiple_cover,
)
from tangentia.rationals import binomial


def test_multiple_cover_reference_values():
    assert multiple_cover(3, 2) == Fraction(3, 4)
    assert multiple_cover(3, 3) == Fraction(10, 9)
    assert multiple_cover(3, 4) == Fraction(35, 16)
    assert multiple_cover(6, 2) == Fraction(9, 4)
    assert multiple_cover(4, 2) == Fraction(5, 4)
    assert multiple_cover(5, 2) == Fraction(7, 4)


def test_multiple_cover_degree_one_is_trivial():
    for w in range(1, 20):
        assert multiple_cover(w, 1) == 1


def test_multiple_cover_against_binomial_formula():
    # independent recomputation straight from the closed formula
    for w in range(1, 13):
        for d in range(1, 11):
            expected = Fraction(binomial(d * (w - 1) - 1, d - 1), d * d)
            assert multiple_cover(w, d) == expected


def test_contact_order_one_alternates():
    # C(-1, d - 1) = (-1)^(d - 1): the generalized binomial at w = 1
    for d in range(1, 11):
        assert multiple_cover(1, d) == Fraction((-1) ** (d - 1), d * d)


def test_d_squared_clears_denominator():
    for w in range(1, 13):
        for d in range(1, 11):
            assert (d * d * multiple_cover(w, d)).denominator == 1


def test_local_cover_values_and_sign_rule():
    assert local_cover(1, 1) == 1
    assert local_cover(1, 2) == Fraction(-1, 4)
    assert local_cover(2, 3) == Fraction(1, 9)
    assert local_cover(3, 2) == Fraction(-1, 4)
    for n in range(1, 10):
        for d in range(1, 8):
            value = local_cover(n, d)
            assert abs(value) == Fraction(1, d * d)
            # tripling the contact order never changes the local contribution
            assert value == local_cover(3 * n, d)
            assert local_cover(n, 1) == 1


def test_divisors_increasing_order():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert divisors(7) == (1, 7)
    for value in (0, 2.5, None):  # the integer rule of rationals, at least 1, refused at the call
        with pytest.raises(ValueError, match=re.escape(f"d must be a positive integer, got {value!r}")):
            divisors(value)


def test_divisors_refuses_past_its_budget_before_any_work():
    assert divisors(covers.MAX_INSTANTON_DEGREE) == (1, 2, 4, 5, 8, 10, 20, 25, 40, 50, 100,
                                                     125, 200, 250, 500, 1000)
    for value in (1001, 10**30):  # trial division to 10**30 would never return
        with pytest.raises(ValueError, match=f"^d is budgeted to at most 1000, got {value}$"):
            divisors(value)


# every covers entry point, one argument varied and the other held at 3
ENTRY_POINTS = [
    ("multiple_cover", lambda v: multiple_cover(v, 3), "w"),
    ("multiple_cover", lambda v: multiple_cover(3, v), "d"),
    ("local_cover", lambda v: local_cover(v, 3), "n"),
    ("local_cover", lambda v: local_cover(3, v), "d"),
    ("divisors", divisors, "d"),
    ("instanton_numbers", lambda v: instanton_numbers(v, 3), "w"),
    ("instanton_numbers", lambda v: instanton_numbers(3, v), "dmax"),
    ("integrality_report", lambda v: integrality_report(v, 3), "wmax"),
    ("integrality_report", lambda v: integrality_report(3, v), "dmax"),
]


@pytest.mark.parametrize("call, name", [(call, name) for _, call, name in ENTRY_POINTS],
                         ids=[f"{f}-{name}" for f, _, name in ENTRY_POINTS])
def test_every_entry_point_reads_its_arguments_by_the_integer_rule(call, name):
    expected = call(4)
    for value in (4.0, Fraction(4)):
        assert call(value) == expected
    assert call(True) == call(1)
    for value in (2.5, float("inf"), float("-inf"), float("nan"), None, "4", 1j, 0, -4.0):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a positive integer, got {value!r}")):
            call(value)


def test_integral_values_are_stored_as_ints():
    assert type(next(iter(instanton_numbers(3.0, 2.0)))) is int
    assert all(type(k) is int for k in divisors(12.0))
    assert all(type(r.w) is int and type(r.d) is int for r in integrality_report(2.0, 2.0))


def test_instanton_reference_values():
    m3 = instanton_numbers(3, 6)
    assert [m3[d] for d in range(1, 7)] == [1, 1, 1, 2, 5, 13]
    assert instanton_numbers(6, 2)[2] == 2
    assert instanton_numbers(4, 4)[4] == 10
    assert instanton_numbers(5, 2)[2] == 2


def test_instanton_round_trip():
    # the defining identity, re-summed independently of the recursion order
    for w in range(1, 13):
        m = instanton_numbers(w, 10)
        for d in range(1, 11):
            total = sum(
                local_cover(d1 * w, d // d1) * m[d1] for d1 in divisors(d)
            )
            assert total == multiple_cover(w, d)


def _fraction_recursion(w, d_max):
    """The oracle: M_w[d] minus M'_{d1 w}[d / d1] * m_w[d1] over the proper
    divisors d1 of d, in Fractions, divisors found by trial division."""
    m = {}
    for d in range(1, d_max + 1):
        value = multiple_cover(w, d)
        for d1 in divisors(d):
            if d1 < d:
                value -= local_cover(d1 * w, d // d1) * m[d1]
        m[d] = value
    return m


@given(st.integers(1, 60), st.integers(1, 150))
def test_instantons_match_the_fraction_recursion(w, d_max):
    assert instanton_numbers(w, d_max) == _fraction_recursion(w, d_max)


@given(st.integers(1, 60), st.integers(1, 150), st.integers(1, 150))
def test_instantons_are_prefix_stable(w, d_max, other):
    small, large = sorted((d_max, other))
    prefix = instanton_numbers(w, small)
    full = instanton_numbers(w, large)
    assert {d: full[d] for d in prefix} == prefix


@given(st.integers(3, 60), st.integers(1, 150))
def test_geometric_instantons_are_positive_integers(w, d_max):
    m = instanton_numbers(w, d_max)
    assert all(v.denominator == 1 and v > 0 for v in m.values())


def _binomial_solve(w, d_max):
    """The oracle for the binomial step: n[d] from a fresh
    ``rationals.binomial`` at every degree, minus the signed n[d1] over the
    proper divisors d1 of d, found by trial division."""
    n = {}
    for d in range(1, d_max + 1):
        n[d] = binomial(d * (w - 1) - 1, d - 1) - sum(
            -n[d1] if d1 * w % 2 and (d // d1) % 2 == 0 else n[d1]
            for d1 in range(1, d) if d % d1 == 0
        )
    return {d: Fraction(v, d * d) for d, v in n.items()}


@pytest.mark.parametrize("w", [1, 2, 3, 12, 32, 33])
def test_the_binomial_step_matches_fresh_binomials_to_the_budget(w):
    # an error in the step compounds over degrees; past (w - 1)^2 the step
    # takes over for w > 2, so w = 32 switches at d = 962 and w = 33 never does
    assert instanton_numbers(w, covers.MAX_INSTANTON_DEGREE) == _binomial_solve(
        w, covers.MAX_INSTANTON_DEGREE
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 80).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(min((w - 1) ** 2 + 1, 400), 400))
))
def test_the_binomial_step_matches_fresh_binomials_past_the_switch(case):
    # d_max > (w - 1)^2 wherever that fits under 400, so for 3 <= w <= 21
    # the solve crosses from fresh binomials to steps
    w, d_max = case
    assert instanton_numbers(w, d_max) == _binomial_solve(w, d_max)


@pytest.mark.parametrize("call, most", [
    (lambda: instanton_numbers(3, 400), 4),
    (lambda: instanton_numbers(12, 400), 121),
    (lambda: integrality_report(12, 40), 370),
], ids=["instantons-3-400", "instantons-12-400", "integrality-12-40"])
def test_binomials_are_stepped_not_recomputed(monkeypatch, call, most):
    # a work count, read without a clock: fresh binomials only up to degree
    # (w - 1)^2 for w > 2, so one per degree (400, 400 and 480 calls) fails here
    calls = []
    monkeypatch.setattr(covers, "binomial", lambda n, k: calls.append(n) or binomial(n, k))
    call()
    assert len(calls) <= most


def _refuse(*args):
    raise AssertionError("instanton_numbers called a per-degree helper")


@pytest.mark.parametrize("w", [1, 2, 3, covers.MAX_CONTACT_ORDER])
def test_the_first_degree_is_a_fresh_binomial(monkeypatch, w):
    # the CLI's budget tests detect started work by refusing covers.binomial,
    # which is only sound while every solve starts with one
    monkeypatch.setattr(covers, "binomial", _refuse)
    with pytest.raises(AssertionError, match="per-degree helper"):
        instanton_numbers(w, 1)


def test_instantons_use_no_cover_helpers(monkeypatch):
    # the solve runs in integers with a sieve; it neither re-enters the
    # Fraction contributions nor searches for divisors
    for name in ("multiple_cover", "local_cover", "divisors"):
        monkeypatch.setattr(covers, name, _refuse)
    m3 = instanton_numbers(3, 6)
    assert [m3[d] for d in range(1, 7)] == [1, 1, 1, 2, 5, 13]


def test_instantons_below_geometric_range_vanish():
    # contact orders 1 and 2 cannot occur against a cubic; there the
    # generalized formula inverts to zero beyond degree 1
    for w in (1, 2):
        m = instanton_numbers(w, 8)
        assert m[1] == 1
        assert all(m[d] == 0 for d in range(2, 9))


def test_integrality_report_box_all_pass():
    # larger than verify's 8 x 8 box, within MAX_INTEGRALITY_CELLS
    report = integrality_report(12, 40)
    assert len(report) == 480
    assert all(row.passes for row in report)
    geometric = [row for row in report if not row.extrapolated]
    assert all(row.is_positive and row.is_integer for row in geometric)


def test_integrality_report_flags_low_contact_orders():
    report = integrality_report(2, 3)
    flagged = [(r.w, r.d) for r in report if r.extrapolated]
    assert flagged == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
    zero_rows = [r for r in report if r.value == 0]
    assert zero_rows and all(r.passes for r in zero_rows)


@pytest.mark.parametrize("fn", [multiple_cover, local_cover])
def test_rejects_nonpositive_arguments(fn):
    for bad in [(0, 1), (1, 0), (-2, 3), (3, -1)]:
        with pytest.raises(ValueError):
            fn(*bad)
    with pytest.raises(ValueError):
        instanton_numbers(3, 0)
    with pytest.raises(ValueError):
        integrality_report(0, 5)
