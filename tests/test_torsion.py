import copy
import math
import pickle
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from tangentia import torsion as torsion_module
from tangentia.census import stratum_point_count
from tangentia.lattice import DivisorClass, parse_class_literal
from tangentia.torsion import (
    BASE_POINTS,
    MAX_DIVISION_ORDER,
    O_PRIME,
    Stratum,
    TorsionPoint,
    restriction_class,
    solve_division,
    stratify,
    stratum_sizes,
    torsion_points,
)

P = TorsionPoint
ZERO = TorsionPoint(0, 0)


def test_coordinates_normalize_mod_one():
    assert P(Fraction(5, 4), Fraction(-1, 3)) == P(Fraction(1, 4), Fraction(2, 3))
    assert P(3, -2) == ZERO


def test_group_operations():
    a = P(Fraction(1, 3), Fraction(1, 4))
    b = P(Fraction(2, 3), Fraction(3, 4))
    assert a + b == ZERO
    assert -a == b
    assert a - a == ZERO
    assert 12 * a == ZERO
    assert 2 * a == P(Fraction(2, 3), Fraction(1, 2))


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=24)


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_group_laws(x1, y1, x2, y2):
    a, b = P(x1, y1), P(x2, y2)
    assert (a + b) - b == a
    assert a + b == b + a
    assert a.n * a == ZERO


def test_point_order_examples():
    assert ZERO.n == 1
    assert P(Fraction(1, 3), 0).n == 3
    assert P(Fraction(1, 12), Fraction(1, 4)).n == 12
    assert P(Fraction(1, 9), 0).n == 9
    assert P(Fraction(1, 2), Fraction(1, 3)).n == 6


def test_torsion_points_counts_and_order():
    for n in range(1, 25):
        points = torsion_points(n)
        assert len(points) == n * n
        assert len(set(points)) == n * n
        assert points == sorted(points)
        assert all((n * p).is_zero for p in points)
    with pytest.raises(ValueError):
        torsion_points(0)


def test_stratify():
    assert stratify(ZERO) == Stratum.T1
    assert stratify(P(Fraction(1, 3), Fraction(2, 3))) == Stratum.T1
    assert stratify(P(Fraction(1, 2), 0)) == Stratum.T2
    assert stratify(P(Fraction(1, 6), Fraction(1, 3))) == Stratum.T2
    assert stratify(P(Fraction(1, 4), 0)) == Stratum.T3
    assert stratify(P(Fraction(1, 12), Fraction(1, 2))) == Stratum.T3
    assert stratify(P(Fraction(1, 9), 0)) is None
    assert stratify(P(Fraction(1, 5), 0)) is None


@given(small_fractions, small_fractions)
def test_stratify_matches_the_multiplication_rule(x, y):
    p = P(x, y)
    if (3 * p).is_zero:
        expected = Stratum.T1
    elif (6 * p).is_zero:
        expected = Stratum.T2
    elif (12 * p).is_zero:
        expected = Stratum.T3
    else:
        expected = None
    assert stratify(p) == expected


def test_stratum_sizes_against_direct_count():
    sizes = stratum_sizes()
    assert sizes == {Stratum.T1: 9, Stratum.T2: 27, Stratum.T3: 108}
    # independent arithmetic: 3^2, 6^2 - 3^2, 12^2 - 6^2
    assert sizes[Stratum.T1] == 9
    assert sizes[Stratum.T2] == 36 - 9
    assert sizes[Stratum.T3] == 144 - 36


def jordan_totient_2(k):
    """J_2(k) = k^2 * prod over primes p | k of (1 - p^-2): the number of
    points of exact order k in (Q/Z)^2."""
    total, rest, p = k * k, k, 2
    while rest > 1:
        if rest % p == 0:
            total = total // (p * p) * (p * p - 1)
            while rest % p == 0:
                rest //= p
        p += 1
    return total


@pytest.mark.parametrize("label, orders", [
    ("T1", (1, 3)), ("T2", (2, 6)), ("T3", (4, 12)), ("NF9", (9,)),
])
def test_stratum_point_count_against_jordan_totient(label, orders):
    assert stratum_point_count(label) == sum(jordan_totient_2(k) for k in orders)


def test_stratify_counts_match_the_order_table():
    # for every m <= 36, each stratum's points of order dividing m, counted
    # off the table, against the strata of the m^2 points built one by one
    for m in range(1, 37):
        expected = {s: sum(jordan_totient_2(k) for k in orders if m % k == 0)
                    for s, orders in torsion_module.STRATUM_ORDERS.items()}
        counts = Counter(stratify(p) for p in torsion_points(m))
        del counts[None]
        assert counts == {s: n for s, n in expected.items() if n}, m


@given(st.integers(1, 36))
def test_torsion_points_by_order_match_jordan_totient(m):
    orders = Counter(p.n for p in torsion_points(m))
    assert orders == {k: jordan_totient_2(k) for k in range(1, m + 1) if m % k == 0}


def test_solve_division_trivial_case():
    c = P(Fraction(1, 3), Fraction(2, 3))
    assert solve_division(c, 1) == [c]


def test_solve_division_brute_force_oracle():
    for c in [ZERO, P(Fraction(1, 3), 0), P(Fraction(2, 3), Fraction(1, 3))]:
        for m in (2, 3, 4):
            # independent oracle: scan the full lattice of candidate points
            grid = m * 3
            expected = [p for p in torsion_points(grid) if m * p == c]
            assert solve_division(c, m) == expected


def test_solve_division_is_sorted_and_complete():
    c = P(Fraction(1, 3), 0)
    sols = solve_division(c, 4)
    assert len(sols) == 16
    assert sols == sorted(sols)
    assert sols[0] == P(Fraction(1, 12), 0)
    assert sols[1] == P(Fraction(1, 12), Fraction(1, 4))
    assert all(4 * p == c for p in sols)


def test_solve_division_refuses_solutions_that_do_not_multiply_back(monkeypatch):
    monkeypatch.setattr(TorsionPoint, "__rmul__", lambda p, k: p)  # m * P is P
    with pytest.raises(ArithmeticError, match=re.escape("of 4 * P = (1/3, 0) does not multiply back")):
        solve_division(P(Fraction(1, 3), 0), 4)


def test_division_points_split_one_three_twelve():
    for row_class in ["2H-E1-E2", "3H-E1-E2-E3-E4-E5", "4H-E1-E2-E3-E4-2E5-2E6"]:
        c = restriction_class(parse_class_literal(row_class))
        sols = solve_division(c, 4)
        by_stratum = {s: 0 for s in Stratum}
        for p in sols:
            by_stratum[stratify(p)] += 1
        assert by_stratum == {Stratum.T1: 1, Stratum.T2: 3, Stratum.T3: 12}
        # equivalently: the translates p - c run over the 4-torsion orders
        orders = sorted((p - c).n for p in sols)
        assert orders == [1] + [2] * 3 + [4] * 12


def test_standard_marking_invariants():
    assert len(set(BASE_POINTS)) == 6
    total = ZERO
    for p in BASE_POINTS:
        assert (3 * p).is_zero
        total = total + p
    assert total.is_zero
    assert O_PRIME.n == 9


def test_restriction_class_examples():
    conic = restriction_class(parse_class_literal("2H-E1-E2"))
    assert conic == P(Fraction(1, 3), 0)
    assert restriction_class(parse_class_literal("H")) == 3 * O_PRIME
    # 3H minus all base points but Pi restricts to theta(Pi)
    for i in range(6):
        a = [1] * 6
        a[i] = 0
        c = restriction_class(DivisorClass(3, a))
        assert c == BASE_POINTS[i]


def _restriction_by_group_law(c):
    """The oracle: (3e) * O' - sum ai * Pi, folded point by point by the
    group law, as restriction_class once did."""
    total = (3 * c.e) * O_PRIME
    for ai, p in zip(c.a, BASE_POINTS):
        total = total - ai * p
    return total


def test_restriction_class_is_always_three_torsion():
    from tangentia.lattice import enumerate_classes

    classes = [DivisorClass(row.e, ordering) for row in enumerate_classes(4)
               for ordering in set(permutations(row.a_multiset))]
    assert len(classes) == 243
    for d in classes:
        c = restriction_class(d)
        assert (3 * c).is_zero
        assert c == _restriction_by_group_law(d)


coefficients = st.integers(-10**9, 10**9)


@given(coefficients, st.lists(coefficients, min_size=6, max_size=6))
def test_restriction_class_matches_the_group_law(e, a):
    c = DivisorClass(e, a)
    assert restriction_class(c) == _restriction_by_group_law(c)


# ---------------------------------------------------------------------------
# the integer model against a Fraction oracle: a point is the pair
# (x mod 1, y mod 1) of Fractions, and its order is the lcm of the
# denominators; the implementation stores integers and shares no code
# with this
# ---------------------------------------------------------------------------

def _oracle(x, y):
    return (Fraction(x) % 1, Fraction(y) % 1)


def _oracle_add(p, q):
    return _oracle(p[0] + q[0], p[1] + q[1])


def _oracle_order(p):
    return p[0].denominator * p[1].denominator // math.gcd(p[0].denominator, p[1].denominator)


def _agrees(point, oracle):
    return (point.x, point.y) == oracle and str(point) == f"({oracle[0]}, {oracle[1]})"


@given(small_fractions, small_fractions, small_fractions, small_fractions,
       st.integers(min_value=-50, max_value=50))
def test_integer_model_matches_fraction_oracle(x1, y1, x2, y2, k):
    a, b = P(x1, y1), P(x2, y2)
    oa, ob = _oracle(x1, y1), _oracle(x2, y2)
    assert _agrees(a, oa) and _agrees(b, ob)
    assert all(isinstance(v, Fraction) for v in (a.x, a.y))
    assert _agrees(a + b, _oracle_add(oa, ob))
    assert _agrees(a - b, _oracle(oa[0] - ob[0], oa[1] - ob[1]))
    assert _agrees(-a, _oracle(-oa[0], -oa[1]))
    assert _agrees(k * a, _oracle(k * oa[0], k * oa[1]))
    assert _agrees(a * k, _oracle(k * oa[0], k * oa[1]))
    assert a.n == _oracle_order(oa)
    assert a.is_zero == (oa == (0, 0))
    assert (a == b) == (oa == ob)
    assert (a != b) == (oa != ob)
    if a == b:
        assert hash(a) == hash(b)
    assert (a < b) == (oa < ob)
    assert (a <= b) == (oa <= ob)
    assert (a > b) == (oa > ob)
    assert (a >= b) == (oa >= ob)


@given(st.lists(st.tuples(small_fractions, small_fractions), max_size=12))
def test_sorted_order_matches_fraction_oracle(coords):
    points = sorted(P(x, y) for x, y in coords)
    assert [(p.x, p.y) for p in points] == sorted(_oracle(x, y) for x, y in coords)
    assert len(set(points)) == len(set(_oracle(x, y) for x, y in coords))


def test_integer_form_is_canonical():
    p = P(Fraction(5, 4), Fraction(-1, 2))
    assert (p.a, p.b, p.n) == (1, 2, 4)
    assert TorsionPoint(3, 6, 12) == TorsionPoint(1, 2, 4) == p
    assert (TorsionPoint(7, -5, 1).a, TorsionPoint(7, -5, 1).n) == (0, 1)
    assert TorsionPoint("1/3", "-2/3") == TorsionPoint(1, 1, 3)
    assert TorsionPoint(Fraction(1, 2), 0, 3) == TorsionPoint(1, 0, 6)
    assert repr(p) == "TorsionPoint(x=Fraction(1, 4), y=Fraction(1, 2))"
    assert str(p) == "(1/4, 1/2)"
    with pytest.raises(ValueError):
        TorsionPoint(1, 1, 0)


def test_points_are_immutable():
    p = P(Fraction(1, 3), 0)
    for name in ("a", "b", "n", "x", "y"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
    with pytest.raises(AttributeError):
        del p.a


def test_pickle_and_copy_round_trips():
    # TorsionPoint builds in __new__, so unpickling goes through __reduce__
    for p in torsion_points(6) + [P(Fraction(7, 9), Fraction(-1, 5)), O_PRIME]:
        clones = [copy.copy(p), copy.deepcopy(p)]
        clones += [pickle.loads(pickle.dumps(p, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for q in clones:
            assert type(q) is TorsionPoint and (q.a, q.b, q.n) == (p.a, p.b, p.n)
            assert q == p and hash(q) == hash(p)
            with pytest.raises(AttributeError):
                q.a = 0
    assert copy.deepcopy(BASE_POINTS) == BASE_POINTS


def test_a_wrapped_init_sees_each_public_construction(monkeypatch):
    # __new__ builds every point; __init__ takes the same arguments and does
    # nothing, so a profiler may wrap it, and it sees only TorsionPoint(...)
    calls = []
    init = TorsionPoint.__init__

    def wrapped(self, *args):
        calls.append(args)
        return init(self, *args)

    monkeypatch.setattr(TorsionPoint, "__init__", wrapped)
    c = P(Fraction(1, 3), 0)
    assert pickle.loads(pickle.dumps(c)) == c  # unpickling calls TorsionPoint(a, b, n)
    assert calls == [(Fraction(1, 3), 0), (1, 0, 3)]
    assert len(solve_division(c, 4)) == 16 and len(torsion_points(4)) == 16
    assert c + c - c == c and -c == 2 * c
    assert len(calls) == 2  # group operations and solving build no point by TorsionPoint(...)


def test_floats_and_non_points_are_refused():
    p = P(1, 0, 3)
    for x, y, got in ((0.1, 0, "0.1, 0"), (0, 0.5, "0, 0.5"), (Fraction(1, 3), 1.0, "Fraction(1, 3), 1.0")):
        with pytest.raises(ValueError, match=re.escape(f"must be exact, not floats: got {got}")):
            P(x, y)
    # strings and Fractions still parse exactly
    assert P("0.1", "1/2") == P(Fraction(1, 10), Fraction(1, 2)) == P(1, 5, 10)
    for k in (1.5, 2.0, Fraction(3, 2), Fraction(2), "2", None):
        assert p.__mul__(k) is NotImplemented
        with pytest.raises(TypeError):
            p * k
        with pytest.raises(TypeError):
            k * p
    assert True * p == p and p * False == ZERO  # bool is an integer
    for other in (1, 0, Fraction(1, 3), (1, 0), "x"):
        assert p.__add__(other) is NotImplemented and p.__sub__(other) is NotImplemented
        assert p.__eq__(other) is NotImplemented and p.__lt__(other) is NotImplemented
        assert p != other and not p == other
        with pytest.raises(TypeError):
            p < other
        for op in (lambda: p + other, lambda: other + p, lambda: p - other, lambda: other - p):
            with pytest.raises(TypeError):
                op()


triples = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**4))


@given(triples, triples, st.integers(-10**3, 10**3))
def test_group_operations_match_fraction_mod_one(t, u, k):
    # integer triples (a, b, n) of any size and sign, against Fractions mod 1
    p, q = P(*t), P(*u)
    op, oq = (_oracle(Fraction(a, n), Fraction(b, n)) for a, b, n in (t, u))
    for point, oracle in ((p, op), (q, oq), (p + q, _oracle_add(op, oq)),
                          (p - q, _oracle(op[0] - oq[0], op[1] - oq[1])),
                          (-p, _oracle(-op[0], -op[1])),
                          (k * p, _oracle(k * op[0], k * op[1])), (p * k, _oracle(k * op[0], k * op[1]))):
        order = _oracle_order(oracle)
        assert (point.a, point.b, point.n) == (oracle[0] * order, oracle[1] * order, order)
        assert _agrees(point, oracle)


def test_group_arithmetic_builds_no_fraction(monkeypatch):
    points = torsion_points(12) + [P(Fraction(1, 9), Fraction(2, 5))]
    c = P(Fraction(1, 3), Fraction(2, 3))

    class NoFraction:
        def __new__(cls, *args):
            raise AssertionError("a Fraction was built")

    monkeypatch.setattr(torsion_module, "Fraction", NoFraction)
    for p in points:
        for q in (p, c, ZERO, points[-1]):
            p + q, p - q, -p, 7 * p, p * -3, p == q, p != q, p < q, p >= q
        hash(p), p.n, stratify(p), p.is_zero
    sorted(points)
    assert len(solve_division(c, 4)) == 16
    assert len(torsion_points(9)) == 81


def test_solve_division_budget():
    assert MAX_DIVISION_ORDER == 256  # scale workloads solve at m <= 24
    with pytest.raises(ValueError, match="budgeted"):
        solve_division(ZERO, MAX_DIVISION_ORDER + 1)


def test_torsion_points_budget_is_checked_before_any_point(monkeypatch):
    # n^2 points: 1e20 would ask for 10**40 of them.  The budget is the one
    # solve_division keeps; library callers use 4 and 12, scale 24..36
    def refuse(a, b, n):
        raise AssertionError("built a point")

    monkeypatch.setattr(torsion_module, "_point", refuse)
    for value in (257, 257.0, 10**40, 1e20):
        with pytest.raises(ValueError, match=rf"^n is budgeted to at most 256, got {int(value)}$"):
            torsion_points(value)
    with pytest.raises(AssertionError, match="built a point"):
        torsion_points(MAX_DIVISION_ORDER)  # inside the budget: the patch is reached


_NOT_INTEGERS = [2.5, float("inf"), float("-inf"), float("nan"), "2", "two", None, [2], 1j]


def test_sizes_are_read_as_integers():
    # the integer rule of rationals: an integral value reads as an int,
    # checked before the budgets; no value raises TypeError
    c = P(Fraction(1, 3), 0)
    assert torsion_points(2.0) == torsion_points(2)
    assert torsion_points(True) == [ZERO]
    assert solve_division(c, 4.0) == solve_division(c, 4)
    assert solve_division(c, True) == [c]
    assert TorsionPoint(1, 0, 3.0) == TorsionPoint(1, 0, 3) == c
    for value in _NOT_INTEGERS + [1.5, "3"]:
        with pytest.raises(ValueError, match=re.escape(f"n must be a positive integer, got {value!r}")):
            TorsionPoint(1, 0, value)
        with pytest.raises(ValueError, match=re.escape(f"n must be a positive integer, got {value!r}")):
            torsion_points(value)
        with pytest.raises(ValueError, match=re.escape(f"m must be a positive integer, got {value!r}")):
            solve_division(c, value)
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got 0\.0$"):
        torsion_points(0.0)
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got -3$"):
        TorsionPoint(1, 0, -3)
    with pytest.raises(ValueError, match=r"^m must be a positive integer, got 0\.0$"):
        solve_division(c, 0.0)
    with pytest.raises(ValueError, match=r"^m is budgeted to at most 256, got 257$"):
        solve_division(c, 257.0)
    with pytest.raises(ValueError, match=r"^m must be a positive integer, got 256\.5$"):
        solve_division(c, 256.5)


def _division_oracle(c, m):
    # in Fractions, then sorted: x = (c.x + i) / m, y = (c.y + j) / m
    return sorted(P((c.x + i) / m, (c.y + j) / m) for i in range(m) for j in range(m))


# points of 12-torsion, drawn so that c takes every order dividing 12
twelve_torsion = st.builds(P, st.integers(0, 11), st.integers(0, 11), st.sampled_from([1, 2, 3, 4, 6, 12]))


@given(twelve_torsion, st.integers(1, 24))
def test_division_matches_fraction_oracle(c, m):
    # solve_division does not sort: its (i, j) order must already be sorted
    assert solve_division(c, m) == _division_oracle(c, m)


def test_solve_division_keeps_no_cache():
    # two calls share no point, and the module keeps no cache
    c = P(Fraction(1, 3), Fraction(2, 3))
    first, second = solve_division(c, 8), solve_division(c, 8)
    assert first == second and not {id(p) for p in first} & {id(p) for p in second}
    cached = [name for name in dir(torsion_module) if hasattr(getattr(torsion_module, name), "cache_info")]
    assert cached == []


def test_division_and_torsion_points_return_fresh_lists():
    c = P(Fraction(1, 3), 0)
    for build in (lambda: solve_division(c, 4), lambda: torsion_points(4)):
        first = build()
        expected = list(first)
        first.clear()
        assert build() == expected
