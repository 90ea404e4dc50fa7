import operator
import re
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, strategies as st

from tangentia import lattice
from tangentia.lattice import (
    CANONICAL,
    DivisorClass,
    arithmetic_genus,
    class_literal,
    cremona_reduce,
    cremona_steps,
    enumerate_classes,
    ordered_count,
    pairing,
    parse_class_literal,
    tangency_degree,
)

H = DivisorClass(1, (0, 0, 0, 0, 0, 0))
E1 = DivisorClass(0, (-1, 0, 0, 0, 0, 0))
CONIC = DivisorClass(2, (1, 1, 0, 0, 0, 0))
CUBIC = DivisorClass(3, (1, 1, 1, 1, 1, 0))


def test_pairing_on_generators():
    assert pairing(H, H) == 1
    assert pairing(E1, E1) == -1
    assert pairing(H, E1) == 0
    assert pairing(CANONICAL, CANONICAL) == 3  # K^2 of a cubic surface
    assert pairing(CONIC, CANONICAL) == -4


def test_tangency_degree():
    assert tangency_degree(H) == 3
    assert tangency_degree(CONIC) == 4
    assert tangency_degree(CUBIC) == 4
    assert tangency_degree(DivisorClass(4, (1, 1, 1, 1, 2, 2))) == 4


def test_arithmetic_genus_examples():
    assert arithmetic_genus(H) == 0
    assert arithmetic_genus(CONIC) == 0
    assert arithmetic_genus(CUBIC) == 1
    assert arithmetic_genus(DivisorClass(6, (2, 2, 2, 2, 3, 3))) == 0
    assert arithmetic_genus(DivisorClass(4, (1, 1, 1, 1, 2, 2))) == 1


classes = st.builds(
    DivisorClass,
    st.integers(-6, 9),
    st.tuples(*[st.integers(-4, 4)] * 6),
)


def adjunction_genus(c: DivisorClass) -> int:
    """The genus by adjunction, (c.c + c.K)/2 + 1: an oracle for the
    multiplicity formula in arithmetic_genus."""
    quot, rem = divmod(pairing(c, c) + pairing(c, CANONICAL), 2)
    assert rem == 0, f"c.c + c.K is odd for {c}"
    return quot + 1


@given(classes)
def test_adjunction_matches_multiplicity_genus(c):
    assert arithmetic_genus(c) == adjunction_genus(c)


@given(classes, classes)
def test_pairing_is_symmetric(c1, c2):
    assert pairing(c1, c2) == pairing(c2, c1)


def test_class_literal_round_trip():
    for text in ["2H-E1-E2", "4H-E1-E2-2E3", "3H-E1-E2-E3-E4-E5", "H", "0",
                 "-3H+E1+E2+E3+E4+E5+E6", "6H-2E1-2E2-2E3-2E4-3E5-3E6"]:
        assert class_literal(parse_class_literal(text)) == text


def test_parse_class_literal_values():
    c = parse_class_literal("4H-E1-E2-2E3")
    assert (c.e, c.a) == (4, (1, 1, 2, 0, 0, 0))
    assert parse_class_literal("2H - E1 - E2") == CONIC


def test_repeated_terms_of_a_class_literal_add_up():
    twice = parse_class_literal("H-E1-E1")
    assert twice == parse_class_literal("H-2E1") == DivisorClass(1, (2, 0, 0, 0, 0, 0))
    assert parse_class_literal("2H+H-E3-E3-E3") == parse_class_literal("3H-3E3")
    assert parse_class_literal("H-E1+E1") == H


def test_parse_class_literal_rejects_junk():
    for bad in ["", "2H-F1", "H-E7", "2H--E1", "xyz"]:
        with pytest.raises(ValueError):
            parse_class_literal(bad)


def test_parse_class_literal_refuses_a_non_string_with_value_error():
    for bad in (None, 2.5, 0, (), [], b"2H-E1-E2", CONIC):
        message = f"class literal must be a string, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_class_literal(bad)


def test_divisor_class_needs_six_multiplicities():
    with pytest.raises(ValueError):
        DivisorClass(1, (0, 0, 0))
    with pytest.raises(ValueError):
        DivisorClass(1, iter((0, 0, 0)))
    # any iterable of integers is normalised to a tuple
    assert DivisorClass(2, iter([1, 1, 0, 0, 0, 0])) == CONIC
    assert DivisorClass(2, [1, 1, 0, 0, 0, 0]).a == (1, 1, 0, 0, 0, 0)
    # every construction path stores six ints
    for c in (DivisorClass(2, (1.0, True, 0, 0, 0, 0)),
              DivisorClass._make((2, iter([1, 1, 0, 0, 0, 0]))),
              CUBIC._replace(e=2, a=[1, 1.0, 0, 0, 0, 0])):
        assert c == CONIC and all(type(x) is int for x in c.a)
    with pytest.raises(ValueError):
        DivisorClass._make((1, (0, 0, 0)))
    with pytest.raises(ValueError):
        CONIC._replace(a=(1,))


@pytest.mark.parametrize("e, a", [
    (2, (1.5, 1, 0, 0, 0, 0)),
    (2.5, (1, 1, 0, 0, 0, 0)),
    (2, ("1", "1", 0, 0, 0, 0)),
    (float("inf"), (0,) * 6),
    (float("-inf"), (0,) * 6),
    (float("nan"), (0,) * 6),
    (2, (float("inf"), 1, 0, 0, 0, 0)),
    (2, (1, float("-inf"), 0, 0, 0, 0)),
    (2, (float("nan"), 1, 0, 0, 0, 0)),
    (None, (0,) * 6),
    (2, ([2], 1, 0, 0, 0, 0)),
    (1j, (0,) * 6),
], ids=["fractional-a", "fractional-e", "string-a",
        "inf-e", "minus-inf-e", "nan-e", "inf-a", "minus-inf-a", "nan-a",
        "none-e", "list-a", "complex-e"])
def test_divisor_class_refuses_values_that_are_not_integers(e, a):
    with pytest.raises(ValueError, match=r"^class coefficients must be integers, got "):
        DivisorClass(e, a)
    with pytest.raises(ValueError, match=r"^class coefficients must be integers, got "):
        CONIC._replace(e=e, a=a)


def test_divisor_class_stores_an_integral_e_as_an_int():
    c = DivisorClass(2.0, (1, 1, 0, 0, 0, 0))
    assert c == CONIC and type(c.e) is int and str(c) == "2H-E1-E2"
    assert type(CONIC._replace(e=True).e) is int


def test_divisor_class_has_no_order_and_no_tuple_arithmetic():
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add):
        with pytest.raises(TypeError):
            op(CONIC, CUBIC)
    with pytest.raises(TypeError):
        CONIC * 2
    with pytest.raises(TypeError):
        2 * CONIC
    with pytest.raises(TypeError):
        sorted([CUBIC, CONIC])
    assert CONIC == DivisorClass(2, (1, 1, 0, 0, 0, 0)) != CUBIC
    assert hash(CONIC) == hash(DivisorClass(2, [1, 1, 0, 0, 0, 0]))


def test_records_are_read_only_and_print_as_before():
    row = enumerate_classes(4)[0]
    assert repr(CONIC) == "DivisorClass(e=2, a=(1, 1, 0, 0, 0, 0))"
    assert str(CONIC) == "2H-E1-E2"
    assert repr(row) == "ClassTableRow(e=2, a_multiset=(0, 0, 0, 0, 1, 1), p_a=0, ordered_count=15)"
    for record, names in ((CONIC, ("e", "a", "new_attribute")),
                          (row, ("e", "a_multiset", "p_a", "ordered_count", "representative"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_ordered_count_against_permutation_oracle():
    for multiset in [(0, 0, 0, 0, 1, 1), (1, 1, 1, 1, 2, 2), (1, 2, 3, 4, 5, 6),
                     (2, 2, 2, 2, 3, 3), (0, 0, 0, 0, 0, 0), (0, 1, 1, 2, 2, 2)]:
        assert ordered_count(multiset) == len(set(permutations(multiset)))


def test_ordered_count_reads_its_entries_by_the_integer_rule():
    assert ordered_count([0, 0.0, True, 1.0, 2, 2]) == ordered_count((0, 0, 1, 1, 2, 2)) == 90
    for value in (1.5, float("inf"), float("nan"), None, "1", 1j):
        with pytest.raises(ValueError, match="^multiset entries must be integers, got "):
            ordered_count((0, 0, value, 1, 1, 1))


def test_enumerate_classes_degree_four_table():
    rows = enumerate_classes(4)
    assert [(r.e, r.a_multiset, r.p_a, r.ordered_count) for r in rows] == [
        (2, (0, 0, 0, 0, 1, 1), 0, 15),
        (3, (0, 0, 1, 1, 1, 2), 0, 60),
        (3, (0, 1, 1, 1, 1, 1), 1, 6),
        (4, (0, 1, 1, 2, 2, 2), 0, 60),
        (4, (1, 1, 1, 1, 1, 3), 0, 6),
        (4, (1, 1, 1, 1, 2, 2), 1, 15),
        (5, (1, 1, 2, 2, 2, 3), 0, 60),
        (5, (1, 2, 2, 2, 2, 2), 1, 6),
        (6, (2, 2, 2, 2, 3, 3), 0, 15),
    ]


def test_enumerate_classes_row_properties():
    rows = enumerate_classes(4)
    assert all(r.p_a in (0, 1) for r in rows)
    assert all(r.e <= 6 for r in rows)  # nothing with e = 7, 8, 9 survives
    assert all(tangency_degree(r.representative) == 4 for r in rows)
    assert sum(r.ordered_count for r in rows) == 243


def test_enumerate_classes_other_degrees():
    rows3 = enumerate_classes(3)
    assert all(tangency_degree(r.representative) == 3 for r in rows3)
    assert any(r.e == 1 and r.a_multiset == (0,) * 6 for r in rows3)  # the line
    assert enumerate_classes(0)  # the zero class row exists
    with pytest.raises(ValueError):
        enumerate_classes(-1)


def _classes_by_e_loop(d):
    """Naive oracle: for every e whose 3e - d fits the box, scan every
    multiset for one with that sum."""
    rows = []
    for e in range(0, 7 * d // 3 + 1):
        for a in combinations_with_replacement(range(d + 1), 6):
            if sum(a) == 3 * e - d:
                genus = arithmetic_genus(DivisorClass(e, a))
                if genus >= 0:
                    rows.append((e, a, genus, len(set(permutations(a)))))
    return sorted(rows)


@pytest.mark.parametrize("degree", range(0, 9))
def test_enumerate_classes_against_e_loop_oracle(degree):
    rows = enumerate_classes(degree)
    assert [(r.e, r.a_multiset, r.p_a, r.ordered_count) for r in rows] == (
        _classes_by_e_loop(degree)
    )


def _classes_by_built_divisors(d):
    """The earlier search, at the budget ceiling: a validating DivisorClass
    is built for every candidate of the box and its genus read by
    arithmetic_genus."""
    rows = []
    for a in combinations_with_replacement(range(d + 1), 6):
        e, rem = divmod(d + sum(a), 3)
        if rem == 0:
            genus = arithmetic_genus(DivisorClass(e, a))
            if genus >= 0:
                rows.append(lattice.ClassTableRow(e, a, genus, ordered_count(a)))
    return sorted(rows, key=lambda r: (r.e, r.a_multiset))


def test_enumerate_classes_at_the_ceiling_against_built_divisors():
    rows = enumerate_classes(lattice.MAX_CLASS_DEGREE)
    assert lattice.MAX_CLASS_DEGREE == 20
    assert rows == _classes_by_built_divisors(lattice.MAX_CLASS_DEGREE)


def test_class_search_builds_no_divisor_class(monkeypatch):
    built = []
    new = DivisorClass.__new__

    def counted(cls, e, a):
        built.append((e, a))
        return new(cls, e, a)

    monkeypatch.setattr(DivisorClass, "__new__", staticmethod(counted))
    assert DivisorClass(2, (1, 1, 0, 0, 0, 0)) == CONIC and len(built) == 1  # the count works
    rows = enumerate_classes(16)
    assert len(rows) == 3669 and len(built) == 1
    assert rows[0].representative == DivisorClass(*rows[0][:2]) and len(built) == 3


def _classes_by_box_walk(d):
    """The earlier search: every multiset of the box 0 <= ai <= d is drawn,
    e read off 3e = d + sum(a), and the genus checked on the candidates of
    the right residue."""
    rows = []
    for a in combinations_with_replacement(range(d + 1), 6):
        e, rem = divmod(d + sum(a), 3)
        if rem:
            continue
        genus = (e - 1) * (e - 2) // 2 - sum(x * (x - 1) // 2 for x in a)
        if genus >= 0:
            rows.append(lattice.ClassTableRow(e, a, genus, ordered_count(a)))
    rows.sort(key=lambda r: (r.e, r.a_multiset))
    return rows


@pytest.mark.parametrize("degree", range(0, lattice.MAX_CLASS_DEGREE + 1))
def test_enumerate_classes_against_box_walk_oracle(degree):
    assert enumerate_classes(degree) == _classes_by_box_walk(degree)


def test_least_spend_against_every_split():
    for parts in range(1, 5):
        for total in range(0, 13):
            least = min(
                sum(x * (x - 1) // 2 for x in split)
                for split in combinations_with_replacement(range(total + 1), parts)
                if sum(split) == total
            )
            assert lattice._least_spend(total, parts) == least, (total, parts)


def test_class_search_prunes_by_the_genus_budget(monkeypatch):
    calls = []
    least = lattice._least_spend

    def counted(total, parts):
        calls.append((total, parts))
        return least(total, parts)

    monkeypatch.setattr(lattice, "_least_spend", counted)
    rows = enumerate_classes(16)
    # the box walk scores every multiset of the right residue
    scored = sum(1 for a in combinations_with_replacement(range(17), 6) if sum(a) % 3 == 2)
    assert scored == 24864 and len(rows) == 3669
    assert 0 < len(calls) < scored / 3


def test_class_search_reads_its_degree_as_an_integer():
    # the integer rule of rationals, checked before the budget
    assert enumerate_classes(4.0) == enumerate_classes(4)
    assert enumerate_classes(True) == enumerate_classes(1)
    assert all(type(r.e) is int for r in enumerate_classes(3.0))
    inf, nan = float("inf"), float("nan")
    for value in (2.5, inf, -inf, nan, "4", "four", 20.5, None, [2], 1j):
        message = f"degree must be an integer >= 0, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            enumerate_classes(value)
    with pytest.raises(ValueError, match=r"^degree is budgeted to at most 20, got 21$"):
        enumerate_classes(21.0)
    with pytest.raises(ValueError, match=r"^degree must be an integer >= 0, got -1.0$"):
        enumerate_classes(-1.0)


W_E6_ORDER = 51840


def _w_e6_orbit(e, a):
    """Orbit of the class eH - sum a_i E_i under the Weyl group W(E6), walked
    with its generators: the five adjacent transpositions of the E_i and the
    quadratic Cremona map at E1, E2, E3 (e -> 2e - a1 - a2 - a3 and
    a_i -> e - a_j - a_k).  Uses neither the box search nor adjunction."""
    start = (e, tuple(a))
    orbit, frontier = {start}, [start]
    while frontier:
        e, a = frontier.pop()
        images = [(e, a[:i] + (a[i + 1], a[i]) + a[i + 2:]) for i in range(5)]
        a1, a2, a3 = a[:3]
        images.append((2 * e - a1 - a2 - a3, (e - a2 - a3, e - a1 - a3, e - a1 - a2) + a[3:]))
        for image in images:
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


@pytest.mark.parametrize("start, genus, size, stabiliser", [
    ((2, (1, 1, 0, 0, 0, 0)), 0, 216, 240),
    ((3, (1, 1, 1, 1, 1, 0)), 1, 27, 1920),
], ids=["conic", "cubic"])
def test_class_table_is_two_w_e6_orbits(start, genus, size, stabiliser):
    orbit = _w_e6_orbit(*start)
    table = {
        (row.e, ordering)
        for row in enumerate_classes(4) if row.p_a == genus
        for ordering in set(permutations(row.a_multiset))
    }
    assert orbit == table
    assert len(orbit) == size
    assert all(e >= 0 and min(a) >= 0 for e, a in orbit)
    # orbit-stabiliser: 240 and 1920 elements fix the conic and cubic class
    assert size * stabiliser == W_E6_ORDER


def test_cremona_examples():
    path = list(cremona_steps(DivisorClass(4, (1, 1, 1, 1, 1, 3))))
    assert [(c.e, c.a) for c in path] == [
        (4, (3, 1, 1, 1, 1, 1)),
        (3, (2, 1, 1, 1, 0, 0)),
        (2, (1, 1, 0, 0, 0, 0)),
    ]
    # an already-terminal class comes back unchanged (up to ordering)
    terminal = cremona_reduce(DivisorClass(2, (0, 0, 0, 0, 1, 1)))
    assert (terminal.e, tuple(sorted(terminal.a))) == (2, (0, 0, 0, 0, 1, 1))
    # one step for the genus-1 quartic class
    reduced = cremona_reduce(DivisorClass(4, (1, 1, 1, 1, 2, 2)))
    assert (reduced.e, tuple(sorted(reduced.a))) == (3, (0, 1, 1, 1, 1, 1))


def test_cremona_preserves_invariants_stepwise():
    for row in enumerate_classes(4):
        for ordering in set(permutations(row.a_multiset)):
            path = list(cremona_steps(DivisorClass(row.e, ordering)))
            for prev, cur in zip(path, path[1:]):
                assert arithmetic_genus(prev) == arithmetic_genus(cur)
                assert tangency_degree(prev) == tangency_degree(cur)
                assert pairing(prev, prev) == pairing(cur, cur)
                assert cur.e < prev.e


def test_cremona_terminal_forms():
    for row in enumerate_classes(4):
        terminal = cremona_reduce(row.representative)
        if row.p_a == 0:
            assert (terminal.e, terminal.a) == (2, (1, 1, 0, 0, 0, 0))
        else:
            assert (terminal.e, terminal.a) == (3, (1, 1, 1, 1, 1, 0))


def test_cremona_step_cap(monkeypatch):
    needs_three_steps = DivisorClass(-3, (4, 4, 4, 4, -3, -3))
    assert cremona_reduce(needs_three_steps)  # terminates under the default cap
    monkeypatch.setattr(lattice, "MAX_CREMONA_STEPS", 1)
    with pytest.raises(RuntimeError, match="within 1 Cremona steps"):
        list(cremona_steps(needs_three_steps))
