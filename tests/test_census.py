import re
from fractions import Fraction

import pytest

from tangentia import census, torsion
from tangentia.assembly import pair_contribution
from tangentia.census import (
    CHI_CUBIC_NONFLEX_SPECIAL,
    CHI_QUARTIC_ORDER2_SPECIAL,
    CHI_QUARTIC_ORDER4_SPECIAL,
    CHI_SURFACE,
    CHI_TRIPLE_TANGENT_LINE,
    COVER,
    CUSPIDAL,
    IMMERSED,
    NONFLEX_NINE,
    PAIR,
    Component,
    aggregate_N,
    boundary_census,
    census_strata,
    class_curve_counts,
    count_M4,
    euler_budget,
    quadrisection_split,
    stratum_point_count,
)
from tangentia.torsion import Stratum, stratify, stratum_sizes, torsion_points


def test_euler_budget():
    assert euler_budget(CHI_SURFACE, CHI_QUARTIC_ORDER2_SPECIAL) == 6
    assert euler_budget(CHI_SURFACE, CHI_QUARTIC_ORDER4_SPECIAL) == 8
    assert euler_budget(CHI_SURFACE, CHI_TRIPLE_TANGENT_LINE) == 2
    assert euler_budget(CHI_SURFACE, CHI_CUBIC_NONFLEX_SPECIAL) == 3
    with pytest.raises(ValueError, match="^Euler characteristic must be an integer >= 0, got -1$"):
        euler_budget(-1, 4)
    with pytest.raises(ValueError, match="^Euler characteristic must be an integer >= 0, got -2$"):
        euler_budget(12, -2)


def test_euler_budget_reads_its_inputs_by_the_integer_rule():
    # a pencil has a whole number of nodal members
    for value in (12.0, True, Fraction(12)):
        assert euler_budget(value, 2) == euler_budget(int(value), 2)
        assert type(euler_budget(value, 2.0)) is int
    for value in (12.5, float("inf"), float("nan"), None, "12", 1j):
        for args in ((value, 2), (12, value)):
            with pytest.raises(ValueError, match="^Euler characteristic must be an integer >= 0, got "):
                euler_budget(*args)


def test_quadrisection_split():
    assert quadrisection_split() == {Stratum.T1: 1, Stratum.T2: 3, Stratum.T3: 12}


def test_class_curve_counts():
    assert class_curve_counts(0) == {Stratum.T1: 1, Stratum.T2: 3, Stratum.T3: 12}
    assert class_curve_counts(1) == {Stratum.T1: 0, Stratum.T2: 18, Stratum.T3: 96}
    with pytest.raises(ValueError):
        class_curve_counts(2)


def test_aggregate_N():
    totals = aggregate_N()
    assert totals == {Stratum.T1: 216, Stratum.T2: 1134, Stratum.T3: 5184}
    # independent recomputation from the table totals: 216 ordered classes
    # of genus 0 and 27 of genus 1
    assert totals[Stratum.T1] == 216 * 1 + 27 * 0
    assert totals[Stratum.T2] == 216 * 3 + 27 * 18
    assert totals[Stratum.T3] == 216 * 12 + 27 * 96


@pytest.mark.parametrize("fn", [stratum_sizes, quadrisection_split, aggregate_N])
def test_cached_counts_are_read_only(fn):
    counts = fn()
    with pytest.raises(TypeError):
        counts[Stratum.T1] = 0
    # only aggregate_N is cached; the two point counts are rebuilt per call
    assert (fn() is counts) == (fn is aggregate_N)


def test_count_M4():
    assert [count_M4(s) for s in Stratum] == [8, 14, 16]


def test_count_M4_takes_a_stratum_label():
    assert [count_M4(s.value) for s in Stratum] == [count_M4(s) for s in Stratum]
    assert count_M4("T1") == count_M4(Stratum.T1) == 8
    with pytest.raises(ValueError, match="'NF9' is not a valid Stratum"):
        count_M4(NONFLEX_NINE)


def test_count_M4_refuses_a_count_it_cannot_divide(monkeypatch):
    # 217 flex quartics over 3 * 9 flex points: the division is not exact
    monkeypatch.setattr(census, "aggregate_N", lambda: {Stratum.T1: 217})
    with pytest.raises(ArithmeticError, match="aggregate count 217 for T1 is not divisible by 27"):
        count_M4(Stratum.T1)


def test_count_cross_check():
    total = sum(aggregate_N().values())
    weighted = 9 * count_M4(Stratum.T1) + 27 * count_M4(Stratum.T2) \
        + 108 * count_M4(Stratum.T3)
    assert weighted == 2178
    assert total == 3 * 2178


def test_census_strata_per_degree():
    assert census_strata(1) == ("T1",)
    assert census_strata(2) == ("T1", "T2")
    assert census_strata(3) == ("T1", NONFLEX_NINE)
    assert census_strata(4) == ("T1", "T2", "T3")
    with pytest.raises(ValueError):
        census_strata(5)


def test_stratum_point_counts():
    assert stratum_point_count("T1") == 9
    assert stratum_point_count("T2") == 27
    assert stratum_point_count("T3") == 108
    assert stratum_point_count(NONFLEX_NINE) == 72
    with pytest.raises(ValueError, match="^no census stratum 'X'$"):
        stratum_point_count("X")


def _refuse(*args):
    raise AssertionError("built torsion points")


def test_the_order_nine_count_builds_no_points(monkeypatch):
    # the oracle counts the points of exact order 9 one by one
    oracle = sum(1 for p in torsion_points(9) if p.n == 9)
    monkeypatch.setattr(torsion, "_point", _refuse)
    assert stratum_point_count(NONFLEX_NINE) == oracle
    assert boundary_census(3, NONFLEX_NINE).points == oracle


def test_the_stratum_counts_build_no_points(monkeypatch):
    # every count reads the order table of torsion; none enumerates points
    monkeypatch.setattr(torsion, "_point", _refuse)
    aggregate_N.cache_clear()
    assert stratum_sizes() == {Stratum.T1: 9, Stratum.T2: 27, Stratum.T3: 108}
    assert quadrisection_split() == {Stratum.T1: 1, Stratum.T2: 3, Stratum.T3: 12}
    assert [stratum_point_count(label) for label in ("T1", "T2", "T3", NONFLEX_NINE)] \
        == [9, 27, 108, 72]
    assert [count_M4(s) for s in Stratum] == [8, 14, 16]
    assert _kinds(boundary_census(4, "T3")) == [(IMMERSED, 16)]


def _kinds(entry):
    return [(c.kind, c.count) for c in entry.components]


def test_boundary_census_low_degrees():
    assert _kinds(boundary_census(1, "T1")) == [(IMMERSED, 1)]
    d2_flex = boundary_census(2, Stratum.T1)
    assert _kinds(d2_flex) == [(COVER, 1)]
    assert d2_flex.components[0].base_degree == 1
    assert d2_flex.components[0].multiplicity == 2
    assert _kinds(boundary_census(2, "T2")) == [(IMMERSED, 1)]


def test_boundary_census_degree_three():
    flex = boundary_census(3, "T1")
    assert _kinds(flex) == [(COVER, 1), (IMMERSED, 2)]
    nonflex = boundary_census(3, NONFLEX_NINE)
    assert _kinds(nonflex) == [(IMMERSED, 3)]
    assert nonflex.points == 72


def test_boundary_census_degree_four():
    flex = boundary_census(4, "T1")
    assert _kinds(flex) == [(COVER, 1), (PAIR, 2), (IMMERSED, 8)]
    assert flex.components[0].multiplicity == 4
    assert flex.components[1].tangencies == (3, 9)
    t2 = boundary_census(4, "T2")
    assert _kinds(t2) == [(COVER, 1), (IMMERSED, 14)]
    assert t2.components[0].base_degree == 2
    assert _kinds(boundary_census(4, "T3")) == [(IMMERSED, 16)]


def test_pairs_meet_at_p_as_the_pair_rule_needs():
    entries = [
        boundary_census(degree, label, special_cubic=special)
        for degree in (1, 2, 3, 4)
        for label in census_strata(degree)
        for special in ((False,) if degree == 4 else (False, True))
    ]
    pairs = [c for entry in entries for c in entry.components if c.kind == PAIR]
    assert [(c.tangencies, c.meeting_at_p) for c in pairs] == [((3, 9), 3)]
    for pair in pairs:
        t1, t2 = pair.tangencies
        assert pair.meeting_at_p == min(t1, t2)
        # Bezout: pieces of degrees t1/3 and t2/3 meet at most (t1/3)(t2/3) times
        assert pair.meeting_at_p <= Fraction(t1, 3) * Fraction(t2, 3)
    with pytest.raises(ValueError, match=r"\(C1.C2\)_P"):
        Component(PAIR, 1, tangencies=(3, 9))


def test_census_immersed_counts_match_aggregate():
    for stratum in Stratum:
        entry = boundary_census(4, stratum)
        immersed = sum(c.count for c in entry.components if c.kind == IMMERSED)
        assert immersed == count_M4(stratum)


def test_special_cubic_variant():
    entry = boundary_census(3, "T1", special_cubic=True)
    assert _kinds(entry) == [(COVER, 1), (CUSPIDAL, 1)]
    assert entry.special_cubic
    # other strata and degrees 1, 2 are untouched by the flag
    assert _kinds(boundary_census(3, NONFLEX_NINE, special_cubic=True)) == \
        _kinds(boundary_census(3, NONFLEX_NINE))
    assert _kinds(boundary_census(2, "T1", special_cubic=True)) == \
        _kinds(boundary_census(2, "T1"))
    with pytest.raises(ValueError):
        boundary_census(4, "T1", special_cubic=True)


def test_boundary_census_rejects_bad_input():
    with pytest.raises(ValueError):
        boundary_census(1, "T2")
    with pytest.raises(ValueError):
        boundary_census(4, NONFLEX_NINE)
    with pytest.raises(ValueError):
        boundary_census(0, "T1")
    with pytest.raises(ValueError):
        boundary_census(3, "T9")


def test_component_validation():
    with pytest.raises(ValueError):
        Component("spiral", 1)
    with pytest.raises(ValueError):
        Component(COVER, 1)  # missing base_degree and multiplicity
    with pytest.raises(ValueError):
        Component(PAIR, 1)  # missing tangencies
    with pytest.raises(ValueError):
        Component(IMMERSED, 0)
    # _make and _replace validate too
    cover = Component(COVER, 1, base_degree=1, multiplicity=3)
    assert Component._make(cover) == cover._replace() == cover
    with pytest.raises(ValueError):
        cover._replace(multiplicity=None)
    with pytest.raises(ValueError):
        Component._make((IMMERSED, 0))
    for name in Component._fields + ("new_attribute",):
        with pytest.raises(AttributeError):
            setattr(cover, name, 1)


@pytest.mark.parametrize("args, fields, message", [
    ((IMMERSED, 1.5), {}, r"component count must be a positive integer, got 1\.5"),
    ((CUSPIDAL, "2"), {}, r"component count must be a positive integer, got '2'"),
    ((COVER, 1), dict(base_degree=0, multiplicity=-2), r"base_degree .* got 0"),
    ((COVER, 1), dict(base_degree=2.5, multiplicity=2), r"base_degree .* got 2\.5"),
    ((COVER, 1), dict(base_degree=1, multiplicity=1), r"multiplicity must be an integer >= 2, got 1"),
    ((PAIR, 1), dict(tangencies=(3,), meeting_at_p=2.5), r"tangencies must be two contact orders"),
    ((PAIR, 1), dict(tangencies=(3, 0), meeting_at_p=3), r"tangencies must be .* got 0"),
    ((PAIR, 1), dict(tangencies=(3, 9), meeting_at_p=2.5), r"meeting_at_p .* got 2\.5"),
    ((IMMERSED, 2), dict(tangencies=(3, 9)), r"immersed components carry no tangencies"),
    ((CUSPIDAL, 1), dict(base_degree=1), r"cuspidal components carry no base_degree"),
    ((COVER, 1), dict(base_degree=1, multiplicity=2, meeting_at_p=3),
     r"cover components carry no meeting_at_p"),
    ((PAIR, 1), dict(tangencies=(3, 9), meeting_at_p=3, multiplicity=2),
     r"pair components carry no multiplicity"),
], ids=["count-float", "count-str", "base-degree-zero", "base-degree-float", "one-fold-cover",
        "one-tangency", "tangency-zero", "meeting-float", "immersed-tangencies",
        "cuspidal-base-degree", "cover-meeting", "pair-multiplicity"])
def test_component_refuses_bad_field_values(args, fields, message):
    with pytest.raises(ValueError, match=message):
        Component(*args, **fields)
    # the same values through _replace of a valid component of the kind
    valid = {
        IMMERSED: Component(IMMERSED, 1),
        CUSPIDAL: Component(CUSPIDAL, 1),
        COVER: Component(COVER, 1, base_degree=1, multiplicity=2),
        PAIR: Component(PAIR, 1, tangencies=(3, 9), meeting_at_p=3),
    }[args[0]]
    with pytest.raises(ValueError, match=message):
        valid._replace(count=args[1], **fields)


# a valid component of each kind with numbers, and the field each number is in
NUMBERED = [
    (IMMERSED, 4, {}, "count"),
    (COVER, 1, dict(base_degree=4, multiplicity=2), "base_degree"),
    (COVER, 1, dict(base_degree=1, multiplicity=4), "multiplicity"),
    (PAIR, 1, dict(tangencies=(3, 4), meeting_at_p=3), "tangencies"),
    (PAIR, 1, dict(tangencies=(4, 9), meeting_at_p=4), "meeting_at_p"),
]


def _field(name, value):
    """The keyword that puts ``value`` in field ``name``; a tangency goes second."""
    return {name: (3, value) if name == "tangencies" else value}


@pytest.mark.parametrize("kind, count, fields, name", NUMBERED, ids=[n for *_, n in NUMBERED])
def test_component_reads_its_numbers_by_the_integer_rule(kind, count, fields, name):
    # an integral value is stored as the int it equals, on every construction path
    valid = Component(kind, count, **fields)
    for value, stored in ((4.0, 4), (Fraction(4), 4), (True, 1)):
        if stored < 2 and name == "multiplicity":
            continue
        built = Component(**{"kind": kind, "count": count, **fields, **_field(name, value)})
        assert built == valid._replace(**_field(name, value))
        assert built == valid._replace(**_field(name, stored))
        numbers = built[1:4] + (built.meeting_at_p, *(built.tangencies or ()))
        assert all(type(v) is int for v in numbers if v is not None)
    floor = "an integer >= 2" if name == "multiplicity" else "a positive integer"
    refused = (2.5, float("inf"), float("-inf"), float("nan"), "4", 1j)
    for value in refused + ((None,) if name in ("count", "tangencies") else ()):
        message = f"component {name} must be {floor}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            valid._replace(**_field(name, value))


def test_pairs_are_derived_where_the_bounds_meet():
    # every split d1 <= d2 of d <= 4 at every stratum: a pair exists exactly
    # when both pieces are tabled immersed curves there and the bounds
    # 3*d1 <= (C1.C2)_P <= d1*d2 meet; it sums to 3d and the pair rule takes it
    def tabled(b, label):
        return [c.count for c in census._CENSUS.get((b, label), ()) if c.kind == IMMERSED]

    seen = []
    for d in (1, 2, 3, 4):
        for label in census_strata(d):
            pairs = {c.tangencies: c for c in boundary_census(d, label).components
                     if c.kind == PAIR}
            for d1 in range(1, d // 2 + 1):
                d2 = d - d1
                pieces = tabled(d1, label) + tabled(d2, label)
                pair = pairs.pop((3 * d1, 3 * d2), None)
                assert (pair is not None) == (len(pieces) == 2 and 3 * d1 == d1 * d2)
                if pair is not None:
                    assert pair.count == pieces[0] * pieces[1]
                    assert pair.meeting_at_p == 3 * d1 == min(pair.tangencies)
                    assert sum(pair.tangencies) == 3 * d
                    assert pair_contribution(*pair.tangencies, pair.meeting_at_p) == 3 * d1
                    seen.append((d, label, pair.count))
            assert not pairs, (d, label)
    assert seen == [(4, "T1", 2)]
    assert not any(c.kind == PAIR for row in census._CENSUS.values() for c in row)


def test_a_pair_the_bounds_leave_undetermined_is_refused(monkeypatch):
    # a tabled quartic at a flex would pair with the tangent line in degree 5,
    # where 3 <= (C1.C2)_P <= 4 fixes nothing; naming order 15 admits degree 5
    monkeypatch.setitem(census._CENSUS, (4, "T1"), (Component(IMMERSED, 1),))
    monkeypatch.setitem(census._ORDERS, "T1", (1, 3, 15))
    with pytest.raises(ArithmeticError, match=r"degree 1 \+ 4 pair undetermined: 3 to 4"):
        boundary_census(5, "T1")


def test_a_pair_of_two_curves_of_one_degree_is_refused(monkeypatch):
    # in degree 6 the bounds meet at (C1.C2)_P = 9 for two nodal cubics at a
    # flex, but such pairs number C(2, 2), not 2 * 2; naming order 18 admits
    # degree 6
    monkeypatch.setitem(census._ORDERS, "T1", (1, 3, 18))
    with pytest.raises(ArithmeticError, match=r"^the count of degree 3 \+ 3 pairs is not derived"):
        boundary_census(6, "T1")


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_the_strata_of_a_degree_are_its_3d_torsion(degree):
    # a degree-d curve meets the cubic only at P exactly when 3d * P = 0
    # (a flex as origin): each point of the (3d)-torsion lies in exactly one
    # stratum of the degree, by its exact order; the T labels agree with
    # stratify, and the stratum sizes add up to (3d)^2
    strata = census_strata(degree)
    for p in torsion_points(3 * degree):
        labels = [label for label in strata if p.n in census._ORDERS[label]]
        assert len(labels) == 1, p
        if labels[0] != NONFLEX_NINE:
            assert stratify(p) == Stratum(labels[0])
    assert sum(map(stratum_point_count, strata)) == (3 * degree) ** 2


@pytest.mark.parametrize("degree", [0, -1, 5, 6, 10**30])
def test_a_degree_outside_the_census_is_refused_before_any_point(monkeypatch, degree):
    # 3d names no stratum order: refused in O(1), with no point built
    monkeypatch.setattr(torsion, "_point", _refuse)
    message = f"^census covers degrees 1..4, got {degree}$"
    with pytest.raises(ValueError, match=message):
        census_strata(degree)
    with pytest.raises(ValueError, match=message):
        boundary_census(degree, "T1")


def test_every_tabled_entry_holds_curves():
    # the strata come from the order table, so no entry is kept for its key
    assert len(census._CENSUS) == 4
    assert all(census._CENSUS.values())
    assert all(label in census_strata(degree) for degree, label in census._CENSUS)


def test_the_degree_is_read_as_an_integer():
    # the integer rule of rationals: an integral value reads as an int
    for value, degree in [(4.0, 4), (True, 1), (Fraction(2), 2)]:
        assert census_strata(value) == census_strata(degree)
        label = census_strata(degree)[0]
        entry = boundary_census(value, label)
        assert entry == boundary_census(degree, label)
        assert type(entry.degree) is int
    for value in [2.5, float("inf"), float("nan"), "4", None, [2], 1j]:
        with pytest.raises(ValueError, match="degree must be an integer"):
            boundary_census(value, "T1")
        with pytest.raises(ValueError, match="degree must be an integer"):
            census_strata(value)


# every component of every entry, field by field: (kind, count, base_degree,
# multiplicity, tangencies, meeting_at_p)
_N = None
FROZEN_CENSUS = {
    (1, "T1"): [(IMMERSED, 1, _N, _N, _N, _N)],
    (2, "T1"): [(COVER, 1, 1, 2, _N, _N)],
    (2, "T2"): [(IMMERSED, 1, _N, _N, _N, _N)],
    (3, "T1"): [(COVER, 1, 1, 3, _N, _N), (IMMERSED, 2, _N, _N, _N, _N)],
    (3, NONFLEX_NINE): [(IMMERSED, 3, _N, _N, _N, _N)],
    (4, "T1"): [
        (COVER, 1, 1, 4, _N, _N), (PAIR, 2, _N, _N, (3, 9), 3), (IMMERSED, 8, _N, _N, _N, _N),
    ],
    (4, "T2"): [(COVER, 1, 2, 2, _N, _N), (IMMERSED, 14, _N, _N, _N, _N)],
    (4, "T3"): [(IMMERSED, 16, _N, _N, _N, _N)],
}
# the special cubic swaps the two nodal cubics at a flex for one cuspidal one
FROZEN_SPECIAL_CENSUS = {
    **{key: rows for key, rows in FROZEN_CENSUS.items() if key[0] < 4},
    (3, "T1"): [(COVER, 1, 1, 3, _N, _N), (CUSPIDAL, 1, _N, _N, _N, _N)],
}


@pytest.mark.parametrize("special", [False, True], ids=["plain", "special-cubic"])
def test_every_component_of_every_entry_is_pinned(special):
    frozen = FROZEN_SPECIAL_CENSUS if special else FROZEN_CENSUS
    got = {}
    for degree in (1, 2, 3, 4):
        for label in census_strata(degree):
            if special and degree == 4:
                continue
            entry = boundary_census(degree, label, special_cubic=special)
            assert (entry.degree, entry.stratum, entry.special_cubic) == (degree, label, special)
            assert entry.points == stratum_point_count(label)
            got[degree, label] = [tuple(c) for c in entry.components]
    assert got == frozen
