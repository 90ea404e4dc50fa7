import re
from fractions import Fraction
from math import factorial

import pytest

from tangentia import assembly, census
from tangentia.assembly import (
    AssemblyMismatch,
    GwLedger,
    HypothesisViolation,
    LedgerLine,
    assemble_invariant,
    instanton_census,
    local_invariant,
    pair_contribution,
    reference_invariant,
)
from tangentia.census import (
    COVER,
    CUSPIDAL,
    IMMERSED,
    NONFLEX_NINE,
    PAIR,
    CensusEntry,
    Component,
    boundary_census,
    census_strata,
)
from tangentia.covers import instanton_numbers, multiple_cover
from tangentia.torsion import Stratum


def test_pair_contribution_is_min():
    assert pair_contribution(3, 9, 3) == 3
    assert pair_contribution(9, 3, 3) == 3
    assert pair_contribution(5, 5, 5) == 5
    assert pair_contribution(1, 100, 1) == 1


def test_pair_contribution_names_violated_hypothesis():
    # a transversal meeting, and one past the smaller contact order
    for meeting in (1, 4):
        with pytest.raises(HypothesisViolation) as excinfo:
            pair_contribution(3, 9, meeting)
        message = str(excinfo.value)
        assert f"(C1.C2)_P = {meeting}" in message
        assert "min(3, 9) = 3" in message
    with pytest.raises(ValueError, match="^contact order must be a positive integer, got 0$"):
        pair_contribution(0, 9, 0)
    with pytest.raises(ValueError, match="^contact order must be a positive integer, got -9$"):
        pair_contribution(3, -9, 3)


def test_pair_contribution_reads_its_arguments_by_the_integer_rule():
    # the rule is stated for integer contact orders: 3.0 is 3, 3.5 is refused
    for value in (3.0, Fraction(3)):
        assert pair_contribution(value, 9, 3) == pair_contribution(3, value * 3, value) == 3
    assert pair_contribution(True, 9, 1) == pair_contribution(1, 9, 1) == 1
    for value in (3.5, float("inf"), float("nan"), None, "3", 1j):
        for args, what in (((value, 9, 3), "contact order must be a positive integer"),
                           ((9, value, 3), "contact order must be a positive integer"),
                           ((3, 9, value), "meeting_at_p must be an integer")):
            with pytest.raises(ValueError, match=f"^{what}, got "):
                pair_contribution(*args)


def test_reference_invariants():
    assert reference_invariant(1) == 9
    assert reference_invariant(2) == Fraction(135, 4)
    assert reference_invariant(3) == 244
    assert reference_invariant(4) == Fraction(36999, 16)
    with pytest.raises(ValueError):
        reference_invariant(5)
    with pytest.raises(ValueError):
        reference_invariant(0)


def test_reference_invariant_refuses_every_non_degree_by_its_repr():
    # an int keeps its message; a string is named as a string, not as the
    # degree it spells, and a value with no hash is refused, not a TypeError
    for value, shown in ((5, "5"), (0, "0"), ("4", "'4'"), ([1], "[1]"), ({1: 1}, "{1: 1}"),
                         (None, "None"), (2.5, "2.5"), ((), "()")):
        message = f"no tabulated invariant for degree {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reference_invariant(value)


def test_assembled_totals_match_reference():
    for degree in (1, 2, 3, 4):
        ledger = assemble_invariant(degree)
        assert ledger.total == reference_invariant(degree)
        resummed = sum((l.points * l.per_point for l in ledger.lines), Fraction(0))
        assert resummed == ledger.total


def test_degree_two_ledger_lines():
    ledger = assemble_invariant(2)
    assert [(l.stratum, l.points, l.per_point) for l in ledger.lines] == [
        ("T1", 9, Fraction(3, 4)),
        ("T2", 27, Fraction(1)),
    ]


def test_degree_three_ledger_lines():
    ledger = assemble_invariant(3)
    assert [(l.stratum, l.points, l.per_point) for l in ledger.lines] == [
        ("T1", 9, Fraction(10, 9)),
        ("T1", 9, Fraction(2)),
        (NONFLEX_NINE, 72, Fraction(3)),
    ]
    assert ledger.total == 244


def test_degree_four_ledger_lines():
    ledger = assemble_invariant(4)
    assert [(l.stratum, l.points, l.per_point) for l in ledger.lines] == [
        ("T1", 9, Fraction(35, 16)),
        ("T1", 9, Fraction(6)),  # two pairs, min(3, 9) each
        ("T1", 9, Fraction(8)),
        ("T2", 27, Fraction(9, 4)),
        ("T2", 27, Fraction(14)),
        ("T3", 108, Fraction(16)),
    ]


def test_every_ledger_line_has_provenance():
    for degree in (1, 2, 3, 4):
        for line in assemble_invariant(degree).lines:
            assert line.provenance.strip()


def test_degree_four_misprint_note():
    ledger = assemble_invariant(4)
    assert ledger.note is not None
    assert "36999/4" in ledger.note
    assert "36999/16" in ledger.note
    assert all(assemble_invariant(d).note is None for d in (1, 2, 3))


def test_ledger_rejects_mismatched_reference(monkeypatch):
    # a ledger is plain data, balanced or not; assemble_invariant refuses an
    # unbalanced one and hands it over with the refusal
    line = LedgerLine(stratum="T1", points=9, per_point=Fraction(1), provenance="x")
    assert GwLedger(degree=1, lines=(line,), reference=Fraction(10)).total == 9
    monkeypatch.setattr(assembly, "reference_invariant", lambda degree: Fraction(10))
    with pytest.raises(AssemblyMismatch) as excinfo:
        assemble_invariant(1)
    assert excinfo.value.ledger.total == 9
    assert excinfo.value.ledger.reference == 10
    assert str(excinfo.value) == "degree 1: assembled 9, reference 10"
    # a failed self-check, not a refused input
    assert isinstance(excinfo.value, ArithmeticError)
    assert not isinstance(excinfo.value, ValueError)


def test_one_rule_refuses_a_cuspidal_member(monkeypatch):
    # the ledger and the instanton census price components by one rule, so
    # both refuse a kind that rule does not price
    def census_with_cusp(degree, stratum):
        components = (Component(IMMERSED, 8), Component(CUSPIDAL, 1))
        return CensusEntry(degree, str(stratum), 9, components)

    monkeypatch.setattr(assembly, "boundary_census", census_with_cusp)
    with pytest.raises(ValueError, match="cuspidal"):
        assemble_invariant(1)
    with pytest.raises(ValueError, match="cuspidal"):
        instanton_census("T1")


def test_local_invariants():
    assert local_invariant(1) == 3
    assert local_invariant(2) == Fraction(-45, 8)
    assert local_invariant(3) == Fraction(244, 9)
    assert local_invariant(4) == Fraction(-12333, 64)


def test_local_invariant_comes_from_the_ledger(monkeypatch):
    # K_d is derived from the assembled total, which is checked against the
    # reference, so a corrupted reference cannot pass through unnoticed
    monkeypatch.setattr(assembly, "reference_invariant", lambda degree: Fraction(10))
    with pytest.raises(AssemblyMismatch):
        local_invariant(1)


def test_the_degree_is_read_as_an_integer():
    # through the census's integer rule: 2.0 is 2 and the ledger stores an
    # int; a value that is not integral raises ValueError, not TypeError
    for value, degree in [(2.0, 2), (4.0, 4), (True, 1)]:
        ledger = assemble_invariant(value)
        assert ledger == assemble_invariant(degree) and type(ledger.degree) is int
        assert local_invariant(value) == local_invariant(degree)
        assert type(local_invariant(value)) is Fraction
    for value in [2.5, float("inf"), float("nan"), "4", None, [2], 1j]:
        for call in (assemble_invariant, local_invariant):
            with pytest.raises(ValueError, match="degree must be an integer"):
                call(value)


def test_local_invariant_sign_reconstruction():
    for d in (1, 2, 3, 4):
        sign = -1 if d % 2 == 0 else 1
        assert sign * 3 * d * local_invariant(d) == reference_invariant(d)


def test_instanton_census_uniform():
    for stratum in Stratum:
        assert instanton_census(stratum) == 16
    assert instanton_census("T2") == 16
    with pytest.raises(ValueError):
        instanton_census("NF9")


@pytest.mark.parametrize("m", [Fraction(1, 2), -100])
def test_instanton_census_refuses_a_count_that_is_not_a_nonnegative_integer(monkeypatch, m):
    # the flex census has one cover; priced at m, the count is 2 * 3 + 8 + m
    monkeypatch.setattr(assembly, "instanton_numbers", lambda w, d: {d: m})
    with pytest.raises(ArithmeticError, match=re.escape(f"instanton count {14 + m} is not")):
        instanton_census("T1")


# ---------------------------------------------------------------------------
# an independent oracle: the local P^2 mirror (Chiang-Klemm-Yau-Zaslow,
# hep-th/9903053), in truncated exact power series
# ---------------------------------------------------------------------------

def _mul(f, g):
    return [sum(f[i] * g[k - i] for i in range(k + 1)) for k in range(len(f))]


def _reciprocal(f):
    g = [1 / Fraction(f[0])]
    for k in range(1, len(f)):
        g.append(-sum(f[i] * g[k - i] for i in range(1, k + 1)) / f[0])
    return g


def _exp(s):
    """exp of a series with no constant term, from E' = S'E."""
    e = [Fraction(1)]
    for n in range(1, len(s)):
        e.append(sum(k * s[k] * e[n - k] for k in range(1, n + 1)) / n)
    return e


def _compose(f, g):
    """f(g(q)) for a series g with no constant term."""
    out, power = [Fraction(0)] * len(f), [Fraction(1)] + [Fraction(0)] * (len(f) - 1)
    for c in f:
        out = [o + c * p for o, p in zip(out, power)]
        power = _mul(power, g)
    return out


def mirror_local_invariants(dmax, sign=1):
    """K_1..K_dmax of local P^2 from the mirror: the period
    omega_1 = log z + S(z) with S = sum a_n z^n, a_n = 3 (-1)^n (3n-1)!/(n!)^3;
    the mirror map q = z exp(S), inverted; and the Yukawa coupling
    -1/(3 (1 + sign*27 z) (theta_z omega_1)^3) = -1/3 + sum d^3 K_d q^d."""
    n = dmax + 1
    a = [Fraction(0)] + [
        Fraction(3 * (-1) ** k * factorial(3 * k - 1), factorial(k) ** 3) for k in range(1, n)
    ]
    theta_omega = [Fraction(1)] + [k * a[k] for k in range(1, n)]
    # z(q): the fixed point of z = q exp(-S(z)), one more order per pass
    damping, z = _exp([-x for x in a]), [Fraction(0)] * n
    for _ in range(n):
        z = [Fraction(0)] + _compose(damping, z)[:-1]
    cube = _mul(_mul(theta_omega, theta_omega), theta_omega)
    linear = [Fraction(3), Fraction(81 * sign)] + [Fraction(0)] * (n - 2)
    yukawa = [-x for x in _reciprocal(_mul(cube, linear))]
    in_q = _compose(yukawa, z)
    assert in_q[0] == Fraction(-1, 3)
    return {d: in_q[d] / d**3 for d in range(1, n)}


# Chiang-Klemm-Yau-Zaslow's genus-0 BPS numbers of local P^2
CKYZ_BPS = (3, -6, 27, -192, 1695, -17064, 188454, -2228160, 27748899, -360012150)


def test_mirror_agrees_with_the_ledger():
    mirror = mirror_local_invariants(4)
    assert [mirror[d] for d in range(1, 5)] == [local_invariant(d) for d in range(1, 5)]


def test_mirror_bps_numbers_match_ckyz():
    mirror = mirror_local_invariants(len(CKYZ_BPS))
    bps = {}
    for d in sorted(mirror):  # K_d = sum over k | d of n_(d/k) / k^3
        multiples = sum(bps[d // k] / Fraction(k**3) for k in range(2, d + 1) if d % k == 0)
        bps[d] = mirror[d] - multiples
    assert tuple(bps[d] for d in sorted(bps)) == CKYZ_BPS


def test_mirror_sign_convention_is_pinned():
    # with 1 - 27z in the Yukawa coupling, K_1 and K_3 come out negative
    right, wrong = mirror_local_invariants(4), mirror_local_invariants(4, sign=-1)
    assert [right[d] > 0 for d in range(1, 5)] == [True, False, True, False]
    assert [wrong[d] > 0 for d in range(1, 5)] == [False, False, False, False]


def _solve_from_the_mirror(degree, kind):
    """The one census line of ``kind`` at ``degree``, and its value per
    curve as the mirror fixes it: I_d = (-1)^(d-1) 3d K_d, less the other
    lines priced by the one per-component rule, over the line's points
    times its count."""
    entries = [boundary_census(degree, label) for label in census_strata(degree)]
    lines = [(e.points, c) for e in entries for c in e.components]
    (points, unknown), = [(p, c) for p, c in lines if c.kind == kind]
    rest = sum(p * assembly._per_point(c, multiple_cover) for p, c in lines if c.kind != kind)
    total = (-1) ** (degree - 1) * 3 * degree * mirror_local_invariants(degree)[degree]
    return unknown, (total - rest) / (points * unknown.count)


def _check_the_pair_rule_against_the_mirror():
    pair, value = _solve_from_the_mirror(4, PAIR)
    assert (pair.count, pair.tangencies, pair.meeting_at_p) == (2, (3, 9), 3)
    assert value == 3 == min(pair.tangencies)
    assert value == assembly.pair_contribution(3, 9, 3)


def test_the_mirror_fixes_the_pair_rule():
    _check_the_pair_rule_against_the_mirror()


@pytest.mark.parametrize("rule", [lambda w1, w2, meeting: Fraction(max(w1, w2)),
                                  lambda w1, w2, meeting: Fraction(1)], ids=["max", "one"])
def test_the_mirror_refuses_another_pair_rule(monkeypatch, rule):
    monkeypatch.setattr(assembly, "pair_contribution", rule)
    with pytest.raises(AssertionError):
        _check_the_pair_rule_against_the_mirror()


@pytest.mark.parametrize("degree, value", [(2, Fraction(3, 4)), (3, Fraction(10, 9))])
def test_the_mirror_fixes_the_cover_value(degree, value):
    cover, solved = _solve_from_the_mirror(degree, COVER)
    assert (cover.base_degree, cover.multiplicity) == (1, degree)
    assert solved == value == multiple_cover(3, degree)


def _instanton_counts(degree):
    """(points, count per point) of each stratum at ``degree``, the covers
    priced by m_w[d] in place of M_w[d], as instanton_census prices degree 4."""
    entries = [boundary_census(degree, label) for label in census_strata(degree)]
    return [(e.points, sum((assembly._per_point(c, lambda w, d: instanton_numbers(w, d)[d])
                            for c in e.components), Fraction(0))) for e in entries]


@pytest.mark.parametrize("degree, count", [(1, 1), (2, 1), (3, 3), (4, 16)])
def test_the_census_counts_the_bps_numbers(degree, count):
    # the count per point is the same at every stratum, and the points times
    # it are (-1)^(d+1) 3d n_d: 9, 36, 243 and 2304
    counts = _instanton_counts(degree)
    assert {per_point for _, per_point in counts} == {count}
    total = sum(points * per_point for points, per_point in counts)
    assert total == (-1) ** (degree + 1) * 3 * degree * CKYZ_BPS[degree - 1]


def test_the_bps_numbers_refuse_a_changed_census(monkeypatch):
    monkeypatch.setitem(census._CENSUS, (3, NONFLEX_NINE), (Component(IMMERSED, 4),))
    total = sum(points * per_point for points, per_point in _instanton_counts(3))
    assert total == 9 * 3 + 72 * 4 != 3 * 3 * CKYZ_BPS[2]
