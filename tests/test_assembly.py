from fractions import Fraction

import pytest

from tangentia import assembly
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
from tangentia.census import CUSPIDAL, IMMERSED, NONFLEX_NINE, CensusEntry, Component
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
    with pytest.raises(ValueError, match="contact orders must be positive"):
        pair_contribution(0, 9, 0)
    with pytest.raises(ValueError, match="contact orders must be positive"):
        pair_contribution(3, -9, 3)


def test_reference_invariants():
    assert reference_invariant(1) == 9
    assert reference_invariant(2) == Fraction(135, 4)
    assert reference_invariant(3) == 244
    assert reference_invariant(4) == Fraction(36999, 16)
    with pytest.raises(ValueError):
        reference_invariant(5)
    with pytest.raises(ValueError):
        reference_invariant(0)


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


def test_ledger_line_requires_provenance():
    with pytest.raises(ValueError):
        LedgerLine(stratum="T1", points=9, per_point=Fraction(1), provenance="")


def test_degree_four_misprint_note():
    ledger = assemble_invariant(4)
    assert ledger.note is not None
    assert "36999/4" in ledger.note
    assert "36999/16" in ledger.note
    assert all(assemble_invariant(d).note is None for d in (1, 2, 3))


def test_ledger_rejects_mismatched_reference():
    line = LedgerLine(stratum="T1", points=9, per_point=Fraction(1), provenance="x")
    with pytest.raises(AssemblyMismatch) as excinfo:
        GwLedger(degree=1, lines=(line,), reference=Fraction(10))
    assert excinfo.value.computed == 9
    assert excinfo.value.reference == 10


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
    monkeypatch.setitem(assembly.REFERENCE_INVARIANTS, 1, Fraction(10))
    with pytest.raises(AssemblyMismatch):
        local_invariant(1)


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
