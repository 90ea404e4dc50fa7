"""Acceptance battery: ten headline checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
check is an ordinary pytest test, so a plain ``pytest`` run covers them too.
"""
import io
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from itertools import permutations, product

from tangentia import (
    DivisorClass,
    Stratum,
    aggregate_N,
    assemble_invariant,
    count_M4,
    cremona_steps,
    enumerate_classes,
    enumerate_types,
    instanton_census,
    instanton_numbers,
    integrality_report,
    local_cover,
    local_invariant,
    multiple_cover,
    pair_contribution,
    pairing,
    propagate_weights,
    restriction_class,
    solve_division,
    stratify,
    stratum_sizes,
    tangency_degree,
    torsion_points,
)
from tangentia import cli, covers
from tangentia.lattice import arithmetic_genus


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {name}")
        raise
    print(f"ACCEPTANCE {number} PASS: {name}")


def test_criterion_01_multiple_cover_values():
    with criterion(1, "multiple-cover values"):
        assert multiple_cover(3, 2) == Fraction(3, 4)
        assert multiple_cover(3, 3) == Fraction(10, 9)
        assert multiple_cover(3, 4) == Fraction(35, 16)
        assert multiple_cover(6, 2) == Fraction(9, 4)


def test_criterion_02_instanton_inversion_and_integrality():
    with criterion(2, "instanton inversion and integrality"):
        m3 = instanton_numbers(3, 4)
        assert [m3[d] for d in range(1, 5)] == [1, 1, 1, 2]
        assert instanton_numbers(6, 2)[2] == 2
        for w in range(1, 13):
            m = instanton_numbers(w, 10)
            for d in range(1, 11):
                recovered = sum(
                    local_cover(d1 * w, d // d1) * m[d1]
                    for d1 in covers.divisors(d)
                )
                assert recovered == multiple_cover(w, d), (w, d)
        report = integrality_report(8, 8)
        assert len(report) == 64
        assert all(row.passes for row in report)


def test_criterion_03_divisor_class_table():
    with criterion(3, "divisor-class table"):
        rows = enumerate_classes(4)
        assert len(rows) == 9
        assert tuple(r.ordered_count for r in rows) == (
            15, 60, 6, 60, 6, 15, 60, 6, 15,
        )
        totals = {0: 0, 1: 0}
        for r in rows:
            assert r.p_a in totals
            totals[r.p_a] += r.ordered_count
        assert totals == {0: 216, 1: 27}


def _ordered_representatives():
    for row in enumerate_classes(4):
        for perm in set(permutations(row.a_multiset)):
            yield row, DivisorClass(row.e, perm)


TERMINALS = {(2, (1, 1, 0, 0, 0, 0)), (3, (1, 1, 1, 1, 1, 0))}


def test_criterion_04_cremona_reduction():
    with criterion(4, "Cremona reduction"):
        seen = 0
        for row, cls in _ordered_representatives():
            genus = row.p_a
            tangency = tangency_degree(cls)
            previous = cls
            final = cls
            for step in cremona_steps(cls):
                assert step.e < previous.e or previous is cls
                assert arithmetic_genus(step) == genus
                assert tangency_degree(step) == tangency
                assert pairing(step, step) == pairing(previous, previous)
                previous = step
                final = step
            key = (final.e, tuple(sorted(final.a, reverse=True)))
            assert key in TERMINALS, key
            seen += 1
        assert seen == 243


def test_criterion_05_torsion_strata_and_division():
    with criterion(5, "torsion strata and division splits"):
        sizes = stratum_sizes()
        assert (sizes[Stratum.T1], sizes[Stratum.T2], sizes[Stratum.T3]) == (
            9, 27, 108,
        )
        four_torsion = torsion_points(4)
        for row, cls in _ordered_representatives():
            c = restriction_class(cls)
            assert (3 * c).is_zero  # restriction always lands in 3-torsion
            solutions = solve_division(c, 4)
            assert len(solutions) == 16
            split = {Stratum.T1: 0, Stratum.T2: 0, Stratum.T3: 0}
            for p in solutions:
                split[stratify(p)] += 1
            assert (split[Stratum.T1], split[Stratum.T2], split[Stratum.T3]) == (
                1, 3, 12,
            )
            if row.p_a == 1:
                # c is 3-torsion, hence its own quadrisection: 4c = c
                assert c in solutions
                assert set(solutions) == {c + t for t in four_torsion}
                orders = sorted((p - c).n for p in solutions)
                assert orders == [1] + [2] * 3 + [4] * 12


def test_criterion_06_census_aggregation():
    with criterion(6, "census aggregation"):
        totals = aggregate_N()
        sizes = stratum_sizes()
        assert (totals[Stratum.T1], totals[Stratum.T2], totals[Stratum.T3]) == (
            216, 1134, 5184,
        )
        per_point = {s: count_M4(s) for s in Stratum}
        assert (per_point[Stratum.T1], per_point[Stratum.T2],
                per_point[Stratum.T3]) == (8, 14, 16)
        for s in Stratum:
            assert totals[s] % (3 * sizes[s]) == 0
        lhs = sum(sizes[s] * per_point[s] for s in Stratum)
        assert lhs == 9 * 8 + 27 * 14 + 108 * 16 == 2178
        assert lhs == sum(totals.values()) // 3


def test_criterion_07_invariant_assembly():
    with criterion(7, "invariant assembly"):
        expected = {
            1: Fraction(9),
            2: Fraction(135, 4),
            3: Fraction(244),
            4: Fraction(36999, 16),
        }
        for degree, value in expected.items():
            ledger = assemble_invariant(degree)
            assert ledger.total == value == ledger.reference
        assert pair_contribution(3, 9, 3) == 3
        quartic = assemble_invariant(4)
        pair_lines = [
            line for line in quartic.lines if "pair" in line.provenance
        ]
        assert len(pair_lines) == 1
        assert pair_lines[0].per_point == 2 * pair_contribution(3, 9, 3)
        assert "36999/4" in (quartic.note or "")
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(["check-gw", "--degree", "4"])
        assert code == 0
        assert "36999/4" in buffer.getvalue()


def test_criterion_08_local_invariants():
    with criterion(8, "local invariants"):
        expected = {
            1: Fraction(3),
            2: Fraction(-45, 8),
            3: Fraction(244, 9),
            4: Fraction(-12333, 64),
        }
        for degree, value in expected.items():
            k = local_invariant(degree)
            assert k == value
            reconstructed = (-1) ** (degree - 1) * 3 * degree * k
            assert reconstructed == assemble_invariant(degree).total


def test_criterion_09_graph_enumeration():
    with criterion(9, "graph enumeration"):
        assert len(enumerate_types(0, 1)) == 1
        for n in (1, 2, 3, 4):
            assert len(enumerate_types(n, 1)) == 0
        assert len(enumerate_types(1, 2)) == 1
        for n in (0, 2, 3, 4):
            assert len(enumerate_types(n, 2)) == 0
        # brute-force cross-count for (2, 3): one partition strictly between
        # the discrete and total ones, i.e. one 2-block split of {1, 2, 3}
        two_block_splits = {
            frozenset({frozenset(a), frozenset({1, 2, 3} - set(a))})
            for a in ({1}, {2}, {3})
        }
        assert len(enumerate_types(2, 3)) == len(two_block_splits) == 3
        for n in range(0, 4):
            for r in range(1, 5):
                for shape in enumerate_types(n, r):
                    for weights in product(range(1, 6), repeat=r):
                        weighted = propagate_weights(shape, weights)
                        assert weighted.top_weight == sum(weights)
        start = time.monotonic()
        big = enumerate_types(4, 5)
        elapsed = time.monotonic() - start
        assert len(big) == 180
        assert elapsed < 10.0


def test_criterion_10_instanton_uniformity():
    with criterion(10, "instanton uniformity"):
        for stratum in Stratum:
            assert instanton_census(stratum) == 16
