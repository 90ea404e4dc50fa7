"""Self-verification: every headline result, recomputed and compared.

Each check recomputes one cluster of results from scratch and compares
against the frozen expected values; :func:`run_all_checks` drives the whole
battery.  A check fails by raising :class:`CheckFailure`; one that raises
any other exception fails too, with ``"<Type>: <message>"`` as its detail,
and the rest still run.  The CLI's ``verify-all`` subcommand prints one
PASS/FAIL line per check, and the acceptance test suite asserts the same
facts.
"""
from __future__ import annotations

import time
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, NamedTuple

from . import assembly, census, covers, lattice, torsion, trees


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class CheckFailure(AssertionError):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_multiple_cover_values() -> str:
    expected = {
        (3, 2): Fraction(3, 4),
        (3, 3): Fraction(10, 9),
        (3, 4): Fraction(35, 16),
        (6, 2): Fraction(9, 4),
    }
    for (w, d), value in expected.items():
        got = covers.multiple_cover(w, d)
        _expect(got == value, f"M_{w}[{d}] = {got}, expected {value}")
    for w in range(1, 13):
        _expect(covers.multiple_cover(w, 1) == 1, f"M_{w}[1] != 1")
    return "M_3[2..4] = 3/4, 10/9, 35/16 and M_6[2] = 9/4; M_w[1] = 1"


def check_instanton_inversion() -> str:
    """Reference values of m_w[d], the round trip of the multiple cover
    formula, and an all-pass 8 x 8 integrality box.

    The round trip is in Fractions, over ``divisors``, with
    ``multiple_cover`` and ``local_cover``.  ``instanton_numbers`` uses none
    of them: it solves for d^2 m_w[d] in integers with a divisor sieve, so
    the round trip is independent of the kernel it checks.
    """
    m3 = covers.instanton_numbers(3, 6)
    _expect(
        [m3[d] for d in range(1, 7)] == [1, 1, 1, 2, 5, 13],
        f"m_3[1..6] = {[m3[d] for d in range(1, 7)]}",
    )
    m6 = covers.instanton_numbers(6, 2)
    _expect(m6[2] == 2, f"m_6[2] = {m6[2]}")
    for w in range(1, 13):
        m = covers.instanton_numbers(w, 10)
        for d in range(1, 11):
            total = sum(
                covers.local_cover(d1 * w, d // d1) * m[d1]
                for d1 in covers.divisors(d)
            )
            _expect(
                total == covers.multiple_cover(w, d),
                f"round trip failed at w={w}, d={d}",
            )
    report = covers.integrality_report(8, 8)
    bad = [r for r in report if not r.passes]
    _expect(not bad, f"integrality failures: {bad[:3]}")
    return "m_3[1..6] = 1,1,1,2,5,13; inversion round-trips for w <= 12, d <= 10; integrality box 8x8 all-pass"


EXPECTED_TABLE = (
    (2, (0, 0, 0, 0, 1, 1), 0, 15),
    (3, (0, 0, 1, 1, 1, 2), 0, 60),
    (3, (0, 1, 1, 1, 1, 1), 1, 6),
    (4, (0, 1, 1, 2, 2, 2), 0, 60),
    (4, (1, 1, 1, 1, 1, 3), 0, 6),
    (4, (1, 1, 1, 1, 2, 2), 1, 15),
    (5, (1, 1, 2, 2, 2, 3), 0, 60),
    (5, (1, 2, 2, 2, 2, 2), 1, 6),
    (6, (2, 2, 2, 2, 3, 3), 0, 15),
)


def check_class_table() -> str:
    rows = lattice.enumerate_classes(4)
    got = tuple((r.e, r.a_multiset, r.p_a, r.ordered_count) for r in rows)
    _expect(got == EXPECTED_TABLE, f"class table mismatch: {got}")
    genus0 = sum(r.ordered_count for r in rows if r.p_a == 0)
    genus1 = sum(r.ordered_count for r in rows if r.p_a == 1)
    _expect((genus0, genus1) == (216, 27), f"totals {genus0}/{genus1}")
    return "9 rows; ordered classes: 216 of genus 0 + 27 of genus 1 = 243"


def check_cremona_reduction() -> str:
    conic = lattice.DivisorClass(2, (1, 1, 0, 0, 0, 0))
    cubic = lattice.DivisorClass(3, (1, 1, 1, 1, 1, 0))
    checked = 0
    for e, multiset, p_a, _count in EXPECTED_TABLE:
        for ordering in set(permutations(multiset)):
            start = lattice.DivisorClass(e, ordering)
            path = list(lattice.cremona_steps(start))
            # failures are raised inline: a passing class renders no message
            for prev, cur in zip(path, path[1:]):
                if lattice.arithmetic_genus(prev) != lattice.arithmetic_genus(cur):
                    raise CheckFailure(f"genus changed along reduction of {start}")
                if lattice.tangency_degree(prev) != lattice.tangency_degree(cur):
                    raise CheckFailure(f"tangency degree changed along reduction of {start}")
            terminal = path[-1]
            target = conic if p_a == 0 else cubic
            if (terminal.e, tuple(sorted(terminal.a))) != (target.e, tuple(sorted(target.a))):
                raise CheckFailure(f"{start} reduced to {terminal}")
            checked += 1
    _expect(checked == 243, f"covered {checked} ordered classes")
    return "all 243 ordered classes reduce to the conic or cubic class; genus and tangency preserved stepwise"


def check_torsion_division() -> str:
    sizes = torsion.stratum_sizes()
    _expect(
        (sizes[torsion.Stratum.T1], sizes[torsion.Stratum.T2], sizes[torsion.Stratum.T3])
        == (9, 27, 108),
        f"stratum sizes {sizes}",
    )
    _expect(census.stratum_point_count(census.NONFLEX_NINE) == 72, "order-9 non-flex count")
    for e, multiset, _p_a, _count in EXPECTED_TABLE:
        for ordering in set(permutations(multiset)):
            cls = lattice.DivisorClass(e, ordering)
            c = torsion.restriction_class(cls)
            # failures are raised inline: a passing class renders no message
            if not (3 * c).is_zero:
                raise CheckFailure(f"restriction of {cls} is not 3-torsion")
            sols = torsion.solve_division(c, 4)
            if len(sols) != 16:
                raise CheckFailure(f"{cls}: {len(sols)} solutions")
            split = {s: 0 for s in torsion.Stratum}
            for p in sols:
                split[torsion.stratify(p)] += 1
            if tuple(split[s] for s in torsion.Stratum) != (1, 3, 12):
                raise CheckFailure(f"{cls}: split {split}")
    return "strata sizes 9/27/108; every ordered class splits its 16 division points 1/3/12"


def check_aggregate_counts() -> str:
    totals = census.aggregate_N()
    _expect(
        tuple(totals[s] for s in torsion.Stratum) == (216, 1134, 5184),
        f"aggregate N = {totals}",
    )
    per_point = tuple(census.count_M4(s) for s in torsion.Stratum)
    _expect(per_point == (8, 14, 16), f"per-point counts {per_point}")
    sizes = torsion.stratum_sizes()
    weighted = sum(sizes[s] * census.count_M4(s) for s in torsion.Stratum)
    _expect(weighted == 2178, f"weighted sum {weighted}")
    _expect(sum(totals.values()) // 3 == 2178, "N total / 3")
    return "N = (216, 1134, 5184); per point (8, 14, 16); both sides of the cross-check give 2178"


def check_invariant_ledgers() -> str:
    expected = {
        1: Fraction(9), 2: Fraction(135, 4), 3: Fraction(244), 4: Fraction(36999, 16)
    }
    ledgers = {}
    for degree, value in expected.items():
        ledger = ledgers[degree] = assembly.assemble_invariant(degree)
        _expect(ledger.total == value, f"I_{degree} = {ledger.total}")
        recomputed = sum((l.points * l.per_point for l in ledger.lines), Fraction(0))
        _expect(recomputed == value, f"ledger lines of degree {degree} do not re-sum")
        _expect(
            all(l.provenance for l in ledger.lines),
            f"degree {degree} has a line without provenance",
        )
    _expect(assembly.pair_contribution(3, 9, 3) == 3, "pair rule min(3, 9)")
    _expect(
        any("pair" in line.provenance for line in ledgers[4].lines),
        "degree 4 ledger has no pair line",
    )
    _expect(
        ledgers[4].note is not None and "36999/4" in ledgers[4].note,
        "degree 4 misprint note missing",
    )
    return "I_1..I_4 = 9, 135/4, 244, 36999/16 assembled line by line; misprint 36999/4 flagged"


def check_local_invariants() -> str:
    expected = {
        1: Fraction(3), 2: Fraction(-45, 8), 3: Fraction(244, 9), 4: Fraction(-12333, 64)
    }
    for degree, value in expected.items():
        got = assembly.local_invariant(degree)
        _expect(got == value, f"K_{degree} = {got}")
        sign = -1 if degree % 2 == 0 else 1
        _expect(
            sign * 3 * degree * got == assembly.reference_invariant(degree),
            f"K_{degree} does not invert back to I_{degree}",
        )
    return "K_1..K_4 = 3, -45/8, 244/9, -12333/64, consistent with the I_d"


def check_degeneration_trees() -> str:
    expected_counts = {
        (0, 1): 1,
        (1, 1): 0,
        (2, 1): 0,
        (3, 1): 0,
        (0, 2): 0,
        (1, 2): 1,
        (2, 2): 0,
        (3, 2): 0,
        (2, 3): 3,
    }
    # every frozen count lies in the sweep, so each cell is enumerated once
    for n in range(0, 4):
        for r in range(1, 5):
            shapes = trees.enumerate_types(n, r)
            count = expected_counts.get((n, r), len(shapes))
            _expect(len(shapes) == count, f"|G_({n},{r})| = {len(shapes)}, expected {count}")
            for shape in shapes:
                _expect(shape.violations() == [], f"enumerated type invalid: {shape}")
                for weights in product(range(1, 6), repeat=r):
                    # raised inline: a passing iteration builds no message
                    if trees.propagate_weights(shape, weights).top_weight != sum(weights):
                        raise CheckFailure(f"weight leak on {shape} with {weights}")
    start = time.monotonic()
    big = trees.enumerate_types(4, 5)
    elapsed = time.monotonic() - start
    _expect(elapsed < 10.0, f"enumerate_types(4, 5) took {elapsed:.1f}s")
    _expect(len(big) == 180, f"|G_(4,5)| = {len(big)}")
    return "counts match (|G_(2,3)| = 3 among them); weights conserve for (n, r) <= (3, 4); (4, 5) enumerates 180 types fast"


def check_instanton_census() -> str:
    values = {s: assembly.instanton_census(s) for s in torsion.Stratum}
    _expect(
        all(v == 16 for v in values.values()),
        f"instanton census {values}",
    )
    return "16 instantons per contact point, uniformly across T1, T2, T3"


ALL_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("multiple-cover-values", check_multiple_cover_values),
    ("instanton-inversion", check_instanton_inversion),
    ("quartic-class-table", check_class_table),
    ("cremona-reduction", check_cremona_reduction),
    ("torsion-division", check_torsion_division),
    ("aggregate-counts", check_aggregate_counts),
    ("invariant-ledgers", check_invariant_ledgers),
    ("local-invariants", check_local_invariants),
    ("degeneration-trees", check_degeneration_trees),
    ("instanton-census", check_instanton_census),
)


def run_all_checks() -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except CheckFailure as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # a crashing check fails; the rest still run
            detail = f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(name, False, detail))
    return results
