"""Self-verification: every headline result, recomputed and compared.

Each check recomputes one cluster of results from scratch and compares
against the frozen expected values; :func:`run_all_checks` drives the whole
battery.  A check fails one way: :func:`_expect` raises
:class:`CheckFailure` with a ``str.format`` message built only on failure,
so a passing check formats nothing.  A check that raises any other
exception fails too, with ``"<Type>: <message>"`` as its detail, and the
rest still run.  The CLI's ``verify-all`` subcommand prints one
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


def _expect(condition: bool, template: str, *args: object) -> None:
    if not condition:
        raise CheckFailure(template.format(*args))


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
        _expect(got == value, "M_{}[{}] = {}, expected {}", w, d, got, value)
    for w in range(1, 13):
        _expect(covers.multiple_cover(w, 1) == 1, "M_{}[1] != 1", w)
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
    got = [m3[d] for d in range(1, 7)]
    _expect(got == [1, 1, 1, 2, 5, 13], "m_3[1..6] = {}", got)
    m6 = covers.instanton_numbers(6, 2)
    _expect(m6[2] == 2, "m_6[2] = {}", m6[2])
    for w in range(1, 13):
        m = covers.instanton_numbers(w, 10)
        for d in range(1, 11):
            total = sum(
                covers.local_cover(d1 * w, d // d1) * m[d1]
                for d1 in covers.divisors(d)
            )
            _expect(total == covers.multiple_cover(w, d), "round trip failed at w={}, d={}", w, d)
    bad = [r for r in covers.integrality_report(8, 8) if not r.passes]
    _expect(not bad, "integrality failures: {}", bad[:3])
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

# I_1..I_4, frozen here apart from the library's reference table
EXPECTED_INVARIANTS = {1: Fraction(9), 2: Fraction(135, 4), 3: Fraction(244), 4: Fraction(36999, 16)}


def _ordered_classes():
    """Each of the 243 ordered classes of the table, with its genus."""
    for e, multiset, p_a, _count in EXPECTED_TABLE:
        for ordering in set(permutations(multiset)):
            yield lattice.DivisorClass(e, ordering), p_a


def check_class_table() -> str:
    rows = lattice.enumerate_classes(4)
    got = tuple((r.e, r.a_multiset, r.p_a, r.ordered_count) for r in rows)
    _expect(got == EXPECTED_TABLE, "class table mismatch: {}", got)
    genus0 = sum(r.ordered_count for r in rows if r.p_a == 0)
    genus1 = sum(r.ordered_count for r in rows if r.p_a == 1)
    _expect((genus0, genus1) == (216, 27), "totals {}/{}", genus0, genus1)
    return "9 rows; ordered classes: 216 of genus 0 + 27 of genus 1 = 243"


def check_cremona_reduction() -> str:
    conic = lattice.DivisorClass(2, (1, 1, 0, 0, 0, 0))
    cubic = lattice.DivisorClass(3, (1, 1, 1, 1, 1, 0))
    checked = 0
    for start, p_a in _ordered_classes():
        path = list(lattice.cremona_steps(start))
        for prev, cur in zip(path, path[1:]):
            _expect(lattice.arithmetic_genus(prev) == lattice.arithmetic_genus(cur),
                    "genus changed along reduction of {}", start)
            _expect(lattice.tangency_degree(prev) == lattice.tangency_degree(cur),
                    "tangency degree changed along reduction of {}", start)
        terminal = path[-1]
        target = conic if p_a == 0 else cubic
        _expect((terminal.e, tuple(sorted(terminal.a))) == (target.e, tuple(sorted(target.a))),
                "{} reduced to {}", start, terminal)
        checked += 1
    _expect(checked == 243, "covered {} ordered classes", checked)
    return "all 243 ordered classes reduce to the conic or cubic class; genus and tangency preserved stepwise"


def check_torsion_division() -> str:
    sizes = torsion.stratum_sizes()
    _expect(tuple(sizes[s] for s in torsion.Stratum) == (9, 27, 108), "stratum sizes {}", sizes)
    _expect(census.stratum_point_count(census.NONFLEX_NINE) == 72, "order-9 non-flex count")
    for cls, _p_a in _ordered_classes():
        c = torsion.restriction_class(cls)
        _expect((3 * c).is_zero, "restriction of {} is not 3-torsion", cls)
        sols = torsion.solve_division(c, 4)
        _expect(len(sols) == 16, "{}: {} solutions", cls, len(sols))
        # list.count matches members by identity: no enum __hash__ per point
        strata = [torsion.stratify(p) for p in sols]
        split = tuple(map(strata.count, torsion.Stratum))
        _expect(split == (1, 3, 12), "{}: split T1/T2/T3 = {}", cls, split)
    return "strata sizes 9/27/108; every ordered class splits its 16 division points 1/3/12"


def check_aggregate_counts() -> str:
    totals = census.aggregate_N()
    _expect(tuple(totals[s] for s in torsion.Stratum) == (216, 1134, 5184),
            "aggregate N = {}", totals)
    per_point = tuple(census.count_M4(s) for s in torsion.Stratum)
    _expect(per_point == (8, 14, 16), "per-point counts {}", per_point)
    # the stratum sizes from the 144 points themselves, not from the count
    # that count_M4 divides by, so the two sides are derived apart
    strata = [torsion.stratify(p) for p in torsion.torsion_points(12)]
    weighted = sum(strata.count(s) * census.count_M4(s) for s in torsion.Stratum)
    _expect(weighted == 2178, "weighted sum {}", weighted)
    _expect(sum(totals.values()) // 3 == 2178, "N total / 3")
    return "N = (216, 1134, 5184); per point (8, 14, 16); both sides of the cross-check give 2178"


def check_invariant_ledgers() -> str:
    ledgers = {}
    for degree, value in EXPECTED_INVARIANTS.items():
        ledger = ledgers[degree] = assembly.assemble_invariant(degree)
        _expect(ledger.total == value, "I_{} = {}", degree, ledger.total)
        recomputed = sum((l.points * l.per_point for l in ledger.lines), Fraction(0))
        _expect(recomputed == value, "ledger lines of degree {} do not re-sum", degree)
        _expect(all(l.provenance for l in ledger.lines),
                "degree {} has a line without provenance", degree)
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
        _expect(got == value, "K_{} = {}", degree, got)
        sign = -1 if degree % 2 == 0 else 1
        _expect(sign * 3 * degree * got == EXPECTED_INVARIANTS[degree],
                "K_{0} does not invert back to I_{0}", degree)
    return "K_1..K_4 = 3, -45/8, 244/9, -12333/64, consistent with the I_d"


def check_degeneration_trees() -> str:
    # |G_(n,r)| for every cell of the sweep, r-major
    expected_counts = {
        (0, 1): 1, (1, 1): 0, (2, 1): 0, (3, 1): 0,
        (0, 2): 0, (1, 2): 1, (2, 2): 0, (3, 2): 0,
        (0, 3): 0, (1, 3): 1, (2, 3): 3, (3, 3): 0,
        (0, 4): 0, (1, 4): 1, (2, 4): 13, (3, 4): 18,
    }
    for (n, r), count in expected_counts.items():
        shapes = trees.enumerate_types(n, r)
        _expect(len(shapes) == count, "|G_({},{})| = {}, expected {}", n, r, len(shapes), count)
        for shape in shapes:
            _expect(not shape.violations(), "enumerated type invalid: {}", shape)
            leaks = [weights for weights in product(range(1, 6), repeat=r)
                     if trees.propagate_weights(shape, weights).top_weight != sum(weights)]
            _expect(not leaks, "weight leak on {} with {}", shape, *leaks[:1])
    start = time.monotonic()
    big = trees.enumerate_types(4, 5)
    elapsed = time.monotonic() - start
    _expect(elapsed < 10.0, "enumerate_types(4, 5) took {:.1f}s", elapsed)
    _expect(len(big) == 180, "|G_(4,5)| = {}", len(big))
    return "counts match (|G_(2,3)| = 3 among them); weights conserve for (n, r) <= (3, 4); (4, 5) enumerates 180 types fast"


def check_instanton_census() -> str:
    values = {s: assembly.instanton_census(s) for s in torsion.Stratum}
    _expect(all(v == 16 for v in values.values()), "instanton census {}", values)
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
            results.append(CheckResult(name, True, fn()))
        except Exception as exc:  # a crashing check fails too; the rest still run
            detail = str(exc) if isinstance(exc, CheckFailure) else f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(name, False, detail))
    return results
