"""Assembling the degree 1..4 invariants line by line.

Each invariant is a sum over contact points.  At a given point the census
lists what can touch there: immersed curves count one each, a d-fold cover
of a lower-degree curve counts M_{3b}[d], and a reducible pair counts the
smaller of its two contact orders.  The ledger shows every line and checks
the total against the reference value; it refuses to balance otherwise.
"""
from tangentia import (
    assemble_invariant,
    boundary_census,
    instanton_census,
    local_invariant,
    pair_contribution,
)
from tangentia.assembly import HypothesisViolation

for degree in (1, 2, 3, 4):
    ledger = assemble_invariant(degree)
    print(f"degree {degree}:")
    for line in ledger.lines:
        print(f"  {line.stratum:>3} x{line.points:<4} {str(line.per_point):>6}"
              f"  [{line.provenance}]")
    print(f"  total = {ledger.total}")
    if ledger.note:
        print(f"  note: {ledger.note}")
    print()

# ---------------------------------------------------------------------------
# the pair rule and its hypotheses
# ---------------------------------------------------------------------------

# at a flex, a quartic can degenerate to the tangent line plus a nodal
# cubic sharing the contact point; contact orders 3 and 9.  The census
# derives (C1.C2)_P = 3 from two bounds: at least min(3, 9), as both pieces
# are smooth there, and at most 1 * 3 by Bezout; so the pair counts min = 3
print(f"pair_contribution(3, 9, 3) = {pair_contribution(3, 9, 3)}")

# the rule holds only when (C1.C2)_P = min(3, 9); a transversal meeting,
# (C1.C2)_P = 1, is refused
try:
    pair_contribution(3, 9, 1)
except HypothesisViolation as exc:
    print(f"a transversal meeting is refused: {exc}")
print()

# ---------------------------------------------------------------------------
# local invariants and an integer cross-check
# ---------------------------------------------------------------------------

for degree in (1, 2, 3, 4):
    print(f"K_{degree} = {local_invariant(degree)}")
print()

# replacing each cover contribution by its instanton number turns the
# degree-4 census into the same integer at every stratum
for label in ("T1", "T2", "T3"):
    entry = boundary_census(4, label)
    kinds = ", ".join(f"{c.count} {c.kind}" for c in entry.components)
    print(f"{label}: {kinds} -> {instanton_census(label)} instantons per point")
