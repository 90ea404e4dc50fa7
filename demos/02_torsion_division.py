"""Where a fully tangent quartic can touch the cubic.

The smooth cubic is a torus group; picking a flex as origin identifies it
with (Q/Z)^2 and the curves of the toolkit only ever see the torsion part.
A quartic with a single contact point P of order 12 forces 4P to equal a
fixed 3-torsion class, so P lives in one of three strata.
"""
from tangentia import (
    Stratum,
    TorsionPoint,
    parse_class_literal,
    restriction_class,
    solve_division,
    stratify,
    stratum_sizes,
    torsion_points,
)

# the strata, by exact order of the point
sizes = stratum_sizes()
for s in Stratum:
    print(f"{s.value}: {sizes[s]} points")
print()

# a couple of sample points; order-9 points fall outside all three strata
for coords in ((0, 0), ("1/3", "2/3"), ("1/2", "0"), ("1/12", "1/4"), ("1/9", "0")):
    p = TorsionPoint(*coords)
    s = stratify(p)
    print(f"{p}  order {p.n:>2}  stratum {s.value if s else '-'}")
print()

# ---------------------------------------------------------------------------
# restriction and division
# ---------------------------------------------------------------------------

# a divisor class A on the cubic surface restricts to the cubic curve as a
# torsion point; for any class of tangency degree 4 it is 3-torsion
cls = parse_class_literal("2H-E1-E2")
c = restriction_class(cls)
print(f"{cls} restricts to c = {c}, order {c.n}")

# the 16 solutions of 4P = c, in lexicographic order
solutions = solve_division(c, 4)
print(f"{len(solutions)} solutions of 4P = c:")
for p in solutions:
    print(f"  {p}  order {p.n:>2}  stratum {stratify(p).value}")

# count them by stratum: always 1 flex, 3 in T2, 12 in T3
split = {s: 0 for s in Stratum}
for p in solutions:
    split[stratify(p)] += 1
print(f"split: {tuple(split[s] for s in Stratum)}")
print()

# the sixteen solutions are one base point plus the full 4-torsion, so the
# same split is just the count of 4-torsion points of each order
orders = sorted(t.n for t in torsion_points(4))
print(f"orders of the 4-torsion points: {orders}")
