"""The nine quartic class shapes and their reduction to conics and cubics.

On the cubic surface (the plane blown up at six points on the cubic) a
curve class is e*H - sum a_i E_i.  Asking for tangency degree 4 and
nonnegative arithmetic genus leaves exactly nine multiplicity shapes; a
quadratic transformation centered at the three largest multiplicities
shrinks every one of them down to a known small class.
"""
from itertools import permutations

from tangentia import (
    DivisorClass,
    arithmetic_genus,
    class_literal,
    cremona_reduce,
    cremona_steps,
    enumerate_classes,
    pairing,
    parse_class_literal,
    tangency_degree,
)

rows = enumerate_classes(4)
print("e  multiplicities         p_a  ordered  representative")
for r in rows:
    print(f"{r.e}  {str(list(r.a_multiset)):22} {r.p_a}    {r.ordered_count:>3}"
          f"     {class_literal(r.representative)}")

total0 = sum(r.ordered_count for r in rows if r.p_a == 0)
total1 = sum(r.ordered_count for r in rows if r.p_a == 1)
print(f"\nordered classes: {total0} rational, {total1} of genus one,"
      f" {total0 + total1} in all\n")

# ---------------------------------------------------------------------------
# one reduction, step by step
# ---------------------------------------------------------------------------

start = parse_class_literal("4H-E1-E2-E3-E4-E5-3E6")
print(f"reducing {start}:")
for step in cremona_steps(start):
    print(f"  {class_literal(step):24} e={step.e}"
          f"  p_a={arithmetic_genus(step)}"
          f"  tangency={tangency_degree(step)}"
          f"  self-intersection={pairing(step, step)}")

# the walk above kept genus, tangency and self-intersection fixed while e
# dropped; the end point is the class of a conic through two of the points

# ---------------------------------------------------------------------------
# every ordering of every row lands on one of two terminal forms
# ---------------------------------------------------------------------------

terminals = {}
for r in rows:
    for perm in set(permutations(r.a_multiset)):
        final = cremona_reduce(DivisorClass(r.e, perm))
        key = (final.e, tuple(sorted(final.a, reverse=True)))
        terminals[key] = terminals.get(key, 0) + 1

print("\nterminal forms over all 243 ordered classes:")
for (e, a), count in sorted(terminals.items()):
    print(f"  e={e}, a={list(a)}: {count} classes"
          f"  (genus {arithmetic_genus(DivisorClass(e, a))})")
