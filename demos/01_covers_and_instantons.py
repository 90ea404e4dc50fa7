"""Multiple-cover contributions and the instanton numbers hiding in them.

A degree-d cover of a fixed curve with contact order w contributes
M_w[d] = C(d(w-1) - 1, d - 1) / d^2 to the count in d times its class.
Those rationals are not themselves counts of anything, but inverting the
cover series against them produces integers that behave like counts.
"""
import sys
from fractions import Fraction

from tangentia import (
    divisors,
    instanton_numbers,
    integrality_report,
    local_cover,
    multiple_cover,
)

# ---------------------------------------------------------------------------
# the raw cover contributions
# ---------------------------------------------------------------------------

print("cover contributions of the tangent line (w = 3):")
for d in range(1, 7):
    print(f"  M_3[{d}] = {multiple_cover(3, d)}")

# the conic with sixfold contact has w = 6; its double cover carries 9/4
print()
print(f"double cover of the sixfold conic: M_6[2] = {multiple_cover(6, 2)}")

# ---------------------------------------------------------------------------
# inversion: subtract what lower degrees already explain
# ---------------------------------------------------------------------------

# m_w[d] is what is left of M_w[d] after the covers of the degree-d1
# pieces (d1 | d) are stripped off, using the signed local contributions
# M'_n[d] = (-1)^(n(d-1)) / d^2 as the stripping weights.

print()
print("local weights M'_3[d]:", [str(local_cover(3, d)) for d in range(1, 5)])

print()
print("instanton numbers m_w[1..6]:")
for w in (3, 4, 5, 6):
    m = instanton_numbers(w, 6)
    print(f"  w = {w}: {[str(m[d]) for d in range(1, 7)]}")

# every one of those is a positive integer, which the raw M values (look at
# 3/4 and 10/9 above) had no obvious reason to produce

report = integrality_report(8, 8)
print()
print(f"integrality over w <= 8, d <= 8: {sum(r.passes for r in report)}"
      f"/{len(report)} rows pass")

# w = 1 and w = 2 sit outside the geometric range; there the numbers vanish
# beyond degree 1, which the report records as integer but not positive
m1 = instanton_numbers(1, 4)
beyond = [m1[d] for d in range(2, 5)]
if beyond != [0, 0, 0]:
    sys.exit(f"w = 1 should vanish beyond d = 1, got m_1[2..4] = {[str(x) for x in beyond]}")
print("w = 1 vanishes beyond d = 1, as the extrapolated rows predict")

# ---------------------------------------------------------------------------
# the round trip: covers of instantons rebuild the cover contributions
# ---------------------------------------------------------------------------

# summing M'_{d1 w}[d / d1] * m_w[d1] over the divisors d1 of d gives M_w[d]
# back, recomputed here from scratch for every entry of a 6 x 8 box
for w in range(1, 7):
    m = instanton_numbers(w, 8)
    for d in range(1, 9):
        rebuilt = sum(local_cover(d1 * w, d // d1) * m[d1] for d1 in divisors(d))
        if rebuilt != multiple_cover(w, d):
            sys.exit(f"round trip fails at w = {w}, d = {d}: {rebuilt} != {multiple_cover(w, d)}")
print()
print("round trip M' * m = M verified on the 6 x 8 relative table")

total = sum(multiple_cover(3, d) for d in range(1, 9))
if not isinstance(total, Fraction):
    sys.exit(f"sum of M_3[1..8] is not an exact Fraction: {total!r}")
print(f"sum of M_3[1..8], exactly: {total}")
