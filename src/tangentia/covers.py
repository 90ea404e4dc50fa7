"""Multiple-cover contributions and instanton numbers for maximal tangency.

A degree-d cover of a rational curve meeting a fixed anticanonical divisor at
a single point with contact order w contributes

    M_w[d] = C(d(w-1) - 1, d - 1) / d^2

to the corresponding relative invariant, where C is the generalized binomial
(so w = 1 makes sense and gives M_1[d] = C(-1, d-1)/d^2 = (-1)^(d-1)/d^2).
Covers of a rigid curve inside the anticanonical divisor itself contribute

    M'_n[d] = (-1)^{n(d-1)} / d^2

when the contact order of the base curve is n.  Because the sign only
depends on n(d-1) mod 2, tripling n never changes M'; in particular the
local contribution is insensitive to replacing contact order n by 3n.

The instanton numbers m_w[d] are defined by the multiple cover formula

    M_w[d] = sum over factorizations d = d1 * d2 of M'_{d1 w}[d2] * m_w[d1],

which is triangular in d.  Multiplied by d^2 it becomes an identity of
integers: with n[d] = d^2 m_w[d],

    C(d(w-1) - 1, d - 1) = sum over divisors d1 of d of
                           (-1)^{d1 w (d/d1 - 1)} n[d1],

so :func:`instanton_numbers` solves for n[d] in plain ints, in increasing d,
and pushes each n[d1], once known, into every multiple of d1 (a divisor
sieve).  Empirically the m_w[d] are positive integers whenever w >= 3;
w = 1, 2 never arise as the contact order of a plane curve with a cubic
(that order is always 3 times the degree), and there the generalized
formula yields zeros from d = 2 on.

With s = w - 1 >= 2 and s^2 < d, the solve steps each binomial from the
previous degree's, with P(n, k) = n!/(n-k)! a product of k small ints:

    C(ds-1, d-1) = C((d-1)s-1, d-2) * P(ds-1, s) / ((d-1) * P(d(s-1), s-1)).

There that costs less than a fresh binomial; for larger s it costs more,
so every other degree gets a fresh one, as does every degree of w <= 2,
where each binomial is +-1.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .rationals import _integer, binomial

# work budgets, read with each size by the integer rule before any work:
# multiple_cover makes one binomial of size d * w; instanton_numbers a fresh
# binomial per degree d <= (w-1)^2 (every d if w <= 2), a multiply and an
# exact divide by products of w - 1 and w - 2 small ints per later degree,
# and O(d_max log d_max) integer additions; integrality_report one such
# solve per w, and checks its box, a product of two sizes, itself
MAX_INSTANTON_DEGREE = 1000
MAX_CONTACT_ORDER = 4096
MAX_INTEGRALITY_CELLS = 4096


def multiple_cover(w: int, d: int) -> Fraction:
    """Contribution M_w[d] of connected d-fold covers, contact order w.

    Bounded to w <= MAX_CONTACT_ORDER and d <= MAX_INSTANTON_DEGREE.
    """
    w = _integer(w, "w", 1, MAX_CONTACT_ORDER)
    d = _integer(d, "d", 1, MAX_INSTANTON_DEGREE)
    return Fraction(binomial(d * (w - 1) - 1, d - 1), d * d)


def local_cover(n: int, d: int) -> Fraction:
    """Contribution M'_n[d] of d-fold covers of a curve inside the divisor."""
    n, d = _integer(n, "n", 1), _integer(d, "d", 1)
    sign = -1 if (n * (d - 1)) % 2 else 1
    return Fraction(sign, d * d)


def divisors(d: int) -> tuple[int, ...]:
    """Positive divisors of d in increasing order, by trial division.
    Bounded to d <= MAX_INSTANTON_DEGREE."""
    d = _integer(d, "d", 1, MAX_INSTANTON_DEGREE)
    return tuple(k for k in range(1, d + 1) if d % k == 0)


def instanton_numbers(w: int, d_max: int) -> dict[int, Fraction]:
    """Solve the multiple cover formula for m_w[1..d_max].

    Works with the integers n[d] = d^2 m_w[d]:

        n[d] = C(d(w-1) - 1, d - 1) - sum over proper divisors d1 of d of
               (-1)^{d1 w (d/d1 - 1)} n[d1].

    Instead of finding the divisors of each d, every n[d1] is pushed, with
    its sign, into a running sum at each multiple k * d1 <= d_max as soon as
    it is known: O(d_max log d_max) integer additions, and one Fraction
    n[d] / d^2 per degree.  Degree 1 always gets a fresh binomial, and
    later degrees are stepped as the module docstring says.

    Bounded to d_max <= MAX_INSTANTON_DEGREE and w <= MAX_CONTACT_ORDER.
    """
    w = _integer(w, "w", 1, MAX_CONTACT_ORDER)
    d_max = _integer(d_max, "dmax", 1, MAX_INSTANTON_DEGREE)
    s = w - 1
    pushed = [0] * (d_max + 1)  # pushed[e]: the signed n[d1] summed over d1 | e, d1 < e
    m: dict[int, Fraction] = {}
    for d in range(1, d_max + 1):
        if 1 < s and s * s < d:  # b holds degree d - 1's binomial
            b = b * math.perm(d * s - 1, s) // ((d - 1) * math.perm(d * (s - 1), s - 1))
        else:
            b = binomial(d * s - 1, d - 1)
        n = b - pushed[d]
        m[d] = Fraction(n, d * d)
        odd = d * w % 2
        for k in range(2, d_max // d + 1):
            pushed[k * d] += -n if odd and k % 2 == 0 else n
    return m


class IntegralityRow(NamedTuple):
    """One (w, d) entry of an integrality report.

    ``extrapolated`` marks contact orders below 3, which cannot occur for a
    plane curve against a cubic; positivity is only expected on geometric
    input, so an extrapolated row passes on integrality alone.
    """

    w: int
    d: int
    value: Fraction
    is_integer: bool
    is_positive: bool
    extrapolated: bool

    @property
    def passes(self) -> bool:
        return self.is_integer and (self.is_positive or self.extrapolated)


def integrality_report(w_max: int, d_max: int) -> list[IntegralityRow]:
    """Integrality and positivity of m_w[d] over the requested box.

    The report covers exactly 1 <= w <= w_max, 1 <= d <= d_max; nothing
    outside the user-supplied bounds is claimed.  Bounded to
    w_max * d_max <= MAX_INTEGRALITY_CELLS.
    """
    w_max, d_max = _integer(w_max, "wmax", 1), _integer(d_max, "dmax", 1)
    if w_max * d_max > MAX_INTEGRALITY_CELLS:
        raise ValueError(
            f"the integrality box is budgeted to wmax * dmax <= {MAX_INTEGRALITY_CELLS}, "
            f"got {w_max} * {d_max} = {w_max * d_max}"
        )
    rows = []
    for w in range(1, w_max + 1):
        extrapolated = w < 3
        rows += [IntegralityRow(w, d, v, v.denominator == 1, v.numerator > 0, extrapolated)
                 for d, v in instanton_numbers(w, d_max).items()]
    return rows
