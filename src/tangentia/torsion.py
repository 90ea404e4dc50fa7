"""Torsion points of a smooth plane cubic, modeled on (Q/Z)^2.

Choosing a flex O as origin makes a smooth cubic D an elliptic curve whose
torsion subgroup is abstractly (Q/Z)^2.  Everything this package needs only
depends on the group structure of the torsion, so a torsion point
(x, y) mod 1 is stored in integers as (a/n, b/n), with n its exact order,
and a line section, conic section, and so on become statements about
multiples of points.  The group law, equality, ordering and the order of a
point are integer arithmetic; ``Fraction`` appears only in the ``x`` and
``y`` views and in parsing.  Over N = c.n * m, the solutions of m * P = c
are (c.a + i*c.n, c.b + j*c.n) / N; c is reduced, so no numerator reaches
N, and (i, j) order is already sorted order.

Geometry dictionary, under a marking theta of the relevant points:

* order-1 and order-3 points are the nine flexes of D (stratum T1);
* T2 is the 27 points of order exactly 6 or 2 (6-torsion, not 3-torsion),
  where the conic with sixfold contact lives;
* T3 is the 108 points of order exactly 12 or 4, the generic quartic case;
* for cubics the relevant non-flex points are the 72 of exact order 9,
  which the census module labels ``"NF9"``; it reads the strata of each
  degree d off the (3d)-torsion.

These orders are written once, in :data:`STRATUM_ORDERS`: :func:`stratify`
looks a point's order up in it, and :func:`stratum_sizes` and the census
count each stratum's points of exact order k (the (a/k, b/k) with
gcd(a, b, k) = 1) without building one.

The standard marking puts the six blown-up base points P1..P6 at the
3-torsion values fixed in :data:`BASE_POINTS` (their theta-values sum to
zero, as they must for points cut out by a conic), and the ninth-order
point O' at :data:`O_PRIME`, with 3*O' equal to the hyperplane restriction.
"""
from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from operator import index
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .rationals import _Record, _integer

if TYPE_CHECKING:
    from .lattice import DivisorClass

# solve_division and torsion_points allocate m^2 and n^2 points (at most
# 65,536); larger m or n is refused up front
MAX_DIVISION_ORDER = 256


@functools.total_ordering
class TorsionPoint(_Record):
    """A point (x, y) of (Q/Z)^2, a checked record stored as integers:
    x = a/n, y = b/n with 0 <= a, b < n and gcd(a, b, n) = 1, so n is the
    exact order and the triple is canonical.  ``x`` and ``y`` are
    ``Fraction`` views in [0, 1); points compare lexicographically by (x, y).

    ``TorsionPoint(x, y)`` takes ints, ``Fraction``s or strings such as
    ``"1/3"`` mod 1, but no float (inexact); ``TorsionPoint(a, b, n)`` is
    (a/n, b/n), with n read by the integer rule of
    :mod:`~tangentia.rationals` (3.0 is 3).  Only an integer k makes a
    group multiple k * P.
    """

    __slots__ = ("a", "b", "n")

    def __new__(cls, x, y, n: int = 1) -> TorsionPoint:
        n = _integer(n, "n", 1)
        if isinstance(x, float) or isinstance(y, float):  # rarely the rational meant
            raise ValueError(f"torsion coordinates must be exact, not floats: got {x!r}, {y!r}")
        x, y = Fraction(x), Fraction(y)
        d = math.lcm(x.denominator, y.denominator)
        return _point(x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), n * d)

    def __init__(self, x, y, n: int = 1) -> None:
        """Nothing: ``__new__`` builds the point.  Kept for profilers that wrap it."""

    def __reduce__(self):  # not a tuple: the fields by name
        return TorsionPoint, (self.a, self.b, self.n)

    @property
    def x(self) -> Fraction:
        return Fraction(self.a, self.n)

    @property
    def y(self) -> Fraction:
        return Fraction(self.b, self.n)

    def __add__(self, other: "TorsionPoint") -> "TorsionPoint":
        # over the common denominator n*m; _point reduces to the exact order
        if other.__class__ is not TorsionPoint:
            return NotImplemented
        n, m = self.n, other.n
        return _point(self.a * m + other.a * n, self.b * m + other.b * n, n * m)

    def __sub__(self, other: "TorsionPoint") -> "TorsionPoint":
        if other.__class__ is not TorsionPoint:
            return NotImplemented
        n, m = self.n, other.n
        return _point(self.a * m - other.a * n, self.b * m - other.b * n, n * m)

    def __neg__(self) -> "TorsionPoint":
        return _point(-self.a, -self.b, self.n)

    def __mul__(self, k: int) -> "TorsionPoint":
        try:
            k = index(k)
        except TypeError:
            return NotImplemented
        return _point(k * self.a, k * self.b, self.n)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if other.__class__ is not TorsionPoint:
            return NotImplemented
        return self.n == other.n and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.n))

    def __lt__(self, other: "TorsionPoint") -> bool:
        if other.__class__ is not TorsionPoint:
            return NotImplemented
        # a/n < a'/n' iff a*n' < a'*n, since n, n' > 0
        left, right = self.a * other.n, other.a * self.n
        if left != right:
            return left < right
        return self.b * other.n < other.b * self.n

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"

    def __repr__(self) -> str:
        return f"TorsionPoint(x={self.x!r}, y={self.y!r})"

    @property
    def is_zero(self) -> bool:
        return self.n == 1


_set_a, _set_b, _set_n = TorsionPoint.a.__set__, TorsionPoint.b.__set__, TorsionPoint.n.__set__


def _point(a: int, b: int, n: int) -> TorsionPoint:
    """The reduced point (a/n, b/n) for ints with n >= 1; every point is built here."""
    g = math.gcd(a, b, n)  # = gcd(a % n, b % n, n)
    n //= g
    p = object.__new__(TorsionPoint)
    _set_a(p, a // g % n)
    _set_b(p, b // g % n)
    _set_n(p, n)
    return p


def torsion_points(n: int) -> list[TorsionPoint]:
    """The n^2 points killed by n, in lexicographic (x, y) order.  n is read
    by the integer rule of :mod:`~tangentia.rationals` (2.0 is 2, and 2.5
    raises ValueError) and bounded to n <= MAX_DIVISION_ORDER, both checked
    before any point."""
    n = _integer(n, "n", 1, MAX_DIVISION_ORDER)
    return [_point(i, j, n) for i in range(n) for j in range(n)]


class Stratum(enum.Enum):
    """The three 12-torsion strata relevant to quartic counting."""

    T1 = "T1"
    T2 = "T2"
    T3 = "T3"


# the exact orders of the points in each stratum: the one table that
# stratify, stratum_sizes and the census counts read
STRATUM_ORDERS = MappingProxyType({Stratum.T1: (1, 3), Stratum.T2: (2, 6), Stratum.T3: (4, 12)})
_STRATUM_OF_ORDER = {k: s for s, orders in STRATUM_ORDERS.items() for k in orders}


def stratify(p: TorsionPoint) -> Optional[Stratum]:
    """Stratum of a point, looked up by its exact order in
    :data:`STRATUM_ORDERS`; None for an order that no stratum names.  No
    multiple is built."""
    return _STRATUM_OF_ORDER.get(p.n)


def _exact_order_count(orders: Iterable[int]) -> int:
    """Points of exact order k, summed over k in ``orders``: the (a/k, b/k)
    with gcd(a, b, k) = 1.  No point is built."""
    return sum(math.gcd(a, b, k) == 1 for k in orders for a in range(k) for b in range(k))


def stratum_sizes() -> Mapping[Stratum, int]:
    """Sizes (9, 27, 108) of T1, T2, T3, read-only: each stratum's points
    of its exact orders, counted without building a point."""
    return MappingProxyType({s: _exact_order_count(orders) for s, orders in STRATUM_ORDERS.items()})


def solve_division(c: TorsionPoint, m: int) -> list[TorsionPoint]:
    """All m^2 solutions of m * P = c within the torsion, in lexicographic
    order: ((c.a + i*c.n) / N, (c.b + j*c.n) / N) for N = c.n * m in (i, j)
    order, sorted already as 0 <= c.a, c.b < c.n puts every numerator in
    [0, N).  m is read by the integer rule of :mod:`~tangentia.rationals`
    (4.0 is 4, 1.5 raises ValueError) and bounded to m <=
    MAX_DIVISION_ORDER, both checked before any point."""
    m = _integer(m, "m", 1, MAX_DIVISION_ORDER)
    n = c.n * m
    sols = [_point(x, y, n) for x in range(c.a, n, c.n) for y in range(c.b, n, c.n)]
    if any(m * p != c for p in sols):
        raise ArithmeticError(f"a solution of {m} * P = {c} does not multiply back")
    return sols


# the standard marking theta of P1..P6, (i/3, j/3) for j = 0, 1 and
# i = 0, 1, 2, and of O' (see the module docstring)
BASE_POINTS = tuple(TorsionPoint(i, j, 3) for j in range(2) for i in range(3))
O_PRIME = TorsionPoint(1, 0, 9)


def restriction_class(c: DivisorClass) -> TorsionPoint:
    """Restriction of the class e*H - sum ai*Ei to the cubic, as a torsion
    point: 3e * theta(O') - sum ai * theta(Pi), one integer combination of
    the marking's numerators over N = O_PRIME.n, which every base point's
    order divides, reduced by one ``_point``.

    The result is always 3-torsion (e and the ai are integers and the
    building blocks conspire), which is what lets the quartic equation
    4P = c have its uniform (1, 3, 12) solution pattern.
    """
    n = O_PRIME.n
    x, y = 3 * c.e * O_PRIME.a, 3 * c.e * O_PRIME.b
    for ai, p in zip(c.a, BASE_POINTS):
        k = ai * (n // p.n)
        x -= k * p.a
        y -= k * p.b
    return _point(x, y, n)
