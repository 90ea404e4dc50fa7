"""Torsion points of a smooth plane cubic, modeled on (Q/Z)^2.

Choosing a flex O as origin makes a smooth cubic D an elliptic curve whose
torsion subgroup is abstractly (Q/Z)^2.  Everything this package needs only
depends on the group structure of the torsion, so a torsion point
(x, y) mod 1 is stored in integers as (a/n, b/n), with n its exact order,
and a line section, conic section, and so on become statements about
multiples of points.  The group law, equality, ordering and the order of a
point are integer arithmetic; ``Fraction`` appears only in the ``x`` and
``y`` views and in parsing.

Geometry dictionary, under a marking theta of the relevant points:

* order-1 and order-3 points are the nine flexes of D (stratum T1);
* T2 is the 27 points of order exactly 6 or 2 (6-torsion, not 3-torsion),
  where the conic with sixfold contact lives;
* T3 is the 108 points of order exactly 12 or 4, the generic quartic case;
* for cubics the relevant non-flex points are the 72 of exact order 9;
  only the census module counts them, under its label ``"NF9"``.

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
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:
    from .lattice import DivisorClass

# solve_division allocates m^2 points; larger m is refused up front
MAX_DIVISION_ORDER = 256


@functools.total_ordering
class TorsionPoint:
    """A point (x, y) of (Q/Z)^2, stored as integers: x = a/n, y = b/n with
    0 <= a, b < n and gcd(a, b, n) = 1, so n is the exact order and the
    triple is canonical.  ``x`` and ``y`` are read-only ``Fraction`` views in
    [0, 1); points compare lexicographically by (x, y).

    ``TorsionPoint(x, y)`` takes any rationals (or strings such as
    ``"1/3"``) and reduces them mod 1;
    ``TorsionPoint(a, b, n)`` is the point (a/n, b/n).
    """

    __slots__ = ("a", "b", "n")

    def __init__(self, x, y, n: int = 1) -> None:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if type(x) is not int or type(y) is not int:
            if not isinstance(x, (int, Fraction)):
                x = Fraction(x)
            if not isinstance(y, (int, Fraction)):
                y = Fraction(y)
            d = math.lcm(x.denominator, y.denominator)
            x = x.numerator * (d // x.denominator)
            y = y.numerator * (d // y.denominator)
            n *= d
        x %= n
        y %= n
        g = math.gcd(x, y, n)
        if g != 1:
            x //= g
            y //= g
            n //= g
        object.__setattr__(self, "a", x)
        object.__setattr__(self, "b", y)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError(f"TorsionPoint is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TorsionPoint is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return TorsionPoint, (self.a, self.b, self.n)

    @property
    def x(self) -> Fraction:
        return Fraction(self.a, self.n)

    @property
    def y(self) -> Fraction:
        return Fraction(self.b, self.n)

    def __add__(self, other: "TorsionPoint") -> "TorsionPoint":
        # over the common denominator n*m; __init__ reduces to the exact order
        n, m = self.n, other.n
        return TorsionPoint(self.a * m + other.a * n, self.b * m + other.b * n, n * m)

    def __sub__(self, other: "TorsionPoint") -> "TorsionPoint":
        n, m = self.n, other.n
        return TorsionPoint(self.a * m - other.a * n, self.b * m - other.b * n, n * m)

    def __neg__(self) -> "TorsionPoint":
        return TorsionPoint(-self.a, -self.b, self.n)

    def __mul__(self, k: int) -> "TorsionPoint":
        return TorsionPoint(k * self.a, k * self.b, self.n)

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


def torsion_points(n: int) -> list[TorsionPoint]:
    """The n^2 points killed by n, in lexicographic (x, y) order."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return [TorsionPoint(i, j, n) for i in range(n) for j in range(n)]


class Stratum(enum.Enum):
    """The three 12-torsion strata relevant to quartic counting."""

    T1 = "T1"
    T2 = "T2"
    T3 = "T3"


def stratify(p: TorsionPoint) -> Optional[Stratum]:
    """Stratum of a point: T1 if 3p = 0, T2 if 6p = 0 but 3p != 0,
    T3 if 12p = 0 but 6p != 0, None for everything else.  Since k*p = 0
    exactly when the order of p divides k, no multiple is built."""
    order = p.n
    if 3 % order == 0:
        return Stratum.T1
    if 6 % order == 0:
        return Stratum.T2
    if 12 % order == 0:
        return Stratum.T3
    return None


@functools.cache
def stratum_sizes() -> Mapping[Stratum, int]:
    """Sizes (9, 27, 108) of T1, T2, T3, computed by enumerating the
    144 points of 12-torsion."""
    sizes = {s: 0 for s in Stratum}
    for p in torsion_points(12):
        s = stratify(p)
        if s is None:
            raise ArithmeticError(f"12-torsion point {p} lies in no stratum")
        sizes[s] += 1
    return MappingProxyType(sizes)


# a few kernels at most, so that m up to MAX_DIVISION_ORDER pins a bounded
# number of points
@functools.lru_cache(maxsize=4)
def _kernel(m: int) -> tuple[TorsionPoint, ...]:
    """The m-torsion subgroup, built once per m for :func:`solve_division`."""
    return tuple(torsion_points(m))


def solve_division(c: TorsionPoint, m: int) -> list[TorsionPoint]:
    """All m^2 solutions of m * P = c within the torsion, in lexicographic
    order: the particular solution (c.a, c.b) / (c.n * m) translated by the
    m-torsion subgroup.  Bounded to m <= MAX_DIVISION_ORDER, checked before
    any point is built."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m > MAX_DIVISION_ORDER:
        raise ValueError(f"division is budgeted to m <= {MAX_DIVISION_ORDER}, got {m}")
    base = TorsionPoint(c.a, c.b, c.n * m)
    sols = sorted(base + t for t in _kernel(m))
    if any(m * p != c for p in sols):
        raise ArithmeticError(f"a solution of {m} * P = {c} does not multiply back")
    return sols


# the standard marking theta of P1..P6 and of O' (see the module docstring)
BASE_POINTS = (
    TorsionPoint(0, 0),
    TorsionPoint(1, 0, 3),
    TorsionPoint(2, 0, 3),
    TorsionPoint(0, 1, 3),
    TorsionPoint(1, 1, 3),
    TorsionPoint(2, 1, 3),
)
O_PRIME = TorsionPoint(1, 0, 9)


def restriction_class(c: DivisorClass) -> TorsionPoint:
    """Restriction of the class e*H - sum ai*Ei to the cubic, as a torsion
    point: 3e * theta(O') - sum ai * theta(Pi).

    The result is always 3-torsion (e and the ai are integers and the
    building blocks conspire), which is what lets the quartic equation
    4P = c have its uniform (1, 3, 12) solution pattern.
    """
    total = (3 * c.e) * O_PRIME
    for ai, p in zip(c.a, BASE_POINTS):
        total = total - ai * p
    return total
