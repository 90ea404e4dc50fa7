"""Census of maximally tangent rational curves of degree 1 through 4.

For a point P on a smooth cubic D, the set of degree-d rational curves
meeting D only at P decomposes into irreducible immersed curves, multiple
covers of lower-degree members, and (in degree 4) reducible line-plus-cubic
pairs.  Which shapes occur depends only on the stratum of P:

* T1 (flexes), T2 and T3, by their exact orders in
  :data:`tangentia.torsion.STRATUM_ORDERS`;
* for degree 3 the interesting non-flex points are the 72 points of order
  9, exposed here under the census-only label ``"NF9"``.

With a flex O as origin, a degree-d curve meets D only at P exactly when
dH|_D ~ 3d*P, that is when 3d*(P - O) = 0.  So the points that carry
degree-d curves are the (3d)-torsion: the strata of a degree and their
point counts are read off one table of exact orders per label (the torsion
table plus NF9's order 9), and a degree is in the census when 3d is one of
those orders (d = 1..4).  No count builds a point: the stratum sizes and
the (1, 3, 12) quadrisection split are counted off the table too.

Immersed counts in degrees 3 and 4 (genus-1 classes) come from an Euler
characteristic budget: the relevant pencil sweeps out a rational elliptic
surface with chi = 12, each nodal rational member contributes 1, and the
special non-nodal fiber eats a known amount.  The per-class curve counts
feed :func:`aggregate_N`, and dividing by three times the stratum size
(a triple cover intervenes between the surface where classes live and the
plane) gives the immersed quartic counts per point.

The census tables only what it cannot derive: the immersed curves of
degrees 1 to 3.  Three rules read their count at the same point per lower
degree: an entry of degree d starts with a k-fold cover of every immersed
curve of degree d/k, then holds the pairs C1 + C2 of immersed curves of
degrees d1 <= d2 with d1 + d2 = d, and in degree 4 ends with the immersed
quartics, :func:`count_M4` of its stratum.

A pair's hypothesis (C1.C2)_P = min(D.C1, D.C2) = 3*d1 is derived from
two bounds.  Each piece is smooth at the contact point P, and contact
order between smooth branches is ultrametric, so (C1.C2)_P >= 3*d1;
Bezout gives (C1.C2)_P <= d1*d2.  Where the lower bound is larger no such
pair exists; up to degree 4 the bounds meet only for the split (1, 3), the
tangent line plus a nodal cubic at a flex.  Both pieces meet the cubic
only at P, and they are immersed, since the degree-4 census is refused
for the special cubic, whose pairs would carry a cusp.  A split d1 = d2
is refused: its distinct pairs number C(n, 2), not the n*n the rule counts.
"""
from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union

from .lattice import enumerate_classes
from .rationals import _Record, _integer
from .torsion import STRATUM_ORDERS, Stratum, _exact_order_count

# census-only stratum label for the 72 points of exact order 9 (degree 3)
NONFLEX_NINE = "NF9"

# the exact orders of the points in each stratum label, the torsion strata's
# and NF9's; a stratum carries curves of degree d when its orders divide 3d
# (see the module docstring)
_ORDERS = {**{s.value: orders for s, orders in STRATUM_ORDERS.items()}, NONFLEX_NINE: (9,)}

CensusStratum = Union[Stratum, str]

# Euler characteristic of the rational elliptic surface swept out by any of
# the pencils below (the plane blown up in the pencil's nine base points).
CHI_SURFACE = 12

# Euler characteristics of the one non-nodal special fiber in each pencil;
# every other singular member is a nodal rational curve contributing 1.
CHI_TRIPLE_TANGENT_LINE = 10  # cubics with ninefold contact at a flex
CHI_CUBIC_NONFLEX_SPECIAL = 9  # cubics with ninefold contact, order-9 point
CHI_QUARTIC_ORDER2_SPECIAL = 6  # genus-1 quartic classes at a T2 point
CHI_QUARTIC_ORDER4_SPECIAL = 4  # genus-1 quartic classes at a T3 point


def euler_budget(chi_surface: int, chi_special_fiber: int) -> int:
    """Number of nodal rational members of a pencil: chi of the total
    surface minus chi of the special fiber, both nonnegative integers."""
    chi_surface = _integer(chi_surface, "Euler characteristic", 0)
    chi_special_fiber = _integer(chi_special_fiber, "Euler characteristic", 0)
    return chi_surface - chi_special_fiber


def quadrisection_split() -> Mapping[Stratum, int]:
    """How the 16 solutions of 4P = c (c any 3-torsion point) fall into the
    strata, read-only: translating by the 4-torsion subgroup distributes them
    (1, 3, 12) regardless of c, so the split is read off at c = 0, as each
    stratum's points of an order dividing 4.  No point is built."""
    return MappingProxyType({s: _exact_order_count(k for k in orders if 4 % k == 0)
                             for s, orders in STRATUM_ORDERS.items()})


def class_curve_counts(p_a: int) -> Mapping[Stratum, int]:
    """Irreducible curves contributed by one ordered class of the given
    genus, totalled over its 16 quartic division points, per stratum.

    Genus 0: the class contains a unique member through each division
    point, giving the bare (1, 3, 12) split.  Genus 1: the class moves in
    an elliptic pencil; flex-stratum points contribute nothing and the
    other strata contribute their Euler budget of nodal members.
    """
    split = quadrisection_split()
    if p_a == 0:
        return split
    if p_a == 1:
        return {
            Stratum.T1: 0,
            Stratum.T2: split[Stratum.T2]
            * euler_budget(CHI_SURFACE, CHI_QUARTIC_ORDER2_SPECIAL),
            Stratum.T3: split[Stratum.T3]
            * euler_budget(CHI_SURFACE, CHI_QUARTIC_ORDER4_SPECIAL),
        }
    raise ValueError(f"no curve-count rule for arithmetic genus {p_a}")


@functools.cache
def aggregate_N() -> Mapping[Stratum, int]:
    """Total irreducible immersed quartic count N_i per stratum, summed
    over all 243 ordered classes of the degree-4 table."""
    totals = {s: 0 for s in Stratum}
    for row in enumerate_classes(4):
        counts = class_curve_counts(row.p_a)
        for s in Stratum:
            totals[s] += row.ordered_count * counts[s]
    return MappingProxyType(totals)


def count_M4(stratum: Union[Stratum, str]) -> int:
    """Immersed quartics with full tangency at one point of the stratum (a
    :class:`Stratum` or its label): N_i / (3 * #T_i).  The division is
    exact; anything else is a bug."""
    stratum = Stratum(stratum)
    n = aggregate_N()[stratum]
    denom = 3 * stratum_point_count(stratum.value)
    quot, rem = divmod(n, denom)
    if rem:
        raise ArithmeticError(
            f"aggregate count {n} for {stratum.value} is not divisible by {denom}"
        )
    return quot


# ---------------------------------------------------------------------------
# boundary census: the full decomposition per (degree, stratum)
# ---------------------------------------------------------------------------

IMMERSED = "immersed"
COVER = "cover"
PAIR = "pair"
CUSPIDAL = "cuspidal"  # only behind the special-cubic flag

COMPONENT_KINDS = (IMMERSED, COVER, PAIR, CUSPIDAL)


class _ComponentFields(NamedTuple):
    kind: str
    count: int
    base_degree: Optional[int] = None
    multiplicity: Optional[int] = None
    tangencies: Optional[tuple[int, int]] = None
    meeting_at_p: Optional[int] = None


class Component(_Record, _ComponentFields):
    """One shape of curve in a census entry, a checked record.

    ``count`` is how many such curves exist per point of the stratum.
    Covers carry the degree of the underlying curve and how many times it
    is traversed; pairs carry the contact orders of their two pieces and
    ``meeting_at_p``, the local intersection (C1.C2)_P of the pieces at the
    contact point.  The count, degrees, contact orders and (C1.C2)_P are
    positive integers, a multiplicity is at least 2, and a field the kind
    does not carry is None.  Numbers are read by the integer rule and
    stored as ints: 2.0 is stored as 2.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Component:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in COMPONENT_KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        count = _integer(self.count, "component count", 1)
        carried = {}
        if self.kind == COVER:
            if self.base_degree is None or self.multiplicity is None:
                raise ValueError("cover components need base_degree and multiplicity")
            carried = {"base_degree": _integer(self.base_degree, "component base_degree", 1),
                       "multiplicity": _integer(self.multiplicity, "component multiplicity", 2)}
        elif self.kind == PAIR:
            if self.tangencies is None or self.meeting_at_p is None:
                raise ValueError(
                    "pair components need their two contact orders and (C1.C2)_P"
                )
            if not isinstance(self.tangencies, tuple) or len(self.tangencies) != 2:
                raise ValueError(
                    f"component tangencies must be two contact orders, got {self.tangencies!r}"
                )
            carried = {"tangencies": tuple(_integer(order, "component tangencies", 1)
                                           for order in self.tangencies),
                       "meeting_at_p": _integer(self.meeting_at_p, "component meeting_at_p", 1)}
        for name in self._fields[2:]:
            if name not in carried and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} components carry no {name}")
        return tuple.__new__(cls, (self.kind, count, *map(carried.get, self._fields[2:])))


class CensusEntry(NamedTuple):
    degree: int
    stratum: str  # "T1" | "T2" | "T3" | "NF9"
    points: int  # how many points of the cubic lie in this stratum
    components: tuple[Component, ...]
    special_cubic: bool = False


# (degree, stratum label) -> the immersed curves per point that no rule
# derives; boundary_census derives the covers, pairs and quartics from them,
# and census_strata the strata from _ORDERS, so every entry is non-empty.
_CENSUS = {
    (1, "T1"): (Component(IMMERSED, 1),),
    (2, "T2"): (Component(IMMERSED, 1),),
    (3, "T1"): (Component(IMMERSED, euler_budget(CHI_SURFACE, CHI_TRIPLE_TANGENT_LINE)),),
    (3, NONFLEX_NINE): (Component(IMMERSED, euler_budget(CHI_SURFACE, CHI_CUBIC_NONFLEX_SPECIAL)),),
}

# on the special cubic the two nodal cubics at a flex degenerate to one
# cuspidal cubic; every other entry it admits is unchanged
_SPECIAL_CUBIC_CENSUS = {**_CENSUS, (3, "T1"): (Component(CUSPIDAL, 1),)}


def census_strata(degree: int) -> tuple[str, ...]:
    """Stratum labels that carry curves of the given degree (4.0 reads as 4):
    those whose orders divide 3 * degree, ascending by order.  The degree is
    refused before any point is built unless 3 * degree is a named order."""
    degree = _integer(degree, "degree")
    n = 3 * degree
    if not any(n in orders for orders in _ORDERS.values()):
        raise ValueError(f"census covers degrees 1..4, got {degree}")
    return tuple(label for label in sorted(_ORDERS, key=_ORDERS.get)
                 if any(n % k == 0 for k in _ORDERS[label]))


def stratum_point_count(label: str) -> int:
    """Points of the cubic in a stratum: those of its exact orders, counted
    by :mod:`~tangentia.torsion` without building a point."""
    if label not in _ORDERS:
        raise ValueError(f"no census stratum {label!r}")
    return _exact_order_count(_ORDERS[label])


def boundary_census(
    degree: int, stratum: CensusStratum, special_cubic: bool = False
) -> CensusEntry:
    """Decomposition of the maximal-tangency locus at one point.

    ``special_cubic`` selects the variant where the two nodal cubics at a
    flex degenerate to one cuspidal cubic (this happens for special smooth
    cubics); it only alters degree 3 at T1, and degree 4 is refused under
    the flag because its line-plus-cubic pairs inherit the cusp.
    """
    degree = _integer(degree, "degree")
    label = stratum.value if isinstance(stratum, Stratum) else str(stratum)
    valid = census_strata(degree)
    if label not in valid:
        raise ValueError(
            f"degree {degree} has no curves at stratum {label!r}; "
            f"valid strata: {', '.join(valid)}"
        )
    if special_cubic and degree == 4:
        raise ValueError(
            "the degree-4 census is not available for the special cubic: "
            "its line-plus-cubic pairs involve a cuspidal member"
        )
    table = _SPECIAL_CUBIC_CENSUS if special_cubic else _CENSUS
    # the tabled immersed count at this point per lower degree, read by the
    # cover and pair rules; only degree 4 reaches the class table
    immersed = {b: c.count for b in range(1, degree)
                for c in table.get((b, label), ()) if c.kind == IMMERSED}
    covers = tuple(
        Component(COVER, immersed[degree // k], base_degree=degree // k, multiplicity=k)
        for k in range(degree, 1, -1)
        if degree % k == 0 and degree // k in immersed
    )
    pairs = ()  # where the bounds 3*d1 <= (C1.C2)_P <= d1*d2 meet
    for d1 in range(1, degree // 2 + 1):
        d2 = degree - d1
        if d1 in immersed and d2 in immersed and 3 * d1 <= d1 * d2:
            if 3 * d1 < d1 * d2:
                raise ArithmeticError(f"the bounds leave (C1.C2)_P of a degree "
                                      f"{d1} + {d2} pair undetermined: {3 * d1} to {d1 * d2}")
            if d1 == d2:  # two curves of one degree: C(n, 2) distinct pairs, not n^2
                raise ArithmeticError(f"the count of degree {d1} + {d2} pairs is not "
                                      f"derived: both curves have degree {d1}")
            pairs += (Component(PAIR, immersed[d1] * immersed[d2],
                                tangencies=(3 * d1, 3 * d2), meeting_at_p=3 * d1),)
    quartics = (Component(IMMERSED, count_M4(label)),) if degree == 4 else ()
    components = covers + pairs + table.get((degree, label), ()) + quartics
    return CensusEntry(
        degree, label, stratum_point_count(label), components, special_cubic
    )
