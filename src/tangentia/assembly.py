"""Assembly of the genus-0 maximal-tangency invariants of the plane cubic.

Each degree-d invariant I_d is a weighted count over the strata of contact
points: per point, immersed curves count 1, d-fold covers of a lower
degree-b member count M_{3b}[d/b], and a reducible pair C1 + C2 glued at
the contact point P counts the smaller of its two contact orders.  That
pair rule holds when (C1.C2)_P equals the smaller order, which
:func:`pair_contribution` checks against the number the census derives;
its other hypotheses hold by construction (the census pieces are immersed
and meet the cubic only at P, and (plane, cubic) is log Calabi-Yau).  The
ledger produced by :func:`assemble_invariant` makes every line of that
bookkeeping explicit and is checked against the tabulated reference
values; :func:`instanton_census` applies the same per-point rule with
instanton numbers in place of the cover terms.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .census import (
    COVER,
    IMMERSED,
    NONFLEX_NINE,
    PAIR,
    _ORDERS,
    Component,
    boundary_census,
    census_strata,
)
from .covers import instanton_numbers, multiple_cover
from .rationals import _integer


class HypothesisViolation(ValueError):
    """A pair contribution was requested where the pair rule does not hold."""


class AssemblyMismatch(ArithmeticError):
    """A ledger total disagrees with the tabulated reference value, a failed
    self-check; the ledger, kept as ``ledger``, carries no note."""

    def __init__(self, ledger: GwLedger) -> None:
        self.ledger = ledger
        super().__init__(
            f"degree {ledger.degree}: assembled {ledger.total}, "
            f"reference {ledger.reference}"
        )


def pair_contribution(tangency_one: int, tangency_two: int, meeting_at_p: int) -> Fraction:
    """Contribution min(w1, w2) of a pair C1 + C2 glued at the contact
    point P, where w1 = D.C1 and w2 = D.C2 are the contact orders.

    The rule holds when the pieces meet at P with (C1.C2)_P = min(w1, w2);
    any other ``meeting_at_p`` raises :class:`HypothesisViolation`.  The
    census supplies immersed pieces, and both pieces meet D only at P.
    All three are read by the integer rule: 3.0 is 3, and 3.5 is refused.
    """
    w1, w2 = (_integer(w, "contact order", 1) for w in (tangency_one, tangency_two))
    meeting_at_p = _integer(meeting_at_p, "meeting_at_p")
    smaller = min(w1, w2)
    if meeting_at_p != smaller:
        raise HypothesisViolation(
            f"pair contribution hypothesis not met: (C1.C2)_P = {meeting_at_p}, "
            f"but the rule needs min({w1}, {w2}) = {smaller}"
        )
    return Fraction(smaller)


REFERENCE_INVARIANTS = {
    1: Fraction(9),
    2: Fraction(135, 4),
    3: Fraction(244),
    4: Fraction(36999, 16),
}


def reference_invariant(degree: int) -> Fraction:
    try:
        return REFERENCE_INVARIANTS[degree]
    except (KeyError, TypeError):  # TypeError: a value with no hash, such as [1]
        raise ValueError(f"no tabulated invariant for degree {degree!r}") from None


class LedgerLine(NamedTuple):
    stratum: str
    points: int  # number of contact points in the stratum
    per_point: Fraction  # contribution of one point
    provenance: str

    @property
    def subtotal(self) -> Fraction:
        return self.points * self.per_point


class GwLedger(NamedTuple):
    degree: int
    lines: tuple[LedgerLine, ...]
    reference: Fraction
    note: Optional[str] = None

    @property
    def total(self) -> Fraction:
        return sum((line.subtotal for line in self.lines), Fraction(0))


_BASE_CURVE = {1: "tangent line", 2: "sixfold-contact conic"}
_TRAVERSAL = {2: "double", 3: "triple", 4: "quadruple"}


def _provenance(degree: int, stratum: str, comp: Component) -> str:
    # the contact point in words, its exact orders read off the census table
    where = " or ".join(f"order-{k}" for k in _ORDERS[stratum])
    if stratum == "T1":
        where = "flex"
    elif stratum == NONFLEX_NINE:
        where += " non-flex point"
    else:
        where += " point"
    if comp.kind == COVER:
        return (
            f"{_TRAVERSAL[comp.multiplicity]} covers of the "
            f"{_BASE_CURVE[comp.base_degree]} at the {where}"
        )
    if comp.kind == PAIR:
        return (
            f"{comp.count} line-plus-cubic pairs glued at the {where}, "
            f"each counting min{comp.tangencies}"
        )
    if degree == 1:
        return f"the tangent line at the {where} meets the cubic only there"
    if degree == 2:
        return f"one smooth conic with sixfold contact at the {where}"
    if degree == 3:
        return f"{comp.count} nodal cubics with ninefold contact at the {where}"
    return f"{comp.count} immersed rational quartics with full contact at the {where}"


def _per_point(comp: Component, cover: Callable[[int, int], Fraction]) -> Fraction:
    """The one per-component rule, at one contact point: immersed curves
    count 1 each, d-fold covers of a degree-b member ``cover(3b, d)`` each,
    and reducible pairs the smaller of their two contact orders each.  Any
    other kind (a cuspidal member) raises ValueError."""
    if comp.kind == IMMERSED:
        return Fraction(comp.count)
    if comp.kind == COVER:
        return comp.count * cover(3 * comp.base_degree, comp.multiplicity)
    if comp.kind == PAIR:
        return comp.count * pair_contribution(*comp.tangencies, comp.meeting_at_p)
    raise ValueError(
        "cannot assemble an invariant from a cuspidal member: "
        "the cover and pair rules require immersed curves"
    )


def assemble_invariant(degree: int) -> GwLedger:
    """Build the degree-d ledger from the boundary census, one line per
    census component priced by the per-component rule with M_w[d] for the
    covers, and check its total against the reference invariant.

    Raises :class:`AssemblyMismatch`, carrying the ledger, if the total
    disagrees.  A balanced degree-4 ledger gets a note naming its total and
    the misprint 4 * total that circulates in print.
    """
    entries = [boundary_census(degree, label) for label in census_strata(degree)]
    degree = entries[0].degree  # read by the census as an integer: 4.0 is 4
    lines = tuple(
        LedgerLine(e.stratum, e.points, _per_point(comp, multiple_cover),
                   _provenance(degree, e.stratum, comp))
        for e in entries
        for comp in e.components
    )
    ledger = GwLedger(degree, lines, reference_invariant(degree))
    if ledger.total != ledger.reference:
        raise AssemblyMismatch(ledger)
    if degree == 4:
        ledger = ledger._replace(note=(
            f"the degree-4 total is sometimes printed as {4 * ledger.total}; that is a misprint. "
            f"The line-by-line sum is {ledger.total}, matching the reference invariant."))
    return ledger


def local_invariant(degree: int) -> Fraction:
    """Local invariant of the cubic: K_d = (-1)^(d-1) I_d / (3d), with I_d
    the total of the assembled ledger (:func:`assemble_invariant`).

    Values: K_1 = 3, K_2 = -45/8, K_3 = 244/9, K_4 = -12333/64.
    """
    ledger = assemble_invariant(degree)
    sign = -1 if ledger.degree % 2 == 0 else 1
    return sign * ledger.total / (3 * ledger.degree)


def instanton_census(stratum) -> int:
    """Degree-4 instanton count at one point of the stratum.

    The same per-component rule as the ledger, with each cover contribution
    M replaced by the corresponding instanton number m; it is 16 for all
    three strata.  A count that is not a nonnegative integer signals an
    inconsistent census and raises ArithmeticError.
    """
    total = sum(
        (
            _per_point(comp, lambda w, d: instanton_numbers(w, d)[d])
            for comp in boundary_census(4, stratum).components
        ),
        Fraction(0),
    )
    if total.denominator != 1 or total < 0:
        raise ArithmeticError(f"instanton count {total} is not a nonnegative integer")
    return int(total)
