"""Assembly of the genus-0 maximal-tangency invariants of the plane cubic.

Each degree-d invariant I_d is a weighted count over the strata of contact
points: per point, immersed curves count 1, d-fold covers of a lower
degree-b member count M_{3b}[d/b], and a reducible pair glued at the
contact point counts the smaller of its two contact orders (valid when
both pieces are immersed, meet the cubic only at that common point with
minimal intersection there, and the pair (plane, cubic) is the log
Calabi-Yau one).  The ledger produced by :func:`assemble_invariant` makes
every line of that bookkeeping explicit and is checked against the
tabulated reference values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .census import (
    COVER,
    CUSPIDAL,
    IMMERSED,
    NONFLEX_NINE,
    PAIR,
    boundary_census,
    census_strata,
)
from .covers import instanton_numbers, multiple_cover
from .rationals import Rat


class HypothesisViolation(ValueError):
    """A pair contribution was requested with a failed hypothesis."""

    def __init__(self, hypothesis: str) -> None:
        self.hypothesis = hypothesis
        super().__init__(f"pair contribution hypothesis not met: {hypothesis}")


class AssemblyMismatch(ValueError):
    """A ledger total disagrees with the tabulated reference value."""

    def __init__(self, degree: int, computed: Rat, reference: Rat) -> None:
        self.degree = degree
        self.computed = computed
        self.reference = reference
        super().__init__(
            f"degree {degree}: assembled {computed}, reference {reference}"
        )


def pair_contribution(
    tangency_one: int,
    tangency_two: int,
    *,
    immersed: bool = True,
    same_point: bool = True,
    log_cy: bool = True,
    transversal_intersection_at_p: bool = True,
) -> Rat:
    """Contribution min(w1, w2) of a two-component curve glued at the
    contact point.

    The keyword flags attest the hypotheses under which that formula holds:
    both components immersed, both meeting the divisor at the same single
    point, the ambient pair log Calabi-Yau, and the two components meeting
    each other at that point with the minimal possible local intersection.
    A False flag raises :class:`HypothesisViolation` naming the culprit.
    """
    for name, flag in (
        ("immersed", immersed),
        ("same_point", same_point),
        ("log_cy", log_cy),
        ("transversal_intersection_at_p", transversal_intersection_at_p),
    ):
        if not flag:
            raise HypothesisViolation(name)
    if tangency_one < 1 or tangency_two < 1:
        raise ValueError("contact orders must be positive")
    return Rat(min(tangency_one, tangency_two))


REFERENCE_INVARIANTS = {
    1: Rat(9),
    2: Rat(135, 4),
    3: Rat(244),
    4: Rat(36999, 16),
}

# The degree-4 total circulates in print with a dropped denominator factor;
# the line-by-line sum below and the reference table agree on 36999/16.
DEGREE_4_MISPRINT_NOTE = (
    "the degree-4 total is sometimes printed as 36999/4; that is a misprint. "
    "The line-by-line sum is 36999/16, matching the reference invariant."
)


def reference_invariant(degree: int) -> Rat:
    if degree not in REFERENCE_INVARIANTS:
        raise ValueError(f"no tabulated invariant for degree {degree}")
    return REFERENCE_INVARIANTS[degree]


@dataclass(frozen=True)
class LedgerLine:
    stratum: str
    points: int  # number of contact points in the stratum
    per_point: Rat  # contribution of one point
    provenance: str

    def __post_init__(self) -> None:
        if not self.provenance:
            raise ValueError("every ledger line must state its provenance")

    @property
    def subtotal(self) -> Rat:
        return self.points * self.per_point


@dataclass(frozen=True)
class GwLedger:
    degree: int
    lines: tuple[LedgerLine, ...]
    reference: Rat
    note: Optional[str] = None

    def __post_init__(self) -> None:
        if self.total != self.reference:
            raise AssemblyMismatch(self.degree, self.total, self.reference)

    @property
    def total(self) -> Rat:
        return sum((line.subtotal for line in self.lines), Rat(0))


_STRATUM_PHRASE = {
    "T1": "flex",
    "T2": "order-2 or order-6 point",
    "T3": "order-4 or order-12 point",
    NONFLEX_NINE: "order-9 non-flex point",
}

_BASE_CURVE = {1: "tangent line", 2: "sixfold-contact conic"}
_TRAVERSAL = {2: "double", 3: "triple", 4: "quadruple"}


def _cover_provenance(stratum: str, base_degree: int, multiplicity: int) -> str:
    return (
        f"{_TRAVERSAL[multiplicity]} covers of the {_BASE_CURVE[base_degree]} "
        f"at the {_STRATUM_PHRASE[stratum]}"
    )


def _immersed_provenance(degree: int, stratum: str, count: int) -> str:
    where = _STRATUM_PHRASE[stratum]
    if degree == 1:
        return f"the tangent line at the {where} meets the cubic only there"
    if degree == 2:
        return f"one smooth conic with sixfold contact at the {where}"
    if degree == 3:
        return f"{count} nodal cubics with ninefold contact at the {where}"
    return f"{count} immersed rational quartics with full contact at the {where}"


def assemble_invariant(degree: int, special_cubic: bool = False) -> GwLedger:
    """Build the degree-d ledger from the boundary census and check its
    total against the reference invariant.

    Raises :class:`AssemblyMismatch` if the total disagrees and ValueError
    when the special-cubic census is requested in degrees 3 or 4, whose
    contributions involve a cuspidal (hence non-immersed) member.
    """
    lines = []
    for label in census_strata(degree):
        entry = boundary_census(degree, label, special_cubic=special_cubic)
        for comp in entry.components:
            if comp.kind == IMMERSED:
                per_point = Rat(comp.count)
                provenance = _immersed_provenance(degree, label, comp.count)
            elif comp.kind == COVER:
                per_point = comp.count * multiple_cover(
                    3 * comp.base_degree, comp.multiplicity
                )
                provenance = _cover_provenance(
                    label, comp.base_degree, comp.multiplicity
                )
            elif comp.kind == PAIR:
                per_point = comp.count * pair_contribution(*comp.tangencies)
                provenance = (
                    f"{comp.count} line-plus-cubic pairs glued at the flex, "
                    f"each counting min{comp.tangencies}"
                )
            elif comp.kind == CUSPIDAL:
                raise ValueError(
                    "cannot assemble an invariant from a cuspidal member: "
                    "the cover and pair rules require immersed curves"
                )
            else:
                raise ValueError(f"unknown component kind {comp.kind!r}")
            lines.append(
                LedgerLine(
                    stratum=label,
                    points=entry.points,
                    per_point=per_point,
                    provenance=provenance,
                )
            )
    note = DEGREE_4_MISPRINT_NOTE if degree == 4 else None
    return GwLedger(
        degree=degree,
        lines=tuple(lines),
        reference=reference_invariant(degree),
        note=note,
    )


def local_invariant(degree: int) -> Rat:
    """Local invariant of the cubic: K_d = (-1)^(d-1) I_d / (3d).

    Values: K_1 = 3, K_2 = -45/8, K_3 = 244/9, K_4 = -12333/64.
    """
    sign = -1 if degree % 2 == 0 else 1
    return sign * reference_invariant(degree) / (3 * degree)


def instanton_census(stratum) -> int:
    """Degree-4 instanton count at one point of the stratum.

    Replacing each cover contribution M by the corresponding instanton
    number m in the boundary census of the stratum gives the count; it is
    16 for all three strata.  A count that is not a nonnegative integer
    signals an inconsistent census and raises ArithmeticError.
    """
    label = stratum.value if hasattr(stratum, "value") else str(stratum)
    if label not in census_strata(4):
        raise ValueError(f"no degree-4 stratum {label!r}")
    total = Rat(0)
    for comp in boundary_census(4, label).components:
        if comp.kind == IMMERSED:
            total += comp.count
        elif comp.kind == COVER:
            w = 3 * comp.base_degree
            total += comp.count * instanton_numbers(w, comp.multiplicity)[
                comp.multiplicity
            ]
        elif comp.kind == PAIR:
            total += comp.count * pair_contribution(*comp.tangencies)
    if total.denominator != 1 or total < 0:
        raise ArithmeticError(f"instanton count {total} is not a nonnegative integer")
    return int(total)
