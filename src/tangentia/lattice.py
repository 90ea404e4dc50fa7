"""Picard lattice of the plane blown up in six points.

Classes are written e*H - a1*E1 - ... - a6*E6 with H the pullback of a line
and E1..E6 the exceptional curves; the intersection form is diagonal,
H^2 = 1, Ei^2 = -1.  The anticanonical degree of such a class against a
plane cubic through the six points is 3e - sum(ai), and its arithmetic
genus is governed by adjunction.

The degree-4 census (:func:`enumerate_classes`) searches for all classes of
anticanonical degree 4 and nonnegative arithmetic genus with multiplicities
bounded by the degree; quadratic Cremona transformations centered at triples
of the six points (:func:`cremona_reduce`) bring each of them to the conic
class 2H - E1 - E2 or to the cubic class 3H - E1 - ... - E5 depending on
the genus.
"""
from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, NamedTuple, Sequence

from .rationals import _Record, _integer, _integers

NUM_POINTS = 6


class _DivisorFields(NamedTuple):
    e: int
    a: tuple[int, int, int, int, int, int]


class DivisorClass(_Record, _DivisorFields):
    """The class e*H - a1*E1 - ... - a6*E6, a checked record, with ``e``
    stored as an int and ``a`` as six ints, read by the integer rule of
    :mod:`~tangentia.rationals`: a value that is not integral raises
    ValueError, while 1.0 and True are stored as 1.  A class is a lattice
    vector, not a sequence: it has no order, and ``+`` and ``*`` do not
    concatenate."""

    __slots__ = ()

    def __new__(cls, e: int, a: Iterable[int]) -> DivisorClass:
        a = tuple(a)
        ints = _integers((e, *a))
        if ints is None:
            raise ValueError(f"class coefficients must be integers, got {e!r}, {a!r}")
        e, a = ints[0], ints[1:]
        if len(a) != NUM_POINTS:
            raise ValueError(f"expected {NUM_POINTS} multiplicities, got {len(a)}")
        return tuple.__new__(cls, (e, a))

    def _not_a_sequence(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __mul__ = __rmul__ = _not_a_sequence

    def __str__(self) -> str:
        return class_literal(self)


# canonical class of the blowup: K = -3H + E1 + ... + E6
CANONICAL = DivisorClass(-3, (-1, -1, -1, -1, -1, -1))


def pairing(c1: DivisorClass, c2: DivisorClass) -> int:
    """Intersection number; the form is <H,H>=1, <Ei,Ei>=-1, mixed terms 0."""
    return c1.e * c2.e - sum(x * y for x, y in zip(c1.a, c2.a))


def tangency_degree(c: DivisorClass) -> int:
    """Degree of c against the anticanonical cubic: -<c, K> = 3e - sum(a)."""
    return -pairing(c, CANONICAL)


def _spend(a: int) -> int:
    """a(a - 1)/2: what a point of multiplicity a takes from the genus, and,
    at a = e - 1, the genus budget (e - 1)(e - 2)/2 of a plane curve of
    degree e."""
    return a * (a - 1) // 2


def arithmetic_genus(c: DivisorClass) -> int:
    """p_a = (e-1)(e-2)/2 - sum ai(ai-1)/2 (image genus of a plane curve
    of degree e with ordinary points of multiplicities ai)."""
    return _spend(c.e - 1) - sum(map(_spend, c.a))


_TERM = re.compile(r"([+-]?)(\d*)(H|E([1-6]))")


def parse_class_literal(text: str) -> DivisorClass:
    """Parse literals like ``"2H-E1-E2"`` or ``"4H-E1-E2-2E3"``.

    Every character must belong to some term; repeated H or Ei terms
    accumulate.  Raises ValueError on anything else.
    """
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty class literal")
    if compact == "0":
        return DivisorClass(0, (0,) * NUM_POINTS)
    e = 0
    a = [0] * NUM_POINTS
    pos = 0
    while pos < len(compact):
        m = _TERM.match(compact, pos)
        if m is None:
            raise ValueError(f"cannot parse class literal {text!r} at {compact[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2)) if m.group(2) else 1
        if m.group(3) == "H":
            e += sign * coef
        else:
            # the literal writes -E1 for multiplicity +1 at the first point
            a[int(m.group(4)) - 1] -= sign * coef
        pos = m.end()
    return DivisorClass(e, a)


def class_literal(c: DivisorClass) -> str:
    """Inverse of :func:`parse_class_literal`, e.g. ``"4H-E1-E2-2E3"``."""
    terms = [(c.e, "H")] + [(-ai, f"E{i}") for i, ai in enumerate(c.a, start=1)]
    text = "".join([("+" if k > 0 else "-") + (str(abs(k)) if abs(k) != 1 else "") + name
                    for k, name in terms if k])
    return text.removeprefix("+") or "0"


def ordered_count(multiset: Sequence[int]) -> int:
    """Number of distinct orderings of a multiset: n! / prod(multiplicity!),
    its entries read by the integer rule (1.0 is 1)."""
    ints = _integers(multiset)
    if ints is None:
        raise ValueError(f"multiset entries must be integers, got {multiset!r}")
    count = math.factorial(len(ints))
    for value in set(ints):
        count //= math.factorial(ints.count(value))
    return count


class ClassTableRow(NamedTuple):
    """One unordered class of the census: multiplicities sorted ascending."""

    e: int
    a_multiset: tuple[int, int, int, int, int, int]
    p_a: int
    ordered_count: int

    @property
    def representative(self) -> DivisorClass:
        return DivisorClass(self.e, self.a_multiset)


# larger degrees are refused up front: the search keeps only prefixes that
# still fit the genus budget, but the rows it returns grow like d^5 (3,669 at
# d = 16, 11,905 at d = 20)
MAX_CLASS_DEGREE = 20


def _least_spend(total: int, parts: int) -> int:
    """The least spend of ``parts`` multiplicities summing to ``total``:
    spend is convex, so the sum split as evenly as possible."""
    q, r = divmod(total, parts)
    return r * _spend(q + 1) + (parts - r) * _spend(q)


def _grow(prefix: tuple[int, ...], total: int, budget: int, d: int,
          found: list[tuple[tuple[int, ...], int]]) -> bool:
    """Complete the ascending ``prefix`` with parts in [prefix[-1], d]
    summing to ``total`` within the genus ``budget`` left, largest next
    part first, appending each (multiset, genus) to ``found``; False if even
    the least spend exceeds the budget."""
    parts = NUM_POINTS - len(prefix)
    if not parts:
        found.append((prefix, budget))
        return True
    if _least_spend(total, parts) > budget:
        return False
    low = max(prefix[-1] if prefix else 0, total - (parts - 1) * d)
    for a in range(min(d, total // parts), low - 1, -1):
        # spend(a) plus the least of the rest only grows as a falls
        if not _grow(prefix + (a,), total - a, budget - _spend(a), d, found):
            break
    return True


def enumerate_classes(target_degree: int = 4) -> list[ClassTableRow]:
    """All unordered classes with tangency degree ``target_degree``, p_a >= 0.

    For each e from ceil(d/3) to floor(7d/3), with d = ``target_degree``,
    the multiplicities 0 <= a1 <= ... <= a6 <= d of sum 3e - d are grown one
    part at a time, each spending ``_spend(ai)`` of the genus budget
    ``_spend(e - 1)``.  A branch is cut once what it has spent plus the
    least its remaining parts can spend (their sum split evenly) exceeds the
    budget; that least is a valid completion, so every branch kept ends in
    a row, and what is left of the budget is the row's genus.  Larger parts
    are tried first, so a branch's next part stops at the first cut, and
    each e's rows, reversed, come out in (e, multiset) order.  The search
    is the module-level :func:`_grow`, which reaches itself by name, not
    through a closure, so a call leaves no cycle for the collector.  No
    ``DivisorClass`` is built for a candidate.  The degree is read by the
    integer rule of :mod:`~tangentia.rationals` with floor 0 and budget
    MAX_CLASS_DEGREE, before the search (4.0 is 4; 2.5, -1 and 21 raise
    ValueError).  For target degree 4 this is a census of 9 rows whose
    ordered classes total 216 of genus 0 and 27 of genus 1.
    """
    d = _integer(target_degree, "degree", 0, MAX_CLASS_DEGREE)
    rows: list[ClassTableRow] = []
    found: list[tuple[tuple[int, ...], int]] = []  # (multiset, genus) for one e
    for e in range(-(-d // 3), 7 * d // 3 + 1):
        _grow((), 3 * e - d, _spend(e - 1), d, found)
        rows += [ClassTableRow(e, a, genus, ordered_count(a)) for a, genus in reversed(found)]
        found.clear()
    return rows


MAX_CREMONA_STEPS = 100


def cremona_steps(c: DivisorClass) -> Iterator[DivisorClass]:
    """Yield the reduction path starting at c (multiplicities sorted
    descending), transforming at the three largest multiplicities while
    their sum exceeds e.

    Any choice of maximal triple gives the same multiset at each step, so
    working on the descending-sorted representative loses nothing.  Raises
    RuntimeError after MAX_CREMONA_STEPS steps, which signals an input
    outside the degree-4, p_a in {0, 1} regime this reduction is meant for.
    """
    e = c.e
    a = tuple(sorted(c.a, reverse=True))
    yield DivisorClass(e, a)
    for _ in range(MAX_CREMONA_STEPS):
        if a[0] + a[1] + a[2] <= e:
            return
        # quadratic transformation centered at the three largest points:
        # e -> 2e - a1 - a2 - a3, ai -> e - (sum of the other two), i <= 3
        e, a = (
            2 * e - a[0] - a[1] - a[2],
            tuple(
                sorted(
                    (e - a[1] - a[2], e - a[0] - a[2], e - a[0] - a[1]) + a[3:],
                    reverse=True,
                )
            ),
        )
        yield DivisorClass(e, a)
    raise RuntimeError(
        f"no terminal form within {MAX_CREMONA_STEPS} Cremona steps; "
        f"input {c} is outside the reduction's hypotheses"
    )


def cremona_reduce(c: DivisorClass) -> DivisorClass:
    """Terminal form of the reduction, multiplicities sorted descending.

    On the degree-4 census this is (2, [1,1,0,0,0,0]) for genus 0 and
    (3, [1,1,1,1,1,0]) for genus 1.
    """
    last = c
    for last in cremona_steps(c):
        pass
    return last
