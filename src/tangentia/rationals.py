"""Exact number rules: the generalized binomial, the integer rule, records.

Rationals throughout this package are :class:`fractions.Fraction`: values
are always stored in lowest terms with a positive denominator, so equality
is structural and ``str()`` prints ``"num/den"`` (or just ``"num"`` for
integers), which is the serialization used everywhere in this package.

The integer rule is the package's one rule for what an integer is.  It reads
every size: degrees, torsion orders, class coefficients, a tree's layers,
labels and weights, the w, d and bounds of :mod:`~tangentia.covers`, and
the numbers of a census ``Component``.  A value equal to an int is that int,
so 4.0 is 4 and True is 1; 2.5, inf, nan, a string or None is refused.  The
rule also reads each size's floor and, where it has one, its work budget:
the largest size its kernel takes, refused before any work in one wording.

A checked record (a ``DivisorClass``, ``TorsionPoint``, ``Component``,
``CombType`` or ``WeightedCombType``) derives from :class:`_Record`: it never
changes, and is rebuilt only by its checked class call, which ``_make``,
``_replace``, pickle and copy all go through.
"""
from __future__ import annotations

import math
from operator import index
from typing import Optional, Sequence


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for any integers n and k.

    This is the falling factorial n(n-1)...(n-k+1)/k!, so negative upper
    arguments are allowed, e.g. C(-1, 2) = 1, through the reflection
    C(n, k) = (-1)^k C(k - n - 1, k).  Returns 0 for k < 0.  It has no
    work budget: its callers read and budget the sizes they pass.
    """
    if k < 0:
        return 0
    if n < 0:
        return (-1) ** k * math.comb(k - n - 1, k)
    return math.comb(n, k)


def _integers(values: Sequence) -> Optional[tuple[int, ...]]:
    """``values`` as ints by the integer rule, or None if one is not integral."""
    try:
        return tuple(map(index, values))
    except TypeError:
        pass
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):  # None, nan, inf, or a string that is no number
        return None
    return ints if ints == tuple(values) else None


def _integer(value, name: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """``value`` read by the integer rule, at least ``least`` if given, and
    then at most ``most``, its work budget, if given; else ValueError."""
    ints = _integers((value,))
    if ints is None or (least is not None and ints[0] < least):
        what = {None: "an integer", 1: "a positive integer"}.get(least, f"an integer >= {least}")
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if most is not None and ints[0] > most:
        raise ValueError(f"{name} is budgeted to at most {most}, got {ints[0]}")
    return ints[0]


class _Record:
    """A checked record: read-only, and rebuilt only by its class call."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # and so _replace

    def __reduce__(self):  # pickle and copy call the class on the fields
        return type(self), tuple(self)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is read-only")

    __delattr__ = __setattr__
