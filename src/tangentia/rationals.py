"""Exact number rules: the generalized binomial, the integer rule, records.

Rationals throughout this package are :class:`fractions.Fraction`: values
are always stored in lowest terms with a positive denominator, so equality
is structural and ``str()`` prints ``"num/den"`` (or just ``"num"`` for
integers), which is the serialization used everywhere in this package.

The integer rule is the package's one rule for what an integer is.  It reads
every size: degrees, torsion orders, class coefficients, a tree's layers,
labels and weights, the w, d and bounds of :mod:`~tangentia.covers`, and
the numbers of a census ``Component``.  A value equal to an int is that int,
so 4.0 is 4 and True is 1; 2.5, inf, nan, a string or None is refused.  A
tuple of exact ints is kept as given, not copied: a tuple never changes.  The
rule tests each size's floor in the same pass, and reads its work budget if
it has one: the largest size its kernel takes, refused before any work.

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


def _integers(values: Sequence, least: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """``values`` as ints by the integer rule, or None if one is not integral
    or is below the floor ``least``, tested in the same pass.  A tuple of
    exact ints is returned as given; anything else (a list, or a tuple
    holding True, an ``IntEnum`` member or 4.0) as a new tuple."""
    if type(values) is tuple:
        for value in values:  # a plain loop: no generator frame per call
            if type(value) is not int or (least is not None and value < least):
                break  # the general path reads it, and refuses one below the floor
        else:
            return values
    try:
        ints = tuple(map(index, values))
    except TypeError:
        try:
            ints = tuple(map(int, values))
        except (TypeError, ValueError, OverflowError):  # None, nan, inf, or a string of no number
            return None
        if ints != tuple(values):
            return None
    return None if least is not None and min(ints, default=least) < least else ints


def _integer(value, name: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """``value`` read by the integer rule, at least ``least`` if given, and
    then at most ``most``, its work budget, if given; else ValueError."""
    ints = _integers((value,), least)
    if ints is None:
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
