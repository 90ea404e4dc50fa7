"""Exact rational arithmetic helpers.

Rationals throughout this package are :class:`fractions.Fraction`: values
are always stored in lowest terms with a positive denominator, so equality
is structural and ``str()`` prints ``"num/den"`` (or just ``"num"`` for
integers), which is the serialization used everywhere in this package.
"""
from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for any integers n and k.

    This is the falling factorial n(n-1)...(n-k+1)/k!, so negative upper
    arguments are allowed, e.g. C(-1, 2) = 1, through the reflection
    C(n, k) = (-1)^k C(k - n - 1, k).  Returns 0 for k < 0.
    """
    if k < 0:
        return 0
    if n < 0:
        return (-1) ** k * math.comb(k - n - 1, k)
    return math.comb(n, k)
