"""Exact rational arithmetic helpers.

Rationals throughout this package are :class:`fractions.Fraction`: values
are always stored in lowest terms with a positive denominator, so equality
is structural and ``str()`` prints ``"num/den"`` (or just ``"num"`` for
integers), which is the serialization used everywhere in this package.
"""
from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for arbitrary integer n, k >= 0.

    Defined through the falling factorial n(n-1)...(n-k+1)/k! so that
    negative upper arguments are allowed, e.g. C(-1, 2) = 1.  Returns 0
    for k < 0.
    """
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    quot, rem = divmod(num, math.factorial(k))
    # k! divides any product of k consecutive integers, so this is exact
    if rem:
        raise ArithmeticError(f"{k}! does not divide the falling factorial of {n}")
    return quot
