"""Exact p-core counting and the infinite products behind it.

p-core counts through the generating-function product, and direct numeric
evaluation of the two infinite products of the modular transformation (the
p-core quotient f and the inverted quotient H) inside the unit disk with a
certified truncation bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb

from .precision import DEFAULT_PRECISION, PrecisionConfig


def pcore_numerator(p: int, nmax: int) -> list[int]:
    """Product of (1 - x^(p*j))^p over p*j <= nmax, expanded exactly:
    the coefficients of x^0..x^nmax."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    c = [0] * (nmax + 1)
    c[0] = 1
    for j in range(1, nmax // p + 1):
        step = p * j
        sparse = [(i * step, (-1) ** i * comb(p, i))
                  for i in range(1, p + 1) if i * step <= nmax]
        # in-place multiply; descending index keeps the referenced
        # lower-order entries untouched until their own turn
        for i in range(nmax, step - 1, -1):
            acc = c[i]
            for off, co in sparse:
                if off > i:
                    break
                acc += co * c[i - off]
            c[i] = acc
    return c


@functools.lru_cache(maxsize=64)
def pcore_series(p: int, nmax: int) -> tuple[int, ...]:
    """Counts of partitions with no hook length divisible by p, 0..nmax.

    Generating function: product of (1 - x^(p*j))^p / (1 - x^j).  The
    expanded numerator is divided by each (1 - x^j) in place.  p need not
    be prime.
    """
    c = pcore_numerator(p, nmax)
    for j in range(1, nmax + 1):
        for i in range(j, nmax + 1):
            c[i] += c[i - j]
    return tuple(c)


def pcore_count(p: int, n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return pcore_series(p, n)[n]


PRODUCT_FORMS = ("f", "H")


@dataclass(frozen=True)
class ProductValue:
    """A partial infinite product and a bound on its relative truncation error."""

    value: object
    truncation_bound: float


def eta_quotient_value(p: int, x, factors: int, which: str,
                       config: PrecisionConfig = DEFAULT_PRECISION) -> ProductValue:
    """Numeric partial product over n = 1..factors at a point inside the disk.

    which = "f": product of (1-x^(pn))^p/(1-x^n)   (p-core counts)
    which = "H": product of (1-x^n)^p/(1-x^(pn))

    The relative truncation error is bounded by expm1((p+1) * |x|^(factors+1)
    / (1-|x|)^2); the bound is returned alongside the value.  Requires
    |x| <= 0.95.
    """
    if which not in PRODUCT_FORMS:
        raise ValueError(f"which must be one of {PRODUCT_FORMS}")
    if p < 2:
        raise ValueError("p must be >= 2")
    if factors < 1:
        raise ValueError("factors must be >= 1")
    ctx = config.context()
    z = ctx.convert(x)
    radius = float(abs(z))
    if radius > 0.95:
        raise ValueError("|x| <= 0.95 required for a useful truncation bound")
    one = ctx.mpf(1)
    val = ctx.mpc(1)
    zn = ctx.mpc(1)
    zpn = ctx.mpc(1)
    zp = z ** p
    for _ in range(factors):
        zn *= z
        zpn *= zp
        if which == "f":
            val *= (one - zpn) ** p / (one - zn)
        else:
            val *= (one - zn) ** p / (one - zpn)
    tail = (p + 1) * radius ** (factors + 1) / (1.0 - radius) ** 2
    bound = math.expm1(tail) if tail < 700 else math.inf
    return ProductValue(value=+val, truncation_bound=bound)
