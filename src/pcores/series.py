"""Exact p-core counting.

p-core counts through the generating-function product, expanded in plain
Python integers.  The numeric products of the modular transformation live
beside their one check, in pcores.asympt.
"""

from __future__ import annotations

from math import comb


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
