"""Exact arithmetic number theory.

Primality, factorization (every multiplicative function is read from it),
Legendre symbol, sawtooth, Dedekind sums, Ramanujan sums, Bernoulli numbers
and polynomials.  Everything here is exact: integers or Fractions.
"""

from __future__ import annotations

import functools
import threading
from fractions import Fraction
from math import comb, factorial, gcd, isqrt

# Miller-Rabin on these bases is proven only for n < psi_13; without 41 it
# stops at psi_12 = 318665857834031151167461 = 399165290221 * 798330580441
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, run once per n and cached; n >= psi_13
    raises ValueError."""
    if n >= _PSI_13:
        raise ValueError(f"primality is proven only below {_PSI_13}, got {n}")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> list[tuple[int, int]]:
    """The prime powers l^a exactly dividing n >= 1, as (l, a) with l
    ascending, by trial division up to the square root of the cofactor
    still left: about max(second-largest prime factor, sqrt(largest)) / 2
    divisions."""
    if n < 1:
        raise ValueError("factor requires n >= 1")
    factors, l = [], 2
    while True:
        a = 0
        while n % l == 0:
            n //= l
            a += 1
        if a:
            factors.append((l, a))
        # the next odd candidate that divides, re-bounded by what is left
        for l in range(l + 1 | 1, isqrt(n) + 1, 2):
            if n % l == 0:
                break
        else:
            break
    if n > 1:
        factors.append((n, 1))
    return factors


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic residue symbol (a|p) for an odd prime p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sawtooth(x) -> Fraction:
    """((x)): x - floor(x) - 1/2 for non-integers, 0 at integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum(h: int, k: int) -> int:
    """12k * s(h,k) for the Dedekind sum s(h,k) = sum_{j=1}^{k-1}
    ((j/k))((jh/k)), an even integer (6k * s(h,k) is an integer).

    Requires gcd(h,k) = 1.  O(log k) integer steps: the reciprocity descent
    along the Euclidean algorithm r_0 = k, r_1 = h, ..., r_n = 1 with
    quotients a_i telescopes to 12k*s(h,k) = k*sum_i (-1)^(i+1)(a_i - 3)
    + h + y, where 1 = x*k + y*h (Apostol, Modular Functions, ch. 3).
    """
    if k < 1:
        raise ValueError("dedekind_sum requires k >= 1")
    h %= k
    if gcd(h, k) != 1:
        raise ValueError("dedekind_sum requires gcd(h,k) = 1")
    quotients, sign, r_prev, r, y_prev, y = 0, 1, k, h, 0, 1
    while r:
        a, rest = divmod(r_prev, r)
        quotients += sign * (a - 3)
        sign = -sign
        r_prev, r, y_prev, y = r, rest, y, y_prev - a * y
    # now r_prev = 1 = x*k + y_prev*h
    return k * quotients + h + y_prev


def ramanujan_sum(k: int, n: int) -> int:
    """c_k(n) = sum over d | gcd(n,k) of d * mu(k/d), the product over
    l^a exactly dividing k of l^a - l^(a-1) where l^a | n, -l^(a-1) where
    only l^(a-1) divides n, and 0 otherwise."""
    if k < 1:
        raise ValueError("ramanujan_sum requires k >= 1")
    total = 1
    for l, a in factor(k):
        q = l ** (a - 1)
        if n % q:
            return 0
        total *= q * l - q if n % (q * l) == 0 else -q
    return total


_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
# T_j^(k) for k = 1..j, the tangent-number column behind the last B_2j cached
_tangents: list[int] = []
_bernoulli_lock = threading.Lock()


def bernoulli_number(n: int) -> Fraction:
    """B_n with the convention B_1 = -1/2 (so B_n(0) = B_n for all n).

    B_2j = (-1)^(j-1) * 2j * T_j / (4^j * (4^j - 1)) from the tangent number
    T_j = T_j^(j) of Brent and Harvey's integer recurrence (arXiv:1108.0286,
    TangentNumbers), taken one column j at a time: T_j^(1) = (j-1)! and
    T_j^(k) = (j-k) * T_(j-1)^(k) + (j-k+2) * T_j^(k-1) for k = 2..j.
    """
    if n < 0:
        raise ValueError("bernoulli_number requires n >= 0")
    if n >= len(_bernoulli_cache):
        with _bernoulli_lock:
            # Re-check under the lock; another thread may have extended it.
            while n >= len(_bernoulli_cache):
                j = len(_tangents) + 1
                t = factorial(j - 1)
                column = [t]
                for k, above in zip(range(2, j + 1), _tangents[1:] + [0]):
                    t = (j - k) * above + (j - k + 2) * t
                    column.append(t)
                _tangents[:] = column
                power = 4 ** j
                _bernoulli_cache.extend((
                    Fraction((-1) ** (j - 1) * 2 * j * t, power * (power - 1)),
                    Fraction(0)))
    return _bernoulli_cache[n]


def bernoulli_poly(n: int, x) -> Fraction:
    """Exact B_n(x) = sum_i C(n,i) B_i x^(n-i) for rational x."""
    if n < 0:
        raise ValueError("bernoulli_poly requires n >= 0")
    x = Fraction(x)
    total = Fraction(0)
    xpow = Fraction(1)
    # Accumulate from the x^0 term upward: coefficient C(n,n-i) B_{n-i}.
    for i in range(n + 1):
        total += comb(n, i) * bernoulli_number(n - i) * xpow
        xpow *= x
    return total
