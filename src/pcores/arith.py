"""Exact arithmetic number theory.

Mobius function, Legendre symbol, sawtooth, Dedekind sums, Ramanujan sums,
Bernoulli numbers and polynomials, divisor enumeration.  Everything here is
exact: integers or Fractions, no rounding anywhere.
"""

from __future__ import annotations

import functools
import threading
from fractions import Fraction
from itertools import compress
from math import comb, gcd, isqrt

# Deterministic Miller-Rabin witness set for n < 3.3e24 — far beyond any
# modulus used here.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, run once per n and cached."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def mobius(m: int) -> int:
    """Mobius function, read from a sieve up to the next power of two."""
    if m < 1:
        raise ValueError("mobius requires m >= 1")
    return _mobius_table(m.bit_length())[m] - 1


# bytes.translate table taking 1 + mu to 1 - mu
_NEGATE = bytes.maketrans(b"\0\2", b"\2\0")


@functools.lru_cache(maxsize=None)
def _mobius_table(bits: int) -> bytes:
    """1 + mu(m) for 0 < m < 2^bits, by a sieve: every prime q flips the
    sign at its multiples and zeroes it at the multiples of q^2."""
    n = 1 << bits
    prime = bytearray(b"\0\0") + bytearray(b"\1") * (n - 2)
    for q in range(2, isqrt(n) + 1):
        if prime[q]:
            prime[q * q::q] = bytes(len(range(q * q, n, q)))
    table = bytearray(b"\2") * n
    for q in compress(range(n), prime):
        table[q::q] = table[q::q].translate(_NEGATE)
        table[q * q::q * q] = b"\1" * len(range(q * q, n, q * q))
    return bytes(table)


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


def dedekind_sum(h: int, k: int) -> Fraction:
    """Dedekind sum s(h,k) = sum_{j=1}^{k-1} ((j/k))((jh/k)), exactly.

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
    return Fraction(k * quotients + h + y_prev, 12 * k)


def ramanujan_sum(k: int, n: int) -> int:
    """c_k(n) = sum over d | gcd(n,k) of d * mu(k/d)."""
    if k < 1:
        raise ValueError("ramanujan_sum requires k >= 1")
    g = gcd(n % k, k) if k > 1 else 1
    total = 0
    for d in divisors(g):
        total += d * mobius(k // d)
    return total


_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_bernoulli_lock = threading.Lock()


def bernoulli_number(n: int) -> Fraction:
    """B_n with the convention B_1 = -1/2 (so B_n(0) = B_n for all n)."""
    if n < 0:
        raise ValueError("bernoulli_number requires n >= 0")
    if n >= len(_bernoulli_cache):
        with _bernoulli_lock:
            # Re-check under the lock; another thread may have extended it.
            m = len(_bernoulli_cache)
            while m <= n:
                if m % 2 == 1:
                    b = Fraction(0)
                else:
                    acc = Fraction(0)
                    for j in range(m):
                        acc += comb(m + 1, j) * _bernoulli_cache[j]
                    b = -acc / (m + 1)
                _bernoulli_cache.append(b)
                m += 1
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


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    small = []
    large = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]
