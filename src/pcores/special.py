"""High-precision special functions.

Hurwitz zeta via Euler-Maclaurin summation with an explicit error cut,
its exact rational values at nonpositive integer arguments, the periodic
zeta function on the unit circle, and arbitrary-order derivatives of the
cotangent through an integer-coefficient polynomial recurrence.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .arith import bernoulli_number, bernoulli_poly
from .precision import DEFAULT_PRECISION, PrecisionConfig, PrecisionError, to_mpf


@functools.lru_cache(maxsize=None)
def cot_polynomial(r: int) -> tuple[int, ...]:
    """Ascending coefficients of the integer polynomial f_r with
    |d^r/dx^r cot(x)| = f_r(cot x) on (0, pi/2).

    Recurrence: f_1(t) = 1 + t^2, f_{r+1} = (1 + t^2) * f_r'.  All
    coefficients are nonnegative and the degree is exactly r + 1.
    """
    if r < 1:
        raise ValueError("cot_polynomial requires r >= 1")
    coeffs = [1, 0, 1]
    for _ in range(r - 1):
        # multiply the derivative by (1 + t^2): new[i] = d[i] + d[i-2]
        deriv = [i * coeffs[i] for i in range(1, len(coeffs))]
        nxt = [0] * (len(coeffs) + 1)
        for i, d in enumerate(deriv):
            nxt[i] += d
            nxt[i + 2] += d
        coeffs = nxt
    return tuple(coeffs)


def cot_derivative(r: int, q, config: PrecisionConfig = DEFAULT_PRECISION):
    """r-th derivative of cot at x = pi*q, for exact rational q in (0,1).

    The argument is reduced while still rational; pi enters only at the
    working precision.  Sign convention is the literal derivative:
    cot^(r)(x) = (-1)^r f_r(cot x).
    """
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError("cot_derivative requires 0 < q < 1")
    if r < 0:
        raise ValueError("cot_derivative requires r >= 0")
    ctx = config.context()
    c = ctx.cot(ctx.pi * to_mpf(ctx, q))
    if r == 0:
        return c
    val = 0
    for coeff in reversed(cot_polynomial(r)):
        val = val * c + coeff
    return val if r % 2 == 0 else -val


def hurwitz_zeta(s, a, config: PrecisionConfig = DEFAULT_PRECISION):
    """zeta(s, a) = sum_{n>=0} (n+a)^(-s) for real s >= 2, rational a in (0,1].

    Direct summation of M = max(2*ceil(s), decimal_digits) terms, then the
    Euler-Maclaurin tail
        x^(1-s)/(s-1) + x^(-s)/2
          + sum_j B_{2j}/(2j)! * s(s+1)...(s+2j-2) * x^(-s-2j+1)
    at x = M + a, with corrections added until the next one drops below
    10^-(decimal_digits+5).  With this M the series terms decrease well past
    the cut, so the stopping rule is an honest error bound.
    """
    s_exact = Fraction(s) if isinstance(s, int) else s
    sf = float(s)
    if sf < 2:
        raise ValueError("hurwitz_zeta requires s >= 2")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("hurwitz_zeta requires 0 < a <= 1")
    ctx = config.context()
    sm = to_mpf(ctx, s_exact) if isinstance(s_exact, Fraction) else ctx.mpf(s_exact)
    M = max(2 * math.ceil(sf), config.decimal_digits)
    total = ctx.fsum(to_mpf(ctx, n + a) ** (-sm) for n in range(M))
    x = to_mpf(ctx, M + a)
    total += x ** (1 - sm) / (sm - 1)
    total += x ** (-sm) / 2
    eps = ctx.mpf(10) ** -(config.decimal_digits + 5)
    rising = sm  # s(s+1)...(s+2j-2), starting at j = 1
    xpow = x ** (-sm - 1)
    inv_x2 = 1 / (x * x)
    previous = ctx.inf
    j = 1
    while True:
        coeff = bernoulli_number(2 * j) / math.factorial(2 * j)
        term = to_mpf(ctx, coeff) * rising * xpow
        total += term
        size = abs(term)
        if size < eps:
            break
        if size > previous:
            # asymptotic tail started diverging before reaching the target
            raise PrecisionError(
                f"Euler-Maclaurin tail for zeta({s}, {a}) stalled at "
                f"term size {ctx.nstr(size, 5)}"
            )
        previous = size
        rising *= (sm + 2 * j - 1) * (sm + 2 * j)
        xpow *= inv_x2
        j += 1
    return +total


def hurwitz_zeta_neg(m: int, a) -> Fraction:
    """Exact zeta(-m, a) = -B_{m+1}(a)/(m+1) for integer m >= 0."""
    if m < 0:
        raise ValueError("hurwitz_zeta_neg requires m >= 0")
    return -bernoulli_poly(m + 1, Fraction(a)) / (m + 1)


def _fold(x) -> tuple[Fraction, bool]:
    """x reduced mod 1 onto [0, 1/2], and whether l(s, x) is the conjugate
    of l(s, folded x), by the termwise l(s, 1-x) = conj(l(s, x))."""
    x = Fraction(x) % 1
    if x > Fraction(1, 2):
        return 1 - x, True
    return x, False


def periodic_zeta(s, x, config: PrecisionConfig = DEFAULT_PRECISION):
    """l(s, x) = sum_{n>=1} e^(2*pi*i*n*x) / n^s for real s >= 2, rational x.

    Evaluated as the polylogarithm at the exact root of unity e^(2*pi*i*x);
    arguments past 1/2 use the termwise conjugation l(s, 1-x) = conj(l(s, x))
    to stay on the well-conditioned half of the circle.  Always complex.
    """
    sf = float(s)
    if sf < 2:
        raise ValueError("periodic_zeta requires s >= 2")
    x, conjugate = _fold(x)
    ctx = config.context()
    if x == 0:
        return ctx.mpc(hurwitz_zeta(s, 1, config))
    z = ctx.expjpi(to_mpf(ctx, 2 * x))
    val = ctx.mpc(ctx.polylog(s if isinstance(s, int) else ctx.mpf(s), z))
    if conjugate:
        val = ctx.conj(val)
    return +val
