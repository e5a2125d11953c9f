"""High-precision special functions.

Hurwitz zeta via Euler-Maclaurin summation with an explicit error cut,
its exact rational values at nonpositive integer arguments, the periodic
zeta function on the unit circle from its log series, and arbitrary-order
derivatives of the cotangent through an integer-coefficient polynomial
recurrence.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath.libmp import (from_int, mpf_div, mpf_neg, mpf_pow, mpf_sum,
                          round_nearest)

from .arith import bernoulli_number, bernoulli_poly
from .precision import (DEFAULT_PRECISION, GUARD_DIGITS, PrecisionConfig,
                        PrecisionError, _context, to_mpf)


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


def _hurwitz_head(ctx, sm, a: Fraction, terms: int):
    """sum_{n<terms} (n + a)^(-s) for s = sm, an mpf, on mpmath's raw tuples
    with the roundings of fsum(to_mpf(ctx, n + a) ** -sm): (n*q + p)/q
    rounded once, each power rounded once (mpf_pow hands integer exponents
    to mpf_pow_int), the sum exact and rounded once."""
    prec, p, q = ctx.prec, a.numerator, a.denominator
    neg_s, den = mpf_neg(sm._mpf_), from_int(q)
    return ctx.make_mpf(mpf_sum(
        [mpf_pow(mpf_div(from_int(n * q + p), den, prec, round_nearest),
                 neg_s, prec, round_nearest) for n in range(terms)],
        prec, round_nearest))


@functools.lru_cache(maxsize=None)
def _euler_maclaurin_coefficient(ctx, j: int):
    """B_{2j}/(2j)!, rounded once at the precision of ctx."""
    return to_mpf(ctx, bernoulli_number(2 * j) / math.factorial(2 * j))


def hurwitz_zeta(s, a, config: PrecisionConfig = DEFAULT_PRECISION):
    """zeta(s, a) = sum_{n>=0} (n+a)^(-s) for real s >= 2, rational a in (0,1].

    Direct summation of M = max(2*ceil(s), decimal_digits) terms, then the
    Euler-Maclaurin tail
        x^(1-s)/(s-1) + x^(-s)/2
          + sum_j B_{2j}/(2j)! * s(s+1)...(s+2j-2) * x^(-s-2j+1)
    at x = M + a, with corrections added until the next one drops below
    10^-(decimal_digits+5).  With this M the series terms decrease well past
    the cut, so the stopping rule is an honest error bound.

    Everything runs at the working precision, GUARD_DIGITS beyond
    decimal_digits.  The head is summed on mpmath's raw tuples
    (_hurwitz_head), with the roundings the mpf expression
    fsum((n + a) ** -s) makes.  The tail's B_{2j}/(2j)! are rounded once
    per (precision, j) and cached.
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
    total = _hurwitz_head(ctx, sm, a, M)
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
        term = _euler_maclaurin_coefficient(ctx, j) * rising * xpow
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


@functools.lru_cache(maxsize=None)
def _log_series(ctx, s: int) -> tuple:
    """The log series of l(s, x) for integer s >= 2, at GUARD_DIGITS beyond
    ctx: (E, O, H_{s-1}), with E and O ascending coefficient tuples of the
    real polynomials in

        l(s, x) = E(t^2) + i*t*O(t^2)
                  + (i*t)^(s-1)/(s-1)! * (H_{s-1} - log t + i*pi/2)

    at t = 2*pi*x in (0, pi].  This is Li_s(e^w) = sum_{m != s-1}
    zeta(s-m) w^m/m! + w^(s-1)/(s-1)! * (H_{s-1} - log(-w)) at w = i*t
    (Lewin, Polylogarithms and Associated Functions, 1981, section 7):
    the m-th coefficient c_m = zeta(s-m)/m! joins E for even m and O for
    odd m, with the sign (-1)^(m//2) of i^m.  The series stops at the
    first nonzero c_m with m >= s and |c_m| * pi^m < eps/8.  From m = s on
    |c_m| * pi^m falls by a factor of more than 4 from one nonzero term to
    the next, so what is dropped stays below eps/6 of ctx.
    """
    high = _context(ctx.dps + GUARD_DIGITS)
    cut = ctx.eps / 8
    parts = ([], [])
    m, pi_m = 0, high.one
    while True:
        c = high.zeta(s - m) / math.factorial(m) if m != s - 1 else high.zero
        if m >= s and c and abs(c) * pi_m < cut:
            break
        parts[m % 2].append(-c if m % 4 >= 2 else c)
        m, pi_m = m + 1, pi_m * high.pi
    for part in parts:  # the other parity's tail is all zeta(-2n) = 0
        while not part[-1]:
            part.pop()
    harmonic = to_mpf(high, sum(Fraction(1, j) for j in range(1, s)))
    return tuple(parts[0]), tuple(parts[1]), harmonic


def _horner(coeffs, u):
    """coeffs[0] + coeffs[1]*u + coeffs[2]*u^2 + ... by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def periodic_zeta(s: int, x, config: PrecisionConfig = DEFAULT_PRECISION):
    """l(s, x) = sum_{n>=1} e^(2*pi*i*n*x) / n^s for integer s >= 2, rational x.

    x is folded onto [0, 1/2] by the termwise conjugation
    l(s, 1-x) = conj(l(s, x)).  l(s, 0) = zeta(s, 1); every other folded x
    sums the log series of _log_series, whose coefficients are built once
    per (precision, s) and cut where |c_m| * pi^m < eps/8.  E and O are
    evaluated by Horner's rule GUARD_DIGITS beyond the working precision,
    and the result is rounded once.  Always complex.
    """
    if s != int(s) or s < 2:
        raise ValueError("periodic_zeta requires integer s >= 2")
    s = int(s)
    x, conjugate = _fold(x)
    ctx = config.context()
    if x == 0:
        return ctx.mpc(hurwitz_zeta(s, 1, config))
    even, odd, harmonic = _log_series(ctx, s)
    high = _context(ctx.dps + GUARD_DIGITS)
    t = 2 * high.pi * to_mpf(high, x)
    u = t * t
    scale = t ** (s - 1) / math.factorial(s - 1)
    # (i*t)^(s-1)/(s-1)! * (H - log t + i*pi/2) as re + i*im, turned by i^(s-1)
    re, im = scale * (harmonic - high.ln(t)), scale * high.pi / 2
    for _ in range((s - 1) % 4):
        re, im = -im, re
    val = ctx.mpc(_horner(even, u) + re, t * _horner(odd, u) + im)
    return ctx.conj(val) if conjugate else val
