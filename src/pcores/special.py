"""High-precision special functions.

Hurwitz zeta via Euler-Maclaurin summation with an explicit error cut,
its exact rational values at nonpositive integer arguments, the periodic
zeta function on the unit circle from its log series, and arbitrary-order
derivatives of the cotangent through an integer-coefficient polynomial
recurrence.  Every zeta value, the log series' coefficients included,
comes from this module; mpmath supplies elementary functions and rounding
through the contexts of pcores.precision, and _horner imports its raw-tuple
arithmetic when it runs, so importing this module loads no mpmath.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

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


@functools.lru_cache(maxsize=None)
def _cot_pi(ctx, q: Fraction):
    """cot(pi*q) at the precision of ctx, computed once per (ctx, q)."""
    return ctx.cot(ctx.pi * to_mpf(ctx, q))


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
    c = _cot_pi(config.context(), q)
    if r == 0:
        return c
    val = 0
    for coeff in reversed(cot_polynomial(r)):
        val = val * c + coeff
    return val if r % 2 == 0 else -val


@functools.lru_cache(maxsize=None)
def _euler_maclaurin_coefficient(j: int) -> Fraction:
    """B_{2j}/(2j)!, exactly."""
    return bernoulli_number(2 * j) / math.factorial(2 * j)


def hurwitz_zeta(s: int, a, config: PrecisionConfig = DEFAULT_PRECISION):
    """zeta(s, a) = sum_{n>=0} (n+a)^(-s) for integer s >= 2, rational a in
    (0, 1], computed by _hurwitz_zeta once per (s, a, config) and cached.

    Its cache_info and cache_clear are _hurwitz_zeta's, so a call by this
    name shows as a cache hit or miss however s, a and config are written.
    """
    if s != int(s) or s < 2:
        raise ValueError("hurwitz_zeta requires integer s >= 2")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("hurwitz_zeta requires 0 < a <= 1")
    return _hurwitz_zeta(int(s), a, config)


@functools.lru_cache(maxsize=None)
def _hurwitz_zeta(s: int, a: Fraction, config: PrecisionConfig):
    """zeta(s, a) for integer s >= 2 and Fraction a in (0, 1].

    Direct summation of M = max(2*s, decimal_digits) terms, then the
    Euler-Maclaurin tail
        x^(1-s)/(s-1) + x^(-s)/2
          + sum_j B_{2j}/(2j)! * s(s+1)...(s+2j-2) * x^(-s-2j+1)
    at x = M + a, with corrections added until the next one drops below
    10^-(decimal_digits+5).  With this M the series terms decrease well past
    the cut, so the stopping rule is an honest error bound.

    Each term is an exact rational in p, q and M, where a = p/q: the head's
    (n + a)^(-s) is q^s/(nq + p)^s and x = (Mq + p)/q.  Each is cut once to
    an integer multiple of 2^-W, W = prec + bit_length(8M) + 4 for the
    working precision prec; the stopping rule and the stall check compare
    those integers, which are summed exactly, and the sum is rounded once
    to prec bits.  The stall check ends the tail before j passes 5M, so at
    most 8M cuts, each under 2^-W, leave the sum within 2^-(prec+4) of the
    truncated formula: under a sixteenth of the last bit of
    zeta(s, a) >= 1, before its one rounding.
    """
    ctx = config.context()
    prec, digits = ctx.prec, config.decimal_digits
    M = max(2 * s, digits)
    W = prec + (8 * M).bit_length() + 4
    p, q = a.numerator, a.denominator
    X = M * q + p  # x = X/q
    scaled = q ** s << W
    total = sum(scaled // (n * q + p) ** s for n in range(M))
    # x^(1-s)/(s-1) + x^(-s)/2
    total += (q ** (s - 1) << W) // ((s - 1) * X ** (s - 1))
    total += scaled // (2 * X ** s)
    cut = (1 << W) // 10 ** (digits + 5)
    rising = s  # s(s+1)...(s+2j-2), starting at j = 1
    num, den = q ** (s + 1), X ** (s + 1)  # x^(-s-2j+1) = num/den
    previous = math.inf
    j = 1
    while True:
        coefficient = _euler_maclaurin_coefficient(j)
        term = ((coefficient.numerator * rising * num << W)
                // (coefficient.denominator * den))
        total += term
        size = abs(term)
        if size < cut:
            break
        if size > previous:
            # asymptotic tail started diverging before reaching the target
            size = ctx.mpf((size, -W))
            raise PrecisionError(
                f"Euler-Maclaurin tail for zeta({s}, {a}) stalled at "
                f"term size {ctx.nstr(size, 5)}"
            )
        previous = size
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        num, den = num * q * q, den * X * X
        j += 1
    return ctx.mpf((total, -W))


hurwitz_zeta.cache_info = _hurwitz_zeta.cache_info
hurwitz_zeta.cache_clear = _hurwitz_zeta.cache_clear


def hurwitz_zeta_neg(m: int, a) -> Fraction:
    """Exact zeta(-m, a) = -B_{m+1}(a)/(m+1) for integer m >= 0."""
    if m < 0:
        raise ValueError("hurwitz_zeta_neg requires m >= 0")
    return -bernoulli_poly(m + 1, Fraction(a)) / (m + 1)


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

    For m <= s-2, zeta(s-m) is hurwitz_zeta(s-m, 1) for a config
    GUARD_DIGITS beyond the guard context (at the guard context's own
    digits its tail cut, 10^-(digits+5), would show in the last bits) and
    is divided by m! in the guard context.  For m >= s, n = m - s, c_m is
    the exact zeta(-n)/m! = (-1)^n * B_(n+1) / ((n+1) * m!), rounded once;
    those of the parity of s are zero and are neither computed nor stored.
    """
    high = _context(ctx.dps + GUARD_DIGITS)
    zeta_config = PrecisionConfig(ctx.dps + GUARD_DIGITS)
    pi, cut = +high.pi, ctx.eps / 8
    parts = ([], [])
    m, pi_m = 0, high.one
    while True:
        if m <= s or (m - s) % 2:
            if m <= s - 2:
                c = high.fdiv(hurwitz_zeta(s - m, 1, zeta_config),
                              math.factorial(m))
            elif m == s - 1:
                c = high.zero
            else:
                n = m - s
                c = to_mpf(high, (-1) ** n * bernoulli_number(n + 1)
                           / ((n + 1) * math.factorial(m)))
                if abs(c) * pi_m < cut:
                    break
            parts[m % 2].append(-c if m % 4 >= 2 else c)
        m, pi_m = m + 1, pi_m * pi
    harmonic = to_mpf(high, sum(Fraction(1, j) for j in range(1, s)))
    return tuple(parts[0]), tuple(parts[1]), harmonic


def _horner(ctx, coeffs, u):
    """coeffs[0] + coeffs[1]*u + coeffs[2]*u^2 + ... by Horner's rule, for
    mpf coefficients and u, on mpmath's raw tuples: each product and each
    sum rounded once at the precision of ctx, as acc * u + c rounds."""
    from mpmath.libmp import fzero, mpf_add, mpf_mul, round_nearest
    prec, u, acc = ctx.prec, u._mpf_, fzero
    for c in reversed(coeffs):
        acc = mpf_add(mpf_mul(acc, u, prec, round_nearest), c._mpf_, prec,
                      round_nearest)
    return ctx.make_mpf(acc)


def periodic_zeta(s: int, x, config: PrecisionConfig = DEFAULT_PRECISION):
    """l(s, x) = sum_{n>=1} e^(2*pi*i*n*x) / n^s for integer s >= 2, rational x.

    x is reduced mod 1 and folded onto [0, 1/2] by the termwise
    conjugation l(s, 1-x) = conj(l(s, x)); _folded_periodic_zeta computes
    and caches the value at the folded x.  Always complex.
    """
    if s != int(s) or s < 2:
        raise ValueError("periodic_zeta requires integer s >= 2")
    s, x = int(s), Fraction(x) % 1
    if x > Fraction(1, 2):
        return config.context().conj(_folded_periodic_zeta(s, 1 - x, config))
    return _folded_periodic_zeta(s, x, config)


@functools.lru_cache(maxsize=None)
def _folded_periodic_zeta(s: int, x: Fraction, config: PrecisionConfig):
    """l(s, x) for x in [0, 1/2], computed once per (s, x, config).

    l(s, 0) = zeta(s, 1); every other x sums the log series of _log_series,
    whose coefficients are built once per (precision, s) and cut where
    |c_m| * pi^m < eps/8.  E and O are evaluated by Horner's rule on raw
    tuples (_horner) GUARD_DIGITS beyond the working precision, and the
    result is rounded once.
    """
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
    return ctx.mpc(_horner(high, even, u) + re, t * _horner(high, odd, u) + im)
