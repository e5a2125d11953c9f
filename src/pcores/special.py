"""High-precision special functions.

Hurwitz zeta via Euler-Maclaurin summation with an explicit error cut,
its exact rational values at nonpositive integer arguments, the periodic
zeta function on the unit circle from its log series, and arbitrary-order
derivatives of the cotangent through an integer-coefficient polynomial
recurrence.  Every value is summed in integers on a binary scale, with
pi, roots of unity and log from pcores.precision: hurwitz_zeta and
periodic_zeta return a precision.Fixed on the working precision's scale,
and cot_derivative an integer on the scale its caller names, so no value
here builds an mpf and the transform table, the leading constant and the
Dirichlet check never load mpmath.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .arith import bernoulli_number, bernoulli_poly
from .precision import (DEFAULT_PRECISION, GUARD_BITS, GUARD_DIGITS, Fixed,
                        PrecisionConfig, PrecisionError, decimal_str,
                        log_fixed, pi_fixed, roots_fixed, shift_round)


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


def cot_derivative(r: int, q, bits: int) -> int:
    """cot^(r)(pi*q) * 2^bits for r >= 0 and rational q = m/den in (0, 1).

    The sign convention is the literal derivative: cot^(r)(x) = (-1)^r
    f_r(cot x).  t = cot(pi*q) is cos/sin of the root e^(-2*pi*i*m/(2den)),
    taken 2 * bit_length(den) + GUARD_BITS finer, where sin(pi*q) >= 2/den
    keeps the quotient within 2 * den^2 + 1 units, and rounded.  f_r(t) is
    summed by Horner's rule with each product floored: within (r + 2) *
    max(1, |t|)^(r + 1) units plus |f_r'(t)| times t's error.
    """
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError("cot_derivative requires 0 < q < 1")
    if r < 0:
        raise ValueError("cot_derivative requires r >= 0")
    scale = bits + GUARD_BITS + 2 * q.denominator.bit_length()
    real, imag = roots_fixed(scale, 2 * q.denominator)
    t = shift_round((real[q.numerator] << scale) // -imag[q.numerator],
                    scale - bits)
    val = 0
    for coeff in reversed(cot_polynomial(r) if r else (0, 1)):  # f_0(t) = t
        val = (val * t >> bits) + (coeff << bits)
    return val if r % 2 == 0 else -val


@functools.lru_cache(maxsize=None)
def _euler_maclaurin_coefficient(j: int) -> Fraction:
    """B_{2j}/(2j)!, exactly."""
    return bernoulli_number(2 * j) / math.factorial(2 * j)


def hurwitz_zeta(s: int, a,
                 config: PrecisionConfig = DEFAULT_PRECISION) -> Fixed:
    """zeta(s, a) = sum_{n>=0} (n+a)^(-s) for integer s >= 2, rational a in
    (0, 1]: _hurwitz_zeta's sum, cached per (s, a, config), rounded once to
    a Fixed on the working precision's scale.

    Its cache_info and cache_clear are _hurwitz_zeta's, so a call by this
    name shows as a cache hit or miss however s, a and config are written.
    """
    if s != int(s) or s < 2:
        raise ValueError("hurwitz_zeta requires integer s >= 2")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("hurwitz_zeta requires 0 < a <= 1")
    total, scale = _hurwitz_zeta(int(s), a, config)
    bits = config.working_bits
    return Fixed((shift_round(total, scale - bits), 0, bits))


@functools.lru_cache(maxsize=None)
def _hurwitz_zeta(s: int, a: Fraction, config: PrecisionConfig):
    """zeta(s, a) ~ total/2^W as (total, W), integer s >= 2, a in (0, 1].

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
    those integers, which are summed exactly.  The stall check ends the
    tail before j passes 5M, so at most 8M cuts, each under 2^-W, leave the
    sum within 2^-(prec+4) of the truncated formula: under a sixteenth of
    the last bit of zeta(s, a) >= 1, before the caller's one rounding.
    """
    prec, digits = config.working_bits, config.decimal_digits
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
            raise PrecisionError(
                f"Euler-Maclaurin tail for zeta({s}, {a}) stalled at term "
                f"size {decimal_str(Fraction(size, 1 << W), config)}")
        previous = size
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        num, den = num * q * q, den * X * X
        j += 1
    return total, W


hurwitz_zeta.cache_info = _hurwitz_zeta.cache_info
hurwitz_zeta.cache_clear = _hurwitz_zeta.cache_clear


def hurwitz_zeta_neg(m: int, a) -> Fraction:
    """Exact zeta(-m, a) = -B_{m+1}(a)/(m+1) for integer m >= 0."""
    if m < 0:
        raise ValueError("hurwitz_zeta_neg requires m >= 0")
    return -bernoulli_poly(m + 1, Fraction(a)) / (m + 1)


@functools.lru_cache(maxsize=None)
def _log_series(s: int, config: PrecisionConfig) -> tuple:
    """The log series of l(s, x), integer s >= 2, with pi folded in, as
    integers times 2^-(working bits + GUARD_BITS): (E, O, K, H) with

        l(s, x) = E(v^2) + i*v*O(v^2)
                  + i^(s-1) * K * v^(s-1) * (H - log(pi*v) + i*pi/2)

    at v = 2x in (0, 1], K = pi^(s-1)/(s-1)!, H = H_{s-1}: Li_s(e^w) =
    sum_{m != s-1} zeta(s-m) w^m/m! + w^(s-1)/(s-1)! * (H_{s-1} - log(-w))
    at w = i*pi*v (Lewin, Polylogarithms and Associated Functions, 1981,
    section 7).  d_m = (-1)^(m//2) * zeta(s-m) * pi^m/m! joins E (even m)
    or O (odd m), d_(s-1) = 0, up to the first nonzero |d_m| < eps/8 with
    m >= s, past which the nonzero terms fall fourfold (dropped: < eps/6).
    zeta(s-m) is _hurwitz_zeta's sum GUARD_DIGITS finer for m <= s-2, and
    (-1)^n * B_(n+1)/(n+1) for m = s + n; once n + 1 = 2j passes a quarter
    of the bits, d_m = (-1)^j * 2 * pi^(s-1) * sum_i (2i)^(-2j) / (2j
    (2j+1) ... m) instead, in at most eight floored terms.  pi^m is carried
    GUARD_BITS finer; each d_m, K and H is within half a unit plus 2^-8.
    """
    scale = config.working_bits + GUARD_BITS
    wide = scale + GUARD_BITS
    zeta_config = PrecisionConfig(config.working_dps + GUARD_DIGITS)
    pi, cut = pi_fixed(wide), 1 << GUARD_BITS - 2
    parts = ([], [])
    m, pi_m, factorial = 0, 1 << wide, 1
    while True:
        if m <= s or (m - s) % 2:
            if m <= s - 2:
                total, W = _hurwitz_zeta(s - m, Fraction(1), zeta_config)
                d = shift_round(total * pi_m // factorial, W + wide - scale)
            elif m == s - 1:
                d, K = 0, shift_round(pi_m // factorial, wide - scale)
                pi_s1 = pi_m
            elif 4 * (m - s + 1) < wide:
                n = m - s
                c = bernoulli_number(n + 1)
                d = shift_round((-1) ** n * c.numerator * pi_m
                                // (c.denominator * (n + 1) * factorial),
                                wide - scale)
            else:  # zeta(2j) / 4^j = sum_i (2i)^(-2j), 2j = m - s + 1
                j, power_sum, i = (m - s + 1) // 2, 0, 1
                while term := (1 << wide) // (2 * i) ** (2 * j):
                    power_sum, i = power_sum + term, i + 1
                d = shift_round((-1) ** j * pi_s1 * power_sum
                                // math.perm(m, s), 2 * wide - scale - 1)
            if m >= s and abs(d) < cut:
                break
            parts[m % 2].append(-d if m % 4 >= 2 else d)
        m, pi_m = m + 1, pi_m * pi >> wide
        factorial *= m
    harmonic = round(sum(Fraction(1, j) for j in range(1, s)) * (1 << scale))
    return tuple(parts[0]), tuple(parts[1]), K, harmonic


def _horner(coeffs, num: int, den: int) -> int:
    """sum_m coeffs[m] * (num/den)^m for integer coefficients and
    0 <= num <= den, by Horner's rule with each product floored: at most
    len(coeffs) below the exact sum, and never above it."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * num // den + c
    return acc


def periodic_zeta(s: int, x, config: PrecisionConfig = DEFAULT_PRECISION):
    """l(s, x) = sum_{n>=1} e^(2*pi*i*n*x) / n^s for integer s >= 2, rational
    x, as a Fixed on the working precision's scale.

    x is reduced mod 1 and folded onto [0, 1/2] by the termwise
    conjugation l(s, 1-x) = conj(l(s, x)); _folded_periodic_zeta computes
    and caches the value at the folded x.  Always complex.
    """
    if s != int(s) or s < 2:
        raise ValueError("periodic_zeta requires integer s >= 2")
    s, x = int(s), Fraction(x) % 1
    if x > Fraction(1, 2):
        re, im, bits = _folded_periodic_zeta(s, 1 - x, config)
        return Fixed((re, -im, bits))
    return _folded_periodic_zeta(s, x, config)


@functools.lru_cache(maxsize=None)
def _folded_periodic_zeta(s: int, x: Fraction, config: PrecisionConfig):
    """l(s, x) for x in [0, 1/2], computed once per (s, x, config).

    l(s, 0) = zeta(s, 1); every other x sums _log_series at v = 2x = a/b,
    E and O by _horner at v^2, GUARD_BITS finer: within a few hundred units
    there, so within half a unit plus 2^-16 once rounded.
    """
    if x == 0:
        return hurwitz_zeta(s, 1, config)
    even, odd, K, harmonic = _log_series(s, config)
    bits = config.working_bits
    scale = bits + GUARD_BITS
    pi, a, b = pi_fixed(scale), (2 * x).numerator, (2 * x).denominator
    # i^(s-1) * K * v^(s-1) * (H - log(pi*v) + i*pi/2) as re + i*im
    power = K * a ** (s - 1) // b ** (s - 1)
    re = power * (harmonic - log_fixed(pi * a // b, scale)) >> scale
    im = power * pi >> scale + 1
    for _ in range((s - 1) % 4):
        re, im = -im, re
    re += _horner(even, a * a, b * b)
    im += _horner(odd, a * a, b * b) * a // b
    return Fixed((shift_round(re, GUARD_BITS), shift_round(im, GUARD_BITS),
                  bits))
