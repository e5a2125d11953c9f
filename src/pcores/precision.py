"""Working-precision configuration, fixed-point elementary functions, the
one number renderer, and the errors of checked computations.

A :class:`PrecisionConfig` speaks in decimal digits only at the boundary,
what a command is asked for and prints; inside, computations take bits.
A real number in this package is a :class:`Real`, a Fraction rounded once
to the working precision by :func:`round_binary` and printed by
:func:`decimal_str`, which gives the digits mpmath's ``nstr`` would; or an
integer times 2^-bits (a :class:`Fixed` if complex), with pi, roots of
unity, exponentials, logarithms and square roots summed here, and
moduli rounded once to a float by :func:`sqrt_float`.  Integers are
never rounded from such values: each one is computed exactly, and
:func:`int_str` prints it whatever its length.  No command imports
mpmath; :meth:`PrecisionConfig.context` serves perfbench/ladders.py.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple


class PrecisionError(Exception):
    """A value could not be resolved at the configured precision."""


class VerificationError(Exception):
    """A checked computation failed: routes disagreed beyond their
    tolerance, or an exact value is not the integer it must be."""


# Digits carried internally beyond the target.
GUARD_DIGITS = 10
# Bits a fixed-point sum carries beyond its result to absorb its truncations
GUARD_BITS = 32
# log2(10) as the float literal of mpmath's digit and bit conversions
_LOG2_10 = 3.3219280948873626


class _PrecisionFields(NamedTuple):
    decimal_digits: int


class PrecisionConfig(_PrecisionFields):
    """How many digits to carry.

    decimal_digits is the target number of correct decimal digits; the
    working precision adds GUARD_DIGITS.
    """

    __slots__ = ()

    def __new__(cls, decimal_digits: int = 60) -> "PrecisionConfig":
        if decimal_digits < 20:
            raise ValueError("decimal_digits must be at least 20")
        return super().__new__(cls, decimal_digits)

    @classmethod  # held for perfbench/ladders.py
    def for_digits(cls, decimal_digits: int) -> "PrecisionConfig":
        """The same config as ``PrecisionConfig(decimal_digits)``."""
        return cls(decimal_digits)

    @property
    def working_dps(self) -> int:
        return self.decimal_digits + GUARD_DIGITS

    @property
    def working_bits(self) -> int:
        """The working precision in bits, as mpmath's dps_to_prec gives it:
        the ``prec`` of :meth:`context`."""
        return round((self.working_dps + 1) * _LOG2_10)

    def context(self):  # held for perfbench/ladders.py's mpc grids
        """The (shared, treat-as-immutable) mpmath context for this config."""
        return _context(self.working_dps)


DEFAULT_PRECISION = PrecisionConfig()


@functools.lru_cache(maxsize=None)
def _context(dps: int):  # held for perfbench/ladders.py via context()
    import mpmath
    ctx = mpmath.mp.clone()
    ctx.dps = dps
    return ctx


class Real(Fraction):
    """A real value rounded once to the working precision: what
    round_binary returns, and what the CLI prints through decimal_str."""

    __slots__ = ()


def round_binary(value: Fraction, bits: int) -> Real:
    """``value`` rounded to the nearest number with a ``bits``-bit
    mantissa, ties to even: what mpmath's correctly rounded division gives
    at a precision of ``bits``."""
    num, den = abs(value.numerator), value.denominator
    if not num:
        return Real(0)
    # num/den * 2^shift lies in (2^(bits-1), 2^(bits+1)); keep bits bits
    shift = bits - num.bit_length() + den.bit_length()
    num, den = num << max(shift, 0), den << max(-shift, 0)
    if num >= den << bits:
        shift -= 1
        den <<= 1
    quotient, rest = divmod(num, den)
    if 2 * rest > den or 2 * rest == den and quotient & 1:
        quotient += 1
    if value < 0:
        quotient = -quotient
    return Real(quotient, 1 << shift) if shift > 0 \
        else Real(quotient << -shift)


class Fixed(tuple):
    """(re + i*im) * 2^-bits as the tuple (re, im, bits)."""

    __slots__ = ()


def shift_round(n: int, shift: int) -> int:
    """n * 2^-shift rounded to the nearest integer, ties up."""
    return n << -shift if shift <= 0 else (n + (1 << shift - 1)) >> shift


@functools.lru_cache(maxsize=None)
def pi_fixed(bits: int) -> int:
    """pi * 2^bits within two units, by Machin's formula
    pi = 16 * atan(1/5) - 4 * atan(1/239), each arctangent series summed
    in fixed point with guard bits that keep its truncations below half a
    unit."""
    guard = bits.bit_length() + 5
    total = 0
    for coefficient, x in ((16, 5), (-4, 239)):
        power = (1 << bits + guard) // x  # 2^(bits+guard) / x^(2j+1)
        j = 1
        while power:
            total += coefficient * (power // j)
            coefficient, power, j = -coefficient, power // (x * x), j + 2
    return total >> guard


def sqrt_fixed(n: int, bits: int) -> int:
    """sqrt(n) * 2^bits for an integer n >= 0, rounded, by isqrt."""
    return (math.isqrt(n << 2 * bits + 2) + 1) >> 1


@functools.lru_cache(maxsize=None)
def roots_fixed(bits: int, k: int) -> tuple:
    """e^(-2*pi*i*m/k), m = 0..k-1, as integers times 2^-bits: (real
    parts, imaginary parts), each within half a unit plus 2^-8 for k below
    2^10.  Those for m <= k/2 are powers of one root from the Taylor series
    of cos and sin, each term and product floored GUARD_BITS finer; the
    rest are their conjugates, so the table is conjugate-symmetric."""
    scale = bits + GUARD_BITS
    angle = (pi_fixed(scale) * 2 + k // 2) // k
    parts, term, n = [0, 0], 1 << scale, 0  # cos and sin of the angle
    while term:
        parts[n & 1] += -term if n & 2 else term
        n += 1
        term = (term * angle >> scale) // n
    (cos, sin), re, im, real, imag = parts, 1 << scale, 0, [], []
    for _ in range(k // 2 + 1):
        real.append(shift_round(re, GUARD_BITS))
        imag.append(shift_round(im, GUARD_BITS))
        re, im = re * cos + im * sin >> scale, im * cos - re * sin >> scale
    mirror = slice((k - 1) // 2, 0, -1)  # m = k - 1 .. k/2 + 1 from k - m
    return (tuple(real + real[mirror]),
            tuple(imag + [-v for v in imag[mirror]]))


@functools.lru_cache(maxsize=None)
def log_fixed(x: int, bits: int) -> int:
    """log(x * 2^-bits) * 2^bits for an integer x > 0, within one unit:
    x * 2^-bits = y * 2^e with y in [1, 2), and e * log 2 + log y, each log
    u = 2 * atanh((u - 1)/(u + 1)) summed GUARD_BITS finer, rounded once."""
    scale, e = bits + GUARD_BITS, x.bit_length() - 1 - bits
    one, total = 1 << scale, 0
    for weight, u in ((e, 2 << scale), (1, shift_round(x, e + bits - scale))):
        z = (u - one << scale) // (u + one)  # in [0, 1/3]
        square, power, j = z * z >> scale, z, 1
        while power:
            total += 2 * weight * (power // j)
            power, j = power * square >> scale, j + 2
    return shift_round(total, GUARD_BITS)


def exp_fixed(x: int, bits: int) -> int:
    """exp(x * 2^-bits) * 2^bits, within one unit for x <= 0 (0 below
    e^-(bits+2)) and a relative 2^-bits above: e^r * 2^n, x = n*log 2 + r,
    0 <= r < log 2, e^r a Taylor sum GUARD_BITS + bit_length(n) bits finer."""
    if x < -(bits + 2) << bits:
        return 0
    scale = bits + GUARD_BITS + (abs(x) >> bits).bit_length() + 1
    n, r = divmod(x << scale - bits, log_fixed(2 << scale, scale))
    total, term, j = 0, 1 << scale, 0
    while term:
        total, j = total + term, j + 1
        term = (term * r >> scale) // j
    return shift_round(total, scale - bits - n)


def sqrt_float(norm: int, bits: int) -> float:
    """sqrt(norm) * 2^-bits as a float rounded once: isqrt 64 bits finer
    with a sticky last bit, then one correctly rounded division."""
    root = math.isqrt(norm << 128)
    root |= root * root != norm << 128
    try:
        return root / (1 << bits + 64)
    except OverflowError:  # past the largest float: inf, as float() of an mpf
        return math.inf


def int_str(n: int) -> str:
    """str(n) at any length: Python refuses str() of an int beyond 4300
    digits, so the digits come from decimal."""
    return str(Decimal(n))


def decimal_str(value: Fraction, config: PrecisionConfig) -> str:
    """``nstr(ctx.fdiv(value.numerator, value.denominator), decimal_digits)``
    for the context of ``config``, without mpmath, step for step as
    libmpf's to_str: ``value`` rounded to the working precision, floored to
    about decimal_digits + 6 digits through the same fixed-point
    conversion, rounded half up on the digit after the last kept, printed
    in fixed notation when the leading digit's decimal exponent lies
    strictly between min(-(digits // 3), -5) and digits, and stripped of
    trailing zeros.  Beyond 2^+-3500, where mpmath first divides by a
    rounded power of ten, the floor is exact.
    """
    rounded = round_binary(value, config.working_bits)
    if not rounded:
        return "0.0"
    dps = config.decimal_digits
    man, exp = abs(rounded.numerator), 1 - rounded.denominator.bit_length()
    top = exp + man.bit_length()
    fixprec = int((dps + 3) * _LOG2_10) + 10 - top
    if abs(top) <= 3500:  # mpmath floors to fixprec fraction bits first
        fixprec = max(fixprec, 0)
        shift = exp + fixprec
        man, exp = man << max(shift, 0) >> max(-shift, 0), -fixprec
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    floor = ((man * 10 ** max(fixdps, 0) << max(exp, 0))
             // (10 ** max(-fixdps, 0) << max(-exp, 0)))
    digits = int_str(floor)
    exponent = len(digits) - fixdps - 1
    head = digits[:dps]
    if len(digits) > dps and digits[dps] in "56789":
        head = int_str(floor // 10 ** (len(digits) - dps) + 1)
        if len(head) > dps:  # 99...9 carried into a new leading digit
            head, exponent = head[:dps], exponent + 1
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            head = "0" * -exponent + head
        else:
            split = exponent + 1
        exponent = 0
    text = (head[:split] + "." + head[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if exponent:
        text += f"e{exponent:+d}"
    return ("-" if rounded < 0 else "") + text
