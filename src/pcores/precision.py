"""Working-precision configuration, the one real-number renderer, and the
errors of checked computations.

A real number in this package is either a Fraction rounded once to the
working precision by :func:`round_binary` and printed by
:func:`decimal_str`, which gives the digits mpmath's ``nstr`` would, or a
value produced inside an mpmath context cloned for a specific
:class:`PrecisionConfig`, so callers with different precision needs never
share mutable global state.  Integers are never rounded from such values:
each one is computed exactly.  mpmath is imported where the first context
is built, so a command that builds none never loads it.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple


class PrecisionError(Exception):
    """A value could not be resolved at the configured precision."""


class VerificationError(Exception):
    """A checked computation failed: routes disagreed beyond their
    tolerance, or an exact value is not the integer it must be."""


# Digits carried internally beyond the target.
GUARD_DIGITS = 10
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

    @classmethod
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

    def context(self):
        """The (shared, treat-as-immutable) mpmath context for this config."""
        return _context(self.working_dps)


DEFAULT_PRECISION = PrecisionConfig()


@functools.lru_cache(maxsize=None)
def _context(dps: int):
    import mpmath
    ctx = mpmath.mp.clone()
    ctx.dps = dps
    return ctx


def to_mpf(ctx, value: Fraction):
    """The Fraction ``value`` as an mpf of ``ctx``, by one correctly rounded
    division (mpf() does not accept Fractions)."""
    return ctx.fdiv(value.numerator, value.denominator)


def round_binary(value: Fraction, bits: int) -> Fraction:
    """``value`` rounded to the nearest number with a ``bits``-bit
    mantissa, ties to even: what to_mpf gives at a precision of ``bits``."""
    num, den = abs(value.numerator), value.denominator
    if not num:
        return value
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
    return Fraction(quotient, 1 << shift) if shift > 0 \
        else Fraction(quotient << -shift)


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


def decimal_str(value: Fraction, config: PrecisionConfig) -> str:
    """``nstr(to_mpf(ctx, value), decimal_digits)`` for the context of
    ``config``, without mpmath, step for step as libmpf's to_str: ``value``
    rounded to the working precision, floored to about decimal_digits + 6
    digits through the same fixed-point conversion, rounded half up on the
    digit after the last kept, printed in fixed notation when the leading
    digit's decimal exponent lies strictly between min(-(digits // 3), -5)
    and digits, and stripped of trailing zeros.  Beyond 2^+-3500, where
    mpmath first divides by a rounded power of ten, the floor is exact.
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
    digits = str((man * 10 ** max(fixdps, 0) << max(exp, 0))
                 // (10 ** max(-fixdps, 0) << max(-exp, 0)))
    exponent = len(digits) - fixdps - 1
    head = digits[:dps]
    if len(digits) > dps and digits[dps] in "56789":
        head = str(int(head) + 1)
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
