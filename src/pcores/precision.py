"""Working-precision configuration and the errors of checked computations.

Every high-precision value in this package is produced inside an mpmath
context cloned for a specific :class:`PrecisionConfig`, so callers with
different precision needs never share mutable global state.  Integers are
never rounded from such values: each one is computed exactly.  mpmath is
imported where the first context is built, so a command that prints no
real number never loads it.
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
