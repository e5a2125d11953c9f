"""Working-precision configuration and certified integer rounding.

Every high-precision value in this package is produced inside an mpmath
context cloned for a specific :class:`PrecisionConfig`, so callers with
different precision needs never share mutable global state.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

import mpmath


class PrecisionError(Exception):
    """A value could not be resolved at the configured precision."""


class VerificationError(Exception):
    """A cross-checked computation disagreed beyond its tolerance."""


# Digits carried internally beyond the target.
GUARD_DIGITS = 10


class _PrecisionFields(NamedTuple):
    decimal_digits: int


class PrecisionConfig(_PrecisionFields):
    """How many digits to carry and how eagerly to round to integers.

    decimal_digits is the target number of correct decimal digits; the
    working precision adds GUARD_DIGITS, and snapping accepts a distance
    to the nearest integer up to
    max(1e-30, 10^-(decimal_digits - GUARD_DIGITS)), which the working
    precision always resolves.
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
    def snap_tolerance(self) -> float:
        """Largest |x - nearest integer| accepted by snapping."""
        return max(1e-30, 10.0 ** -(self.decimal_digits - GUARD_DIGITS))

    def context(self):
        """The (shared, treat-as-immutable) mpmath context for this config."""
        return _context(self.working_dps)


DEFAULT_PRECISION = PrecisionConfig()


@functools.lru_cache(maxsize=None)
def _context(dps: int):
    ctx = mpmath.mp.clone()
    ctx.dps = dps
    return ctx


def to_mpf(ctx, value):
    """Convert exactly representable inputs to an mpf of ``ctx``.

    Fractions are converted by one correctly rounded division (mpf() does
    not accept them directly); ints, floats, and mpfs pass through mpf().
    """
    if isinstance(value, Fraction):
        return ctx.fdiv(value.numerator, value.denominator)
    return ctx.mpf(value)


class SnappedInteger(NamedTuple):
    """A high-precision value resolved to its nearest integer.

    ``residual`` is |value - nearest| (complex modulus when the value has
    an imaginary component), so it certifies both integrality and realness.
    """

    nearest: int
    residual: float


def snap_integer(value, config: PrecisionConfig = DEFAULT_PRECISION,
                 label: str = "value") -> SnappedInteger:
    """Round ``value``, an mpmath number, to the nearest integer with a
    certified residual.

    Raises PrecisionError when the residual exceeds config.snap_tolerance,
    or when |value| is so large that rounding at the working precision,
    about |value| * 10^-working_dps, could itself exceed it: the residual
    then certifies nothing.
    """
    ctx = config.context()
    raw = ctx.convert(value)
    nearest = int(ctx.nint(raw.real))
    residual = float(abs(raw - nearest))
    if residual > config.snap_tolerance:
        raise PrecisionError(
            f"{label} {ctx.nstr(raw, 25)} sits {residual:.3e} from the "
            f"nearest integer; snap tolerance is {config.snap_tolerance:g}"
        )
    if abs(raw) * ctx.mpf(10) ** -config.working_dps > config.snap_tolerance:
        raise PrecisionError(
            f"{label} {ctx.nstr(raw, 25)} is too large to snap within "
            f"{config.snap_tolerance:g} at {config.working_dps} working "
            "digits"
        )
    return SnappedInteger(nearest=nearest, residual=residual)
