"""Precision configuration, binary rounding, fixed-point pi, logarithms
and square roots, and the decimal renderer."""

import random
from fractions import Fraction

import mpmath
import pytest

from pcores.precision import (PrecisionConfig, Real, decimal_str, exp_fixed,
                              log_fixed, pi_fixed, round_binary, shift_round,
                              sqrt_fixed)


class TestPrecisionConfig:
    def test_one_field(self):
        assert PrecisionConfig._fields == ("decimal_digits",)

    def test_for_digits_is_the_constructor(self):
        for digits in range(20, 121):
            assert PrecisionConfig(digits) == PrecisionConfig.for_digits(digits)

    @pytest.mark.parametrize("digits, working", [
        (20, 30), (39, 49), (40, 50), (60, 70),
    ])
    def test_derived_settings(self, digits, working):
        assert PrecisionConfig(digits).working_dps == working

    def test_working_bits_are_the_context_precision(self):
        for digits in range(20, 201):
            config = PrecisionConfig(digits)
            assert config.working_bits == config.context().prec

    def test_too_few_digits_rejected(self):
        with pytest.raises(ValueError, match="at least 20"):
            PrecisionConfig(19)


def test_pi_fixed_within_two_units():
    ctx = mpmath.mp.clone()
    ctx.prec = 5000
    for bits in (1, 2, 10, 53, 100, 237, 500, 1000, 4000):
        assert abs(pi_fixed(bits) - ctx.ldexp(ctx.pi, bits)) < 2, bits


# the scales the fixed-point functions are checked at: 20, 60 and 100
# working digits, each with GUARD_BITS, and a scale of a few thousand bits
_SCALES = (103, 135, 236, 268, 369, 401, 3400)


def test_log_fixed_within_one_unit():
    # against mpmath at three times the bits, from far below 1 to far
    # above it and across the reduction's 3/2 boundary
    ctx = mpmath.mp.clone()
    rng = random.Random(2)
    for bits in _SCALES:
        ctx.prec = 3 * bits
        values = [1, 1 << bits, 3 << bits - 1, (3 << bits - 1) - 1,
                  (1 << bits) - 1, 1 << 2 * bits]
        values += [rng.randrange(1, 1 << rng.randrange(1, 2 * bits))
                   for _ in range(30)]
        for x in values:
            exact = ctx.ldexp(ctx.log(ctx.ldexp(x, -bits)), bits)
            assert abs(log_fixed(x, bits) - exact) <= 1, (bits, x)


def test_exp_fixed_within_one_unit():
    # against mpmath 40 digits finer: one unit at or below 1, and one unit
    # in the last of ``bits`` significant bits above it; e^-154 is 0 below
    # 2^-102
    ctx = mpmath.mp.clone()
    for bits in (100, 266, 1000):
        ctx.prec = bits + 133
        for value in (-154, -0.5, -3e-5, 0.3, 12.7, 400):
            x = int(ctx.nint(ctx.ldexp(value, bits)))
            exact = ctx.ldexp(ctx.exp(ctx.ldexp(x, -bits)), bits)
            unit = max(1, ctx.ldexp(exact, -bits))
            assert abs(exp_fixed(x, bits) - exact) <= unit, (bits, value)


def test_sqrt_fixed_rounds_to_nearest():
    # (2r - 1)^2 < 4 * n * 4^bits < (2r + 1)^2: r is sqrt(n) * 2^bits
    # rounded to the nearest integer (a square root is never a half)
    for bits in (0, 1, 53, 236, 401):
        for n in list(range(100)) + [2 ** 61 - 1, 10 ** 30 + 7]:
            r = sqrt_fixed(n, bits)
            assert (2 * r - 1) ** 2 < 4 * n << 2 * bits or n == r == 0
            assert 4 * n << 2 * bits < (2 * r + 1) ** 2


def test_shift_round():
    assert [shift_round(n, 1) for n in (-3, -2, -1, 0, 1, 2, 3)] \
        == [-1, -1, 0, 0, 1, 1, 2]
    assert shift_round(5, -3) == 40 and shift_round(-7, 0) == -7
    assert shift_round((3 << 100) - 1, 100) == 3


def _exact(x) -> Fraction:
    # the mpf x as the Fraction it is
    man, exp = x.man_exp
    return Fraction(-man if x < 0 else man) * Fraction(2) ** exp if man \
        else Fraction(0)


def _values(rng: random.Random, config: PrecisionConfig, count: int):
    """count values below 2^3500 in magnitude and zero: random fractions,
    integers up to 10^300, ties of the working precision, and values one
    ulp either side of, or on, a decimal half-way point of the printed
    digits; each kind with either sign."""
    bits, digits = config.working_bits, config.decimal_digits
    yield Fraction(0)
    for i in range(count - 1):
        kind = i % 4
        if kind == 0:
            value = Fraction(rng.randrange(1, 10 ** rng.randint(1, 300)),
                             rng.randrange(1, 10 ** rng.randint(1, 300)))
            value *= Fraction(2) ** rng.randint(-2500, 2500)
        elif kind == 1:
            value = Fraction(rng.randrange(1, 10 ** rng.randint(1, 300)))
        elif kind == 2:
            mantissa = rng.randrange(1 << bits, 1 << bits + 1) | 1
            value = mantissa * Fraction(2) ** rng.randint(-1000, 1000)
        else:
            half_way = Fraction(rng.randrange(10 ** digits, 10 ** (digits + 1))
                                // 10 * 10 + 5) \
                * Fraction(10) ** rng.randint(-300, 300)
            value = round_binary(half_way, bits)
            ulp = Fraction(2) ** (value.numerator.bit_length()
                                  - value.denominator.bit_length() - bits)
            value += rng.choice((-1, 0, 1)) * ulp
        yield value if rng.random() < 0.5 else -value


@pytest.mark.parametrize("digits", [20, 60, 100])
def test_decimal_str_is_nstr(digits):
    # round_binary is mpmath's correctly rounded division, a Real, and
    # decimal_str is nstr of it, value for value
    config = PrecisionConfig(digits)
    ctx = config.context()
    rng = random.Random(digits)
    checked = 0
    for value in _values(rng, config, 10 ** 4):
        x = ctx.fdiv(value.numerator, value.denominator)
        rounded = round_binary(value, config.working_bits)
        assert type(rounded) is Real and rounded == _exact(x), value
        assert decimal_str(value, config) == ctx.nstr(x, digits), value
        checked += 1
    assert checked == 10 ** 4


def _exactly_rounded(value: Fraction, config: PrecisionConfig) -> str:
    # the binary-rounded value's leading digits rounded half up, exactly,
    # in the exponent notation of every value beyond 10^+-1000
    digits = config.decimal_digits
    rounded = abs(round_binary(value, config.working_bits))
    exponent = len(str(rounded.numerator)) - len(str(rounded.denominator))
    while Fraction(10) ** exponent > rounded:
        exponent -= 1
    while Fraction(10) ** (exponent + 1) <= rounded:
        exponent += 1
    head = int(rounded * Fraction(10) ** (digits - 1 - exponent)
               + Fraction(1, 2))
    if head == 10 ** digits:
        head, exponent = head // 10, exponent + 1
    text = str(head)
    sign = "-" if value < 0 else ""
    return f"{sign}{text[0]}.{text[1:].rstrip('0') or '0'}e{exponent:+d}"


@pytest.mark.parametrize("digits", [20, 60, 100])
def test_decimal_str_beyond_two_to_3500_is_exactly_rounded(digits):
    config = PrecisionConfig(digits)
    rng = random.Random(digits)
    for i in range(300):
        scale = Fraction(2) ** (rng.choice((1, -1)) * rng.randint(3501, 9000))
        value = scale * Fraction(rng.randrange(1, 10 ** 40),
                                 rng.randrange(1, 10 ** 40))
        if i % 3 == 0:  # a decimal half-way point of the printed digits
            value = Fraction(rng.randrange(10 ** digits, 10 ** (digits + 1))
                             // 10 * 10 + 5) * Fraction(10) ** rng.randint(
                                 1100 - digits, 2500)
        value = value if i % 2 else -value
        assert decimal_str(value, config) == _exactly_rounded(value, config)
