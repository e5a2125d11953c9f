"""Precision configuration, binary rounding, pi, and the decimal renderer."""

import random
from fractions import Fraction

import mpmath
import pytest

from pcores.precision import (PrecisionConfig, decimal_str, pi_fixed,
                              round_binary, to_mpf)


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
    # round_binary is to_mpf, and decimal_str is nstr of it, value for value
    config = PrecisionConfig(digits)
    ctx = config.context()
    rng = random.Random(digits)
    checked = 0
    for value in _values(rng, config, 10 ** 4):
        x = to_mpf(ctx, value)
        assert round_binary(value, config.working_bits) == _exact(x), value
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
