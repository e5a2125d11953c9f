"""Precision configuration and certified integer snapping."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcores.precision import PrecisionConfig, PrecisionError, snap_integer

CONFIG = PrecisionConfig.for_digits(40)   # 50 working digits, tolerance 1e-30


class TestPrecisionConfig:
    def test_one_field(self):
        assert [f.name for f in dataclasses.fields(PrecisionConfig)] == \
            ["decimal_digits"]

    def test_for_digits_is_the_constructor(self):
        for digits in range(20, 121):
            assert PrecisionConfig(digits) == PrecisionConfig.for_digits(digits)

    @pytest.mark.parametrize("digits, tolerance, working", [
        (20, 1e-10, 30), (39, 1e-29, 49), (40, 1e-30, 50), (60, 1e-30, 70),
    ])
    def test_derived_settings(self, digits, tolerance, working):
        config = PrecisionConfig(digits)
        assert config.snap_tolerance == tolerance
        assert config.working_dps == working

    def test_too_few_digits_rejected(self):
        with pytest.raises(ValueError, match="at least 20"):
            PrecisionConfig(19)


class TestSnapMagnitude:
    @given(st.integers(1, 10 ** 19), st.integers(-10 ** 6, 10 ** 6))
    def test_certified_magnitudes_snap_exactly(self, value, offset):
        # |value| * 10^-50 stays below 1e-30, so the snap is certified
        ctx = CONFIG.context()
        snapped = snap_integer(ctx.mpf(value) + ctx.mpf(offset) / 10 ** 40,
                               CONFIG)
        assert snapped.nearest == value

    @given(st.integers(21, 600), st.integers(1, 9), st.booleans())
    def test_huge_magnitudes_raise(self, digits, lead, negative):
        # |value| * 10^-50 exceeds 1e-30, so no residual is certified
        value = (-1) ** negative * lead * 10 ** digits
        with pytest.raises(PrecisionError, match="too large"):
            snap_integer(CONFIG.context().mpf(value), CONFIG)
