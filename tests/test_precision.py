"""Precision configuration."""

import pytest

from pcores.precision import PrecisionConfig


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

    def test_too_few_digits_rejected(self):
        with pytest.raises(ValueError, match="at least 20"):
            PrecisionConfig(19)
