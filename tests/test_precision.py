"""Certified integer snapping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcores.precision import PrecisionConfig, PrecisionError, snap_integer

CONFIG = PrecisionConfig.for_digits(40)   # 50 working digits, tolerance 1e-30


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
