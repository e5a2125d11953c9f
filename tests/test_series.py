"""Power-series engine, exact counts, and the infinite-product evaluator."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (PowerSeries, core_counts_by_lattice, euler_series,
                     partition_product, partition_series, partitions,
                     pcore_count_bruteforce)
from pcores.precision import DEFAULT_PRECISION
from pcores.series import (eta_quotient_value, pcore_count, pcore_numerator,
                           pcore_series)

P100 = 190569292


class TestPartitionSeries:
    def test_examples(self):
        series = partition_series(100)
        assert series[0] == 1
        assert series[5] == 7
        assert series[50] == 204226
        assert series[100] == P100

    def test_against_plain_dp_product(self):
        # build prod 1/(1-x^j) by direct quadratic DP, no pentagonal trick
        nmax = 120
        coeffs = [0] * (nmax + 1)
        coeffs[0] = 1
        for j in range(1, nmax + 1):
            for i in range(j, nmax + 1):
                coeffs[i] += coeffs[i - j]
        assert list(partition_series(nmax).coefficients) == coeffs

    def test_euler_inverse(self):
        nmax = 150
        product = euler_series(nmax) * partition_series(nmax)
        assert product.coefficients[0] == 1
        assert all(c == 0 for c in product.coefficients[1:])


class TestPcoreSeries:
    def test_agrees_with_partitions_below_p(self):
        for p in (5, 7, 11, 13):
            assert pcore_series(p, p - 1) == partition_series(p - 1).coefficients

    def test_small_values(self):
        assert pcore_count(5, 4) == 5
        assert pcore_count(5, 5) == 2
        assert pcore_count(7, 6) == 11
        assert pcore_count(7, 7) == 8

    def test_two_core_counts_are_triangular_indicators(self):
        triangulars = {k * (k + 1) // 2 for k in range(12)}
        for n in range(51):
            assert pcore_count(2, n) == (1 if n in triangulars else 0)

    def test_numerator_identity(self):
        # the defining product says: core series * euler series equals the
        # numerator prod (1-x^(pj))^p
        for p in (5, 7):
            nmax = 200
            lhs = PowerSeries(pcore_series(p, nmax)) * euler_series(nmax)
            assert list(lhs.coefficients) == pcore_numerator(p, nmax)

    @given(p=st.integers(2, 13), nmax=st.integers(0, 120))
    def test_numerator_against_oracle_expansion(self, p, nmax):
        # core series * E(x) equals E(x^p)^p, expanded by the oracle's own
        # multiplication, which shares no code with pcore_numerator
        lhs = PowerSeries(pcore_series(p, nmax)) * euler_series(nmax)
        assert lhs == euler_series(nmax // p).dilate(p, nmax) ** p

    def test_counts_nonnegative(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert all(c >= 0 for c in pcore_series(p, 300))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pcore_series(1, 10)
        with pytest.raises(ValueError):
            pcore_count(5, -1)


class TestBruteforce:
    def test_matches_series_small(self):
        for p in (2, 3, 5):
            for n in range(13):
                assert pcore_count_bruteforce(p, n) == pcore_count(p, n)

    def test_partition_generator_counts(self):
        for n in range(11):
            assert sum(1 for _ in partitions(n)) == partition_series(n)[n]

    def test_guard(self):
        with pytest.raises(ValueError):
            pcore_count_bruteforce(5, 31)


class TestLatticeOracle:
    # t-cores as lattice points (Garvan-Kim-Stanton), at prime and
    # composite t, far past the brute force's n <= 30
    BOUNDS = {4: 200, 5: 200, 6: 150, 9: 60, 11: 40}

    def test_matches_series(self):
        for t, nmax in self.BOUNDS.items():
            assert (tuple(core_counts_by_lattice(t, nmax))
                    == pcore_series(t, nmax))

    def test_matches_bruteforce(self):
        for t in self.BOUNDS:
            assert core_counts_by_lattice(t, 30) == [
                pcore_count_bruteforce(t, n) for n in range(31)]


class TestPowerSeries:
    def test_multiplication_truncates(self):
        a = PowerSeries((1, 1, 1))
        b = PowerSeries((1, -1))
        assert (a * b).coefficients == (1, 0)

    def test_power(self):
        a = PowerSeries((1, 1, 0, 0))
        assert (a ** 3).coefficients == (1, 3, 3, 1)
        with pytest.raises(ValueError):
            a ** -1

    def test_exact_evaluation(self):
        series = PowerSeries((1, 2, 3))
        assert series.evaluate(Fraction(1, 2)) == 1 + 1 + Fraction(3, 4)

    @given(coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=8))
    def test_addition_commutes(self, coeffs):
        a = PowerSeries(tuple(coeffs))
        b = PowerSeries(tuple(reversed(coeffs)))
        assert (a + b).coefficients == (b + a).coefficients

    @given(a=st.lists(st.integers(-9, 9), min_size=1, max_size=8),
           b=st.lists(st.integers(-9, 9), min_size=1, max_size=8))
    def test_multiplication_commutes(self, a, b):
        a, b = PowerSeries(tuple(a)), PowerSeries(tuple(b))
        assert (a * b).coefficients == (b * a).coefficients

    def test_euler_series_examples(self):
        # (1-x)(1-x^2)(1-x^3)... = 1 - x - x^2 + x^5 + x^7 - x^12 - x^15 + ...
        assert euler_series(15).coefficients == (
            1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1)
        with pytest.raises(ValueError):
            euler_series(-1)


class TestEtaQuotientValue:
    def test_value_at_zero(self):
        for which in ("f", "H"):
            result = eta_quotient_value(5, 0, 50, which)
            assert result.value == 1
        assert partition_product(DEFAULT_PRECISION.context(), 0, 50) == 1

    def test_f_is_numerator_over_f_denominator(self):
        # f(x) = prod (1-x^(5n))^5 / prod (1-x^n): check against the two
        # factors computed separately
        ctx = DEFAULT_PRECISION.context()
        x = ctx.mpf(3) / 10
        f_val = eta_quotient_value(5, x, 300, "f").value
        big_f = partition_product(ctx, x, 300)
        big_f_x5 = partition_product(ctx, x ** 5, 300)
        assert abs(f_val - big_f / big_f_x5 ** 5) < 1e-50

    def test_capital_f_matches_partition_series(self):
        ctx = DEFAULT_PRECISION.context()
        x = ctx.mpf(1) / 2
        value = partition_product(ctx, x, 600)
        series_value = partition_series(220).evaluate(Fraction(1, 2))
        # partial series underestimates; the gap is below the product's
        # own truncation error at these depths
        assert abs(value - ctx.mpf(series_value.numerator)
                   / series_value.denominator) < 1e-40

    def test_h_matches_exact_series_coefficients(self):
        # H(y) = prod (1-y^n)^p / (1-y^(pn)): expand exactly via the
        # series engine and evaluate with Fractions
        p = 5
        nmax = 500
        series = (euler_series(nmax) ** p
                  * partition_series(nmax // p).dilate(p, nmax))
        exact = series.evaluate(Fraction(1, 10))
        ctx = DEFAULT_PRECISION.context()
        value = eta_quotient_value(p, ctx.mpf(1) / 10, 500, "H").value
        gap = abs(value - ctx.mpf(exact.numerator) / exact.denominator)
        assert gap < 1e-40

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            eta_quotient_value(5, 0.96, 100, "f")

    def test_truncation_bound_is_honest(self):
        ctx = DEFAULT_PRECISION.context()
        x = ctx.mpf(1) / 2
        for which in ("f", "H"):
            shallow = eta_quotient_value(5, x, 50, which)
            deep = eta_quotient_value(5, x, 500, which)
            observed = abs(shallow.value - deep.value) / abs(deep.value)
            assert observed <= shallow.truncation_bound

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            eta_quotient_value(5, 0.1, 100, "G")
        with pytest.raises(ValueError):  # the partition product is an oracle
            eta_quotient_value(5, 0.1, 100, "F")
