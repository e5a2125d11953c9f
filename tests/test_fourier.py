"""Finite Fourier transforms of Bernoulli, Legendre, and zeta grids."""

from fractions import Fraction

import pytest

from pcores.arith import bernoulli_poly
from pcores.fourier import (check_bernoulli_row, check_legendre_row,
                            check_zeta_row, dft, grid_function,
                            inner_product, verify_transform_table)
from pcores.precision import DEFAULT_PRECISION
from pcores.special import cot_derivative, periodic_zeta


class TestDft:
    def test_constant_grid(self):
        ctx = DEFAULT_PRECISION.context()
        g = grid_function(4, [1, 1, 1, 1])
        hat = dft(g)
        assert abs(hat.samples[0] - 4) < 1e-55
        assert all(abs(v) < 1e-55 for v in hat.samples[1:])

    def test_delta_grid(self):
        # a delta at j=0 transforms to the all-ones grid
        g = grid_function(5, [1, 0, 0, 0, 0])
        hat = dft(g)
        assert all(abs(v - 1) < 1e-55 for v in hat.samples)

    def test_bernoulli_grid_by_hand(self):
        # k=2, r=2: samples B_2(0)=1/6, B_2(1/2)=-1/12; at mu=1 the
        # transform is 1/6 + 1/12 = 1/4
        ctx = DEFAULT_PRECISION.context()
        g = grid_function(2, [Fraction(1, 6), Fraction(-1, 12)])
        hat = dft(g)
        assert abs(hat.samples[1] - Fraction(1, 4)) < 1e-55

    def test_linearity(self):
        ctx = DEFAULT_PRECISION.context()
        f = grid_function(6, [1, 2, 3, 4, 5, 6])
        g = grid_function(6, [1, -1, 1, -1, 1, -1])
        combined = grid_function(6, [a + b for a, b in
                                     zip(f.samples, g.samples)])
        lhs = dft(combined).samples
        rhs = [a + b for a, b in zip(dft(f).samples, dft(g).samples)]
        assert all(abs(x - y) < 1e-55 for x, y in zip(lhs, rhs))


class TestInnerProduct:
    def test_orthogonality_of_characters(self):
        ctx = DEFAULT_PRECISION.context()
        k = 5
        e1 = grid_function(k, [ctx.expjpi(2 * ctx.mpf(j) / k)
                               for j in range(k)])
        e2 = grid_function(k, [ctx.expjpi(4 * ctx.mpf(j) / k)
                               for j in range(k)])
        assert abs(inner_product(e1, e2)) < 1e-55
        assert abs(inner_product(e1, e1) - k) < 1e-55

    def test_requires_matching_size(self):
        f = grid_function(3, [1, 2, 3])
        g = grid_function(4, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            inner_product(f, g)


class TestBernoulliRows:
    def test_k2_r1_needs_the_constant_shift(self):
        report = check_bernoulli_row(2, 1)
        assert report.passed
        assert report.max_deviation < 1e-45
        # without the -1/2 shift the nonzero frequency misses by exactly it:
        # the B_1 grid transforms to -1/2 at mu = 1, the unshifted closed
        # form k*(i/2k)*cot(pi/2) to 0
        grid = grid_function(2, [bernoulli_poly(1, Fraction(j, 2))
                                 for j in range(2)])
        unshifted = 2 * (1j / 4) * cot_derivative(0, Fraction(1, 2))
        assert abs(abs(dft(grid).samples[1] - unshifted) - 0.5) < 1e-45

    def test_k5_r3_tight(self):
        report = check_bernoulli_row(5, 3)
        assert report.passed
        assert report.max_deviation < 1e-40

    def test_various_rows_pass(self):
        for k in (2, 3, 7, 12):
            for r in (1, 2, 4, 6):
                assert check_bernoulli_row(k, r).passed

    def test_rejects_k_one(self):
        with pytest.raises(ValueError):
            check_bernoulli_row(1, 2)


class TestLegendreRows:
    def test_p5_real_gauss_sum(self):
        # p = 1 mod 4: the transform is sqrt(p) times the symbol
        report = check_legendre_row(5)
        assert report.passed and report.max_deviation < 1e-45

    def test_p7_imaginary_gauss_sum(self):
        report = check_legendre_row(7)
        assert report.passed and report.max_deviation < 1e-45

    def test_all_odd_primes_to_97(self):
        for p in (3, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                  61, 67, 71, 73, 79, 83, 89, 97):
            assert check_legendre_row(p).passed


class TestZetaRows:
    def test_k2_s2_by_hand(self):
        # grid (zeta(2,1), zeta(2,1/2)); at mu=1 the transform equals
        # 2^2 * l(2, 1/2) = -pi^2/3 after the sign from e^(-pi i)
        ctx = DEFAULT_PRECISION.context()
        report = check_zeta_row(2, 2)
        assert report.passed
        expected = 4 * periodic_zeta(2, Fraction(1, 2))
        assert abs(expected + ctx.pi ** 2 / 3) < 1e-55

    def test_rows_pass(self):
        for k in (2, 3, 5, 13):
            for s in (2, 3, 6):
                report = check_zeta_row(k, s)
                assert report.passed and report.max_deviation < 1e-40


class TestTable:
    def test_small_table(self):
        table = verify_transform_table(kmax=5, rmax=3, smax=3, pmax=13,
                                       grids=12, grid_kmax=16)
        assert table.passed
        assert not table.failed_rows
        assert table.parseval_max <= table.grid_tolerance
        assert table.involution_max <= table.grid_tolerance

    def test_deterministic_for_fixed_seed(self):
        a = verify_transform_table(kmax=3, rmax=2, smax=2, pmax=5,
                                   grids=6, grid_kmax=8)
        b = verify_transform_table(kmax=3, rmax=2, smax=2, pmax=5,
                                   grids=6, grid_kmax=8)
        assert a.parseval_max == b.parseval_max
        assert a.involution_max == b.involution_max

    @pytest.mark.parametrize("bound", [
        {"kmax": 1}, {"rmax": 0}, {"smax": 1}, {"pmax": 2}, {"grids": 1},
        {"grid_kmax": 0}])
    def test_family_selecting_nothing_rejected(self, bound):
        sizes = dict(kmax=3, rmax=2, smax=2, pmax=5, grids=6, grid_kmax=8)
        with pytest.raises(ValueError, match=next(iter(bound))):
            verify_transform_table(**{**sizes, **bound})
