"""Finite Fourier transforms of Bernoulli, Legendre, and zeta grids."""

import random
from fractions import Fraction

import mpmath
import pytest

from oracles import dft_exact, fixed_mpc, max_deviation
from pcores.arith import bernoulli_poly, is_prime, legendre_symbol
from pcores.fourier import (_max_deviation, _row, check_bernoulli_row,
                            check_legendre_row, check_zeta_row, dft,
                            grid_function, inner_product,
                            verify_transform_table)
from pcores.precision import (DEFAULT_PRECISION, Fixed, PrecisionConfig,
                              roots_fixed)
from pcores.special import (_folded_periodic_zeta, _hurwitz_zeta,
                            cot_derivative, hurwitz_zeta, periodic_zeta)


def _pairs(samples):
    # the (re, im) integers of a transform's Fixed samples
    return [(re, im) for re, im, _ in samples]


class TestDft:
    def test_constant_grid(self):
        ctx = DEFAULT_PRECISION.context()
        g = grid_function(4, [1, 1, 1, 1])
        hat = [fixed_mpc(ctx, v) for v in dft(g).samples]
        assert abs(hat[0] - 4) < 1e-55
        assert all(abs(v) < 1e-55 for v in hat[1:])

    def test_delta_grid(self):
        # a delta at j=0 transforms to the all-ones grid
        ctx = DEFAULT_PRECISION.context()
        g = grid_function(5, [1, 0, 0, 0, 0])
        hat = dft(g)
        assert all(abs(fixed_mpc(ctx, v) - 1) < 1e-55 for v in hat.samples)

    def test_bernoulli_grid_by_hand(self):
        # k=2, r=2: samples B_2(0)=1/6, B_2(1/2)=-1/12; at mu=1 the
        # transform is 1/6 + 1/12 = 1/4
        ctx = DEFAULT_PRECISION.context()
        g = grid_function(2, [Fraction(1, 6), Fraction(-1, 12)])
        hat = dft(g)
        assert abs(fixed_mpc(ctx, hat.samples[1]) - Fraction(1, 4)) < 1e-55

    def test_linearity(self):
        ctx = DEFAULT_PRECISION.context()
        f = grid_function(6, [1, 2, 3, 4, 5, 6])
        g = grid_function(6, [1, -1, 1, -1, 1, -1])
        combined = grid_function(6, [a + b for a, b in
                                     zip(f.samples, g.samples)])
        lhs = [fixed_mpc(ctx, v) for v in dft(combined).samples]
        rhs = [fixed_mpc(ctx, a) + fixed_mpc(ctx, b)
               for a, b in zip(dft(f).samples, dft(g).samples)]
        assert all(abs(x - y) < 1e-55 for x, y in zip(lhs, rhs))

    @pytest.mark.parametrize("digits", [20, 60, 100])
    def test_matches_exact_oracle(self, digits):
        # each part is the exact sum of sample * root over the table's
        # roots, rounded once, on real and complex grids and on a transform
        # of a transform, at prime and composite k, on the Legendre rows,
        # and on real grids whose upper half is filled in by conjugation
        config = PrecisionConfig(digits)
        ctx = config.context()
        bits = config.working_bits
        rng = random.Random(digits)
        for k in (1, 2, 5, 12, 13, 32):
            roots = roots_fixed(bits, k)
            real = [ctx.mpf(rng.uniform(-1, 1)) for _ in range(k)]
            exact = [bernoulli_poly(3, Fraction(j, k)) for j in range(k)]
            plain = [rng.randint(-5, 5) for _ in range(k)]
            complex_ = [ctx.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        for _ in range(k)]
            doubles = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(k)]
            units = [rng.choice((-1, 1)) for _ in range(k)]
            mixed = [rng.choice((-1, 0, 1)) if j % 2 else real[j]
                     for j in range(k)]
            for samples in (real, exact, plain, complex_, doubles, units,
                            mixed):
                hat = dft(grid_function(k, samples), config).samples
                assert all(v[2] == bits for v in hat)
                assert _pairs(hat) == dft_exact(samples, roots, bits)
                double = dft(grid_function(k, hat), config).samples
                assert _pairs(double) == dft_exact(hat, roots, bits)
        for p in filter(is_prime, range(3, 98)):
            symbols = [legendre_symbol(j, p) for j in range(p)]
            hat = dft(grid_function(p, symbols), config).samples
            assert _pairs(hat) == dft_exact(symbols, roots_fixed(bits, p), bits)

    def test_sums_are_exact_then_rounded_once(self):
        # nothing is rounded before the sum: at mu = 0, where every root is
        # exactly 1, the 1 and the -1 cancel exactly and leave one unit of
        # the scale; and on a random grid, rounding each product to the
        # scale before summing would change the transform
        config = PrecisionConfig(20)
        bits = config.working_bits
        samples = [1, Fraction(1, 2 ** bits), -1]
        hat = dft(grid_function(3, samples), config).samples
        assert _pairs(hat) == dft_exact(samples, roots_fixed(bits, 3), bits)
        assert hat[0] == Fixed((1, 0, bits))
        rng = random.Random(3)
        k = 32
        cos, sin = roots_fixed(bits, k)
        values = [rng.randrange(-2 ** bits, 2 ** bits) for _ in range(k)]
        hat = dft(grid_function(k, [Fraction(v, 2 ** bits) for v in values]),
                  config).samples
        per_product = [sum(round(Fraction(v * cos[j * mu % k], 2 ** bits))
                           for j, v in enumerate(values)) for mu in range(k)]
        assert [re for re, _, _ in hat] != per_product

    def test_roots_are_conjugate_symmetric(self):
        # root k - m is exactly the conjugate of root m, and the roots at
        # m = 0 and m = k/2 are exactly real
        for digits in (20, 60):
            bits = PrecisionConfig(digits).working_bits
            for k in range(1, 41):
                real, imag = roots_fixed(bits, k)
                assert len(real) == len(imag) == k
                for m in range(k):
                    assert real[-m % k] == real[m]
                    assert imag[-m % k] == -imag[m]

    @pytest.mark.parametrize("digits", [20, 60, 100])
    def test_roots_within_half_a_unit(self, digits):
        # each root, a power of one fixed-point root, is within half a unit
        # plus 2^-8 of e^(-2*pi*i*m/k) at three times the precision
        bits = PrecisionConfig(digits).working_bits
        ref = mpmath.mp.clone()
        ref.prec = 3 * bits
        bound = ref.mpf(1) / 2 + ref.mpf(2) ** -8
        for k in range(1, 98):
            real, imag = roots_fixed(bits, k)
            for m in range(k):
                root = ref.expjpi(ref.mpf(-2 * m) / k)
                assert abs(real[m] - ref.ldexp(root.real, bits)) <= bound
                assert abs(imag[m] - ref.ldexp(root.imag, bits)) <= bound

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_rejects_non_finite_samples(self, bad):
        ctx = DEFAULT_PRECISION.context()
        for samples in ([1, ctx.mpf(bad), 0], [ctx.mpc(0, bad), 1],
                        [float(bad), 1], [complex(1, float(bad)), 0]):
            with pytest.raises(ValueError, match="finite"):
                dft(grid_function(len(samples), samples))

    @pytest.mark.parametrize("k, samples, message", [
        (0, [], "k must be >= 1"), (3, [1, 2], "exactly k samples")])
    def test_grid_function_checks_its_shape(self, k, samples, message):
        with pytest.raises(ValueError, match=message):
            grid_function(k, samples)

    def test_roots_are_keyed_on_precision(self):
        # a 100-digit row after a 40-digit one must not reuse 40-digit roots
        assert check_legendre_row(13, PrecisionConfig(40)).passed
        assert check_legendre_row(13, PrecisionConfig(100)).max_deviation < 1e-85


class TestMaxAbs:
    """_max_deviation over integer pairs is the largest modulus times
    2^-bits, rounded to a float once."""

    @staticmethod
    def both(values, bits):
        # _max_deviation of mpc values scaled to integers, and mpmath's
        # max(float(abs(v))) of the same values at far more precision
        ref = mpmath.mp.clone()
        ref.prec = 4 * bits + 200
        pairs = [(int(ref.ldexp(v.real, bits)), int(ref.ldexp(v.imag, bits)))
                 for v in map(ref.mpc, values)]
        return (_max_deviation(pairs, bits),
                max(float(ref.ldexp(abs(ref.mpc(*pair)), -bits))
                    for pair in pairs))

    def test_all_zero_deviations(self):
        assert _max_deviation([(0, 0)] * 6, 236) == 0.0

    def test_tie_at_the_maximum(self):
        ctx = DEFAULT_PRECISION.context()
        pairs = [(3, 4), (-4, 3), (0, -5), (1, 1), (5, 0)]
        assert _max_deviation(pairs, 0) == 5.0
        assert _max_deviation(pairs, 236) == 5 * 2.0 ** -236
        # moduli that differ only far below a double's last place
        rng = random.Random(5)
        values = [ctx.expjpi(ctx.mpf(rng.uniform(-1, 1)))
                  * (1 + ctx.mpf(rng.random()) * 2 ** -60) for _ in range(200)]
        got, expected = self.both(values, 236)
        assert got == expected
        # a modulus just past half a double's last place rounds up
        values[0] = ctx.mpc(1 + ctx.mpf(2) ** -53 + ctx.mpf(2) ** -80)
        assert self.both(values, 236) == (1 + 2 ** -52,) * 2
        # and one exactly on it rounds to even
        assert self.both([ctx.mpc(1 + ctx.mpf(2) ** -53)], 236) == (1.0,) * 2

    def test_failing_row(self):
        # a closed form off by 1/2 at one index fails the row, and the
        # report carries the deviation mpmath measures
        config = DEFAULT_PRECISION
        ctx = config.context()
        symbols = [legendre_symbol(j, 7) for j in range(7)]
        closed = [ctx.mpc(0, -1) * ctx.sqrt(7) * c for c in symbols]
        closed[3] += ctx.mpf(1) / 2
        report = _row("legendre", 7, {}, symbols, closed, config)
        transform = dft(grid_function(7, symbols), config).samples
        assert not report.passed
        assert report.max_deviation == max_deviation(
            [fixed_mpc(ctx, t) for t in transform], closed)
        assert abs(report.max_deviation - 0.5) < 1e-40


class TestInnerProduct:
    def test_orthogonality_of_characters(self):
        ctx = DEFAULT_PRECISION.context()
        k = 5
        e1 = grid_function(k, [ctx.expjpi(2 * ctx.mpf(j) / k)
                               for j in range(k)])
        e2 = grid_function(k, [ctx.expjpi(4 * ctx.mpf(j) / k)
                               for j in range(k)])
        assert abs(fixed_mpc(ctx, inner_product(e1, e2))) < 1e-55
        assert abs(fixed_mpc(ctx, inner_product(e1, e1)) - k) < 1e-55

    def test_exact_on_the_scale(self):
        # no product is rounded: one unit of the scale times 3 survives
        # beside 0.5 - 0.25i times the conjugate of 0.25 + i, and the Fixed
        # carries twice the bits
        bits = DEFAULT_PRECISION.working_bits
        f = grid_function(2, [Fraction(1, 2 ** bits), complex(0.5, -0.25)])
        g = grid_function(2, [3, complex(0.25, 1)])
        assert inner_product(f, g) == Fixed((
            (3 << bits) - (1 << 2 * bits - 3), -9 << 2 * bits - 4, 2 * bits))

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
        bits = DEFAULT_PRECISION.working_bits
        unshifted = 2 * (1j / 4) * Fraction(
            cot_derivative(0, Fraction(1, 2), bits), 2 ** bits)
        ctx = DEFAULT_PRECISION.context()
        assert abs(abs(fixed_mpc(ctx, dft(grid).samples[1]) - unshifted)
                   - 0.5) < 1e-45

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

    def test_primality_checked_once_per_row(self):
        # the row's 97 Legendre symbols run Miller-Rabin on 97 once
        is_prime.cache_clear()
        check_legendre_row(97)
        assert is_prime.cache_info().misses == 1

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
        expected = 4 * fixed_mpc(ctx, periodic_zeta(2, Fraction(1, 2)))
        assert abs(expected + ctx.pi ** 2 / 3) < 1e-55

    def test_rows_pass(self):
        for k in (2, 3, 5, 13):
            for s in (2, 3, 6):
                report = check_zeta_row(k, s)
                assert report.passed and report.max_deviation < 1e-40

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_memo_conjugates_folded_values_exactly(self, s,
                                                   clear_zeta_caches):
        # l(s, x) and l(s, 1 - x) share one value, computed at the folded
        # argument and conjugated on the way out; l(s, 0) is zeta(s, 1)'s
        # integer sum, rounded to the working precision
        for x in (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4),
                  Fraction(5, 6), Fraction(12, 13)):
            fresh = _folded_periodic_zeta.__wrapped__(s, 1 - x,
                                                      DEFAULT_PRECISION)
            re, im, bits = fresh
            assert periodic_zeta(s, x) == Fixed((re, -im, bits))
            assert periodic_zeta(s, 1 - x) == fresh
        total, scale = _hurwitz_zeta(s, Fraction(1), DEFAULT_PRECISION)
        assert periodic_zeta(s, 0) == Fixed((
            round(Fraction(total, 2 ** (scale - bits))), 0, bits))
        assert _folded_periodic_zeta.cache_info().misses == 5 + 1


class TestTableMemo:
    SIZES = dict(kmax=6, rmax=1, smax=3, pmax=3, grids=2, grid_kmax=2)

    @staticmethod
    def computed():
        """How many zeta(s, a) and folded l(s, x) have been computed since
        the caches were last cleared."""
        return (hurwitz_zeta.cache_info().misses,
                _folded_periodic_zeta.cache_info().misses)

    def test_each_value_computed_once_per_call(self, clear_zeta_caches):
        for _ in range(2):  # the second table computes nothing
            verify_transform_table(**self.SIZES)
            # for each s in (2, 3): 12 reduced fractions in (0, 1] with
            # denominator <= 6, and 7 folded arguments 0, 1/2, 1/3, 1/4,
            # 1/5, 2/5, 1/6, of which l(s, 0) reads the cached zeta(s, 1);
            # the log series of l(2, .) and l(3, .) add zeta(2, 1) and
            # zeta(3, 1) at their guard precision
            assert self.computed() == (2 * 12 + 2, 2 * 7)
        # a row on its own reuses them too: zeta(2, a) at a = 1/6, ..., 1
        # and l(2, x) at x = 0, 1/6, 1/3, 1/2
        check_zeta_row(6, 2)
        assert self.computed() == (2 * 12 + 2, 2 * 7)

    def test_rows_match_fresh_rows(self, clear_zeta_caches):
        table = verify_transform_table(**self.SIZES)
        rows = [row for row in table.rows if row.name == "zeta"]
        assert len(rows) == 5 * 2
        for row in rows:
            clear_zeta_caches()
            fresh = check_zeta_row(row.k, row.parameters["s"])
            assert row.max_deviation == fresh.max_deviation


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
        {"grid_kmax": 0}, {"grid_kmax": 1}])
    def test_family_selecting_nothing_rejected(self, bound):
        sizes = dict(kmax=3, rmax=2, smax=2, pmax=5, grids=6, grid_kmax=8)
        with pytest.raises(ValueError, match=next(iter(bound))):
            verify_transform_table(**{**sizes, **bound})
