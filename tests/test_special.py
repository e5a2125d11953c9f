"""Cotangent derivatives, Hurwitz zeta, and the periodic zeta function."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pcores.special
from oracles import cot_derivative_horner, fixed_mpc, hurwitz_zeta_formula
from pcores.precision import (DEFAULT_PRECISION, GUARD_BITS, PrecisionConfig,
                              PrecisionError)
from pcores.special import (_horner, _log_series, cot_derivative,
                            cot_polynomial, hurwitz_zeta, hurwitz_zeta_neg,
                            periodic_zeta)

HIGH = PrecisionConfig(80)


def _cot(r, q, config=DEFAULT_PRECISION):
    # cot_derivative on the working precision's scale, in config's context
    bits = config.working_bits
    return config.context().ldexp(cot_derivative(r, q, bits), -bits)


def _zeta(s, a, config=DEFAULT_PRECISION):
    # hurwitz_zeta's Fixed, read exactly into config's context
    return fixed_mpc(config.context(), hurwitz_zeta(s, a, config)).real

# (s, a) for the Hurwitz zeta checks: s in 2, 3, 5, 8, 13, 30 at every a
# in (0, 1] with denominator <= 6, and the s = 29, a = j/59 that the
# leading constant for p = 59 sums
_ZETA_CASES = (
    [(s, Fraction(h, q)) for s in (2, 3, 5, 8, 13, 30)
     for q in range(1, 7) for h in range(1, q + 1) if math.gcd(h, q) == 1]
    + [(29, Fraction(j, 59)) for j in range(1, 60)])


@pytest.fixture
def patch_special(monkeypatch, clear_zeta_caches):
    """Set an attribute of pcores.special for one test, with the zeta caches
    cleared once the patch is in and again after the test, so that no value
    computed under the patch is served outside it."""
    def patch(name, value):
        monkeypatch.setattr(pcores.special, name, value)
        clear_zeta_caches()
    return patch


# l(s, x) for s = 2..8 at every x in (0, 1/2] with denominator <= 13, as
# mpmath's polylog at 150 digits; filled on first use
_POLYLOG = mpmath.mp.clone()
_POLYLOG.dps = 150
_POLYLOG_VALUES: dict = {}


def _polylog_reference(s, x):
    if (s, x) not in _POLYLOG_VALUES:
        z = _POLYLOG.expjpi(2 * _POLYLOG.mpf(x.numerator) / x.denominator)
        _POLYLOG_VALUES[s, x] = _POLYLOG.polylog(s, z)
    return _POLYLOG_VALUES[s, x]


class TestCotPolynomial:
    def test_first_polynomials(self):
        # d/dx cot = -(1+cot^2); the polynomial tracks |f| with sign
        # handled by the (-1)^r factor in cot_derivative
        assert cot_polynomial(1) == (1, 0, 1)
        assert cot_polynomial(2) == (0, 2, 0, 2)
        assert cot_polynomial(3) == (2, 0, 8, 0, 6)

    def test_degree_and_leading_coefficient(self):
        for r in range(1, 12):
            poly = cot_polynomial(r)
            assert len(poly) - 1 == r + 1
            assert poly[-1] == math.factorial(r)
            assert all(c >= 0 for c in poly)

    def test_evaluate_matches_horner_expansion(self):
        # cot_derivative evaluates f_r by Horner's rule in fixed point;
        # compare with the polynomial summed term by term at mpmath's cot
        ctx = DEFAULT_PRECISION.context()
        for r in (1, 2, 3, 6):
            for q in (Fraction(1, 7), Fraction(3, 7), Fraction(5, 7)):
                t = ctx.cot(ctx.pi * ctx.mpf(q.numerator) / q.denominator)
                direct = sum(c * t ** i for i, c in enumerate(cot_polynomial(r)))
                value = _cot(r, q)
                assert abs(value - (-1) ** r * direct) < 1e-55 * abs(direct)

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            cot_polynomial(0)


class TestCotDerivative:
    def test_plain_cotangent(self):
        value = _cot(0, Fraction(1, 4))
        assert abs(value - 1) < 1e-58

    def test_first_derivative_at_quarter(self):
        # cot'(x) = -1/sin^2(x); at pi/4 that is -2
        value = _cot(1, Fraction(1, 4))
        assert abs(value + 2) < 1e-58

    def test_against_numeric_differentiation(self):
        # mpmath's finite-difference differentiation of plain cot at 120
        # digits grounds the polynomial recursion for every order up to 10
        ctx = mpmath.mp.clone()
        ctx.dps = 120
        for q in (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)):
            x = ctx.pi * q.numerator / q.denominator
            for r in range(1, 11):
                reference = ctx.diff(ctx.cot, x, r)
                value = _cot(r, q, HIGH)
                assert abs(value - reference) / max(1, abs(reference)) < 1e-40

    def test_monotone_decreasing_on_first_half(self):
        # cot and every derivative alternate sign; cot itself decreases
        values = [_cot(0, Fraction(j, 20)) for j in range(1, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("digits", [20, 60, 100])
    def test_within_bound_of_mpf_horner(self, digits):
        # against f_r by Horner's rule in mpf at mpmath's cot, 200 bits
        # finer: within (r + 2) * max(1, |t|)^(r + 1) units plus |f_r'(t)|
        # times t's error, which is under one unit
        bits = PrecisionConfig(digits).working_bits
        ref = mpmath.mp.clone()
        ref.prec = bits + 200
        for q in {Fraction(m, den) for den in (2, 3, 7, 12, 59)
                  for m in range(1, den)}:
            t = abs(ref.cot(ref.pi * q.numerator / q.denominator))
            for r in range(9):
                f = cot_polynomial(r) if r else (0, 1)
                expected = ref.ldexp(cot_derivative_horner(ref, f, r, q), bits)
                slope = sum(i * c * t ** (i - 1) for i, c in enumerate(f) if i)
                bound = (r + 2) * max(1, t) ** (r + 1) + slope
                assert abs(cot_derivative(r, q, bits) - expected) <= bound, \
                    (r, q)

    def test_rejects_endpoints(self):
        bits = DEFAULT_PRECISION.working_bits
        with pytest.raises(ValueError):
            cot_derivative(1, Fraction(0), bits)
        with pytest.raises(ValueError):
            cot_derivative(1, Fraction(1), bits)


class TestHurwitzZeta:
    def test_basel(self):
        value = _zeta(2, 1)
        ctx = DEFAULT_PRECISION.context()
        assert abs(value - ctx.pi ** 2 / 6) < 1e-58

    def test_half_argument(self):
        # zeta(2, 1/2) = pi^2/2
        value = _zeta(2, Fraction(1, 2))
        ctx = DEFAULT_PRECISION.context()
        assert abs(value - ctx.pi ** 2 / 2) < 1e-58

    def test_against_mpmath(self):
        ctx = mpmath.mp.clone()
        ctx.dps = 90
        for s in (2, 3, 5, 8):
            for a in (Fraction(1, 7), Fraction(3, 7), Fraction(1, 2), 1):
                ours = _zeta(s, a, HIGH)
                a_ref = ctx.mpf(Fraction(a).numerator) / Fraction(a).denominator
                reference = ctx.zeta(s, a_ref)
                assert abs(ours - reference) < 1e-58

    def test_partial_sum_bracket(self):
        # the tail of sum (n+a)^-s is bracketed by integrals, so the true
        # value lies between partial + lower and partial + upper
        s, a = 3, Fraction(2, 5)
        value = _zeta(s, a)
        n_terms = 200
        partial = sum(Fraction(1) / (n + a) ** s for n in range(n_terms))
        upper = partial + Fraction(1) / ((s - 1) * (n_terms - 1 + a) ** (s - 1))
        lower = partial + Fraction(1) / ((s - 1) * (n_terms + a) ** (s - 1))
        assert float(lower) <= value <= float(upper)

    def test_decreasing_in_a(self):
        values = [_zeta(2, Fraction(j, 10)) for j in range(1, 11)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_multiplication_theorem(self):
        # zeta(s, a) = k^-s * sum_j zeta(s, (a+j)/k) restated as:
        # sum_{j=0}^{k-1} zeta(s, j/k + 1/(2k)) picks out a = 1/2 scaled
        ctx = DEFAULT_PRECISION.context()
        for k in range(2, 6):
            for s in (2, 4):
                total = ctx.fsum(_zeta(s, Fraction(2 * j + 1, 2 * k))
                                 for j in range(k))
                expected = ctx.mpf(k) ** s * _zeta(s, Fraction(1, 2))
                assert abs(total - expected) < 1e-55

    @pytest.mark.parametrize("digits", [20, 60, 100])
    def test_within_bound_of_exact_formula(self, digits):
        # the fixed-point sum is within 2^-(prec+4) of the exact truncated
        # formula, and is then rounded once to the working precision's
        # scale: half a unit of 2^-prec
        config = PrecisionConfig(digits)
        prec = config.working_bits
        for s, a in _ZETA_CASES:
            re, im, bits = hurwitz_zeta(s, a, config)
            assert (im, bits) == (0, prec)
            error = abs(Fraction(re, 2 ** prec)
                        - hurwitz_zeta_formula(s, a, digits))
            assert error <= Fraction(1, 2 ** (prec + 4)) \
                + Fraction(1, 2 ** (prec + 1))

    @pytest.mark.parametrize("digits", [20, 60, 100])
    def test_against_mpmath_at_more_digits(self, digits):
        config = PrecisionConfig(digits)
        ref = mpmath.mp.clone()
        ref.dps = digits + 40
        for s, a in _ZETA_CASES:
            reference = ref.zeta(s, ref.mpf(a.numerator) / a.denominator)
            value = fixed_mpc(ref, hurwitz_zeta(s, a, config)).real
            assert abs(value - reference) <= ref.mpf(10) ** -(digits + 4) \
                * reference

    def test_stalled_tail_raises_precision_error(self, patch_special):
        # coefficients that grow make the corrections grow: the tail must
        # stop with a PrecisionError, not return a value
        patch_special("_euler_maclaurin_coefficient",
                      lambda j: Fraction(10 ** (40 * j)))
        with pytest.raises(PrecisionError,
                           match=r"zeta\(2, 1/3\) stalled at term size"):
            hurwitz_zeta(2, Fraction(1, 3))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1, Fraction(1, 2))
        with pytest.raises(ValueError):
            hurwitz_zeta(2, Fraction(3, 2))
        with pytest.raises(ValueError):
            hurwitz_zeta(2, 0)

    def test_rejects_non_integer_exponent(self):
        for s in (Fraction(7, 2), 2.5):
            with pytest.raises(ValueError, match="integer s"):
                hurwitz_zeta(s, Fraction(1, 3))


class TestHurwitzZetaNegative:
    def test_examples(self):
        # zeta(-m, a) = -B_{m+1}(a)/(m+1)
        assert hurwitz_zeta_neg(0, Fraction(1, 3)) == Fraction(1, 6)
        assert hurwitz_zeta_neg(1, Fraction(1, 2)) == Fraction(1, 24)
        assert hurwitz_zeta_neg(2, 1) == 0

    def test_zeta_at_zero(self):
        # zeta(0, a) = 1/2 - a
        for a in (Fraction(1, 4), Fraction(1, 2), 1):
            assert hurwitz_zeta_neg(0, a) == Fraction(1, 2) - Fraction(a)

    @given(m=st.integers(0, 10), num=st.integers(1, 12),
           den=st.integers(12, 12))
    def test_exactness(self, m, num, den):
        a = Fraction(num, den)
        from pcores.arith import bernoulli_poly
        assert hurwitz_zeta_neg(m, a) == -bernoulli_poly(m + 1, a) / (m + 1)


def _coefficients(series):
    """(m, d) for each stored coefficient of a log series (E, O, K, H): d is
    (-1)^(m//2) * c_m * pi^m, the m-th power of i*pi*v folded into v^m."""
    for parity, part in enumerate(series[:2]):
        for i, c in enumerate(part):
            yield 2 * i + parity, c


class TestPeriodicZeta:
    def test_at_integer_phase(self):
        ctx = DEFAULT_PRECISION.context()
        value = fixed_mpc(ctx, periodic_zeta(2, 0))
        assert abs(value - ctx.pi ** 2 / 6) < 1e-58

    def test_at_half_phase(self):
        # l(2, 1/2) = sum (-1)^n / n^2 = -pi^2/12
        ctx = DEFAULT_PRECISION.context()
        value = fixed_mpc(ctx, periodic_zeta(2, Fraction(1, 2)))
        assert abs(value + ctx.pi ** 2 / 12) < 1e-58

    def test_conjugation_symmetry(self):
        for x in (Fraction(1, 7), Fraction(2, 5), Fraction(5, 11)):
            ctx = DEFAULT_PRECISION.context()
            a = fixed_mpc(ctx, periodic_zeta(3, x))
            b = fixed_mpc(ctx, periodic_zeta(3, 1 - x))
            assert abs(a - ctx.conj(b)) < 1e-55

    def test_against_partial_sums(self):
        # Abel summation tail bound: | sum_{n>M} e(nx)/n^s | is at most
        # 2 / (|1 - e(x)| * M^s), independent of how slowly it oscillates
        ctx = DEFAULT_PRECISION.context()
        M = 4000
        for x in (Fraction(1, 3), Fraction(2, 7), Fraction(4, 9)):
            for s in (2, 3):
                z = ctx.expjpi(2 * ctx.mpf(x.numerator) / x.denominator)
                partial = ctx.fsum(z ** n / ctx.mpf(n) ** s
                                   for n in range(1, M + 1))
                bound = 2 / (abs(1 - z) * ctx.mpf(M) ** s)
                value = fixed_mpc(ctx, periodic_zeta(s, x))
                assert abs(value - partial) <= bound + ctx.mpf(10) ** -55

    def test_hurwitz_combination(self):
        # l(s, h/k) = k^-s sum_j e^(2 pi i j h / k) zeta(s, j/k), the
        # bridge identity the transform table depends on
        ctx = DEFAULT_PRECISION.context()
        for k in (3, 5, 8):
            for h in range(1, k):
                for s in (2, 4):
                    total = ctx.fsum(
                        ctx.expjpi(2 * ctx.mpf(j * h) / k)
                        * _zeta(s, Fraction(j, k) if j else 1)
                        for j in range(k))
                    expected = (ctx.mpf(k) ** s * fixed_mpc(
                        ctx, periodic_zeta(s, Fraction(h, k))))
                    assert abs(total - expected) < 1e-55

    @pytest.mark.parametrize("digits", [20, 40, 60, 100])
    def test_against_polylog(self, digits):
        # the log series, cut at eps/8 and summed with guard digits, stays
        # within 10^-working_dps of mpmath's polylog, relative
        config = PrecisionConfig(digits)
        tol = _POLYLOG.mpf(10) ** -config.working_dps
        for s in range(2, 9):
            for x in {Fraction(h, q) for q in range(2, 14)
                      for h in range(1, q // 2 + 1)}:
                reference = _polylog_reference(s, x)
                value = periodic_zeta(s, x, config)
                assert abs(fixed_mpc(_POLYLOG, value) - reference) \
                    <= tol * abs(reference)

    @pytest.mark.parametrize("digits", [20, 60, 100])
    def test_series_cut_where_documented(self, digits):
        # the last coefficient kept has |c_m| * pi^m >= eps/8 and the next
        # nonzero one, c_(m+2), falls below it
        config = PrecisionConfig(digits)
        cut = _POLYLOG.ldexp(1, -config.working_bits - 2)  # eps/8
        for s in range(2, 9):
            even, odd, _, _ = _log_series(s, config)
            m = max(2 * len(even) - 2, 2 * len(odd) - 1)
            assert m > s
            for n, kept in ((m, True), (m + 2, False)):
                size = (abs(_POLYLOG.zeta(s - n)) * _POLYLOG.pi ** n
                        / math.factorial(n))
                assert (size >= cut) is kept

    @pytest.mark.parametrize("digits", [20, 60, 100])
    def test_horner_matches_exact_evaluation(self, digits):
        # the integer Horner sums of E and O at v^2 = (a/b)^2, each product
        # floored, lie at most len(coefficients) units below the exact
        # rational sums of the same integers, never above them
        config = PrecisionConfig(digits)
        for s in range(2, 9):
            even, odd, _, _ = _log_series(s, config)
            for x in {Fraction(h, q) for q in range(2, 14)
                      for h in range(1, q // 2 + 1)}:
                u = (2 * x) ** 2
                for coeffs in (even, odd):
                    exact_sum = sum(c * u ** m for m, c in enumerate(coeffs))
                    value = _horner(coeffs, u.numerator, u.denominator)
                    assert 0 <= exact_sum - value < len(coeffs)

    @pytest.mark.parametrize("digits", [20, 60, 100])
    def test_coefficients_within_two_units_of_zeta(self, digits):
        # each stored coefficient (-1)^(m//2) * zeta(s-m) * pi^m / m!
        # against mpmath's zeta at twice the digits, within 2 units of the
        # scale, GUARD_BITS beyond the working precision, that holds it
        config = PrecisionConfig(digits)
        scale = config.working_bits + GUARD_BITS
        reference = mpmath.mp.clone()
        reference.prec = 2 * scale
        for s in range(2, 13):
            for m, d in _coefficients(_log_series(s, config)):
                if m == s - 1:
                    assert d == 0
                    continue
                expected = ((-1) ** (m // 2) * reference.zeta(s - m)
                            * reference.pi ** m / math.factorial(m))
                assert abs(d - reference.ldexp(expected, scale)) <= 2

    @pytest.mark.parametrize("digits", [20, 60, 100])
    def test_bernoulli_coefficients_correctly_rounded(self, digits):
        # from m = s on, c_m = zeta(-n)/m! = (-1)^n * B_(n+1)/((n+1) * m!),
        # n = m - s, is exact, and d_m = c_m * pi^m is within half a unit
        # plus 2^-8 of the scale, against pi at three times the bits; so
        # are K = pi^(s-1)/(s-1)! and the harmonic number H_(s-1)
        config = PrecisionConfig(digits)
        scale = config.working_bits + GUARD_BITS
        reference = mpmath.mp.clone()
        reference.prec = 3 * scale
        bound = reference.mpf(1) / 2 + reference.mpf(2) ** -8
        for s in range(2, 13):
            series = _log_series(s, config)
            for m, d in _coefficients(series):
                if m >= s:
                    n = m - s
                    c = ((-1) ** (m // 2 + n)
                         * Fraction(*mpmath.bernfrac(n + 1))
                         / ((n + 1) * math.factorial(m)))
                    expected = reference.ldexp(
                        c.numerator * reference.pi ** m / c.denominator, scale)
                    assert abs(d - expected) <= bound
            K, harmonic = series[2:]
            expected = reference.ldexp(reference.pi ** (s - 1)
                                       / math.factorial(s - 1), scale)
            assert abs(K - expected) <= bound
            exact_h = sum(Fraction(1, j) for j in range(1, s)) * 2 ** scale
            assert abs(harmonic - exact_h) <= Fraction(1, 2)

    def test_coefficients_keyed_on_precision(self, clear_zeta_caches):
        # a 100-digit value after a 40-digit one must not reuse 40-digit
        # coefficients; both are computed afresh from _log_series
        x = Fraction(2, 7)
        periodic_zeta(5, x, PrecisionConfig(40))
        value = periodic_zeta(5, x, PrecisionConfig(100))
        reference = _polylog_reference(5, x)
        assert abs(fixed_mpc(_POLYLOG, value) - reference) \
            < 1e-109 * abs(reference)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            periodic_zeta(1, Fraction(1, 3))

    @pytest.mark.parametrize("s", [Fraction(5, 2), 2.5, 3.25])
    def test_rejects_non_integer_exponent(self, s):
        with pytest.raises(ValueError):
            periodic_zeta(s, Fraction(1, 3))
