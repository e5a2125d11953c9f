"""Exponential sums, asymptotic estimates, constants, and identity checks."""

import math
from fractions import Fraction

import pytest

from pcores.asympt import (approx_divisor_sum, approx_singular_series,
                           bernoulli_char_sum, class_number,
                           cotangent_char_sum, divisibility_scan, exp_sum,
                           leading_constant, leading_constant_report,
                           quadratic_sawtooth_sum,
                           singular_term, verify_dedekind_parity,
                           verify_dirichlet_series, verify_eta_transform,
                           verify_quadratic_trig_identity,
                           verify_ramanujan_identity)
import pcores.asympt as asympt
from oracles import exact
from pcores.arith import divisors, is_prime, legendre_symbol, ramanujan_sum
from pcores.precision import (DEFAULT_PRECISION, PrecisionConfig,
                              VerificationError, to_mpf)
from pcores.series import pcore_count

PRIMES_5_TO_31 = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def _exp_sum_term(p, k, n, config):
    """singular_term as it was built on the snapped exponential sum: the
    same mpmath operations in the same order, amplitude from exp_sum."""
    amplitude = exp_sum(p, k, n, config).nearest
    ctx = config.context()
    if amplitude == 0:
        return ctx.mpf(0)
    half = (p - 1) // 2
    value = (2 * ctx.pi / k) ** half
    value *= ctx.power(p, -to_mpf(ctx, Fraction(p, 2)))
    value *= amplitude
    value *= ctx.mpf(n + (p * p - 1) // 24) ** (half - 1)
    return value / math.factorial(half - 1)


class TestExpSum:
    def test_k1_is_one(self):
        for p in (5, 7, 13):
            for n in (0, 3, 100):
                assert exp_sum(p, 1, n).nearest == 1

    def test_known_values(self):
        assert exp_sum(5, 2, 3).nearest == -1
        assert exp_sum(7, 3, 0).nearest == 1
        assert exp_sum(5, 4, 1).nearest == -2
        assert exp_sum(5, 3, 1).nearest == 1

    def test_residuals_tiny(self):
        for k in (2, 3, 4, 6, 9):
            snapped = exp_sum(11, k, 7)
            assert snapped.residual < 1e-55

    def test_rejects_multiples_of_p(self):
        with pytest.raises(ValueError):
            exp_sum(5, 10, 1)
        with pytest.raises(ValueError):
            exp_sum(5, 0, 1)


class TestSingularSeries:
    def test_leading_term_value(self):
        # k=1 term for p=5, n=4: (2 pi)^2 * 5^(-5/2) * 5 / 1
        ctx = DEFAULT_PRECISION.context()
        term = singular_term(5, 1, 4)
        expected = (2 * ctx.pi) ** 2 * ctx.mpf(5) ** ctx.mpf("-2.5") * 5
        assert abs(term - expected) < 1e-50

    def test_estimate_converges(self):
        exact = pcore_count(5, 24)
        errors = []
        for kmax in (5, 25, 125):
            report = approx_singular_series(5, 24, kmax)
            errors.append(abs(float(report.estimate) - exact))
        assert errors[-1] < errors[0]
        assert errors[-1] / exact < 1e-2

    def test_close_at_moderate_depth(self):
        for n in (4, 10, 24):
            report = approx_singular_series(5, n, 200)
            assert report.relative_error < 1e-2

    def test_report_carries_exact_count(self):
        report = approx_singular_series(5, 10, 10)
        assert report.exact == pcore_count(5, 10)
        assert report.method == "singular"

    @pytest.mark.parametrize("p", PRIMES_5_TO_31)
    def test_closed_form_amplitude_matches_exp_sum(self, p):
        # n + (p^2-1)/24 = 0 mod d for each d | k exercises every gcd
        shift = (p * p - 1) // 24
        for k in range(1, 41):
            if k % p == 0:
                continue
            for n in {0, 1, 1000} | {-shift % d for d in divisors(k)}:
                expected = _exp_sum_term(p, k, n, DEFAULT_PRECISION)
                assert singular_term(p, k, n) == expected, (k, n)

    @pytest.mark.parametrize("digits", [40, 60, 100])
    def test_estimate_equals_exp_sum_series(self, digits):
        config = PrecisionConfig.for_digits(digits)
        for p, n, kmax in ((5, 24, 60), (17, 30001, 40), (31, 10 ** 6, 25)):
            total = config.context().mpf(0)
            for k in range(1, kmax + 1):
                if k % p:
                    total += _exp_sum_term(p, k, n, config)
            report = approx_singular_series(p, n, kmax, config,
                                            with_exact=False)
            assert report.estimate == total

    def test_singular_term_rejects_multiples_of_p(self):
        with pytest.raises(ValueError):
            singular_term(7, 14, 1)


class TestDivisorSumEstimate:
    def test_exact_for_five_cores(self):
        # with c_5 = 1 the estimate is exactly the count for small n
        for n in range(50):
            report = approx_divisor_sum(5, n)
            assert report.constant == 1
            assert float(report.estimate) == report.exact

    def test_seventeen_cores_headline(self):
        report = approx_divisor_sum(17, 1000)
        assert report.exact == 18290676482504
        assert report.divisor_sum == 1095644358087433891660
        assert report.constant == 59901794
        assert report.relative_error < 5e-8

    def test_constant_from_exact_formula_alone(self, monkeypatch):
        consensus = {p: leading_constant_report(p).consensus
                     for p in range(5, 62) if is_prime(p)}

        def cross_check(*args, **kwargs):
            raise AssertionError("the estimate ran the six-way cross-check")

        monkeypatch.setattr(asympt, "leading_constant_report", cross_check)
        for p, constant in consensus.items():
            report = approx_divisor_sum(p, 1000, with_exact=False)
            assert report.constant == constant

    @pytest.mark.parametrize("bad", [Fraction(17, 2), Fraction(0),
                                     Fraction(-8)])
    def test_uncertified_constant_raises(self, monkeypatch, bad):
        monkeypatch.setattr(asympt, "leading_constant", lambda p, v: bad)
        with pytest.raises(VerificationError):
            approx_divisor_sum(7, 10)


class TestLeadingConstant:
    def test_exact_variant_small_primes(self):
        assert leading_constant(5, "iv") == 1
        assert leading_constant(7, "iv") == 8
        assert leading_constant(11, "iv") == 1275
        assert leading_constant(13, "iv") == 33463

    def test_variant_ii_matches_iv_exactly(self):
        for p in (5, 7, 11, 13, 17):
            assert leading_constant(p, "ii") == leading_constant(p, "iv")

    def test_half_range_signs_for_seven(self):
        ctx = DEFAULT_PRECISION.context()
        v = leading_constant(7, "v")
        vi = leading_constant(7, "vi")
        assert abs(v - 8) < 1e-50
        assert vi == -8

    def test_half_range_variants_need_3_mod_4(self):
        with pytest.raises(ValueError):
            leading_constant(5, "v")
        with pytest.raises(ValueError):
            leading_constant(13, "vi")

    def test_report_consensus_values(self):
        assert leading_constant_report(11).consensus == 1275
        assert leading_constant_report(23).consensus == 27533989805352
        assert leading_constant_report(31).consensus == \
            12129134296689838866288

    def test_report_residuals_tiny(self):
        report = leading_constant_report(19)
        assert max(report.residuals.values()) < report.tolerance

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            leading_constant(7, "vii")


class TestCharacterSums:
    def test_bernoulli_examples(self):
        assert bernoulli_char_sum(1, 5) == 1
        assert bernoulli_char_sum(2, 7) == 8
        assert bernoulli_char_sum(1, 7) == 0
        assert bernoulli_char_sum(9, 5) == Fraction(412751, 5)

    def test_cotangent_examples(self):
        assert cotangent_char_sum(2, 7).nearest == 8
        assert cotangent_char_sum(1, 5).nearest == 1
        assert cotangent_char_sum(2, 5).nearest == 0

    def test_sums_agree_in_coherent_domain(self):
        from math import gcd
        for p in (5, 7, 11, 13):
            for r in range(1, 9):
                if gcd(p, r + 1) != 1:
                    continue
                exact = bernoulli_char_sum(r, p)
                assert exact.denominator == 1
                assert cotangent_char_sum(r, p).nearest == exact

    def test_parity_vanishing(self):
        # nonzero requires r odd exactly when p = 1 mod 4
        for p, r, zero in ((5, 2, True), (5, 1, False), (7, 1, True),
                           (7, 2, False), (13, 4, True), (11, 4, False)):
            value = bernoulli_char_sum(r, p)
            assert (value == 0) == zero

    def test_sawtooth_sums(self):
        assert quadratic_sawtooth_sum(7) == -1
        assert quadratic_sawtooth_sum(23) == -3
        assert quadratic_sawtooth_sum(5) == 0
        assert quadratic_sawtooth_sum(13) == 0


class TestClassNumber:
    def test_known_values(self):
        assert class_number(7) == 1
        assert class_number(11) == 1
        assert class_number(23) == 3
        assert class_number(31) == 3
        assert class_number(47) == 5
        assert class_number(163) == 1
        assert class_number(199) == 9

    def test_methods_agree_individually(self):
        for p in (7, 19, 43, 59):
            values = {m: class_number(p, m)
                      for m in ("dirichlet", "sawtooth", "cotangent")}
            assert len(set(values.values())) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            class_number(5)
        with pytest.raises(ValueError):
            class_number(13)

    def test_uncertified_exact_routes_raise(self, monkeypatch):
        monkeypatch.setattr(asympt, "quadratic_sawtooth_sum",
                            lambda p: Fraction(1, 2))
        with pytest.raises(VerificationError, match="not an integer"):
            class_number(7, "sawtooth")
        # odd j only: the weighted sum 1 + 3 + 5 is not divisible by 7
        monkeypatch.setattr(asympt, "legendre_symbol", lambda j, p: j % 2)
        with pytest.raises(VerificationError, match="not an integer"):
            class_number(7, "dirichlet")


class TestRamanujanIdentity:
    def test_small_sweep_clean(self):
        report = verify_ramanujan_identity(5, 12, 12)
        assert report.passed
        assert report.checked == sum(
            1 for k in range(1, 13) if k % 5
            for _ in range(13))
        assert report.worst_residual < 1e-50

    def test_seven_sweep(self):
        report = verify_ramanujan_identity(7, 10, 10)
        assert report.passed

    @pytest.mark.parametrize("kmax, nmax", [(0, 5), (5, -1)])
    def test_empty_sweep_rejected(self, kmax, nmax):
        with pytest.raises(ValueError):
            verify_ramanujan_identity(5, kmax, nmax)


class TestDedekindParity:
    def test_exact_sweep(self):
        report = verify_dedekind_parity(5, 40)
        assert report.passed
        assert report.counterexamples == []

    def test_seven(self):
        assert verify_dedekind_parity(7, 30).passed

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            verify_dedekind_parity(5, 0)


class TestDirichletSeries:
    def test_moderate_depth(self):
        report = verify_dirichlet_series(5, 2, 6, 2000)
        assert report.passed
        assert report.deviation <= report.tolerance

    def test_s3(self):
        report = verify_dirichlet_series(7, 3, 12, 1500)
        assert report.passed

    @pytest.mark.parametrize("digits", [20, 60, 100])
    def test_partial_sum_within_bound_of_exact_sum(self, digits):
        # the fixed-point sum is within 2^-(prec+4) of the exact partial
        # sum, and is then rounded once: half a unit in the last place
        config = PrecisionConfig(digits)
        prec = config.context().prec
        for p, s, n in ((5, 2, 6), (7, 3, 12), (29, 3, 1), (13, 4, 30)):
            partial = verify_dirichlet_series(p, s, n, 200, config).partial_sum
            _, _, exp, bc = partial._mpf_
            half_ulp = Fraction(2) ** (exp + bc - prec - 1)
            expected = sum(
                Fraction(legendre_symbol(k, p) * ramanujan_sum(k, n),
                         k ** (1 + s))
                for k in range(1, 201) if k % p)
            assert (abs(exact(partial) - expected)
                    <= Fraction(1, 2 ** (prec + 4)) + half_ulp)

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_dirichlet_series(5, 1, 6, 100)


class TestEtaTransform:
    def test_reference_case(self):
        report = verify_eta_transform(5, 1, 2, 0.5)
        assert report.passed
        assert report.relative_deviation < 1e-50
        assert report.exponent == -2

    def test_wrong_exponent_reading_fails_clearly(self):
        report = verify_eta_transform(5, 1, 2, 0.5)
        assert report.alt_exponent_deviation > 0.1

    def test_k1_case(self):
        report = verify_eta_transform(5, 0, 1, 0.7)
        assert report.passed

    def test_truncation_bound_gates_pass(self):
        report = verify_eta_transform(5, 1, 2, 0.5, factors=6)
        assert not report.passed
        assert report.truncation_bound > 1e-12

    def test_case_validation(self):
        with pytest.raises(ValueError):
            verify_eta_transform(5, 2, 4, 0.5)
        with pytest.raises(ValueError):
            verify_eta_transform(5, 1, 5, 0.5)
        with pytest.raises(ValueError):
            verify_eta_transform(5, 1, 2, 0.0)

    def test_case_shares_the_denominator_checks(self):
        with pytest.raises(ValueError, match="divisible by p"):
            verify_eta_transform(7, 1, 14, 0.5)
        with pytest.raises(ValueError, match="k must be >= 1"):
            verify_eta_transform(5, 0, 0, 0.5)


class TestTrigIdentity:
    def test_r2_p7(self):
        report = verify_quadratic_trig_identity(2, 7)
        assert report.passed
        assert abs(report.lhs.nearest) == 8
        assert report.relative_sign == -1

    def test_r2_p11_magnitude(self):
        report = verify_quadratic_trig_identity(2, 11)
        assert report.passed
        assert abs(report.lhs.nearest) == abs(bernoulli_char_sum(2, 11))

    def test_r4_p7(self):
        assert verify_quadratic_trig_identity(4, 7).passed

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_quadratic_trig_identity(3, 7)
        with pytest.raises(ValueError):
            verify_quadratic_trig_identity(2, 13)
        with pytest.raises(ValueError):
            verify_quadratic_trig_identity(6, 7)


class TestDivisibilityScan:
    def test_five(self):
        report = divisibility_scan(5, 12)
        assert report.passed
        assert report.first_non_integer == 9
        assert report.expected_first_non_integer == 9
        assert report.first_failure_holds is True

    def test_seven(self):
        report = divisibility_scan(7, 20)
        assert report.passed
        assert report.first_non_integer == 20

    def test_divisible_rows(self):
        report = divisibility_scan(7, 10)
        by_r = {row.r: row for row in report.rows}
        # r=4: T(4,7) nonzero integer, not exempt, so divisible by 7
        assert by_r[4].divisible is True
        # r=2 sits on the exempt residue class (p-3)/2 = 2
        assert by_r[2].exempt

    def test_short_scan_leaves_question_open(self):
        report = divisibility_scan(5, 5)
        assert report.first_failure_holds is None
        assert report.passed
