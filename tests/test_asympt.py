"""Exponential sums, asymptotic estimates, constants, and identity checks."""

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from pcores.asympt import (approx_divisor_sum, approx_singular_series,
                           bernoulli_char_sum, class_number,
                           cotangent_char_sum, divisibility_scan, exp_sum,
                           leading_constant, leading_constant_report,
                           quadratic_sawtooth_sum, verify_dedekind_parity,
                           verify_dirichlet_series, verify_eta_transform,
                           verify_quadratic_trig_identity,
                           verify_ramanujan_identity)
import pcores.asympt as asympt
from oracles import cot_derivative_horner, eta_transform_sides
from pcores.arith import divisors, is_prime, legendre_symbol, ramanujan_sum
from pcores.precision import (DEFAULT_PRECISION, GUARD_BITS,
                              PrecisionConfig, Real, VerificationError)
from pcores.series import pcore_count
from pcores.special import cot_polynomial

PRIMES_5_TO_31 = (5, 7, 11, 13, 17, 19, 23, 29, 31)


class TestExpSum:
    def test_k1_is_one(self):
        for p in (5, 7, 13):
            for n in (0, 3, 100):
                assert exp_sum(p, 1, n) == 1

    def test_known_values(self):
        assert exp_sum(5, 2, 3) == -1
        assert exp_sum(7, 3, 0) == 1
        assert exp_sum(5, 4, 1) == -2
        assert exp_sum(5, 3, 1) == 1

    def test_cyclotomic_integer_gives_ramanujan_sums(self):
        # sum of zeta^(h*n) over reduced h mod N is c_N(n); zeta alone is
        # not an integer for any N > 2
        for N in range(1, 400):
            for n in (0, 1, 6, N // 2 + 1):
                c = [0] * N
                for h in range(N):
                    if math.gcd(h, N) == 1:
                        c[h * n % N] += 1
                assert asympt._cyclotomic_integer(c) == ramanujan_sum(N, n), (N, n)
            if N > 2:
                assert asympt._cyclotomic_integer([0, 1] + [0] * (N - 2)) is None

    def test_closed_form_sweep(self):
        # (k|p) * c_k(n + (p^2-1)/24) for every p <= 31, k <= 30, n <= 30
        for p in PRIMES_5_TO_31:
            shift = (p * p - 1) // 24
            for k in range(1, 31):
                if k % p:
                    for n in range(31):
                        assert exp_sum(p, k, n) == legendre_symbol(k, p) \
                            * ramanujan_sum(k, n + shift), (p, k, n)

    def test_non_integer_sum_raises(self, monkeypatch):
        # a phase off by one turns the k = 1 sum into e^(2*pi*i/12)
        monkeypatch.setattr(asympt, "_phase_6k", lambda p, h, k: 1)
        with pytest.raises(VerificationError, match="not an integer"):
            exp_sum(5, 1, 0)

    def test_rejects_multiples_of_p(self):
        with pytest.raises(ValueError):
            exp_sum(5, 10, 1)
        with pytest.raises(ValueError):
            exp_sum(5, 0, 1)


class TestSingularSeries:
    def test_leading_term_value(self):
        # k=1 term for p=5, n=4: (2 pi)^2 * 5^(-5/2) * 5 / 1
        ctx = DEFAULT_PRECISION.context()
        term = approx_singular_series(5, 4, 1, with_exact=False).estimate
        expected = (2 * ctx.pi) ** 2 * ctx.mpf(5) ** ctx.mpf("-2.5") * 5
        assert abs(ctx.fdiv(term.numerator, term.denominator) - expected) \
            < 1e-50

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
        # the series sums A_k as (k|p) * c_k(N), N = n + (p^2-1)/24; at
        # exponent 0 and no fraction bits each step of kmax adds A_k alone.
        # n + (p^2-1)/24 = 0 mod d for each d | k exercises every gcd
        shift = (p * p - 1) // 24
        for k in range(1, 41):
            if k % p == 0:
                continue
            for n in {0, 1, 1000} | {-shift % d for d in divisors(k)}:
                added = asympt._twisted_ramanujan_sum(p, n + shift, 0, k, 0) \
                    - asympt._twisted_ramanujan_sum(p, n + shift, 0, k - 1, 0)
                assert added == exp_sum(p, k, n), (k, n)

    @pytest.mark.parametrize("digits", [20, 40, 60, 100])
    def test_estimate_equals_exp_sum_series(self, digits):
        # against S * 2^h * N^(h-1) / ((h-1)! * p^h) * pi^h / sqrt(p), S the
        # exact sum of exp_sum(p, k, n) / k^h, evaluated at 3x the bits and
        # held to the relative 2 * 2^-prec of approx_singular_series'
        # docstring: 2^-prec for the one rounding, 2^-prec in fixed point
        config = PrecisionConfig(digits)
        prec = config.working_bits
        oracle = mpmath.mp.clone()
        oracle.prec = 3 * prec
        for p in (5, 7, 13, 31, 61):
            h = (p - 1) // 2
            for n in (0, 1, 999, 20001, 10 ** 6):
                shifted = n + (p * p - 1) // 24
                S = Fraction(0)
                for kmax in range(1, 41):
                    if kmax % p:
                        S += Fraction(exp_sum(p, kmax, n), kmax ** h)
                    if kmax not in (1, 7, 40):
                        continue
                    R = S * 2 ** h * shifted ** (h - 1) \
                        / (math.factorial(h - 1) * p ** h)
                    series = oracle.fdiv(R.numerator, R.denominator) \
                        * oracle.pi ** h / oracle.sqrt(p)
                    estimate = approx_singular_series(
                        p, n, kmax, config, with_exact=False).estimate
                    gap = abs(oracle.convert(estimate) - series) / series
                    assert gap <= 2 * oracle.mpf(2) ** -prec, \
                        (p, n, kmax)

    def test_multiples_of_p_add_nothing(self):
        # k = 14 is excluded for p = 7, and 13 and 14 have the same bit length
        for n in (0, 1, 999):
            assert approx_singular_series(7, n, 14, with_exact=False) \
                == approx_singular_series(7, n, 13, with_exact=False)._replace(
                    kmax=14)

    def test_rejects_bad_depth_and_n(self):
        with pytest.raises(ValueError):
            approx_singular_series(7, 10, 0)
        with pytest.raises(ValueError):
            approx_singular_series(7, -1, 10)

    @pytest.mark.parametrize("p", PRIMES_5_TO_31)
    def test_limit_is_the_divisor_estimate(self, p):
        # the full series is D(N)/C; the tail beyond kmax is about
        # kmax^(3/2-h)/(h-3/2) of the whole, and ten times that must hold
        h = (p - 1) / 2
        kmax = 1000
        bound = min(0.1, 10 * kmax ** (1.5 - h) / (h - 1.5))
        for n in (0, 1, 999, 20001, 123457, 10 ** 6):
            singular = approx_singular_series(p, n, kmax, with_exact=False)
            divisor = approx_divisor_sum(p, n, with_exact=False)
            gap = abs(singular.estimate - divisor.estimate) / divisor.estimate
            assert gap <= bound, (n, float(gap))

    def test_experiment_script_runs_above_the_exact_cutoff(self, monkeypatch,
                                                          capsys):
        # above the cutoff the reports attach no exact count, so the script
        # takes both relative errors from its own count
        path = Path(__file__).resolve().parents[1] / "scripts" \
            / "approx_experiment.py"
        spec = importlib.util.spec_from_file_location("approx_experiment",
                                                      path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(asympt, "_EXACT_CUTOFF", 100)
        monkeypatch.setattr(sys, "argv",
                            ["approx_experiment.py", "--p", "5", "--n", "300"])
        script.main()
        out = capsys.readouterr().out
        count = pcore_count(5, 300)
        assert f"a_5(300) = {count}" in out
        # the divisor estimate is the 5-core count itself
        assert "relative error 0.000e+00" in out
        rows = {row[0]: row for row in map(str.split, out.splitlines())
                if row and row[0].isdigit()}
        assert list(rows) == ["1", "5", "10", "50", "200"]
        for kmax, row in rows.items():
            estimate = approx_singular_series(5, 300, int(kmax),
                                              with_exact=False).estimate
            assert row[2] == f"{float(abs(estimate - count) / count):.3e}"


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
        v = leading_constant(7, "v")
        vi = leading_constant(7, "vi")
        assert abs(v - 8) < 1e-50
        assert vi == -8

    def test_half_range_variants_need_3_mod_4(self):
        with pytest.raises(ValueError):
            leading_constant(5, "v")
        with pytest.raises(ValueError):
            leading_constant(13, "vi")

    @pytest.mark.parametrize("digits", [20, 60])
    def test_numeric_variants_within_a_rounding(self, digits):
        # variants i, iii and v, each an integer sum rounded once, lie
        # within a relative 2^-prec of their formulas evaluated by mpmath
        # 20 digits finer
        config = PrecisionConfig(digits)
        ref = mpmath.mp.clone()
        ref.dps = config.working_dps + 20
        for p in (5, 7, 11, 13, 19, 23, 31, 43):
            half = (p - 1) // 2
            r = half - 1
            cot = {j: cot_derivative_horner(ref, cot_polynomial(r), r,
                                            Fraction(j, p))
                   for j in range(1, p)}
            zeta = ref.fsum(legendre_symbol(j, p)
                            * ref.zeta(half, ref.mpf(j) / p)
                            for j in range(1, p))
            cot_sum = ref.fsum(legendre_symbol(j, p) * cot[j]
                               for j in range(1, p))
            expected = {
                "i": ref.sqrt(p) * ref.factorial(r) / (2 * ref.pi) ** half
                * zeta,
                "iii": -legendre_symbol(-1, p) * ref.sqrt(p) / 2 ** (r + 2)
                * cot_sum}
            if p % 4 == 3:
                expected["v"] = ref.sqrt(p) / 2 ** (r + 1) * ref.fsum(
                    cot[j * j % p] for j in range(1, half + 1))
            for variant, reference in expected.items():
                value = leading_constant(p, variant, config)
                assert type(value) is Real
                gap = abs(ref.fdiv(value.numerator, value.denominator)
                          - reference)
                assert gap <= abs(reference) \
                    * ref.ldexp(1, -config.working_bits), (p, variant)

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
        assert cotangent_char_sum(2, 7) == 8
        assert cotangent_char_sum(1, 5) == 1
        assert cotangent_char_sum(2, 5) == 0
        assert cotangent_char_sum(9, 5) == Fraction(412751, 5)

    def test_sums_agree_in_coherent_domain(self):
        from math import gcd
        for p in (5, 7, 11, 13):
            for r in range(1, 9):
                if gcd(p, r + 1) != 1:
                    continue
                exact = bernoulli_char_sum(r, p)
                assert exact.denominator == 1
                assert cotangent_char_sum(r, p) == exact

    def test_sums_agree_for_primes_to_97(self):
        # as exact rationals, integers or not, for every prime p <= 97
        for p in range(5, 98):
            if is_prime(p):
                for r in range(1, 16):
                    assert cotangent_char_sum(r, p) \
                        == bernoulli_char_sum(r, p), (r, p)

    def test_sums_agree_at_97_to_r61(self):
        # r = 20 is 0 and r = 61 a 159-digit integer
        for r in range(16, 62):
            assert cotangent_char_sum(r, 97) == bernoulli_char_sum(r, 97), r
        assert cotangent_char_sum(20, 97) == 0
        assert len(str(cotangent_char_sum(61, 97))) == 159

    def test_non_real_sum_raises(self, monkeypatch):
        # for p = 1 mod 4 and even r the sum over j is i times a real
        # number, which must vanish; an even term in f_2 breaks that
        monkeypatch.setattr(asympt, "cot_polynomial", lambda r: (0, 2, 1, 2))
        with pytest.raises(VerificationError, match="not rational"):
            cotangent_char_sum(2, 5)

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
        # every prime p = 3 mod 4 from 7 to 499
        for p in range(7, 500, 4):
            if is_prime(p):
                values = {m: class_number(p, m)
                          for m in ("dirichlet", "sawtooth", "cotangent")}
                assert len(set(values.values())) == 1, p

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
        prec = config.working_bits
        for p, s, n in ((5, 2, 6), (7, 3, 12), (29, 3, 1), (13, 4, 30)):
            partial = verify_dirichlet_series(p, s, n, 200, config).partial_sum
            assert type(partial) is Real
            half_ulp = abs(partial) / 2 ** prec
            expected = sum(
                Fraction(legendre_symbol(k, p) * ramanujan_sum(k, n),
                         k ** (1 + s))
                for k in range(1, 201) if k % p)
            assert (abs(partial - expected)
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

    @pytest.mark.parametrize("p, h, k, t", [(13, 1, 4, 0.6),
                                            (31, 0, 1, 1.543)])
    def test_sides_within_the_stated_bound(self, p, h, k, t):
        # lhs and rhs against mpmath 40 digits finer, within the relative
        # (7*p*factors + 4*p^2) * 2^-W / (1-r)^3 the docstring states
        report = verify_eta_transform(p, h, k, t)
        ctx = mpmath.mp.clone()
        ctx.prec = DEFAULT_PRECISION.working_bits + 133
        W = DEFAULT_PRECISION.working_bits + GUARD_BITS
        sides = eta_transform_sides(ctx, p, h, k, t, 400)
        for (re, im, s), (exact, radius) in zip(report[:2], sides):
            value = ctx.mpc(ctx.ldexp(re, -s), ctx.ldexp(im, -s))
            bound = (7 * p * 400 + 4 * p * p) * 2.0 ** -W / (1 - radius) ** 3
            assert abs(value - exact) <= bound * abs(exact)

    def test_deviation_beyond_a_float_reads_inf(self):
        # one factor at p = 1009 puts rhs near 1e10584 against an lhs near 2:
        # both deviations read inf, as mpmath's float() gave them
        report = verify_eta_transform(1009, 0, 1, 0.7, factors=1)
        assert report.relative_deviation == math.inf
        assert report.alt_exponent_deviation == math.inf
        assert not report.passed

    def test_non_finite_t_is_a_usage_error(self):
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                verify_eta_transform(5, 1, 2, t)

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
        assert abs(report.cotangent_side) == 8
        assert report.relative_sign == -1

    def test_r2_p11_magnitude(self):
        report = verify_quadratic_trig_identity(2, 11)
        assert report.passed
        assert abs(report.cotangent_side) == abs(bernoulli_char_sum(2, 11))

    def test_sides_equal_below_200(self):
        # the cotangent side is exact: equal to the Bernoulli companion,
        # sign included, for p = 3 mod 4 below 200 and r <= 8
        for p in range(7, 200, 4):
            if is_prime(p):
                for r in (2, 4, 6, 8):
                    if math.gcd(p, r + 1) == 1:
                        report = verify_quadratic_trig_identity(r, p)
                        assert report.passed, (r, p)
                        assert (report.cotangent_side
                                == -report.bernoulli_side), (r, p)

    def test_irrational_side_raises(self, monkeypatch):
        # a constant term in f_2 adds a multiple of sqrt(p) to the
        # residue sum, which the exact route must refuse
        monkeypatch.setattr(asympt, "cot_polynomial", lambda r: (1, 2, 0, 2))
        with pytest.raises(VerificationError, match="not rational"):
            verify_quadratic_trig_identity(2, 7)

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
        by_r = {row["r"]: row for row in report.rows}
        # r=4: T(4,7) nonzero integer, not exempt, so divisible by 7
        assert by_r[4]["divisible"] is True
        # r=2 sits on the exempt residue class (p-3)/2 = 2
        assert by_r[2]["exempt"]

    def test_short_scan_leaves_question_open(self):
        report = divisibility_scan(5, 5)
        assert report.first_failure_holds is None
        assert report.passed
