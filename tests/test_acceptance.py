"""Acceptance criteria, one test per numbered criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  Each test states its tolerance inline.  Two sub-criteria
are marked strict-xfail: the expected-value table entry for p = 17 and
the fixed printed reference for the (17, 1000) estimate both disagree
with every independent computation route here; the tests assert the
stated values faithfully and are expected to fail.
"""

import time
from fractions import Fraction
from math import gcd

import pytest

from oracles import pcore_count_bruteforce
from pcores.asympt import (approx_divisor_sum, approx_singular_series,
                           bernoulli_char_sum, class_number,
                           cotangent_char_sum, leading_constant_report,
                           verify_dedekind_parity, verify_dirichlet_series,
                           verify_eta_transform, verify_ramanujan_identity)
from pcores.cli import run_cli
from pcores.fourier import verify_transform_table
from pcores.series import pcore_count

TABLED_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)

# the expected-value table as given; independent computation disputes
# the p = 17 entry (see criterion 2)
STATED_CONSTANTS = {
    5: 1,
    7: 8,
    11: 1275,
    13: 33463,
    17: 599901794,
    19: 3708443635,
    23: 27533989805352,
    29: 66758494132125571317,
    31: 12129134296689838866288,
}
COMPUTED_C17 = 59901794

PRINTED_ESTIMATE_17_1000 = 18290676871721
EXACT_COUNT_17_1000 = 18290676482504


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="session")
def cp_reports():
    start = time.perf_counter()
    reports = {p: leading_constant_report(p) for p in TABLED_PRIMES}
    return reports, time.perf_counter() - start


@pytest.fixture(scope="session")
def fft_table():
    return verify_transform_table()


class TestCriterion1:
    def test_exact_count_via_cli(self, capsys):
        start = time.perf_counter()
        code = run_cli(["count", "--p", "17", "--n", "1000"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        with capsys.disabled():
            ok = (code == 0
                  and f"count: {EXACT_COUNT_17_1000}" in out
                  and elapsed < 10.0)
            report(1, f"count --p 17 --n 1000 = {EXACT_COUNT_17_1000} "
                      f"in {elapsed:.2f}s (< 10 s)", ok)


class TestCriterion2:
    def test_consensus_table(self, cp_reports):
        reports, elapsed = cp_reports
        agreeing = {p: reports[p].consensus == STATED_CONSTANTS[p]
                    for p in TABLED_PRIMES if p != 17}
        ok = all(agreeing.values()) and elapsed < 60.0
        report(2, "eight of nine tabled constants exactly reproduced "
                  f"in {elapsed:.2f}s (< 60 s); p = 17 split out below", ok)

    @pytest.mark.xfail(
        strict=True,
        reason="the stated table entry 599901794 for p = 17 disagrees with "
               "all six independent formulas computed here, which agree "
               "with each other to 10^-70 on 59901794; the stated entry "
               "contains a duplicated digit 9")
    def test_p17_stated_value(self, cp_reports):
        reports, _ = cp_reports
        report(2, f"p = 17 constant equals stated {STATED_CONSTANTS[17]} "
                  f"(computed consensus: {reports[17].consensus})",
               reports[17].consensus == STATED_CONSTANTS[17])

    def test_p17_consensus_is_coherent(self, cp_reports):
        # every route (four formulas at p = 1 mod 4) lands on one integer
        reports, _ = cp_reports
        rep = reports[17]
        ok = rep.consensus == COMPUTED_C17 \
            and max(rep.residuals.values()) < rep.tolerance
        report(2, f"p = 17 formulas agree on {COMPUTED_C17} "
                  "(consistency subcheck)", ok)


class TestCriterion3:
    def test_cross_formula_coherence(self, cp_reports):
        reports, _ = cp_reports
        worst = 0.0
        for p in TABLED_PRIMES:
            rep = reports[p]
            names = ["i", "iii"] + (["v"] if p % 4 == 3 else [])
            for name in names:
                worst = max(worst, rep.residuals[name])
        report(3, f"variants i, iii (and v when p = 3 mod 4) within 1e-20 "
                  f"of the exact integer for all tabled p "
                  f"(worst {worst:.2e})", worst <= 1e-20)


class TestCriterion4:
    def test_relative_error_bounds(self):
        divisor = approx_divisor_sum(17, 1000)
        singular = approx_singular_series(17, 1000, 50)
        ok = (divisor.exact == EXACT_COUNT_17_1000
              and divisor.relative_error <= 5e-8
              and singular.relative_error <= 5e-8)
        report(4, "divisor-sum and kmax=50 singular-series estimates for "
                  f"(17, 1000) within 5e-8 of exact "
                  f"({divisor.relative_error:.3e}, "
                  f"{singular.relative_error:.3e})", ok)

    @pytest.mark.xfail(
        strict=True,
        reason="the fixed printed reference 18290676871721 sits 49.4 units "
               "above the closed-form divisor estimate 18290676871671.55 "
               "computed here at 60 digits, and no singular-series "
               "truncation depth reproduces it either; the 5e-8 relative "
               "bound against the exact count holds regardless")
    def test_printed_reference_within_ten_units(self):
        divisor = approx_divisor_sum(17, 1000)
        gap = abs(float(divisor.estimate) - PRINTED_ESTIMATE_17_1000)
        report(4, f"divisor estimate within 10 units of printed "
                  f"{PRINTED_ESTIMATE_17_1000} (gap {gap:.1f})", gap <= 10.0)


class TestCriterion5:
    def test_five_core_estimate_is_exact(self):
        bad = []
        for n in range(50):
            rep = approx_divisor_sum(5, n)
            if Fraction(rep.divisor_sum, rep.constant) != pcore_count(5, n):
                bad.append(n)
        report(5, "divisor-sum estimate exactly reproduces the 5-core "
                  "count for all n <= 49 (constant 1)", not bad)


class TestCriterion6:
    def test_exponential_sum_identity_sweep(self):
        failed = [p for p in (5, 7, 11, 13)
                  if not verify_ramanujan_identity(p, 30, 30).passed]
        report(6, "exponential sums match twisted Ramanujan sums for "
                  "p in {5,7,11,13}, k <= 30, n <= 30 "
                  "(exact equality of integers)", not failed)


class TestCriterion7:
    def test_dedekind_parity_sweep(self):
        failed = [p for p in (5, 7, 11, 13)
                  if not verify_dedekind_parity(p, 60).passed]
        report(7, "Dedekind-sum deltas are integers with parity matching "
                  "the quadratic character, p in {5,7,11,13}, k <= 60 "
                  "(exact arithmetic)", not failed)


class TestCriterion8:
    def test_character_sum_equality(self):
        failures = []
        for p in TABLED_PRIMES:
            for r in range(1, 16):
                if gcd(p, r + 1) != 1:
                    continue
                exact = bernoulli_char_sum(r, p)
                cotangent = cotangent_char_sum(r, p)
                parity_ok = (r % 2 == 1) == (p % 4 == 1)
                if exact.denominator != 1:
                    failures.append((p, r, "non-integer"))
                elif cotangent != exact:
                    failures.append((p, r, "mismatch"))
                elif (exact == 0) != (not parity_ok):
                    failures.append((p, r, "vanishing"))
        report(8, "cotangent sums equal exact Bernoulli sums for p <= 31, "
                  "r <= 15, gcd(p, r+1) = 1; integer always, zero exactly "
                  "on parity failure", not failures)


class TestCriterion9:
    def test_class_numbers_below_200(self):
        primes = [p for p in range(7, 200, 4)
                  if p % 4 == 3 and all(p % q for q in range(2, p) if q * q <= p)]
        ones = []
        for p in primes:
            values = {m: class_number(p, m)
                      for m in ("dirichlet", "sawtooth", "cotangent")}
            if len(set(values.values())) != 1:
                report(9, f"methods disagree at p = {p}", False)
            if values["dirichlet"] == 1:
                ones.append(p)
        expected_ones = [7, 11, 19, 43, 67, 163]
        report(9, "three class-number routes agree for every prime "
                  "p = 3 mod 4 below 200; value 1 exactly on "
                  f"{expected_ones}", ones == expected_ones)


class TestCriterion10:
    def test_first_integrality_failure_for_five(self):
        integral = all(
            bernoulli_char_sum(r, 5).denominator == 1
            for r in range(1, 9)
            if gcd(5, r + 1) == 1 and (r % 2 == 1) == (5 % 4 == 1))
        breaks = bernoulli_char_sum(9, 5).denominator != 1
        report(10, "T(r,5) integral through r = 8 in the coherent domain; "
                   f"first non-integer at r = 9 "
                   f"(T(9,5) = {bernoulli_char_sum(9, 5)})",
               integral and breaks)


class TestCriterion11:
    def test_transform_table(self, fft_table):
        table = fft_table
        ok = (table.passed
              and table.max_row_deviation <= 1e-40
              and table.grids == 100
              and table.parseval_max <= table.grid_tolerance)
        report(11, "Bernoulli (k<=13, r<=6), Legendre (p<=97), zeta "
                   "(k<=13, s<=6) rows all within 1e-40 "
                   f"(max {table.max_row_deviation:.2e}); Parseval on 100 "
                   f"grids k<=64 (max {table.parseval_max:.2e})", ok)


class TestCriterion12:
    def test_modular_transformation_cases(self):
        worst = 0.0
        failed = []
        for p, h, k in ((5, 1, 2), (7, 2, 3), (13, 1, 4)):
            for t in (0.5, 0.6):
                rep = verify_eta_transform(p, h, k, t, factors=400)
                worst = max(worst, rep.relative_deviation)
                assert rep.exponent == -(p - 1) // 2
                if not rep.passed:
                    failed.append((p, h, k, t))
        ok = not failed and worst <= 1e-12
        report(12, "product transformation holds for (5,1,2), (7,2,3), "
                   "(13,1,4) at t in {0.5, 0.6}, 400 factors "
                   f"(worst relative deviation {worst:.2e} <= 1e-12)", ok)


class TestCriterion13:
    def test_dirichlet_series_closed_form(self):
        failed = []
        for p in (5, 7):
            for s in (2, 3):
                for n in (1, 6, 12):
                    rep = verify_dirichlet_series(p, s, n, 10 ** 4)
                    if not rep.passed:
                        failed.append((p, s, n, rep.deviation, rep.tolerance))
        report(13, "partial character Dirichlet series matches closed form "
                   "within tail bound + 1e-20 for p in {5,7}, s in {2,3}, "
                   "n in {1,6,12}, kmax = 10^4", not failed)


class TestCriterion14:
    def test_series_engine_against_bruteforce(self):
        failed = []
        for p in (2, 3, 5, 7, 11, 13):
            for n in range(23):
                if pcore_count(p, n) != pcore_count_bruteforce(p, n):
                    failed.append((p, n))
        report(14, "series-engine counts equal hook-length brute force for "
                   "p in {2,3,5,7,11,13}, n <= 22", not failed)
