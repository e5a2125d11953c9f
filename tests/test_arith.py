"""Number-theoretic primitives: characters, Dedekind sums, Bernoulli data."""

import math
import threading
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bernoulli_numbers_by_recurrence, divisors, mobius
from pcores.arith import (bernoulli_number, bernoulli_poly, dedekind_sum,
                          factor, is_prime, legendre_symbol, ramanujan_sum,
                          sawtooth)

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def _dedekind_definition(h, k):
    """Oracle: the defining O(k) sum of ((j/k))((jh/k)), in one integer
    accumulator; for k not dividing j and jh the j-th term is
    (2j-k)(2(jh mod k)-k) / (4k^2)."""
    num = 0
    for j in range(1, k):
        hj = h * j % k
        if hj:
            num += (2 * j - k) * (2 * hj - k)
    return Fraction(num, 4 * k * k)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


class TestMobius:
    # mu(m) = c_m(1), the product over factor(m) that ramanujan_sum takes

    def test_examples(self):
        assert [ramanujan_sum(m, 1) for m in range(1, 13)] == \
            [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]

    def test_divisor_sum_is_unit_indicator(self):
        for n in range(1, 200):
            total = sum(ramanujan_sum(d, 1) for d in divisors(n))
            assert total == (1 if n == 1 else 0)

    def test_matches_trial_division(self):
        assert all(ramanujan_sum(m, 1) == mobius(m) for m in range(1, 5000))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor(0)
        with pytest.raises(ValueError):
            ramanujan_sum(0, 1)


def _divisors_from(factors):
    # every product of the prime powers, ascending
    found = [1]
    for l, a in factors:
        found = [d * l ** i for d in found for i in range(a + 1)]
    return sorted(found)


class TestFactor:
    @given(n=st.integers(1, 10 ** 10))
    def test_ascending_primes_multiply_back(self, n):
        factors = factor(n)
        primes = [l for l, _ in factors]
        assert primes == sorted(set(primes))
        assert all(is_prime(l) and a >= 1 for l, a in factors)
        assert math.prod(l ** a for l, a in factors) == n

    @pytest.mark.parametrize("n, factors", [
        (2 ** 60, [(2, 60)]),
        (3 ** 40, [(3, 40)]),
        (10 ** 12 + 39, [(10 ** 12 + 39, 1)]),
        (999983 * 1000003, [(999983, 1), (1000003, 1)]),
        (2 * 999983 ** 2, [(2, 1), (999983, 2)]),
        (10 ** 16 + 1, [(353, 1), (449, 1), (641, 1), (1409, 1), (69857, 1)]),
    ])
    def test_prime_powers_and_large_primes(self, n, factors):
        assert factor(n) == factors


class TestLegendre:
    def test_examples(self):
        assert legendre_symbol(2, 7) == 1
        assert legendre_symbol(3, 7) == -1
        assert legendre_symbol(14, 7) == 0
        assert legendre_symbol(-1, 5) == 1
        assert legendre_symbol(-1, 7) == -1

    def test_euler_criterion(self):
        for p in ODD_PRIMES:
            squares = {j * j % p for j in range(1, p)}
            for a in range(1, p):
                expected = 1 if a in squares else -1
                assert legendre_symbol(a, p) == expected

    @given(a=st.integers(-500, 500), b=st.integers(-500, 500),
           p=st.sampled_from(ODD_PRIMES))
    def test_complete_multiplicativity(self, a, b, p):
        assert legendre_symbol(a * b, p) == \
            legendre_symbol(a, p) * legendre_symbol(b, p)

    def test_rejects_even_or_composite_modulus(self):
        with pytest.raises(ValueError):
            legendre_symbol(1, 2)
        with pytest.raises(ValueError):
            legendre_symbol(1, 9)


class TestSawtooth:
    def test_examples(self):
        assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
        assert sawtooth(Fraction(3, 4)) == Fraction(1, 4)
        assert sawtooth(5) == 0
        assert sawtooth(Fraction(7, 2)) == 0

    @given(num=st.integers(-100, 100), den=st.integers(1, 50))
    def test_odd_function(self, num, den):
        x = Fraction(num, den)
        assert sawtooth(-x) == -sawtooth(x)

    def test_period_one(self):
        for num in range(-10, 11):
            x = Fraction(num, 7)
            assert sawtooth(x + 3) == sawtooth(x)


def _s(h, k):
    # s(h,k) from dedekind_sum's 12k * s(h,k)
    return Fraction(dedekind_sum(h, k), 12 * k)


class TestDedekindSum:
    def test_examples(self):
        assert _s(0, 1) == 0
        assert _s(1, 2) == 0
        assert _s(1, 3) == Fraction(1, 18)
        assert _s(1, 5) == Fraction(1, 5)

    def test_closed_form_h_equals_one(self):
        for k in range(1, 80):
            assert _s(1, k) == Fraction((k - 1) * (k - 2), 12 * k)

    def test_negation_symmetry(self):
        for k in range(2, 60):
            for h in range(1, k):
                if gcd(h, k) == 1:
                    assert _s(k - h, k) == -_s(h, k)

    def test_reciprocity(self):
        # s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/(hk))/12
        for k in range(1, 60):
            for h in range(1, k + 1):
                if gcd(h, k) != 1:
                    continue
                lhs = _s(h, k) + _s(k, h)
                rhs = Fraction(-1, 4) + Fraction(h, 12 * k) \
                    + Fraction(k, 12 * h) + Fraction(1, 12 * h * k)
                assert lhs == rhs

    def test_fast_matches_definition_exhaustively(self):
        for k in range(1, 101):
            for h in range(k):
                if gcd(h, k) == 1:
                    assert _s(h, k) == _dedekind_definition(h, k)

    @given(k=st.integers(1, 400), h=st.integers(0, 800))
    @settings(max_examples=150)
    def test_fast_matches_definition_random(self, k, h):
        if gcd(h, k) != 1:
            h = 1
        assert _s(h, k) == _dedekind_definition(h % k, k)

    @given(k=st.integers(1, 10 ** 6), h=st.integers(-10 ** 6, 10 ** 6))
    def test_six_k_multiple_is_integer(self, k, h):
        # that is, dedekind_sum's 12k * s(h,k) is even
        if gcd(h, k) != 1:
            h = 1
        value = dedekind_sum(h, k)
        assert type(value) is int and value % 2 == 0

    def test_requires_coprimality(self):
        with pytest.raises(ValueError):
            dedekind_sum(2, 4)
        with pytest.raises(ValueError):
            dedekind_sum(3, 9)
        with pytest.raises(ValueError):
            dedekind_sum(1, 0)


class TestRamanujanSum:
    def test_examples(self):
        assert ramanujan_sum(1, 5) == 1
        assert ramanujan_sum(4, 2) == -2
        assert ramanujan_sum(6, 12) == 2
        assert ramanujan_sum(5, 5) == 4
        assert ramanujan_sum(5, 1) == -1

    def test_matches_exponential_sum(self):
        # c_k(n) = sum over reduced residues h of cos(2*pi*h*n/k)
        for k in range(1, 21):
            for n in range(0, 25):
                direct = sum(math.cos(2 * math.pi * h * n / k)
                             for h in range(k) if gcd(h, k) == 1)
                assert abs(ramanujan_sum(k, n) - direct) < 1e-9

    def test_row_sums_vanish(self):
        # sum of c_k(n) over a full period n = 0..k-1 is zero for k > 1
        for k in range(2, 101):
            assert sum(ramanujan_sum(k, n) for n in range(k)) == 0

    def test_periodicity_in_n(self):
        for k in range(1, 30):
            for n in range(30):
                assert ramanujan_sum(k, n) == ramanujan_sum(k, n + k)

    def test_matches_mobius_definition(self):
        # sum over d | gcd(n,k) of d * mu(k/d), by trial division
        for k in range(1, 300):
            for n in (0, 1, -6, 30, 360, 720720):
                expected = sum(d * mobius(k // d)
                               for d in divisors(math.gcd(n, k)))
                assert ramanujan_sum(k, n) == expected, (k, n)

    @given(n=st.integers(0, 500))
    def test_multiplicative_in_k(self, n):
        # coprime moduli multiply: c_4(n) * c_9(n) = c_36(n)
        assert ramanujan_sum(4, n) * ramanujan_sum(9, n) == ramanujan_sum(36, n)


class TestBernoulliNumbers:
    def test_examples(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        for n in range(3, 30, 2):
            assert bernoulli_number(n) == 0

    def test_worpitzky_double_sum(self):
        # B_n = sum_k (1/(k+1)) sum_j (-1)^j C(k,j) j^n, an independent route
        for n in range(21):
            total = Fraction(0)
            for k in range(n + 1):
                inner = sum((-1) ** j * math.comb(k, j) * j ** n
                            for j in range(k + 1))
                total += Fraction(inner, k + 1)
            assert total == bernoulli_number(n)

    def test_matches_fraction_recurrence(self):
        # the tangent-number route gives the same Fractions, B_1 = -1/2
        reference = bernoulli_numbers_by_recurrence(300)
        assert [bernoulli_number(n) for n in range(301)] == reference

    def test_thread_safety_of_cache(self):
        import pcores.arith as arith
        with arith._bernoulli_lock:
            del arith._bernoulli_cache[2:]
            arith._tangents.clear()
        results = {}

        def worker(tag):
            results[tag] = [bernoulli_number(n) for n in range(60)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = [bernoulli_number(n) for n in range(60)]
        assert all(results[i] == reference for i in results)


class TestBernoulliPolynomials:
    def test_examples(self):
        assert bernoulli_poly(1, Fraction(1, 3)) == Fraction(-1, 6)
        assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)
        assert bernoulli_poly(3, Fraction(2, 7)) == Fraction(15, 343)
        assert bernoulli_poly(4, 0) == Fraction(-1, 30)

    @given(n=st.integers(0, 15), num=st.integers(-20, 20),
           den=st.integers(1, 12))
    def test_reflection_symmetry(self, n, num, den):
        x = Fraction(num, den)
        assert bernoulli_poly(n, 1 - x) == (-1) ** n * bernoulli_poly(n, x)

    @given(n=st.integers(1, 15), num=st.integers(-20, 20),
           den=st.integers(1, 12))
    def test_forward_difference(self, n, num, den):
        x = Fraction(num, den)
        assert bernoulli_poly(n, x + 1) - bernoulli_poly(n, x) \
            == n * x ** (n - 1)

    def test_rational_argument_denominator_structure(self):
        # k^n * (B_n(j/k) - B_n) is an integer -- the integrality the
        # divisibility scan leans on
        for n in range(1, 21):
            for k in range(1, 31):
                for j in range(k):
                    value = k ** n * (bernoulli_poly(n, Fraction(j, k))
                                      - bernoulli_number(n))
                    assert value.denominator == 1


class TestDivisors:
    # the divisors of n as the products of the prime powers factor(n) gives

    def test_examples(self):
        assert factor(1) == []
        assert factor(12) == [(2, 2), (3, 1)]
        assert factor(49) == [(7, 2)]
        assert factor(1012) == [(2, 2), (11, 1), (23, 1)]
        assert _divisors_from(factor(1012)) == [1, 2, 4, 11, 22, 23, 44, 46,
                                                92, 253, 506, 1012]

    @given(n=st.integers(1, 5000))
    def test_sorted_and_complete(self, n):
        assert _divisors_from(factor(n)) == divisors(n)
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


class TestIsPrime:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_larger(self):
        assert is_prime(2 ** 31 - 1)
        assert not is_prime(2 ** 31)
        assert not is_prime(341)  # Fermat pseudoprime base 2

    def test_psi_12_is_composite(self):
        # a strong pseudoprime to each of the bases 2..37
        assert not is_prime(PSI_12)
        assert is_prime(798330580441)

    def test_unproven_range_raises(self):
        assert not is_prime(PSI_13 - 1)
        with pytest.raises(ValueError, match="proven only below"):
            is_prime(PSI_13)
