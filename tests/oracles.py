"""Reference expansions for the tests: truncated integer power series with
their algebra, Euler's product and the partition generating function, two
counts of p-cores that share nothing with the series engine (hook lengths
and lattice points), the partition product evaluated numerically, and
exact rational evaluations of the formulas and transforms that the library
sums in fixed point.

The library returns plain coefficient tuples; these oracles share no code
with it, so products formed here check its coefficients independently.
The exact evaluations bound or pin the library's one final rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import from_man_exp


@dataclass(frozen=True)
class PowerSeries:
    """Power series truncated at x^N, exact integer coefficients.

    Arithmetic between two series truncates to the smaller order.
    """

    coefficients: tuple[int, ...]

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> int:
        return self.coefficients[n]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.truncation_order, other.truncation_order)
        return PowerSeries(tuple(self.coefficients[i] + other.coefficients[i]
                                 for i in range(n + 1)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.truncation_order, other.truncation_order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coefficients[:n + 1]):
            if a:
                for j, b in enumerate(other.coefficients[:n + 1 - i]):
                    if b:
                        out[i + j] += a * b
        return PowerSeries(tuple(out))

    def __pow__(self, e: int) -> "PowerSeries":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        result = PowerSeries((1,) + (0,) * self.truncation_order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def dilate(self, m: int, order: int) -> "PowerSeries":
        """f(x^m) truncated at x^order; needs order // m <= truncation_order."""
        return PowerSeries(tuple(self.coefficients[i // m] if i % m == 0 else 0
                                 for i in range(order + 1)))

    def evaluate(self, x):
        """Exact value of the truncated polynomial at x (Fraction-friendly)."""
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def pentagonal(nmax: int):
    """(exponent, sign) of each nonzero term of prod_{j>=1} (1 - x^j) up to
    x^nmax, in increasing exponent: 0 with sign 1, then k(3k-1)/2 and
    k(3k+1)/2 with sign (-1)^k for k = 1, 2, ... (Euler's pentagonal
    number theorem)."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    yield 0, 1
    k = 1
    while k * (3 * k - 1) // 2 <= nmax:
        sign = -1 if k % 2 else 1
        yield k * (3 * k - 1) // 2, sign
        if k * (3 * k + 1) // 2 <= nmax:
            yield k * (3 * k + 1) // 2, sign
        k += 1


def euler_series(nmax: int) -> PowerSeries:
    """Product of (1 - x^j), j >= 1, truncated at x^nmax."""
    c = [0] * (nmax + 1)
    for g, sign in pentagonal(nmax):
        c[g] = sign
    return PowerSeries(tuple(c))


def partition_series(nmax: int) -> PowerSeries:
    """Partition counts p(0..nmax) by Euler's pentagonal recurrence: the
    product with euler_series is 1, so p(n) = -sum_{g>0} sign_g p(n-g)."""
    terms = list(pentagonal(nmax))[1:]
    p = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        p[n] = -sum(sign * p[n - g] for g, sign in terms if g <= n)
    return PowerSeries(tuple(p))


def partitions(n: int, _cap: int | None = None):
    """Yield all partitions of n as descending tuples."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    cap = n if _cap is None else min(_cap, n)
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _has_hook_multiple(shape: tuple[int, ...], p: int) -> bool:
    if not shape:
        return False
    conjugate = [0] * shape[0]
    for row in shape:
        for j in range(row):
            conjugate[j] += 1
    for i, row in enumerate(shape):
        for j in range(row):
            hook = (row - j) + (conjugate[j] - i) - 1
            if hook % p == 0:
                return True
    return False


def pcore_count_bruteforce(p: int, n: int) -> int:
    """Count partitions of n with no hook divisible by p, by enumeration."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if not 0 <= n <= 30:
        raise ValueError("enumeration guard: 0 <= n <= 30")
    return sum(1 for shape in partitions(n)
               if not _has_hook_multiple(shape, p))


def core_counts_by_lattice(t: int, nmax: int) -> list[int]:
    """Counts of t-cores of 0..nmax as lattice points.

    The t-cores of n correspond one to one with the v in Z^t with
    sum v_i = 0 and n = (t/2)|v|^2 + sum_i i*v_i, i = 0..t-1
    (Garvan, Kim and Stanton, Cranks and t-cores, Invent. Math. 101, 1990).
    In w_i = t*v_i + i that reads |w|^2 = 2tn + sum_i i^2 with
    sum w_i = t(t-1)/2, so every point with n <= nmax lies in a ball.  The
    enumeration fixes w_0, w_1, ... in turn and keeps a prefix only while
    the m coordinates left, which must sum to some S, can do so inside the
    ball: their squares add up to at least S^2/m.  The last coordinate is
    what the sum leaves.
    """
    if t < 2 or nmax < 0:
        raise ValueError("need t >= 2 and nmax >= 0")
    base = sum(i * i for i in range(t))
    budget = 2 * t * nmax + base
    counts = [0] * (nmax + 1)

    def extend(i, owed, room):
        # w_0..w_{i-1} fixed: the rest must sum to owed, their squares to
        # at most room
        if i == t - 1:
            counts[(budget - room + owed * owed - base) // (2 * t)] += 1
            return
        left = t - 1 - i  # coordinates after w_i
        reach = math.isqrt(room)
        for v in range(-((reach + i) // t), (reach - i) // t + 1):
            w = t * v + i
            if left * (room - w * w) >= (owed - w) ** 2:
                extend(i + 1, owed - w, room - w * w)

    extend(0, t * (t - 1) // 2, budget)
    return counts


def partition_product(ctx, x, factors: int):
    """prod_{n=1..factors} 1/(1 - x^n), the partial product of the
    partition generating function F, as mpmath operators."""
    z, one = ctx.convert(x), ctx.mpf(1)
    value, zn = ctx.mpc(1), ctx.mpc(1)
    for _ in range(factors):
        zn *= z
        value /= one - zn
    return +value


def bernoulli_numbers_by_recurrence(nmax: int) -> list[Fraction]:
    """B_0..B_nmax (B_1 = -1/2) from sum_{j<=m} C(m+1, j) B_j = 0, summed
    in Fractions."""
    numbers = [Fraction(1)]
    for m in range(1, nmax + 1):
        numbers.append(-sum(math.comb(m + 1, j) * b
                            for j, b in enumerate(numbers)) / (m + 1))
    return numbers


def hurwitz_zeta_formula(s: int, a, bits: int) -> Fraction:
    """The truncated formula for zeta(s, a) as an exact rational: the head
    sum_{n<M} (n + a)^(-s) over M = max(2s, bits // 4) terms, then the
    Euler-Maclaurin tail
        x^(1-s)/(s-1) + x^(-s)/2
          + sum_j B_{2j}/(2j)! * s(s+1)...(s+2j-2) * x^(-s-2j+1)
    at x = M + a, up to and including the first correction below
    2^-(bits+2), each B_{2j} from mpmath's bernfrac."""
    a = Fraction(a)
    M = max(2 * s, bits // 4)
    x = M + a
    total = sum(1 / (n + a) ** s for n in range(M))
    total += 1 / ((s - 1) * x ** (s - 1)) + 1 / (2 * x ** s)
    eps = Fraction(1, 2 ** (bits + 2))
    rising = s
    j = 1
    while True:
        p, q = mpmath.bernfrac(2 * j)
        term = Fraction(p * rising, q * math.factorial(2 * j)) \
            / x ** (s + 2 * j - 1)
        total += term
        if abs(term) < eps:
            return total
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        j += 1


def fixed_mpc(ctx, value):
    """The library's Fixed (re, im, bits), the complex number (re + i*im) *
    2^-bits, as the mpc of ctx that it is, exactly, whatever ctx's
    precision."""
    re, im, bits = value
    return ctx.make_mpc((from_man_exp(re, -bits), from_man_exp(im, -bits)))


def cot_derivative_horner(ctx, coefficients, r: int, q: Fraction):
    """cot^(r)(pi*q) = (-1)^r f_r(cot(pi*q)) as an mpf of ctx, for f_r's
    ascending integer coefficients: mpmath's cot at ctx's precision, then
    f_r by Horner's rule in ctx's arithmetic."""
    t = ctx.cot(ctx.pi * q.numerator / q.denominator)
    value = 0
    for coefficient in reversed(coefficients):
        value = value * t + coefficient
    return value if r % 2 == 0 else -value


def dft_exact(samples, roots, bits: int) -> list:
    """fhat(mu) = sum_j f_j e^(-2*pi*i*j*mu/k) as (re, im) integers times
    2^-bits, for roots = (real parts, imaginary parts) of e^(-2*pi*i*m/k)
    as integers times 2^-bits: each sample's exact value (an int, Fraction,
    complex, mpmath mpf or mpc, or the library's Fixed, a tuple) rounded to
    the nearest multiple of 2^-bits, and each part of each output the exact
    sum of the products, rounded once."""
    k, (cos, sin) = len(samples), roots
    values = []
    for v in samples:
        if isinstance(v, complex):
            parts = (Fraction(v.real), Fraction(v.imag))
        elif hasattr(v, "_mpf_"):
            parts = (exact(v), Fraction(0))
        elif isinstance(v, tuple):
            parts = (Fraction(v[0], 2 ** v[2]), Fraction(v[1], 2 ** v[2]))
        elif hasattr(v, "_mpc_"):
            parts = (exact(v.real), exact(v.imag))
        else:
            parts = (Fraction(v), Fraction(0))
        values.append([round(part * 2 ** bits) for part in parts])
    out = []
    for mu in range(k):
        index = [j * mu % k for j in range(k)]
        re = sum(x * cos[m] - y * sin[m] for (x, y), m in zip(values, index))
        im = sum(x * sin[m] + y * cos[m] for (x, y), m in zip(values, index))
        out.append((round(Fraction(re, 2 ** bits)),
                    round(Fraction(im, 2 ** bits))))
    return out


def exact(value) -> Fraction:
    """An mpf as the exact rational it holds."""
    sign, man, exp, _ = value._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def max_deviation(transform, expected) -> float:
    """max(float(abs(t - e))) over paired mpmath values."""
    return max(float(abs(t - e)) for t, e in zip(transform, expected))
