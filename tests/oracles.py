"""Reference expansions for the tests: truncated integer power series with
their algebra, Euler's product and the partition generating function, and
the mpmath-number expressions that the library's raw-tuple loops replace.

The library returns plain coefficient tuples; these oracles share no code
with it, so products formed here check its coefficients independently.
The mpmath expressions round exactly where the raw-tuple code does, so the
library must match them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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


def hurwitz_head(ctx, s, a, terms: int):
    """sum_{n<terms} (n + a)^(-s) as fsum of mpf powers, each n + a one
    correctly rounded quotient; s is an int or a Fraction."""
    s, a = Fraction(s), Fraction(a)
    exponent = -ctx.fdiv(s.numerator, s.denominator)
    return ctx.fsum(ctx.fdiv(n * a.denominator + a.numerator, a.denominator)
                    ** exponent for n in range(terms))


def dft_by_fsum(ctx, samples) -> list:
    """fhat(mu) = sum_j f_j e^(-2*pi*i*j*mu/k) as ctx.fsum of mpmath
    products, the roots from correctly rounded rational phases."""
    k = len(samples)
    roots = [ctx.expjpi(ctx.fdiv(-2 * m, k)) for m in range(k)]
    values = [ctx.convert(v) for v in samples]
    return [ctx.fsum(values[j] * roots[j * mu % k] for j in range(k))
            for mu in range(k)]
