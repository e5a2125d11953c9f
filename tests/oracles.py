"""Reference expansions for the tests: truncated integer power series with
their algebra, Euler's product and the partition generating function, two
counts of p-cores that share nothing with the series engine (hook lengths
and lattice points), the partition product evaluated numerically, the
mpmath-number expressions that the library's raw-tuple loops replace, and
exact rational evaluations of the formulas that the library sums in fixed
point.

The library returns plain coefficient tuples; these oracles share no code
with it, so products formed here check its coefficients independently.
The mpmath expressions round exactly where the raw-tuple code does, so the
library must match them bit for bit; the exact evaluations bound or pin
the library's one final rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath


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


def hurwitz_zeta_formula(s: int, a, digits: int) -> Fraction:
    """The truncated formula for zeta(s, a) as an exact rational: the head
    sum_{n<M} (n + a)^(-s) over M = max(2s, digits) terms, then the
    Euler-Maclaurin tail
        x^(1-s)/(s-1) + x^(-s)/2
          + sum_j B_{2j}/(2j)! * s(s+1)...(s+2j-2) * x^(-s-2j+1)
    at x = M + a, up to and including the first correction below
    10^-(digits+5), each B_{2j} from mpmath's bernfrac."""
    a = Fraction(a)
    M = max(2 * s, digits)
    x = M + a
    total = sum(1 / (n + a) ** s for n in range(M))
    total += 1 / ((s - 1) * x ** (s - 1)) + 1 / (2 * x ** s)
    eps = Fraction(1, 10 ** (digits + 5))
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


def dft_exact(ctx, samples) -> list:
    """fhat(mu) = sum_j f_j e^(-2*pi*i*j*mu/k) with each part the exact
    rational sum of the products, rounded once to the precision of ctx.
    The samples are ctx.convert's values, and the roots are ctx.expjpi of
    the correctly rounded phases -2m/k for m <= k/2 and the conjugates of
    those for the rest."""
    k = len(samples)
    half = [ctx.expjpi(ctx.fdiv(-2 * m, k)) for m in range(k // 2 + 1)]
    roots = half + [ctx.conj(r) for r in half[(k - 1) // 2:0:-1]]
    roots = [(exact(r.real), exact(r.imag)) for r in roots]
    values = [ctx.mpc(ctx.convert(v)) for v in samples]
    values = [(exact(v.real), exact(v.imag)) for v in values]
    out = []
    for mu in range(k):
        terms = [(v, roots[j * mu % k]) for j, v in enumerate(values)]
        re = (sum(x * c for (x, _), (c, _) in terms if x)
              - sum(y * s for (_, y), (_, s) in terms if y))
        im = (sum(x * s for (x, _), (_, s) in terms if x)
              + sum(y * c for (_, y), (c, _) in terms if y))
        re, im = Fraction(re), Fraction(im)
        out.append(ctx.mpc(ctx.fdiv(re.numerator, re.denominator),
                           ctx.fdiv(im.numerator, im.denominator)))
    return out


def exact(value) -> Fraction:
    """An mpf as the exact rational it holds."""
    sign, man, exp, _ = value._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def log_series_by_mpf(ctx, high, s: int) -> tuple:
    """The coefficients (E, O) of the log series of l(s, x) as mpf
    expressions at the precision of high: c_m = zeta(s - m)/m! with the
    sign (-1)^(m//2), E from even m and O from odd m, zero at m = s - 1, up
    to the first nonzero c_m with m >= s and |c_m| * pi^m < eps/8 of ctx,
    trailing zeros dropped."""
    cut = ctx.eps / 8
    parts = ([], [])
    m, pi_m = 0, high.one
    while True:
        c = high.zeta(s - m) / math.factorial(m) if m != s - 1 else high.zero
        if m >= s and c and abs(c) * pi_m < cut:
            break
        parts[m % 2].append(-c if m % 4 >= 2 else c)
        m, pi_m = m + 1, pi_m * high.pi
    for part in parts:
        while not part[-1]:
            part.pop()
    return tuple(parts[0]), tuple(parts[1])


def horner(coeffs, u):
    """coeffs[0] + coeffs[1]*u + coeffs[2]*u^2 + ... as acc * u + c on
    mpf values."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def periodic_zeta_by_mpf(ctx, high, series, s: int, x):
    """l(s, x) for x in (0, 1/2] from the log series (E, O, H_{s-1}) as mpf
    expressions at the precision of high,
        E(t^2) + i*t*O(t^2) + (i*t)^(s-1)/(s-1)! * (H_{s-1} - log t + i*pi/2)
    at t = 2*pi*x, E and O by horner, rounded once to ctx.  The series is
    passed in, so this checks its evaluation; log_series_by_mpf checks the
    coefficients."""
    even, odd, harmonic = series
    x = Fraction(x)
    t = 2 * high.pi * high.fdiv(x.numerator, x.denominator)
    u = t * t
    scale = t ** (s - 1) / math.factorial(s - 1)
    re, im = scale * (harmonic - high.ln(t)), scale * high.pi / 2
    for _ in range((s - 1) % 4):  # times i^(s-1)
        re, im = -im, re
    return ctx.mpc(horner(even, u) + re, t * horner(odd, u) + im)


def max_deviation(transform, expected) -> float:
    """max(float(abs(t - e))) over paired mpmath values."""
    return max(float(abs(t - e)) for t, e in zip(transform, expected))
