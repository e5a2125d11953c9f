"""Circle-method asymptotics for p-core counts and identity verification.

Contents: the Dedekind-sum exponential sums over reduced residues, the
twisted Ramanujan sum shared by the singular series and the Dirichlet
series check, two asymptotic estimates (truncated singular series and
exact divisor sum over the leading constant), the leading constant by six
independent formulas, the twisted Hurwitz-zeta sum shared by the leading
constant and the Dirichlet series check, character sums of Bernoulli and
cotangent type, class numbers three ways, the eta products behind the
modular-transformation check, and machine checks of the identities tying
all of these together.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .arith import (bernoulli_poly, dedekind_sum, factor, is_prime,
                    legendre_symbol, ramanujan_sum, sawtooth)
from .precision import (DEFAULT_PRECISION, GUARD_BITS, Fixed, PrecisionConfig,
                        Real, VerificationError, exp_fixed, pi_fixed,
                        roots_fixed, round_binary, sqrt_fixed, sqrt_float)
from .series import pcore_count
from .special import (cot_derivative, cot_polynomial, hurwitz_zeta,
                      hurwitz_zeta_neg)

# Exact count attached to approximation reports only below this n.
_EXACT_CUTOFF = 20000


def _require_p(p: int, k: int = 1) -> None:
    # p a prime >= 5 and, where given, k a denominator prime to p
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % p == 0:
        raise ValueError("denominators divisible by p are excluded")


def _shift(p: int) -> int:
    # (p^2 - 1)/24 is an integer for every prime p >= 5
    return (p * p - 1) // 24


def _phase_6k(p: int, h: int, k: int) -> int:
    # 6k * (p*s(p*h mod k, k) - s(h,k)), from the even integers 12k * s(., k)
    return (p * dedekind_sum(p * h % k, k) - dedekind_sum(h, k)) // 2


def _exact_int(value: Fraction, what: str) -> int:
    # the certificate that an exact rational result is an integer
    if value.denominator != 1:
        raise VerificationError(f"{what} is not an integer: {value}")
    return int(value)


def _cyclotomic_integer(c: list) -> int | None:
    """sum_j c[j] * zeta^j, zeta = e^(2*pi*i/N), N = len(c), if it is an
    integer, else None; c is reduced in place.  Z[zeta] is the tensor
    product of Z[zeta_q] over the prime powers q = l^a exactly dividing N
    (Washington, ch. 4), zeta^j the product of zeta_q^(j mod q).  For each
    prime l the terms zeta^(j + i*N/l), i < l, sum to 0, and a step of N/l
    moves only the q-coordinate, by a nonzero multiple of q/l; so a term in
    the top block q - q/l <= j mod q < q moves onto the l - 1 others of its
    coset, below it, in O(N) per prime.  What is left is in the product
    of the power bases, where an integer has only the coordinate of 1.
    """
    N = len(c)
    for l, a in factor(N):
        q = l ** a
        for j in range(N):
            if c[j] and j % q >= q - q // l:
                for i in range(1, l):
                    c[(j - i * N // l) % N] -= c[j]
                c[j] = 0
    return None if any(c[1:]) else c[0]


def exp_sum(p: int, k: int, n: int) -> int:
    """Exponential sum over reduced residues h mod k with Dedekind-sum phases.

    Each phase is the exact rational
        theta_h = (s(h,k) - p*s(p*h mod k, k))/2 - h*n/k,
    an integer j_h over N = 12k, so the sum is the cyclotomic integer
    sum_j c_j zeta^j for zeta = e^(2*pi*i/N) and c_j the number of h with
    j_h = j mod N; a sum that is not an integer raises VerificationError.
    Denominators divisible by p are rejected.
    """
    _require_p(p, k)
    N = 12 * k
    c = [0] * N
    for h in range(k):
        if gcd(h, k) == 1:
            c[(-_phase_6k(p, h, k) - 12 * h * n) % N] += 1
    value = _cyclotomic_integer(c)
    if value is None:
        raise VerificationError(
            f"exponential sum (k={k}, n={n}) is not an integer")
    return value


def _twisted_ramanujan_sum(p: int, n: int, s: int, kmax: int,
                           bits: int) -> int:
    # 2^bits * sum over k <= kmax, p∤k, of (k|p) * c_k(n) / k^s, each
    # exact term cut once to an integer, so within kmax of the exact sum
    total = 0
    for k in range(1, kmax + 1):
        if k % p:
            c = ramanujan_sum(k, n)
            if c:
                total += (legendre_symbol(k, p) * c << bits) // k ** s
    return total


class ApproxReport(NamedTuple):
    """An asymptotic estimate next to the exact count, when available."""

    p: int
    n: int
    method: str
    estimate: Real
    kmax: int | None = None
    exact: int | None = None
    relative_error: float | None = None
    divisor_sum: int | None = None
    constant: int | None = None


def _with_exact(report: ApproxReport) -> ApproxReport:
    if report.n > _EXACT_CUTOFF:
        return report
    exact = pcore_count(report.p, report.n)
    relative_error = None
    if exact:
        relative_error = float(abs(report.estimate - exact) / exact)
    return report._replace(exact=exact, relative_error=relative_error)


def approx_singular_series(p: int, n: int, kmax: int,
                           config: PrecisionConfig = DEFAULT_PRECISION,
                           with_exact: bool = True) -> ApproxReport:
    """Truncated singular series: the sum over k <= kmax, p∤k, of

        (2*pi/k)^h * p^(-p/2) * A_k * N^(h-1) / (h-1)!,

    h = (p-1)/2 and N = n + (p^2-1)/24, where the exponential sum
    A_k = exp_sum(p, k, n) is taken from its closed form, the twisted
    Ramanujan sum (k|p) * c_k(N) (Anderson, 2008).  That is R * pi^h /
    sqrt(p) for the rational R = S * 2^h * N^(h-1) / ((h-1)! * p^h),
    S = sum_k (k|p) * c_k(N) / k^h.  For the working precision of prec
    bits, S is one fixed-point integer sum within 2^-(prec+5) of S, and so
    within a relative 2^-(prec+1), since S > 1/16 (S > 1/2 for h >= 3, as
    |c_k| < k; for p = 5 the least S found, at kmax <= 1000 and 3300
    values of N, is 0.247).  pi^h / sqrt(p) is taken in fixed point with F
    = prec + bit_length(h+1) + 2 fraction bits: pi within two units
    (relative 2^-F) raised to the h-th power, one truncated shift,
    sqrt(p) rounded by sqrt_fixed and one truncated quotient put it
    within a relative (2h+2) * 2^-F <= 2^-(prec+1).  The product is
    rounded once to prec bits, so the estimate is within a relative
    2^-prec of that fixed-point value, which is within a relative 2^-prec
    of the truncated series.
    """
    _require_p(p)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    prec = config.working_bits
    h = (p - 1) // 2
    shifted = n + _shift(p)
    bits = prec + kmax.bit_length() + 5
    total = _twisted_ramanujan_sum(p, shifted, h, kmax, bits)
    F = prec + (h + 1).bit_length() + 2
    # pi^h / sqrt(p) * 2^F
    power = (pi_fixed(F) ** h >> (h - 2) * F) // sqrt_fixed(p, F)
    estimate = round_binary(
        Fraction(total * 2 ** h * shifted ** (h - 1) * power,
                 math.factorial(h - 1) * p ** h << bits + F), prec)
    report = ApproxReport(p=p, n=n, method="singular", estimate=estimate,
                          kmax=kmax)
    return _with_exact(report) if with_exact else report


def _twisted_divisor_sum(p: int, N: int, e: int) -> int:
    # sum over d | N of (d|p) * (N/d)^e, the Dirichlet convolution of two
    # completely multiplicative functions: the product over the prime
    # powers l^a exactly dividing N of sum_i (l|p)^i * l^(e(a-i))
    total = 1
    for l, a in factor(N):
        chi = legendre_symbol(l, p)
        total *= sum(chi ** i * l ** (e * (a - i)) for i in range(a + 1))
    return total


def approx_divisor_sum(p: int, n: int,
                       config: PrecisionConfig = DEFAULT_PRECISION,
                       with_exact: bool = True) -> ApproxReport:
    """Closed-form estimate: the exact character-twisted divisor sum

        D = sum over d | (n + (p^2-1)/24) of (d|p) * ((n+(p^2-1)/24)/d)^((p-3)/2)

    (a product of local factors over the factorization of its argument)
    divided by the integer leading constant, taken from its exact
    Bernoulli formula (variant iv) alone; leading_constant_report
    reconciles all six formulas.  The estimate is D/C rounded once to the
    working precision."""
    _require_p(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    total = _twisted_divisor_sum(p, n + _shift(p), (p - 3) // 2)
    constant = _certified_constant(p, leading_constant(p, "iv"))
    estimate = round_binary(Fraction(total, constant), config.working_bits)
    report = ApproxReport(p=p, n=n, method="divisor", estimate=estimate,
                          divisor_sum=total, constant=constant)
    return _with_exact(report) if with_exact else report


# ---------------------------------------------------------------------------
# the leading constant, six ways

VARIANTS = ("i", "ii", "iii", "iv", "v", "vi")


def leading_constant(p: int, variant: str,
                     config: PrecisionConfig = DEFAULT_PRECISION):
    """One formula for the leading constant of the divisor-sum estimate.

    i    sqrt(p) * ((p-3)/2)! * (2*pi)^(-(p-1)/2) * sum_j (j|p) zeta((p-1)/2, j/p)
    ii   (1/2) * (-2|p) * p^((p-1)/2) * sum_j (j|p) zeta(-(p-3)/2, j/p)   [exact]
    iii  -(-1|p) * sqrt(p) * 2^(-(p+1)/2) * sum_j (j|p) cot^((p-3)/2)(pi*j/p)
    iv   -(-2|p) * p^((p-1)/2)/(p-1) * sum_j (j|p) B_((p-1)/2)(j/p)       [exact]
    v    sqrt(p) * 2^(-(p-1)/2) * half-range sum of cot^((p-3)/2) at j^2/p
    vi   Bernoulli half-range companion of v                               [exact]

    Variants v and vi exist only for p = 3 mod 4.  Exact variants return
    Fractions; numeric ones return a Real, exact rational arithmetic on
    integers with F = prec + GUARD_BITS fraction bits for the working
    precision prec, rounded once: sqrt(p) and pi within two units, each
    cotangent derivative within (r+2) * (p/pi)^(r+1) units, and each zeta
    value of the Hurwitz sum within one unit, so each value is within a
    relative 2^-prec of its formula.  Signs are the formulas' own and are
    reconciled by leading_constant_report.
    """
    _require_p(p)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    half = (p - 1) // 2
    r = half - 1  # = (p-3)/2
    prec = config.working_bits
    F = prec + GUARD_BITS
    if variant == "i":
        # (2*pi)^half * 2^F, from pi^half * 2^(half*F)
        power = pi_fixed(F) ** half >> (half - 1) * F << half
        total = _twisted_hurwitz_sum(p, half, F)
        return round_binary(
            total * sqrt_fixed(p, F) * math.factorial(r) / power, prec)
    if variant == "ii":
        total = sum(legendre_symbol(j, p) * hurwitz_zeta_neg(r, Fraction(j, p))
                    for j in range(1, p))
        return Fraction(legendre_symbol(-2, p), 2) * p ** half * total
    if variant == "iii":
        total = sum(legendre_symbol(j, p)
                    * cot_derivative(r, Fraction(j, p), F)
                    for j in range(1, p))
        return round_binary(Fraction(
            -legendre_symbol(-1, p) * sqrt_fixed(p, F) * total,
            2 ** (r + 2) << 2 * F), prec)
    if variant == "iv":
        return -legendre_symbol(-2, p) * (-1) ** ((r - 1) // 2) \
            * bernoulli_char_sum(r, p)
    if p % 4 != 3:
        raise ValueError("variants v and vi require p = 3 mod 4")
    if variant == "v":
        total = sum(cot_derivative(r, Fraction(j * j % p, p), F)
                    for j in range(1, half + 1))
        return round_binary(Fraction(sqrt_fixed(p, F) * total,
                                     2 ** (r + 1) << 2 * F), prec)
    return _quadratic_bernoulli_side(r, p)


def _twisted_hurwitz_sum(p: int, s: int, bits: int) -> Fraction:
    # sum_j (j|p) * zeta(s, j/p) over j = 1..p-1, each zeta within 2^-bits
    terms = (legendre_symbol(j, p) * hurwitz_zeta(s, Fraction(j, p), bits)
             for j in range(1, p))
    return Fraction(sum(terms), 1 << bits)


def _certified_constant(p: int, exact: Fraction) -> int:
    # the exact Bernoulli variant must give a positive integer
    constant = _exact_int(exact, f"exact leading constant for p={p}")
    if constant <= 0:
        raise VerificationError(
            f"leading constant for p={p} not positive: {constant}")
    return constant


class CpReport(NamedTuple):
    """All applicable leading-constant formulas reconciled to one integer."""

    p: int
    values: dict
    signs: dict
    residuals: dict
    consensus: int
    tolerance: float


def leading_constant_report(p: int,
                            config: PrecisionConfig = DEFAULT_PRECISION) -> CpReport:
    """Evaluate every applicable variant and reconcile.

    The exact Bernoulli variant, certified a positive integer as in
    approx_divisor_sum, is the consensus; the Hurwitz-zeta variant must be
    positive too, and every variant must agree in absolute value to
    relative error 10^-(decimal_digits/2).  Any failure raises
    VerificationError.
    """
    _require_p(p)
    names = ["i", "ii", "iii", "iv"] + (["v", "vi"] if p % 4 == 3 else [])
    values = {v: leading_constant(p, v, config) for v in names}
    magnitude = _certified_constant(p, values["iv"])
    if values["i"] <= 0:
        raise VerificationError(
            f"leading constant for p={p} not positive: {-magnitude}")
    tolerance = 10.0 ** -(config.decimal_digits // 2)
    residuals = {}
    signs = {}
    for name, value in values.items():
        signs[name] = 1 if value > 0 else -1
        residuals[name] = float(abs(abs(value) - magnitude) / magnitude)
        if residuals[name] > tolerance:
            raise VerificationError(
                f"variant {name} for p={p} off consensus {magnitude} by "
                f"relative {residuals[name]:.3e}")
    return CpReport(p=p, values=values, signs=signs, residuals=residuals,
                    consensus=magnitude, tolerance=tolerance)


# ---------------------------------------------------------------------------
# character sums and class numbers

def bernoulli_char_sum(r: int, p: int) -> Fraction:
    """Exact (-1)^floor((r-1)/2) * p^(r+1)/(2(r+1)) * sum_j (j|p) B_(r+1)(j/p)."""
    if r < 1:
        raise ValueError("r must be >= 1 (the sawtooth sum covers r = 0)")
    _require_p(p)
    total = sum(legendre_symbol(j, p) * bernoulli_poly(r + 1, Fraction(j, p))
                for j in range(1, p))
    return (-1) ** ((r - 1) // 2) * Fraction(p ** (r + 1), 2 * (r + 1)) * total


def _times_u(v: list, p: int) -> list:
    # v * u in Z[x]/(x^p - 1), u = (1 + x) * sum_m m x^m, in O(p): T = (sum_m
    # m x^m) * v has T_0 = sum_m m v_(-m), T_(n+1) = T_n + sum(v) - p*v_(n+1)
    total, T = sum(v), [sum(m * v[-m] for m in range(1, p))]
    for n in range(1, p):
        T.append(T[-1] + total - p * v[n])
    return [T[n] + T[n - 1] for n in range(p)]


def _cot_sum(r: int, p: int, residues: bool = False) -> Fraction:
    """sqrt(p) * sum of cot^(r)(pi*j/p), exactly: over j = 1..p-1 weighted
    by (j|p), or with residues=True over the quadratic residues j mod p.

    cot(pi*j/p) = i*sigma_j(w) for w = (zeta+1)/(zeta-1), zeta =
    e^(2*pi*i/p), and p*w is u = (1+x) * sum_m m x^m in Z[x]/(x^p - 1).
    With cot^(r) = (-1)^r f_r(cot) and f_r(i*t) = i^(r+1) h(t), the sum is
    (-1)^r i^(r+1) sqrt(p) sum_j sigma_j(P) / p^(r+1) for the integer
    element P = sum_m h_m u^m p^(r+1-m), h_m = (-1)^((r+1-m)/2) f_(r,m)
    (f_0(t) = t), taken by Horner's rule.  The Gauss sum g, sqrt(p)*g = p
    or i*p for p = 1 or 3 mod 4, folds the sums over j (Washington,
    Introduction to Cyclotomic Fields, ch. 4): sum_j (j|p) sigma_j(P) =
    g*dot and the sum of sigma_q(P) over residues q is (g*dot + rest)/2,
    with dot = sum_(e!=0) (e|p) P_e, rest = (p-1) P_0 - sum_(e!=0) P_e.
    The sums are real and rational, so dot must vanish when the power of
    i is odd, and rest always; otherwise VerificationError.
    """
    f = cot_polynomial(r) if r else (0, 1)
    P = [0] * p
    for m in range(r + 1, -1, -1):
        if m <= r:
            P = _times_u(P, p)
        P[0] += (-1) ** ((r + 1 - m) // 2) * f[m] * p ** (r + 1 - m)
    dot = sum(legendre_symbol(e, p) * P[e] for e in range(1, p))
    rest = p * P[0] - sum(P)
    power = r + 1 + (p % 4 == 3)
    if (residues and rest) or (power % 2 and dot):
        raise VerificationError(
            f"cotangent sum (r={r}, p={p}) is not rational")
    value = Fraction((-1) ** (r + power // 2) * dot, p ** r)
    return value / 2 if residues else value


def cotangent_char_sum(r: int, p: int) -> Fraction:
    """-(-1|p) * sqrt(p) * 2^-(r+2) * sum_j (j|p) cot^(r)(pi*j/p), exactly."""
    if r < 1:
        raise ValueError("r must be >= 1")
    _require_p(p)
    return -legendre_symbol(-1, p) * _cot_sum(r, p) / 2 ** (r + 2)


def _quadratic_bernoulli_side(r: int, p: int) -> Fraction:
    """-(-1)^floor((r+1)/2) * (-1|p) * p^(r+1)/(r+1)
    * sum_{j<=(p-1)/2} B_(r+1)((j^2 mod p)/p), the exact companion."""
    total = sum(bernoulli_poly(r + 1, Fraction(j * j % p, p))
                for j in range(1, (p - 1) // 2 + 1))
    sign = -((-1) ** ((r + 1) // 2)) * legendre_symbol(-1, p)
    return sign * Fraction(p ** (r + 1), r + 1) * total


def quadratic_sawtooth_sum(p: int) -> Fraction:
    """Exact sum of ((j^2/p)) over j = 1..p-1; an integer for p = 3 mod 4,
    zero by symmetry for p = 1 mod 4."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    return sum((sawtooth(Fraction(j * j, p)) for j in range(1, p)), Fraction(0))


CLASS_NUMBER_METHODS = ("dirichlet", "sawtooth", "cotangent")


def class_number(p: int, method: str = "all") -> int:
    """h(-p) for a prime p = 3 mod 4, p >= 7, by one of three routes:

    dirichlet   -(1/p) * sum_j j*(j|p)                       [exact]
    sawtooth    -sum_j ((j^2/p))                              [exact]
    cotangent   (1/sqrt(p)) * half-range sum of cot(pi*j^2/p) [exact]

    method="all" runs every route and requires agreement.
    """
    _require_p(p)
    if p % 4 != 3 or p < 7:
        raise ValueError("class_number requires a prime p = 3 mod 4, p >= 7")
    if method not in CLASS_NUMBER_METHODS + ("all",):
        raise ValueError(f"unknown method {method!r}")

    def by_dirichlet() -> int:
        total = sum(j * legendre_symbol(j, p) for j in range(1, p))
        return _exact_int(Fraction(-total, p),
                          f"weighted character sum / p for p={p}")

    def by_sawtooth() -> int:
        return _exact_int(-quadratic_sawtooth_sum(p), f"sawtooth sum for p={p}")

    def by_cotangent() -> int:
        return _exact_int(_cot_sum(0, p, residues=True) / p,
                          f"cotangent class number for p={p}")

    routes = {"dirichlet": by_dirichlet, "sawtooth": by_sawtooth,
              "cotangent": by_cotangent}
    if method != "all":
        return routes[method]()
    results = {name: fn() for name, fn in routes.items()}
    if len(set(results.values())) != 1:
        raise VerificationError(f"class-number methods disagree for p={p}: {results}")
    return results["dirichlet"]


# ---------------------------------------------------------------------------
# identity verification sweeps

class ConjectureReport(NamedTuple):
    """Result of an exhaustive parameter sweep of one identity."""

    checked: int
    counterexamples: list

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def verify_ramanujan_identity(p: int, kmax: int, nmax: int) -> ConjectureReport:
    """Check exp_sum(p,k,n) = (k|p) * c_k(n + (p^2-1)/24) over a full sweep."""
    _require_p(p)
    if kmax < 1 or nmax < 0:
        raise ValueError("need kmax >= 1 and nmax >= 0")
    shift = _shift(p)
    counterexamples = []
    checked = 0
    for k in range(1, kmax + 1):
        if k % p == 0:
            continue
        eps = legendre_symbol(k, p)
        for n in range(nmax + 1):
            value = exp_sum(p, k, n)
            expected = eps * ramanujan_sum(k, n + shift)
            checked += 1
            if value != expected:
                counterexamples.append(
                    {"k": k, "n": n, "sum": value, "expected": expected})
    return ConjectureReport(checked, counterexamples)


def verify_dedekind_parity(p: int, kmax: int) -> ConjectureReport:
    """Check, in exact arithmetic, that for every k coprime to p and every
    h coprime to k,

        p*s(p*h mod k, k) - s(h,k) - (p^2-1)*h/(12k)

    is an integer whose parity is even exactly when (k|p) = 1."""
    _require_p(p)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    counterexamples = []
    checked = 0
    for k in range(1, kmax + 1):
        if k % p == 0:
            continue
        even_expected = legendre_symbol(k, p) == 1
        for h in range(k):
            if gcd(h, k) != 1:
                continue
            delta_12k = 2 * _phase_6k(p, h, k) - (p * p - 1) * h
            delta, rest = divmod(delta_12k, 12 * k)
            checked += 1
            if rest:
                counterexamples.append({"k": k, "h": h, "reason": "non-integer",
                                        "delta": str(Fraction(delta_12k, 12 * k))})
            elif (delta % 2 == 0) != even_expected:
                counterexamples.append(
                    {"k": k, "h": h, "reason": "parity", "delta": delta})
    return ConjectureReport(checked, counterexamples)


class DirichletSeriesReport(NamedTuple):
    """Partial Dirichlet series against its closed form, with a tail bound."""

    partial_sum: Real
    closed_form: Real
    tail_bound: float
    tolerance: float
    deviation: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def verify_dirichlet_series(p: int, s: int, n: int, kmax: int,
                            config: PrecisionConfig = DEFAULT_PRECISION) -> DirichletSeriesReport:
    """Check sum_k (k|p) c_k(n) / k^(1+s) against

        p^(1+s) * sum_{d|n} (d|p) d^-s / sum_j (j|p) zeta(1+s, j/p)

    to within the rigorous tail bound sigma(n) * kmax^-s / s plus 10^-20.

    The partial sum is the singular series' twisted Ramanujan sum S (see
    approx_singular_series) at exponent 1+s: each exact rational term is
    cut once to an integer multiple of 2^-W, W = prec + bit_length(kmax)
    + 4 for the working precision prec, so the exact integer sum is within
    2^-(prec+4) of the partial sum; it is rounded once to prec bits.  The
    closed form, the exact divisor sum over _twisted_hurwitz_sum at
    prec + GUARD_BITS bits, as variant i takes it, is rounded once too."""
    _require_p(p)
    if s < 2:
        raise ValueError("s must be >= 2 for absolute convergence headroom")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    prec = config.working_bits
    W = prec + kmax.bit_length() + 4
    total = _twisted_ramanujan_sum(p, n, 1 + s, kmax, W)
    partial = round_binary(Fraction(total, 1 << W), prec)
    dsum = Fraction(_twisted_divisor_sum(p, n, s), n ** s)
    zeta_sum = _twisted_hurwitz_sum(p, 1 + s, prec + GUARD_BITS)
    closed = round_binary(p ** (1 + s) * dsum / zeta_sum, prec)
    sigma = math.prod((l ** (a + 1) - 1) // (l - 1) for l, a in factor(n))
    tail = sigma * float(kmax) ** (-s) / s
    deviation = float(abs(partial - closed))
    return DirichletSeriesReport(
        partial_sum=partial, closed_form=closed, tail_bound=tail,
        tolerance=tail + 1e-20, deviation=deviation)


def _mul(u: Fixed, v: Fixed, bits: int) -> Fixed:
    # u * v, low bits dropped to keep ``bits``: a relative 2^(1.5-bits)
    (a, b, s), (c, d, t) = u, v
    re, im = a * c - b * d, a * d + b * c
    drop = max(max(abs(re), abs(im)).bit_length() - bits, 0)
    return Fixed((re >> drop, im >> drop, s + t - drop))


def _quotient(w: Fixed, u: Fixed, n: int, v: Fixed, bits: int) -> Fixed:
    # w * u^n / v to ``bits`` significant bits: u^n by square-and-multiply,
    # then one division, w * u^n * conj(v) / |v|^2
    while n:
        w = _mul(w, u, bits) if n & 1 else w
        u, n = _mul(u, u, bits), n >> 1
    c, d, t = v
    re, im, s = _mul(w, Fixed((c, -d, t)), bits)
    norm = c * c + d * d
    shift = bits + norm.bit_length()
    return Fixed(((re << shift) // norm, (im << shift) // norm,
                  s - 2 * t + shift))


def _distance(u: Fixed, v: Fixed, c) -> float:
    # |u - c*v| for a dyadic rational c, a float rounded once
    (a, b, s), (e, f, t), (num, den) = u, v, c.as_integer_ratio()
    re, im = ((g * den << max(t - s, 0)) - (h * num << max(s - t, 0))
              for g, h in ((a, e), (b, f)))
    return sqrt_float(re * re + im * im, max(s, t) + den.bit_length() - 1)


def eta_products(p: int, x: Fixed, factors: int) -> tuple:
    """The partial products A = prod (1 - x^n) and B = prod (1 - x^(pn))
    over n = 1..factors at a point x inside the disk, in one pass, and a
    bound on the relative truncation error of both f = B^p/A (p-core
    counts) and H = A^p/B: expm1((p+1) * |x|^(factors+1) / (1-|x|)^2).
    Requires |x| <= 0.95.  x is a Fixed on W bits, the scale x^n and x^(pn)
    are floored to; A and B keep W significant bits, each within a relative
    6 * factors * 2^-W / (1-|x|)^3 of the exact products at x.
    """
    W = x[2]
    radius = _distance(x, x, 0)
    if radius > 0.95:
        raise ValueError("|x| <= 0.95 required for a useful truncation bound")

    def times(z, w):  # z * w floored to the scale W
        return z[0] * w[0] - z[1] * w[1] >> W, z[0] * w[1] + z[1] * w[0] >> W

    zn = zpn = zp = (1 << W, 0)
    for _ in range(p):
        zp = times(zp, x)
    a = b = Fixed((1, 0, 0))
    for _ in range(factors):
        zn, zpn = times(zn, x), times(zpn, zp)
        a = _mul(a, Fixed(((1 << W) - zn[0], -zn[1], W)), W)
        b = _mul(b, Fixed(((1 << W) - zpn[0], -zpn[1], W)), W)
    tail = (p + 1) * radius ** (factors + 1) / (1.0 - radius) ** 2
    bound = math.expm1(tail) if tail < 700 else math.inf
    return a, b, bound


class TransformReport(NamedTuple):
    """Both sides of the transformation and how close they came."""

    lhs: Fixed
    rhs: Fixed
    exponent: int
    truncation_bound: float
    alt_exponent_deviation: float
    tolerance: float
    relative_deviation: float

    @property
    def passed(self) -> bool:
        return (self.relative_deviation <= self.tolerance
                and self.truncation_bound <= self.tolerance)


# Bound on both the relative deviation and the truncation bound of a
# passing modular-transformation check.
_TRANSFORM_TOLERANCE = 1e-12


def verify_eta_transform(p: int, h: int, k: int, t: float, factors: int = 400,
                         config: PrecisionConfig = DEFAULT_PRECISION) -> TransformReport:
    """Evaluate both sides of the modular transformation numerically.

    The left side samples the p-core product f = B^p/A at
    x = e^(2*pi*i*h/k - t); the right side pairs the reciprocal-argument
    product H = A^p/B at y = e^(2*pi*i*b/k - 4*pi^2/(k^2*p*t)) with the
    closed-form prefactor, where b*p*h = -1 mod k.  A and B are the partial
    products of eta_products, each over its first ``factors`` factors.
    In integers on W = working_bits + GUARD_BITS bits, t read exactly, lhs
    and rhs are Fixed values within a relative (7 * p * factors + 4 * p^2)
    * 2^-W / (1-r)^3 of the exact truncated sides, r = |x| or |y|.

    The power of t in the prefactor is -(p-1)/2; the report also carries
    the deviation under the opposite-sign reading so the resolution of
    that ambiguity stays on the record.
    """
    _require_p(p, k)
    if not 0 <= h < k:
        raise ValueError("need 0 <= h < k")
    if gcd(h, k) != 1:
        raise ValueError("need gcd(h,k) = 1")
    if not (t > 0 and math.isfinite(t)):
        raise ValueError("t must be positive and finite")
    if factors < 1:
        raise ValueError("factors must be >= 1")
    W = config.working_bits + GUARD_BITS
    t, half, pi = Fraction(t), (p - 1) // 2, pi_fixed(W)
    b = 0 if k == 1 else (-pow(p * h % k, -1, k)) % k
    moduli = (exp_fixed(math.floor(-t * 2 ** W), W), exp_fixed(
        math.floor(Fraction(-4 * pi * pi, k * k * p << W) / t), W))
    eta_products(p, Fixed((max(moduli), 0, W)), 0)  # |x|, |y| checked first
    cos, sin = roots_fixed(W, k)
    x, y = (Fixed((cos[-m % k] * e >> W, sin[-m % k] * e >> W, W))
            for m, e in zip((h, b), moduli))

    prod_n, prod_pn, lhs_bound = eta_products(p, x, factors)
    lhs = _quotient(Fixed((1, 0, 0)), prod_pn, p, prod_n, W)
    prod_n, prod_pn, rhs_bound = eta_products(p, y, factors)

    # (2*pi/k)^half * p^(-p/2) * (k|p) * t^-half times the phase
    # e^((p^2-1)*t/24 - 2*pi*i*j/(24*k)), p^(-p/2) = p^-half / sqrt(p)
    cos, sin = roots_fixed(W, 24 * k)
    j = (p * p - 1) * h % (24 * k)
    ratio = Fraction(legendre_symbol(k, p) << half, (k * p) ** half) \
        / t ** half * exp_fixed(math.floor((p * p - 1) * t / 24 * 2 ** W), W)
    phase = Fixed((cos[j] * ratio.numerator, sin[j] * ratio.numerator, 2 * W))
    divisor = Fixed((ratio.denominator * sqrt_fixed(p, W), 0, W))
    prefactor = _quotient(phase, Fixed((pi, 0, W)), half, divisor, W)
    rhs = _quotient(prefactor, prod_n, p, prod_pn, W)

    size = _distance(lhs, rhs, 0)
    return TransformReport(
        lhs, rhs, exponent=-half, truncation_bound=lhs_bound + rhs_bound,
        alt_exponent_deviation=_distance(lhs, rhs, t ** (p - 1)) / size,
        tolerance=_TRANSFORM_TOLERANCE,
        relative_deviation=_distance(lhs, rhs, 1) / size)


class TrigIdentityReport(NamedTuple):
    """Cotangent side vs Bernoulli side of the quadratic-argument identity."""

    cotangent_side: Fraction
    bernoulli_side: Fraction
    relative_sign: int
    magnitude_match: bool

    @property
    def passed(self) -> bool:
        return self.magnitude_match


def verify_quadratic_trig_identity(r: int, p: int) -> TrigIdentityReport:
    """Compare sqrt(p) * 2^-(r+1) * sum_{j<=(p-1)/2} cot^(r)(pi*(j^2 mod p)/p)
    against the exact Bernoulli companion sum.

    Coherent domain: p = 3 mod 4, even r >= 2, gcd(p, r+1) = 1.  Both
    sides are exact; they are asserted to be integers equal in absolute
    value, and their empirical relative sign is recorded rather than
    assumed.
    """
    if r < 2 or r % 2:
        raise ValueError("r must be even and >= 2")
    _require_p(p)
    if p % 4 != 3:
        raise ValueError("the identity is coherent only for p = 3 mod 4")
    if gcd(p, r + 1) != 1:
        raise ValueError("need gcd(p, r+1) = 1")
    lhs = _cot_sum(r, p, residues=True) / 2 ** (r + 1)
    rhs = _quadratic_bernoulli_side(r, p)
    lhs_sign = 1 if lhs > 0 else (-1 if lhs < 0 else 0)
    rhs_sign = 1 if rhs > 0 else (-1 if rhs < 0 else 0)
    return TrigIdentityReport(
        cotangent_side=lhs, bernoulli_side=rhs,
        relative_sign=lhs_sign * rhs_sign,
        magnitude_match=rhs.denominator == 1 and abs(lhs) == abs(rhs))


class DivisibilityReport(NamedTuple):
    """Integrality and divisibility pattern of the Bernoulli character sums.

    Expected pattern: on nonzero integer entries with gcd(p, r+1) = 1 the
    value is divisible by p except on the residue class
    r = (p-3)/2 mod (p-1); the first non-integer value appears at
    r = p(p-1)/2 - 1.  Each row is a dict of r and its value's flags.
    """

    first_non_integer: int | None
    expected_first_non_integer: int
    divisibility_holds: bool
    first_failure_holds: bool | None
    rows: list

    @property
    def passed(self) -> bool:
        return (self.divisibility_holds
                and self.first_failure_holds is not False)


def divisibility_scan(p: int, rmax: int) -> DivisibilityReport:
    _require_p(p)
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    exempt_residue = ((p - 3) // 2) % (p - 1)
    expected = p * (p - 1) // 2 - 1
    rows = []
    first_non_integer = None
    divisibility_holds = True
    for r in range(1, rmax + 1):
        value = bernoulli_char_sum(r, p)
        integer = value.denominator == 1
        row = {"r": r, "integer": integer, "zero": value == 0,
               "exempt": r % (p - 1) == exempt_residue,
               "divisible": value.numerator % p == 0 if integer else None}
        rows.append(row)
        if not integer and first_non_integer is None:
            first_non_integer = r
        if (integer and not row["zero"] and gcd(p, r + 1) == 1
                and not row["exempt"] and not row["divisible"]):
            divisibility_holds = False
    first_failure_holds = (first_non_integer == expected
                           if rmax >= expected else None)
    return DivisibilityReport(first_non_integer, expected, divisibility_holds,
                              first_failure_holds, rows)
