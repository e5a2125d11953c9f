"""Circle-method asymptotics for p-core counts and identity verification.

Contents: the Dedekind-sum exponential sums over reduced residues, the
twisted Ramanujan sum shared by the singular series and the Dirichlet
series check, two asymptotic estimates (truncated singular series and
exact divisor sum over the leading constant), the leading constant by six
independent formulas, character sums of Bernoulli and cotangent type,
class numbers three ways, and machine checks of the identities tying all
of these together.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from mpmath.libmp import from_man_exp, round_nearest

from .arith import (bernoulli_poly, dedekind_sum, divisors, is_prime,
                    legendre_symbol, ramanujan_sum, sawtooth)
from .precision import (DEFAULT_PRECISION, PrecisionConfig,
                        VerificationError, to_mpf)
from .series import eta_quotient_value, pcore_count
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
    # 6k * (p*s(p*h mod k, k) - s(h,k)); 6k * s(., k) is an integer
    twisted = dedekind_sum(p * h % k, k)
    plain = dedekind_sum(h, k)
    return (p * twisted.numerator * (6 * k // twisted.denominator)
            - plain.numerator * (6 * k // plain.denominator))


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
    for l in filter(is_prime, divisors(N)):
        q = l
        while N % (q * l) == 0:
            q *= l
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
    estimate: object
    kmax: int | None = None
    exact: int | None = None
    relative_error: float | None = None
    divisor_sum: int | None = None
    constant: int | None = None


def _with_exact(report: ApproxReport, config: PrecisionConfig) -> ApproxReport:
    if report.n > _EXACT_CUTOFF:
        return report
    exact = pcore_count(report.p, report.n)
    relative_error = None
    if exact:
        gap = abs(config.context().convert(report.estimate) - exact)
        relative_error = float(gap / exact)
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
    S = sum_k (k|p) * c_k(N) / k^h.  S is one fixed-point integer sum,
    within 2^-(prec+4) of S for the working precision of prec bits; R is
    rounded once and multiplied by pi^h / sqrt(p).  So the estimate is
    within a relative (h+6) * 2^-prec of the truncated series: h for pi's
    rounding raised to the h-th power, one each for the five other
    roundings, and one for the cut of S, since S > 1/16 (S > 1/2 for
    h >= 3, as |c_k| < k; for p = 5 the least S found, at kmax <= 1000
    and 3300 values of N, is 0.247).
    """
    _require_p(p)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    ctx = config.context()
    h = (p - 1) // 2
    shifted = n + _shift(p)
    bits = ctx.prec + kmax.bit_length() + 4
    total = _twisted_ramanujan_sum(p, shifted, h, kmax, bits)
    rational = ctx.fdiv(total * 2 ** h * shifted ** (h - 1),
                        math.factorial(h - 1) * p ** h << bits)
    estimate = rational * ctx.pi ** h / ctx.sqrt(p)
    report = ApproxReport(p=p, n=n, method="singular", estimate=estimate,
                          kmax=kmax)
    return _with_exact(report, config) if with_exact else report


def approx_divisor_sum(p: int, n: int,
                       config: PrecisionConfig = DEFAULT_PRECISION,
                       with_exact: bool = True) -> ApproxReport:
    """Closed-form estimate: the exact character-twisted divisor sum

        D = sum over d | (n + (p^2-1)/24) of (d|p) * ((n+(p^2-1)/24)/d)^((p-3)/2)

    divided by the integer leading constant, taken from its exact
    Bernoulli formula (variant iv) alone; leading_constant_report
    reconciles all six formulas."""
    _require_p(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    shifted = n + _shift(p)
    e = (p - 3) // 2
    total = 0
    for d in divisors(shifted):
        total += legendre_symbol(d, p) * (shifted // d) ** e
    constant = _certified_constant(p, leading_constant(p, "iv"))
    ctx = config.context()
    estimate = to_mpf(ctx, Fraction(total, constant))
    report = ApproxReport(p=p, n=n, method="divisor", estimate=estimate,
                          divisor_sum=total, constant=constant)
    return _with_exact(report, config) if with_exact else report


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

    Variants v and vi exist only for p = 3 mod 4.  Numeric variants return
    working-precision values, exact ones return Fractions; signs are the
    formulas' own and are reconciled by leading_constant_report.
    """
    _require_p(p)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    half = (p - 1) // 2
    r = half - 1  # = (p-3)/2
    ctx = config.context()
    if variant == "i":
        total = ctx.fsum(legendre_symbol(j, p)
                         * hurwitz_zeta(half, Fraction(j, p), config)
                         for j in range(1, p))
        return ctx.sqrt(p) * ctx.factorial(r) / (2 * ctx.pi) ** half * total
    if variant == "ii":
        total = sum(legendre_symbol(j, p) * hurwitz_zeta_neg(r, Fraction(j, p))
                    for j in range(1, p))
        return Fraction(legendre_symbol(-2, p), 2) * p ** half * total
    if variant == "iii":
        total = ctx.fsum(legendre_symbol(j, p)
                         * cot_derivative(r, Fraction(j, p), config)
                         for j in range(1, p))
        return -legendre_symbol(-1, p) * ctx.sqrt(p) * total / 2 ** (r + 2)
    if variant == "iv":
        return -legendre_symbol(-2, p) * (-1) ** ((r - 1) // 2) \
            * bernoulli_char_sum(r, p)
    if p % 4 != 3:
        raise ValueError("variants v and vi require p = 3 mod 4")
    if variant == "v":
        return ctx.sqrt(p) / 2 ** (r + 1) * ctx.fsum(
            cot_derivative(r, Fraction(j * j % p, p), config)
            for j in range(1, (p - 1) // 2 + 1))
    return _quadratic_bernoulli_side(r, p)


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
    # Both sides of each float division are scaled by one power of two, an
    # exact step that keeps constants above 10^308 in float range.
    scale = 2 ** max(0, magnitude.bit_length() - 1000)
    residuals = {}
    signs = {}
    for name, value in values.items():
        signs[name] = 1 if value > 0 else -1
        residuals[name] = float(abs(abs(value) - magnitude) / scale) \
            / (magnitude / scale)
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

    name: str
    parameters: dict
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
    return ConjectureReport(
        name="ramanujan-identity",
        parameters={"p": p, "kmax": kmax, "nmax": nmax},
        checked=checked, counterexamples=counterexamples)


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
    return ConjectureReport(
        name="dedekind-parity", parameters={"p": p, "kmax": kmax},
        checked=checked, counterexamples=counterexamples)


class DirichletSeriesReport(NamedTuple):
    """Partial Dirichlet series against its closed form, with a tail bound."""

    p: int
    s: int
    n: int
    kmax: int
    partial_sum: object
    closed_form: object
    deviation: float
    tail_bound: float
    tolerance: float

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
    2^-(prec+4) of the partial sum; it is rounded once to prec bits."""
    _require_p(p)
    if s < 2:
        raise ValueError("s must be >= 2 for absolute convergence headroom")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    ctx = config.context()
    W = ctx.prec + kmax.bit_length() + 4
    total = _twisted_ramanujan_sum(p, n, 1 + s, kmax, W)
    partial = ctx.make_mpf(from_man_exp(total, -W, ctx.prec, round_nearest))
    dsum = ctx.fsum(legendre_symbol(d, p) * ctx.mpf(d) ** (-s)
                    for d in divisors(n))
    denom = ctx.fsum(legendre_symbol(j, p)
                     * hurwitz_zeta(1 + s, Fraction(j, p), config)
                     for j in range(1, p))
    closed = ctx.mpf(p) ** (1 + s) * dsum / denom
    sigma = sum(divisors(n))
    tail = sigma * float(kmax) ** (-s) / s
    deviation = float(abs(partial - closed))
    return DirichletSeriesReport(
        p=p, s=s, n=n, kmax=kmax, partial_sum=partial, closed_form=closed,
        deviation=deviation, tail_bound=tail, tolerance=tail + 1e-20)


class TransformReport(NamedTuple):
    """Both sides of the transformation and how close they came."""

    lhs: object
    rhs: object
    relative_deviation: float
    alt_exponent_deviation: float
    truncation_bound: float
    exponent: int
    tolerance: float

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

    The left side samples the p-core product f at e^(2*pi*i*h/k - t); the
    right side pairs the reciprocal-argument product H at
    e^(2*pi*i*B/k - 4*pi^2/(k^2*p*t)) with the closed-form prefactor, where
    B*p*h = -1 mod k.  Each product keeps its first ``factors`` factors.

    The power of t in the prefactor is -(p-1)/2; the report also carries
    the deviation under the opposite-sign reading so the resolution of
    that ambiguity stays on the record.
    """
    _require_p(p, k)
    if not 0 <= h < k:
        raise ValueError("need 0 <= h < k")
    if gcd(h, k) != 1:
        raise ValueError("need gcd(h,k) = 1")
    if not t > 0:
        raise ValueError("t must be positive")
    if factors < 1:
        raise ValueError("factors must be >= 1")
    ctx = config.context()
    t = ctx.mpf(t)
    half = (p - 1) // 2

    x = ctx.expjpi(to_mpf(ctx, Fraction(2 * h, k))) * ctx.exp(-t)
    lhs_value = eta_quotient_value(p, x, factors, "f", config)

    b = 0 if k == 1 else (-pow(p * h % k, -1, k)) % k
    y = ctx.expjpi(to_mpf(ctx, Fraction(2 * b, k))) \
        * ctx.exp(-4 * ctx.pi ** 2 / (k * k * p * t))
    rhs_value = eta_quotient_value(p, y, factors, "H", config)

    prefactor = (2 * ctx.pi / k) ** half \
        * ctx.power(p, -to_mpf(ctx, Fraction(p, 2))) * legendre_symbol(k, p)
    prefactor *= t ** (-half)
    phase = ctx.exp((p * p - 1) * t / 24) \
        * ctx.expjpi(-to_mpf(ctx, Fraction((p * p - 1) * h, 12 * k) % 2))
    rhs = prefactor * phase * rhs_value.value
    lhs = lhs_value.value

    scale = float(abs(lhs))
    deviation = float(abs(lhs - rhs)) / scale
    alt = rhs * t ** (p - 1)  # the opposite exponent reading, t^(+(p-1)/2)
    alt_deviation = float(abs(lhs - alt)) / scale
    trunc = lhs_value.truncation_bound + rhs_value.truncation_bound
    return TransformReport(lhs=lhs, rhs=rhs, relative_deviation=deviation,
                           alt_exponent_deviation=alt_deviation,
                           truncation_bound=trunc, exponent=-half,
                           tolerance=_TRANSFORM_TOLERANCE)


class TrigIdentityReport(NamedTuple):
    """Cotangent side vs Bernoulli side of the quadratic-argument identity."""

    r: int
    p: int
    lhs: Fraction
    rhs: Fraction
    magnitude_match: bool
    relative_sign: int

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
    magnitude_match = rhs.denominator == 1 and abs(lhs) == abs(rhs)
    lhs_sign = 1 if lhs > 0 else (-1 if lhs < 0 else 0)
    rhs_sign = 1 if rhs > 0 else (-1 if rhs < 0 else 0)
    return TrigIdentityReport(r=r, p=p, lhs=lhs, rhs=rhs,
                              magnitude_match=magnitude_match,
                              relative_sign=lhs_sign * rhs_sign)


class DivisibilityRow(NamedTuple):
    r: int
    value: Fraction
    is_integer: bool
    is_zero: bool
    exempt: bool
    coprime: bool
    divisible: bool | None


class DivisibilityReport(NamedTuple):
    """Integrality and divisibility pattern of the Bernoulli character sums.

    Expected pattern: on nonzero integer entries with gcd(p, r+1) = 1 the
    value is divisible by p except on the residue class
    r = (p-3)/2 mod (p-1); the first non-integer value appears at
    r = p(p-1)/2 - 1.
    """

    p: int
    rmax: int
    rows: list
    first_non_integer: int | None
    expected_first_non_integer: int
    divisibility_holds: bool
    first_failure_holds: bool | None
    passed: bool


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
        is_integer = value.denominator == 1
        row = DivisibilityRow(
            r=r, value=value, is_integer=is_integer, is_zero=value == 0,
            exempt=r % (p - 1) == exempt_residue,
            coprime=gcd(p, r + 1) == 1,
            divisible=value.numerator % p == 0 if is_integer else None)
        rows.append(row)
        if not is_integer and first_non_integer is None:
            first_non_integer = r
        if (is_integer and not row.is_zero and row.coprime and not row.exempt
                and not row.divisible):
            divisibility_holds = False
    first_failure_holds = (first_non_integer == expected
                           if rmax >= expected else None)
    return DivisibilityReport(
        p=p, rmax=rmax, rows=rows, first_non_integer=first_non_integer,
        expected_first_non_integer=expected,
        divisibility_holds=divisibility_holds,
        first_failure_holds=first_failure_holds,
        passed=divisibility_holds and first_failure_holds is not False)
