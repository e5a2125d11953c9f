"""Finite Fourier transforms on k points and closed-form transform checks.

The transform convention is fhat(mu) = sum_j f(j/k) e^(-2*pi*i*j*mu/k).
Three families of grid functions have known closed-form transforms —
Bernoulli polynomial samples (cotangent derivatives), the Legendre symbol
(Gauss sums), and Hurwitz zeta samples (the periodic zeta) — and each
checker compares the direct transform against its closed form at working
precision.  Parseval's formula and the double-transform reflection
identity hold for arbitrary grids.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath.libmp import (fnone, fone, from_man_exp, fzero, mpc_mul,
                          mpc_mul_mpf, mpf_pos, mpf_sum, round_nearest,
                          to_float)

from .arith import bernoulli_number, bernoulli_poly, is_prime, legendre_symbol
from .precision import DEFAULT_PRECISION, PrecisionConfig, to_mpf
from .special import cot_derivative, hurwitz_zeta, periodic_zeta


@dataclass(frozen=True)
class GridFunction:
    """Samples f(j/k) for j = 0..k-1."""

    k: int
    samples: tuple

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.samples) != self.k:
            raise ValueError("need exactly k samples")


def grid_function(k: int, values) -> GridFunction:
    return GridFunction(k=k, samples=tuple(values))


@functools.lru_cache(maxsize=None)
def _roots(ctx, k: int) -> tuple:
    # raw mpc tuples of e^(-2*pi*i*m/k) for m = 0..k-1, from exact rational
    # phases; keyed on the context, so each precision gets its own table
    return tuple(ctx.expjpi(to_mpf(ctx, Fraction(-2 * m, k)))._mpc_
                 for m in range(k))


@functools.lru_cache(maxsize=None)
def _root_ints(ctx, k: int) -> tuple:
    # the _roots table as exact integers times 2^exp, exp the least exponent
    # in the table: (exp, real parts, imaginary parts)
    parts = [part for root in _roots(ctx, k) for part in root]
    exp = min(e for _, man, e, _ in parts if man)
    ints = [(-man if sign else man) << (e - exp) if man else 0
            for sign, man, e, _ in parts]
    return exp, ints[0::2], ints[1::2]


def dft(g: GridFunction, config: PrecisionConfig = DEFAULT_PRECISION) -> GridFunction:
    """Direct O(k^2) transform; k stays small and precision is the point.

    The k roots of unity are computed once per (precision, k) and cached.
    Each output is the exact sum of the products samples[j] *
    roots[j*mu % k], rounded once, computed on mpmath's raw tuples: each
    product rounded once (mpc_mul for complex samples, mpc_mul_mpf for
    real ones) and formed once per distinct (j, j*mu % k), the real and
    imaginary parts summed exactly (mpf_sum without a precision drops a
    term only a million bits down) and then rounded once.  Every rounding
    is at the working precision, GUARD_DIGITS beyond the target.

    Real samples of 0 and +-1 multiply nothing: a product with 0 adds
    nothing to the sum, and one with +-1 is the root itself, exactly.  The
    +-1 samples' roots, cached once more as integers on the table's least
    exponent, add up to one exact term per part beside the rounded
    products.

    ctx.fsum of the products agrees wherever it drops no term.  It drops
    one lying more than twice the precision below the last bit of its sum
    so far, which no grid the table checks comes near; at 20 digits the
    grid (1, 1e-200, -1) gives 1e-200 at mu = 0 here, where fsum drops the
    1e-200 against the 1 and returns 0.
    """
    ctx = config.context()
    prec, k = ctx.prec, g.k
    roots = _roots(ctx, k)
    general, plus, minus = [], [], []
    for j, v in enumerate(map(ctx.convert, g.samples)):
        if hasattr(v, "_mpc_"):
            general.append((j, v._mpc_, True))
        elif v._mpf_ == fone:
            plus.append(j)
        elif v._mpf_ == fnone:
            minus.append(j)
        elif v._mpf_ != fzero:
            general.append((j, v._mpf_, False))
    if plus or minus:
        exp, real_ints, imag_ints = _root_ints(ctx, k)
    # j*mu % k runs over the multiples of gcd(j, k): one product for each
    products = []
    for j, v, is_complex in general:
        step = math.gcd(j, k)
        products.append((j, step, [
            mpc_mul(v, roots[m], prec, round_nearest) if is_complex
            else mpc_mul_mpf(roots[m], v, prec, round_nearest)
            for m in range(0, k, step)]))
    out = []
    for mu in range(k):
        real, imag = [], []
        if plus or minus:
            up = [j * mu % k for j in plus]
            down = [j * mu % k for j in minus]
            for ints, part in ((real_ints, real), (imag_ints, imag)):
                part.append(from_man_exp(sum(ints[m] for m in up)
                                         - sum(ints[m] for m in down), exp))
        for j, step, row in products:
            re, im = row[j * mu % k // step]
            real.append(re)
            imag.append(im)
        out.append(ctx.make_mpc((mpf_pos(mpf_sum(real), prec, round_nearest),
                                 mpf_pos(mpf_sum(imag), prec, round_nearest))))
    return GridFunction(k=k, samples=tuple(out))


def inner_product(f: GridFunction, g: GridFunction,
                  config: PrecisionConfig = DEFAULT_PRECISION):
    """Sesquilinear <f,g> = sum_j f(j/k) * conj(g(j/k))."""
    if f.k != g.k:
        raise ValueError("grids must share the same k")
    ctx = config.context()
    return ctx.fsum(ctx.convert(a) * ctx.conj(ctx.convert(b))
                    for a, b in zip(f.samples, g.samples))


@dataclass
class DftReport:
    """Outcome of one closed-form transform comparison."""

    name: str
    k: int
    parameters: dict
    max_deviation: float
    tolerance: float
    passed: bool


def _max_abs(values) -> float:
    """max(float(abs(v))) over mpc values v, with a working-precision abs
    only where the maximum can be.

    hypot of the parts cut to doubles is within a few units in the last
    place of float(abs(v)), so no entry whose estimate falls below the
    largest by a relative 1e-9 can hold the maximum; the 1e-300 keeps that
    true where doubles lose relative precision.
    """
    values = list(values)
    estimates = [math.hypot(to_float(re), to_float(im))
                 for re, im in (v._mpc_ for v in values)]
    cut = max(estimates) * (1 - 1e-9) - 1e-300
    return max(float(abs(v)) for v, estimate in zip(values, estimates)
               if not estimate < cut)


def _row(name: str, k: int, parameters: dict, samples, expected,
         config: PrecisionConfig) -> DftReport:
    """Transform the grid of samples and compare it, index by index, with
    the closed-form values."""
    transform = dft(grid_function(k, samples), config).samples
    worst = _max_abs(t - e for t, e in zip(transform, expected))
    tol = 10.0 ** -(config.decimal_digits - 15)
    return DftReport(name=name, k=k, parameters=parameters,
                     max_deviation=worst, tolerance=tol, passed=worst <= tol)


def check_bernoulli_row(k: int, r: int,
                        config: PrecisionConfig = DEFAULT_PRECISION) -> DftReport:
    """Transform of B_r(j/k) against k*r*(i/2k)^r * cot^(r-1)(pi*mu/k).

    At mu = 0 the transform is k^(1-r)*B_r.  At r = 1 the closed form
    needs an extra constant -1/2 at every nonzero mu, which the row adds:
    B_1 jumps at the integers, and the grid samples B_1(0) = -1/2 where
    the Fourier series takes the midpoint 0.
    """
    if k < 2 or r < 1:
        raise ValueError("need k >= 2 and r >= 1")
    ctx = config.context()
    samples = (to_mpf(ctx, bernoulli_poly(r, Fraction(j, k))) for j in range(k))
    i_pow = ctx.mpc((1, 1j, -1, -1j)[r % 4])
    scale = ctx.mpf(k) * r / (2 * k) ** r
    closed = [i_pow * (scale * cot_derivative(r - 1, Fraction(mu, k), config))
              for mu in range(1, k)]
    head = ctx.mpc(to_mpf(ctx, bernoulli_number(r) * Fraction(1, k ** (r - 1))))
    if r == 1:
        closed = [e - ctx.mpf(1) / 2 for e in closed]
    return _row("bernoulli", k, {"r": r}, samples, [head] + closed, config)


def check_legendre_row(p: int,
                       config: PrecisionConfig = DEFAULT_PRECISION) -> DftReport:
    """Transform of the Legendre symbol against its Gauss-sum closed form
    (-i)^(((p-1)/2)^2) * sqrt(p) * (mu|p)."""
    ctx = config.context()
    gauss = ctx.mpc((1, -1j, -1, 1j)[((p - 1) // 2) ** 2 % 4]) * ctx.sqrt(p)
    symbols = [legendre_symbol(j, p) for j in range(p)]
    return _row("legendre", p, {}, symbols,
                [gauss * symbol for symbol in symbols], config)


def check_zeta_row(k: int, s: int,
                   config: PrecisionConfig = DEFAULT_PRECISION) -> DftReport:
    """Transform of zeta(s, j/k) samples against k^s * l(s, 1 - mu/k).

    The j = 0 slot samples a = 1 (the argument domain is (0,1]); on the
    closed-form side 1 - 0 is likewise read as 1.  hurwitz_zeta and
    periodic_zeta cache their values, so each distinct zeta(s, a) and
    l(s, x) is evaluated once per process, and rows share them.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    scale = config.context().mpf(k) ** s
    return _row(
        "zeta", k, {"s": s},
        (hurwitz_zeta(s, Fraction(j, k) if j else 1, config)
         for j in range(k)),
        (scale * periodic_zeta(s, Fraction(k - mu, k), config)
         for mu in range(k)),
        config)


@dataclass
class TableReport:
    """Aggregate of all table rows plus the Parseval / reflection checks."""

    rows: list = field(default_factory=list)
    parseval_max: float = 0.0
    involution_max: float = 0.0
    grid_tolerance: float = 0.0
    grids: int = 0
    passed: bool = False

    @property
    def max_row_deviation(self) -> float:
        return max((row.max_deviation for row in self.rows), default=0.0)

    @property
    def failed_rows(self) -> list:
        return [row for row in self.rows if not row.passed]


# Seed of the random grids, so every table run checks the same grids.
_GRID_SEED = 0


def _random_grid(ctx, rng: random.Random, k: int) -> GridFunction:
    return grid_function(
        k, (ctx.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(k)))


def verify_transform_table(kmax: int = 13, rmax: int = 6, smax: int = 6,
                           pmax: int = 97, grids: int = 100, grid_kmax: int = 64,
                           config: PrecisionConfig = DEFAULT_PRECISION) -> TableReport:
    """Run every closed-form row in range plus Parseval on pseudo-random
    grids drawn from the fixed seed _GRID_SEED and the double-transform
    reflection identity.

    Each distinct zeta(s, a) and l(s, x) is evaluated once per process, and
    the reflection check reuses the transforms Parseval already took.
    grid_kmax must be >= 2: a one-point transform is the identity, so the
    grid checks would compare each value with itself.
    """
    for name, value, least in (
            ("kmax", kmax, 2), ("rmax", rmax, 1), ("smax", smax, 2),
            ("pmax", pmax, 3), ("grids", grids, 2),
            ("grid_kmax", grid_kmax, 2)):
        if value < least:  # the family would check nothing
            raise ValueError(f"{name} must be >= {least}")
    report = TableReport(grid_tolerance=10.0 ** -(config.decimal_digits - 10))
    for k in range(2, kmax + 1):
        for r in range(1, rmax + 1):
            report.rows.append(check_bernoulli_row(k, r, config))
        for s in range(2, smax + 1):
            report.rows.append(check_zeta_row(k, s, config))
    for p in range(3, pmax + 1):
        if is_prime(p):
            report.rows.append(check_legendre_row(p, config))
    ctx = config.context()
    rng = random.Random(_GRID_SEED)
    pool = [_random_grid(ctx, rng, rng.randint(1, grid_kmax))
            for _ in range(grids)]
    report.grids = len(pool)
    hats = {}  # pool index -> transform, reused by the reflection check
    for i in range(0, len(pool) - 1, 2):
        f, g = pool[i], pool[i + 1]
        hats[i] = dft(f, config)
        if f.k == g.k:
            hats[i + 1] = g_hat = dft(g, config)
        else:
            g = _random_grid(ctx, rng, f.k)
            g_hat = dft(g, config)
        lhs = inner_product(hats[i], g_hat, config)
        rhs = f.k * inner_product(f, g, config)
        report.parseval_max = max(report.parseval_max, float(abs(lhs - rhs)))
    for i, f in enumerate(pool[:10]):
        double = dft(hats[i] if i in hats else dft(f, config), config)
        dev = _max_abs(double.samples[j] - f.k * ctx.convert(f.samples[-j % f.k])
                       for j in range(f.k))
        report.involution_max = max(report.involution_max, dev)
    report.passed = (not report.failed_rows
                     and report.parseval_max <= report.grid_tolerance
                     and report.involution_max <= report.grid_tolerance)
    return report
