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
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from mpmath.libmp import (from_man_exp, fzero, mpc_abs, mpc_sub, mpf_neg,
                          round_nearest, to_float)

from .arith import bernoulli_number, bernoulli_poly, is_prime, legendre_symbol
from .precision import DEFAULT_PRECISION, PrecisionConfig, to_mpf
from .special import cot_derivative, hurwitz_zeta, periodic_zeta


class GridFunction(NamedTuple):
    """Samples f(j/k) for j = 0..k-1."""

    k: int
    samples: tuple


def grid_function(k: int, values) -> GridFunction:
    samples = tuple(values)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(samples) != k:
        raise ValueError("need exactly k samples")
    return GridFunction(k=k, samples=samples)


def _parts(value) -> tuple:
    """The raw mpf tuples (real, imaginary) of an mpf or mpc value."""
    return value._mpc_ if hasattr(value, "_mpc_") else (value._mpf_, fzero)


def _integers(parts) -> tuple:
    """Raw mpf tuples as exact integers times 2^exp, exp the least exponent
    among the nonzero ones: (exp, integers).  Non-finite values raise
    ValueError."""
    parts = list(parts)
    if any(not part[1] and part != fzero for part in parts):
        raise ValueError("samples must be finite")
    exp = min((e for _, man, e, _ in parts if man), default=0)
    return exp, [(-man if sign else man) << (e - exp) if man else 0
                 for sign, man, e, _ in parts]


@functools.lru_cache(maxsize=None)
def _roots(ctx, k: int) -> tuple:
    """e^(-2*pi*i*m/k) for m = 0..k-1 as exact integers times 2^exp:
    (exp, real parts, imaginary parts).  The roots for m <= k/2 come from
    exact rational phases at the precision of ctx, and the rest are their
    conjugates, so the table is exactly conjugate-symmetric."""
    exp, ints = _integers(
        part for m in range(k // 2 + 1)
        for part in ctx.expjpi(to_mpf(ctx, Fraction(-2 * m, k)))._mpc_)
    real, imag = ints[0::2], ints[1::2]
    mirror = slice((k - 1) // 2, 0, -1)  # m = k - 1 .. k/2 + 1 from k - m
    return (exp, tuple(real + real[mirror]),
            tuple(imag + [-v for v in imag[mirror]]))


def dft(g: GridFunction, config: PrecisionConfig = DEFAULT_PRECISION) -> GridFunction:
    """Direct O(k^2) transform; k stays small and precision is the point.

    The samples, as ctx.convert gives them at the working precision
    (GUARD_DIGITS beyond the target), and the roots of unity, cached per
    (precision, k) by _roots, are exact integers on common exponents.  Each
    output part is the exact integer sum of samples[j] * roots[j*mu % k],
    rounded once.  Each root, from its phase rounded to prec bits, is
    within 3 * 2^-prec of e^(-2*pi*i*m/k), so an output is within
    3 * 2^-prec * sum_j |samples[j]| of the exact transform of the samples
    before that one rounding.  For real samples the outputs at mu > k/2 are
    filled in as the conjugates of those at k - mu, which the
    conjugate-symmetric roots make bit-identical.  A non-finite sample
    raises ValueError.
    """
    ctx = config.context()
    prec, k = ctx.prec, g.k
    exp, ints = _integers(part for v in g.samples
                          for part in _parts(ctx.convert(v)))
    real, imag = ints[0::2], ints[1::2]
    root_exp, cos, sin = _roots(ctx, k)
    exp += root_exp
    is_real = not any(imag)
    out = []
    for mu in range(k // 2 + 1 if is_real else k):
        index = [j * mu % k for j in range(k)]
        c, s = [cos[m] for m in index], [sin[m] for m in index]
        re, im = sum(map(mul, real, c)), sum(map(mul, real, s))
        if not is_real:
            re -= sum(map(mul, imag, s))
            im += sum(map(mul, imag, c))
        out.append((from_man_exp(re, exp, prec, round_nearest),
                    from_man_exp(im, exp, prec, round_nearest)))
    if is_real:
        out += [(re, mpf_neg(im)) for re, im in out[(k - 1) // 2:0:-1]]
    return GridFunction(k=k, samples=tuple(map(ctx.make_mpc, out)))


def inner_product(f: GridFunction, g: GridFunction,
                  config: PrecisionConfig = DEFAULT_PRECISION):
    """Sesquilinear <f,g> = sum_j f(j/k) * conj(g(j/k))."""
    if f.k != g.k:
        raise ValueError("grids must share the same k")
    ctx = config.context()
    return ctx.fsum(ctx.convert(a) * ctx.conj(ctx.convert(b))
                    for a, b in zip(f.samples, g.samples))


class DftReport(NamedTuple):
    """Outcome of one closed-form transform comparison."""

    name: str
    k: int
    parameters: dict
    max_deviation: float
    tolerance: float
    passed: bool


def _max_abs(ctx, values) -> float:
    """max(float(abs(v))) over raw mpc tuples v, with a working-precision
    abs only where the maximum can be.

    hypot of the parts cut to doubles is within a few units in the last
    place of float(abs(v)), so no entry whose estimate falls below the
    largest by a relative 1e-9 can hold the maximum; the 1e-300 keeps that
    true where doubles lose relative precision.
    """
    values = list(values)
    estimates = [math.hypot(to_float(re), to_float(im)) for re, im in values]
    cut = max(estimates) * (1 - 1e-9) - 1e-300
    return max(to_float(mpc_abs(v, ctx.prec, round_nearest), rnd=round_nearest)
               for v, estimate in zip(values, estimates)
               if not estimate < cut)


def _row(name: str, k: int, parameters: dict, samples, expected,
         config: PrecisionConfig) -> DftReport:
    """Transform the grid of samples and compare it, index by index, with
    the closed-form values; each difference is rounded once at the working
    precision, as the mpmath subtraction rounds it."""
    ctx = config.context()
    transform = dft(grid_function(k, samples), config).samples
    worst = _max_abs(ctx, (mpc_sub(t._mpc_, _parts(e), ctx.prec, round_nearest)
                           for t, e in zip(transform, expected)))
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


class TableReport(NamedTuple):
    """Aggregate of all table rows plus the Parseval / reflection checks."""

    rows: list
    failed_rows: list
    max_row_deviation: float
    parseval_max: float
    involution_max: float
    grid_tolerance: float
    grids: int
    passed: bool


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
    tolerance = 10.0 ** -(config.decimal_digits - 10)
    rows = []
    for k in range(2, kmax + 1):
        for r in range(1, rmax + 1):
            rows.append(check_bernoulli_row(k, r, config))
        for s in range(2, smax + 1):
            rows.append(check_zeta_row(k, s, config))
    for p in range(3, pmax + 1):
        if is_prime(p):
            rows.append(check_legendre_row(p, config))
    ctx = config.context()
    rng = random.Random(_GRID_SEED)
    pool = [_random_grid(ctx, rng, rng.randint(1, grid_kmax))
            for _ in range(grids)]
    parseval_max = involution_max = 0.0
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
        parseval_max = max(parseval_max, float(abs(lhs - rhs)))
    for i, f in enumerate(pool[:10]):
        double = dft(hats[i] if i in hats else dft(f, config), config)
        dev = _max_abs(ctx, (
            (double.samples[j] - f.k * ctx.convert(f.samples[-j % f.k]))._mpc_
            for j in range(f.k)))
        involution_max = max(involution_max, dev)
    failed = [row for row in rows if not row.passed]
    return TableReport(
        rows=rows, failed_rows=failed,
        max_row_deviation=max(row.max_deviation for row in rows),
        parseval_max=parseval_max, involution_max=involution_max,
        grid_tolerance=tolerance, grids=len(pool),
        passed=(not failed and parseval_max <= tolerance
                and involution_max <= tolerance))
