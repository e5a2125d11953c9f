"""Finite Fourier transforms on k points and closed-form transform checks.

The transform convention is fhat(mu) = sum_j f(j/k) e^(-2*pi*i*j*mu/k).
Three families of grid functions have known closed-form transforms —
Bernoulli polynomial samples (cotangent derivatives), the Legendre symbol
(Gauss sums), and Hurwitz zeta samples (the periodic zeta) — and each
checker compares the direct transform against its closed form, all as
integers times 2^-bits for the working precision's bits, so no mpmath is
loaded.  Parseval's formula and the double-transform reflection identity
hold for arbitrary grids.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .arith import bernoulli_number, bernoulli_poly, is_prime, legendre_symbol
from .precision import (DEFAULT_PRECISION, GUARD_BITS, Fixed, PrecisionConfig,
                        roots_fixed, shift_round, sqrt_fixed)
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


def _fixed(value, bits: int) -> tuple:
    """(re, im) of value * 2^bits, each rounded to an integer: value an
    int, float, complex, Fraction, Fixed, or mpmath mpf or mpc, read from
    its raw tuples.  A non-finite value raises ValueError."""
    if type(value) is Fixed:
        re, im, scale = value
        return shift_round(re, scale - bits), shift_round(im, scale - bits)
    if isinstance(value, complex):
        return _fixed(value.real, bits)[0], _fixed(value.imag, bits)[0]
    if hasattr(value, "_mpc_") or hasattr(value, "_mpf_"):
        parts = getattr(value, "_mpc_", None) or (value._mpf_, (0, 0, 0, 0))
        if any(not man and exp for _, man, exp, _ in parts):
            raise ValueError("samples must be finite")
        return tuple(shift_round(-man if sign else man, -exp - bits)
                     for sign, man, exp, _ in parts)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("samples must be finite")
    num, den = value.as_integer_ratio()  # an int, float or Fraction
    return ((num << bits + 1) + den) // (2 * den), 0


def dft(g: GridFunction, config: PrecisionConfig = DEFAULT_PRECISION) -> GridFunction:
    """Direct O(k^2) transform; k stays small and precision is the point.

    Each output part is the exact sum of samples[j] * roots[j*mu % k], the
    samples as _fixed rounds them to the working precision's bits (ints as
    they are) and the roots of roots_fixed gathered by slicing, rounded
    once to a Fixed: within (1/2 + 2^-8) * 2^-bits * sum_j |samples[j]|,
    plus half a unit, of the exact transform of the rounded samples.  For
    real samples the outputs at mu > k/2 are the conjugates of those at
    k - mu.  A non-finite sample raises ValueError.
    """
    bits, k = config.working_bits, g.k
    shift = 0 if all(type(v) is int for v in g.samples) else bits
    real, imag = zip(*(_fixed(v, shift) for v in g.samples))
    cos, sin = roots_fixed(bits, k)
    is_real = not any(imag)
    out = []
    for mu in range(k // 2 + 1 if is_real else k):
        c, s = ((cos * mu)[::mu], (sin * mu)[::mu]) if mu else \
            (cos[:1] * k, sin[:1] * k)
        re, im = sum(map(mul, real, c)), sum(map(mul, real, s))
        if not is_real:
            re -= sum(map(mul, imag, s))
            im += sum(map(mul, imag, c))
        out.append(Fixed((shift_round(re, shift), shift_round(im, shift),
                          bits)))
    if is_real:
        out += [Fixed((re, -im, bits)) for re, im, _ in out[(k - 1) // 2:0:-1]]
    return GridFunction(k=k, samples=tuple(out))


def inner_product(f: GridFunction, g: GridFunction,
                  config: PrecisionConfig = DEFAULT_PRECISION) -> Fixed:
    """Sesquilinear <f,g> = sum_j f(j/k) * conj(g(j/k)), exact for the
    samples as _fixed rounds them: a Fixed on twice the working bits."""
    if f.k != g.k:
        raise ValueError("grids must share the same k")
    bits = config.working_bits
    pairs = [(_fixed(a, bits), _fixed(b, bits))
             for a, b in zip(f.samples, g.samples)]
    return Fixed((sum(x * u + y * v for (x, y), (u, v) in pairs),
                  sum(y * u - x * v for (x, y), (u, v) in pairs), 2 * bits))


class DftReport(NamedTuple):
    """Outcome of one closed-form transform comparison."""

    name: str
    k: int
    parameters: dict
    max_deviation: float
    tolerance: float
    passed: bool


def _max_deviation(pairs, bits: int) -> float:
    """The largest |re + i*im| * 2^-bits over integer pairs as a float,
    rounded once: isqrt of the exact norm, 64 bits finer with a sticky last
    bit, then one correctly rounded division."""
    norm = max(re * re + im * im for re, im in pairs) << 128
    root = math.isqrt(norm)
    return (root | (root * root != norm)) / (1 << bits + 64)


def _row(name: str, k: int, parameters: dict, samples, expected,
         config: PrecisionConfig) -> DftReport:
    """Compare the transform of the samples, index by index, with the
    closed-form values as _fixed rounds them."""
    bits = config.working_bits
    transform = dft(grid_function(k, samples), config).samples
    worst = _max_deviation(
        ((t_re - e_re, t_im - e_im) for (t_re, t_im, _), (e_re, e_im)
         in zip(transform, (_fixed(e, bits) for e in expected))), bits)
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
    bits = config.working_bits
    half = 1 << bits - 1 if r == 1 else 0
    den = k ** (r - 1) << r + GUARD_BITS  # k*r/(2k)^r = r/(2^r * k^(r-1))
    closed = [bernoulli_number(r) / k ** (r - 1)]
    for mu in range(1, k):
        cot = r * cot_derivative(r - 1, Fraction(mu, k), bits + GUARD_BITS)
        v = (2 * cot + den) // (2 * den)
        re, im = ((v, 0), (0, v), (-v, 0), (0, -v))[r % 4]  # times i^r
        closed.append(Fixed((re - half, im, bits)))
    return _row("bernoulli", k, {"r": r},
                [bernoulli_poly(r, Fraction(j, k)) for j in range(k)],
                closed, config)


def check_legendre_row(p: int,
                       config: PrecisionConfig = DEFAULT_PRECISION) -> DftReport:
    """Transform of the Legendre symbol against its Gauss-sum closed form
    (-i)^(((p-1)/2)^2) * sqrt(p) * (mu|p)."""
    bits = config.working_bits
    root = sqrt_fixed(p, bits)
    re, im = ((root, 0), (0, -root), (-root, 0), (0, root))[
        ((p - 1) // 2) ** 2 % 4]
    symbols = [legendre_symbol(j, p) for j in range(p)]
    return _row("legendre", p, {}, symbols,
                [Fixed((re * c, im * c, bits)) for c in symbols], config)


def check_zeta_row(k: int, s: int,
                   config: PrecisionConfig = DEFAULT_PRECISION) -> DftReport:
    """Transform of zeta(s, j/k) samples against k^s * l(s, 1 - mu/k).

    The j = 0 slot samples a = 1 (the argument domain is (0,1]); on the
    closed-form side 1 - 0 is likewise read as 1.  The Hurwitz sums and
    periodic_zeta cache their values, so each distinct zeta(s, a) and
    l(s, x) is evaluated once per process, and rows share them.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    bits, scale = config.working_bits, k ** s
    return _row(
        "zeta", k, {"s": s},
        (Fixed((hurwitz_zeta(s, Fraction(j, k) if j else 1, bits), 0, bits))
         for j in range(k)),
        (Fixed((scale * re, scale * im, bits)) for re, im, _ in
         (periodic_zeta(s, Fraction(k - mu, k), bits) for mu in range(k))),
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


def _random_grid(rng: random.Random, k: int) -> GridFunction:
    return grid_function(
        k, (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(k)))


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
    bits = config.working_bits
    rng = random.Random(_GRID_SEED)
    pool = [_random_grid(rng, rng.randint(1, grid_kmax)) for _ in range(grids)]
    parseval_max = involution_max = 0.0
    hats = {}  # pool index -> transform, reused by the reflection check
    for i in range(0, len(pool) - 1, 2):
        f, g = pool[i], pool[i + 1]
        hats[i] = dft(f, config)
        if f.k == g.k:
            hats[i + 1] = g_hat = dft(g, config)
        else:
            g = _random_grid(rng, f.k)
            g_hat = dft(g, config)
        lhs_re, lhs_im, _ = inner_product(hats[i], g_hat, config)
        rhs_re, rhs_im, _ = inner_product(f, g, config)
        parseval_max = max(parseval_max, _max_deviation(
            [(lhs_re - f.k * rhs_re, lhs_im - f.k * rhs_im)], 2 * bits))
    for i, f in enumerate(pool[:10]):
        double = dft(hats[i] if i in hats else dft(f, config), config).samples
        reflected = (_fixed(f.samples[-j % f.k], bits) for j in range(f.k))
        dev = _max_deviation(((d_re - f.k * re, d_im - f.k * im)
                              for (d_re, d_im, _), (re, im)
                              in zip(double, reflected)), bits)
        involution_max = max(involution_max, dev)
    failed = [row for row in rows if not row.passed]
    return TableReport(
        rows=rows, failed_rows=failed,
        max_row_deviation=max(row.max_deviation for row in rows),
        parseval_max=parseval_max, involution_max=involution_max,
        grid_tolerance=tolerance, grids=len(pool),
        passed=(not failed and parseval_max <= tolerance
                and involution_max <= tolerance))
