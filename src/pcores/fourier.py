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

import random
from dataclasses import dataclass, field
from fractions import Fraction

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


def _roots(ctx, k: int):
    # e^(-2*pi*i*m/k) for m = 0..k-1, from exact rational phases
    return [ctx.expjpi(to_mpf(ctx, Fraction(-2 * m, k))) for m in range(k)]


def dft(g: GridFunction, config: PrecisionConfig = DEFAULT_PRECISION) -> GridFunction:
    """Direct O(k^2) transform; k stays small and precision is the point."""
    ctx = config.context()
    k = g.k
    roots = _roots(ctx, k)
    samples = [ctx.convert(v) for v in g.samples]
    out = []
    for mu in range(k):
        out.append(ctx.fsum(samples[j] * roots[j * mu % k] for j in range(k)))
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


def _row(name: str, k: int, parameters: dict, samples, expected,
         config: PrecisionConfig) -> DftReport:
    """Transform the grid of samples and compare it, index by index, with
    the closed-form values."""
    transform = dft(grid_function(k, samples), config).samples
    worst = max(float(abs(t - e)) for t, e in zip(transform, expected))
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
    front = ctx.mpc((1, -1j, -1, 1j)[((p - 1) // 2) ** 2 % 4])
    root = ctx.sqrt(p)
    return _row("legendre", p, {},
                (ctx.mpf(legendre_symbol(j, p)) for j in range(p)),
                (front * root * legendre_symbol(mu, p) for mu in range(p)),
                config)


def check_zeta_row(k: int, s: int,
                   config: PrecisionConfig = DEFAULT_PRECISION) -> DftReport:
    """Transform of zeta(s, j/k) samples against k^s * l(s, 1 - mu/k).

    The j = 0 slot samples a = 1 (the argument domain is (0,1]); on the
    closed-form side 1 - 0 is likewise read as 1.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    ctx = config.context()
    return _row(
        "zeta", k, {"s": s},
        (hurwitz_zeta(s, Fraction(j, k) if j else Fraction(1), config)
         for j in range(k)),
        (ctx.mpf(k) ** s * periodic_zeta(s, Fraction(k - mu, k), config)
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
    reflection identity."""
    for name, value, least in (
            ("kmax", kmax, 2), ("rmax", rmax, 1), ("smax", smax, 2),
            ("pmax", pmax, 3), ("grids", grids, 2),
            ("grid_kmax", grid_kmax, 1)):
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
    for f, g in zip(pool[0::2], pool[1::2]):
        if f.k != g.k:
            g = _random_grid(ctx, rng, f.k)
        lhs = inner_product(dft(f, config), dft(g, config), config)
        rhs = f.k * inner_product(f, g, config)
        report.parseval_max = max(report.parseval_max, float(abs(lhs - rhs)))
    for f in pool[:10]:
        double = dft(dft(f, config), config)
        for j in range(f.k):
            dev = float(abs(double.samples[j] - f.k * ctx.convert(f.samples[-j % f.k])))
            report.involution_max = max(report.involution_max, dev)
    report.passed = (not report.failed_rows
                     and report.parseval_max <= report.grid_tolerance
                     and report.involution_max <= report.grid_tolerance)
    return report
