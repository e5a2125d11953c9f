"""Scaling ladders: time three kernels over doubling sizes, fit exponents.

Run with the package on the path (PYTHONPATH=src); prints one JSON object
{metric name: fitted exponent, ..., "points": {...}}.  Every lru_cache in
the package is cleared before each timing, so each point starts cold, as a
fresh request does.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time

from stats import fit_exponent

MODULES = ("arith", "asympt", "fourier", "precision", "series", "special")


def _clear_caches() -> None:
    for name in MODULES:
        for obj in vars(importlib.import_module(f"pcores.{name}")).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _best_time(call, repeats: int = 3, budget_s: float = 0.3) -> float:
    best = float("inf")
    spent = 0.0
    for _ in range(repeats):
        _clear_caches()
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
        if spent > budget_s:
            break
    return best


def ladders() -> dict:
    from pcores.asympt import approx_singular_series
    from pcores.fourier import dft, grid_function
    from pcores.precision import PrecisionConfig
    from pcores.series import pcore_series

    config = PrecisionConfig.for_digits(60)
    ctx = config.context()
    rng = random.Random(0)
    grids = {k: grid_function(k, [ctx.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                  for _ in range(k)])
             for k in (16, 32, 64, 128)}
    plans = {
        "series.pcore_series.exponent":
            {n: (lambda n=n: pcore_series(17, n)) for n in (400, 800, 1600, 3200)},
        "asympt.approx_singular_series.exponent":
            {k: (lambda k=k: approx_singular_series(17, 30001, k, config,
                                                    with_exact=False))
             for k in (25, 50, 100, 200)},
        "fourier.dft.exponent":
            {k: (lambda g=g: dft(g, config)) for k, g in grids.items()},
    }
    result = {"points": {}}
    for name, plan in plans.items():
        times = {size: _best_time(call) for size, call in plan.items()}
        result[name] = fit_exponent(list(times), list(times.values()))
        result["points"][name] = times
    return result


if __name__ == "__main__":
    json.dump(ladders(), sys.stdout)
    sys.stdout.write("\n")
