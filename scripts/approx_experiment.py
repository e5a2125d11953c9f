#!/usr/bin/env python3
"""How many digits do the asymptotic estimates get right?

Runs the 17-core count at n = 1000: the exact value, the closed-form
divisor-sum estimate, and the singular series at increasing truncation
depths, reporting agreement digit counts and relative errors.

    python3 scripts/approx_experiment.py [--p P] [--n N]
"""

import argparse

from pcores.asympt import approx_divisor_sum, approx_singular_series
from pcores.precision import DEFAULT_PRECISION, PrecisionConfig, decimal_str
from pcores.series import pcore_count


def agreeing_digits(exact: int, estimate: float) -> int:
    a, b = str(exact), f"{estimate:.0f}"
    if len(a) != len(b):
        return 0
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), len(a))


def relative_error(exact: int, estimate) -> float:
    # from the count computed here: the reports attach none above the
    # library's exact cutoff
    return float(abs(estimate - exact) / exact)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=17)
    parser.add_argument("--n", type=int, default=1000)
    args = parser.parse_args()
    p, n = args.p, args.n

    exact = pcore_count(p, n)
    digits = len(str(exact))
    print(f"a_{p}({n}) = {exact}  ({digits} digits)\n")

    divisor = approx_divisor_sum(p, n, with_exact=False)
    est = float(divisor.estimate)
    # to all the working digits of the default precision
    every_digit = PrecisionConfig(DEFAULT_PRECISION.working_dps)
    print("divisor-sum estimate   = "
          f"{decimal_str(divisor.estimate, every_digit)}")
    print(f"  divisor sum {divisor.divisor_sum} / constant {divisor.constant}")
    print(f"  relative error {relative_error(exact, divisor.estimate):.3e}, "
          f"{agreeing_digits(exact, est)}/{digits} leading digits agree\n")

    print(f"{'kmax':>6}  {'singular-series estimate':>26}  "
          f"{'rel err':>10}  digits")
    for kmax in (1, 5, 10, 50, 200):
        rep = approx_singular_series(p, n, kmax, with_exact=False)
        est = float(rep.estimate)
        print(f"{kmax:>6}  {est:>26.2f}  "
              f"{relative_error(exact, rep.estimate):>10.3e}  "
              f"{agreeing_digits(exact, est)}/{digits}")
    print("\nboth estimates stall at the same relative error: the gap to "
          "the exact count is the size of the next-order term, not noise")


if __name__ == "__main__":
    main()
