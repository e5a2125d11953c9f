#!/usr/bin/env python3
"""Print the leading-constant table for the nine primes 5..31.

For each prime the consensus integer is shown with every formula's sign
and worst cross-formula residual, so a change in any route is visible at
a glance.

    python3 scripts/cp_table.py [--prec DIGITS]
"""

import argparse
import time

from pcores.asympt import leading_constant_report
from pcores.precision import PrecisionConfig

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prec", type=int, default=60,
                        help="decimal digits (default 60)")
    args = parser.parse_args()
    config = PrecisionConfig(args.prec)

    print(f"{'p':>3}  {'constant':>26}  {'signs':<22}  worst residual")
    start = time.perf_counter()
    for p in PRIMES:
        rep = leading_constant_report(p, config)
        signs = " ".join(f"{name}:{'+' if s > 0 else '-'}"
                         for name, s in rep.signs.items())
        worst = max(rep.residuals.values())
        print(f"{p:>3}  {rep.consensus:>26}  {signs:<22}  {worst:.2e}")
    print(f"\nall formulas agree within 10^-{args.prec // 2} "
          f"({time.perf_counter() - start:.2f}s)")


if __name__ == "__main__":
    main()
