#!/usr/bin/env python3
"""Check that the tests catch a fixed list of defects in the package.

Each row of MUTANTS names a file under src/pcores, a text that must occur
in it exactly once, the text that replaces it, and the tests that must
then fail.  For each row the script copies src/, tests/, scripts/,
pyproject.toml and README.md into a fresh temporary directory (the tests
read all of them, and the child processes some tests start load src/
from beside tests/), applies the row, and runs its tests with -x.  The
run fails if a row's text does not occur exactly once, if its tests
still pass, or if the tests of any row fail on the unchanged copy.

    python3 scripts/mutate.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "pyproject.toml", "README.md")

ASYMPT = "tests/test_asympt.py"
CLI = "tests/test_cli.py"
ETA = "tests/test_asympt.py::TestEtaTransform"
FOURIER = "tests/test_fourier.py"
GOLDEN = "tests/test_cli.py::test_golden_rendering"
RENDERER = "tests/test_precision.py::test_decimal_str_is_nstr"
SPECIAL = "tests/test_special.py"
VARIANTS = ("tests/test_asympt.py::TestLeadingConstant::"
            "test_numeric_variants_within_a_rounding")

# (file under src/pcores, exact old text, new text, tests that must fail)
MUTANTS = (
    # _phase_6k: off by one, and 12k * s(h,k) left undivided
    ("asympt.py",
     "    return (p * dedekind_sum(p * h % k, k) - dedekind_sum(h, k)) // 2",
     "    return (p * dedekind_sum(p * h % k, k) - dedekind_sum(h, k)) // 2 + 1",
     ASYMPT),
    ("asympt.py",
     "    return (p * dedekind_sum(p * h % k, k) - dedekind_sum(h, k)) // 2",
     "    return (p * dedekind_sum(p * h % k, k) - dedekind_sum(h, k))",
     ASYMPT),
    ("asympt.py",
     "    dot = sum(legendre_symbol(e, p) * P[e] for e in range(1, p))",
     "    dot = sum(P[e] for e in range(1, p))",
     ASYMPT),
    ("special.py",
     "    return tuple(coeffs)",
     "    return tuple(coeffs[:-1]) + (coeffs[-1] + 1,)",
     ASYMPT),
    ("asympt.py",
     "    return [T[n] + T[n - 1] for n in range(p)]",
     "    return [T[n] - T[n - 1] for n in range(p)]",
     ASYMPT),
    # _cyclotomic_integer: a dropped term of the l-term relation, its sign,
    # a top block one short, and q one power of l short
    ("asympt.py",
     "                for i in range(1, l):",
     "                for i in range(2, l):",
     ASYMPT),
    ("asympt.py",
     "                    c[(j - i * N // l) % N] -= c[j]",
     "                    c[(j - i * N // l) % N] += c[j]",
     ASYMPT),
    ("asympt.py",
     "            if c[j] and j % q >= q - q // l:",
     "            if c[j] and j % q > q - q // l:",
     ASYMPT),
    ("asympt.py",
     "        while N % (q * l) == 0:",
     "        while N % (q * l * l) == 0:",
     ASYMPT),
    # _twisted_ramanujan_sum: the (k|p) weight dropped, one fraction bit
    # lost, bits = prec/2, and a 2^(9-prec) relative error on the estimate
    ("asympt.py",
     "                total += (legendre_symbol(k, p) * c << bits) // k ** s",
     "                total += (c << bits) // k ** s",
     ASYMPT),
    ("asympt.py",
     "                total += (legendre_symbol(k, p) * c << bits) // k ** s",
     "                total += (legendre_symbol(k, p) * c << bits) "
     "// k ** s >> 1 << 1",
     ASYMPT),
    ("asympt.py",
     "    bits = prec + kmax.bit_length() + 5",
     "    bits = prec // 2",
     ASYMPT),
    ("asympt.py",
     "    estimate = round_binary(\n",
     "    power += power >> prec - 9\n    estimate = round_binary(\n",
     ASYMPT),
    # the one renderer: ties rounded up, not to even; digit 5 rounded down;
    # the half-up carry through str(), refused beyond 4300 digits; and pi
    # with one Machin coefficient off
    ("precision.py",
     "    if 2 * rest > den or 2 * rest == den and quotient & 1:",
     "    if 2 * rest >= den:",
     RENDERER),
    ("precision.py",
     '    if len(digits) > dps and digits[dps] in "56789":',
     '    if len(digits) > dps and digits[dps] in "6789":',
     RENDERER),
    ("precision.py",
     "        head = int_str(floor // 10 ** (len(digits) - dps) + 1)",
     "        head = str(int(head) + 1)",
     "tests/test_cli.py::TestBeyondTheStrLimit"),
    ("precision.py",
     "    for coefficient, x in ((16, 5), (-4, 239)):",
     "    for coefficient, x in ((16, 5), (-4, 238)):",
     GOLDEN),
    # zeta's Euler-Maclaurin cut on the decimal scale of the target digits
    # again, thousands of units of 2^-bits short
    ("special.py",
     "    cut = 1 << W - bits - 2",
     "    cut = (1 << W) // 10 ** (bits * 3 // 10 - 6)",
     "tests/test_special.py::TestHurwitzZeta::test_within_one_unit_of_mpmath"),
    ("special.py",
     "    return bernoulli_number(2 * j) / math.factorial(2 * j)",
     "    return bernoulli_number(2 * j) / math.factorial(2 * j) "
     "* (Fraction(1001, 1000) if j == 1 else 1)",
     FOURIER),
    # the fixed-point cores of verify fft: the root recurrence turning the
    # wrong way, a log-series coefficient one power of pi short, the log's
    # range reduction one power of 2 off, and sqrt(p) truncated
    ("precision.py",
     "        re, im = re * cos + im * sin >> scale, im * cos - re * sin >> scale",
     "        re, im = re * cos + im * sin >> scale, im * cos + re * sin >> scale",
     FOURIER),
    ("special.py",
     "                d = shift_round(hurwitz_zeta(s - m, 1, wide) * pi_m\n",
     "                d = shift_round(hurwitz_zeta(s - m, 1, wide)"
     " * (pi_m << wide) // pi\n",
     SPECIAL),
    ("precision.py",
     "    for weight, u in ((e, 2 << scale), ",
     "    for weight, u in ((e + 1, 2 << scale), ",
     "tests/test_precision.py::test_log_fixed_within_one_unit"),
    ("precision.py",
     "    return (math.isqrt(n << 2 * bits + 2) + 1) >> 1",
     "    return math.isqrt(n << 2 * bits)",
     "tests/test_precision.py::test_sqrt_fixed_rounds_to_nearest"),
    # the integer cores of the leading constant: variant i's power of pi
    # one bit short, the Legendre twist dropped from the Hurwitz sum, and
    # variant iii's power of 2 one short
    ("asympt.py",
     "        power = pi_fixed(F) ** half >> (half - 1) * F << half",
     "        power = pi_fixed(F) ** half >> (half - 1) * F + 1 << half",
     VARIANTS),
    ("asympt.py",
     "legendre_symbol(j, p) * hurwitz_zeta(",
     "hurwitz_zeta(",
     "tests/test_asympt.py::TestDirichletSeries::test_s3"),
    ("asympt.py",
     "            2 ** (r + 2) << 2 * F), prec)",
     "            2 ** (r + 1) << 2 * F), prec)",
     VARIANTS),
    # the fixed-point modular-transformation check: the phase one root of
    # unity off, the exponential's Taylor series without its r^2/2 term,
    # and the division by the conjugate's norm without the conjugate
    ("asympt.py",
     "    j = (p * p - 1) * h % (24 * k)",
     "    j = ((p * p - 1) * h + 1) % (24 * k)",
     ETA),
    ("precision.py",
     "        total, j = total + term, j + 1",
     "        total, j = total + (term if j != 2 else 0), j + 1",
     "tests/test_precision.py::test_exp_fixed_within_one_unit"),
    ("asympt.py",
     "    re, im, s = _mul(w, Fixed((c, -d, t)), bits)",
     "    re, im, s = _mul(w, Fixed((c, d, t)), bits)",
     ETA),
    # no command may load mpmath
    ("precision.py",
     "from typing import NamedTuple\n",
     "from typing import NamedTuple\n\nimport mpmath\n",
     "tests/test_package.py::test_command_loads_only_what_it_runs"),
    # the verify reports' one renderer: a failed check printed as passing,
    # and the residuals left among the values as well
    ("cli.py",
     "    return values, {key: values.pop(key) for key in residuals}, "
     "report.passed",
     "    return values, {key: values.pop(key) for key in residuals}, True",
     CLI),
    ("cli.py",
     "    return values, {key: values.pop(key) for key in residuals}, "
     "report.passed",
     "    return values, {key: values[key] for key in residuals}, "
     "report.passed",
     CLI),
)


def _copy_tree(destination: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in COPIED:
        source = REPO_ROOT / name
        if source.is_dir():
            shutil.copytree(source, destination / name, ignore=ignore)
        else:
            shutil.copy2(source, destination / name)


def _run_tests(root: Path, selection: str):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *selection.split()],
        cwd=root, env=env, capture_output=True, text=True)


def _run(label: str, selection: str, row=None) -> bool:
    """Whether the copy, with row applied if one is given, behaves as
    required: a mutant's tests fail, the clean tree's pass."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="pcores-mutant-") as directory:
        root = Path(directory)
        _copy_tree(root)
        if row is not None:
            name, old, new = row
            path = root / "src" / "pcores" / name
            text = path.read_text()
            found = text.count(old)
            if found != 1:
                print(f"{label}: old text occurs {found} times in {name}")
                return False
            path.write_text(text.replace(old, new))
        result = _run_tests(root, selection)
    passed = result.returncode == 0
    if row is None:
        ok, verdict = passed, "passes" if passed else "FAILS"
        if not passed:
            print(result.stdout[-3000:] + result.stderr[-3000:])
    else:
        ok, verdict = not passed, "SURVIVED" if passed else "killed"
    print(f"{label}: {verdict} ({selection}, "
          f"{time.perf_counter() - start:.1f} s)", flush=True)
    return ok


def main() -> int:
    start = time.perf_counter()
    ok = True
    for selection in dict.fromkeys(row[3] for row in MUTANTS):
        ok &= _run("clean tree", selection)
    for number, (name, old, new, selection) in enumerate(MUTANTS, 1):
        ok &= _run(f"mutant {number} ({name})", selection, (name, old, new))
    print(f"{'all mutants killed' if ok else 'FAILED'} in "
          f"{time.perf_counter() - start:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
