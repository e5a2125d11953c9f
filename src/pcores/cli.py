"""Command-line interface.

Subcommands map onto the library: exact counts and series, asymptotic
estimates, the leading constant, character sums, class numbers, and the
verify family of identity checks, each one row of COMMANDS.  Every
command renders a single result envelope {command, parameters, precision,
values, residuals, pass} as text, JSON, or CSV, written to stdout in one
atomic write.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 precision failure, 4 cache I/O failure.  Big integers and
high-precision reals are rendered as decimal strings so output is exact
and byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .arith import is_prime
from .asympt import (approx_divisor_sum, approx_singular_series,
                     bernoulli_char_sum, class_number, cotangent_char_sum,
                     divisibility_scan, leading_constant,
                     leading_constant_report, verify_dedekind_parity,
                     verify_dirichlet_series, verify_eta_transform,
                     verify_quadratic_trig_identity, verify_ramanujan_identity,
                     VARIANTS, CLASS_NUMBER_METHODS)
from .precision import (DEFAULT_PRECISION, PrecisionConfig, PrecisionError,
                        Real, VerificationError, decimal_str, int_str)
from .series import pcore_count, pcore_series

DEFAULT_DIGITS = DEFAULT_PRECISION.decimal_digits
PRECISION_ENV = "PCORE_PREC"


def _resolve_precision(args) -> PrecisionConfig:
    if args.prec is not None:
        return PrecisionConfig(args.prec)
    raw = os.environ.get(PRECISION_ENV, str(DEFAULT_DIGITS)).strip()
    unsigned = raw[1:] if raw[:1] in "+-" else raw
    if not unsigned.isdigit():
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}")
    return PrecisionConfig(int(raw))


def _number_str(value, config: PrecisionConfig) -> str:
    """The CLI's one number renderer: decimal_str for a Real, the exact
    value of an int or any other Fraction, as str() writes it but at any
    length, and nstr for the eta check's mpmath values."""
    if isinstance(value, Real):
        return decimal_str(value, config)
    if isinstance(value, (int, Fraction)):
        num, den = value.as_integer_ratio()
        return int_str(num) + (f"/{int_str(den)}" if den != 1 else "")
    ctx = config.context()
    return ctx.nstr(ctx.convert(value), config.decimal_digits)


_JSON_TYPES = (bool, int, float, str, list, dict, type(None))


def _report(report, config: PrecisionConfig, *residuals):
    """(values, residuals, passed) of a verify report, whose fields are
    what its command prints, in order; the named fields are residuals.
    Fractions and mp values print as _number_str gives them."""
    values = {key: value if isinstance(value, _JSON_TYPES)
              else _number_str(value, config)
              for key, value in report._asdict().items()}
    return values, {key: values.pop(key) for key in residuals}, report.passed


def _require_prime(p: int) -> None:
    if p < 2 or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


# Shaping functions map (args, config), args holding exactly the parameters,
# to JSON-serializable (values, residuals, passed).  They call the library by
# this module's global names, which tracers rebind.

def _count(args, config):
    _require_prime(args.p)
    if args.n < 0:
        raise ValueError("n must be >= 0")
    count = pcore_count(args.p, args.n)
    return {"count": _number_str(count, config)}, {}, True


def _series(args, config):
    _require_prime(args.p)
    if args.max_n < 0:
        raise ValueError("max-n must be >= 0")
    counts = pcore_series(args.p, args.max_n)
    return {"counts": [[n, _number_str(c, config)]
                       for n, c in enumerate(counts)]}, {}, True


def _approx_parameters(parameters):
    # the truncation depth belongs to the singular series alone
    if parameters["method"] == "singular":
        if parameters["kmax"] is None:
            parameters["kmax"] = 50
    elif parameters.pop("kmax") is not None:
        raise ValueError("--kmax applies only to --method singular")


def _approx(args, config):
    if args.method == "singular":
        report = approx_singular_series(args.p, args.n, args.kmax, config)
    else:
        report = approx_divisor_sum(args.p, args.n, config)
    values = {"estimate": _number_str(report.estimate, config)}
    if report.divisor_sum is not None:
        values["divisor_sum"] = _number_str(report.divisor_sum, config)
        values["constant"] = _number_str(report.constant, config)
    residuals = {}
    if report.exact is not None:
        values["exact"] = _number_str(report.exact, config)
        if report.relative_error is not None:
            residuals["relative_error"] = report.relative_error
    return values, residuals, True


def _cp(args, config):
    if args.variant == "all":
        report = leading_constant_report(args.p, config)
        values = {"consensus": _number_str(report.consensus, config),
                  "values": {name: _number_str(v, config)
                             for name, v in report.values.items()},
                  "signs": report.signs}
        return values, dict(report.residuals), True
    value = leading_constant(args.p, args.variant, config)
    return {"variant": args.variant,
            "value": _number_str(value, config)}, {}, True


def _trig(args, config):
    exact = bernoulli_char_sum(args.r, args.p)
    cotangent = cotangent_char_sum(args.r, args.p)
    passed = exact.denominator == 1 and cotangent == exact
    values = {"bernoulli_sum": _number_str(exact, config),
              "cotangent_sum": _number_str(cotangent, config)}
    return values, {}, passed


def _classnum(args, config):
    value = class_number(args.p, args.method)
    return {"class_number": _number_str(value, config),
            "method": args.method}, {}, True


def _ramanujan_identity(args, config):
    return _report(verify_ramanujan_identity(args.p, args.kmax, args.nmax),
                   config)


def _dedekind_parity(args, config):
    return _report(verify_dedekind_parity(args.p, args.kmax), config)


def _dirichlet_series(args, config):
    return _report(verify_dirichlet_series(args.p, args.s, args.n, args.kmax,
                                           config), config, "deviation")


def _eta_transform(args, config):
    return _report(verify_eta_transform(args.p, args.h, args.k, args.t,
                                        args.factors, config),
                   config, "relative_deviation")


def _fft(args, config):
    from .fourier import verify_transform_table  # loaded for this row only
    table = verify_transform_table(
        kmax=args.kmax, rmax=args.rmax, smax=args.smax, pmax=args.pmax,
        grids=args.grids, grid_kmax=args.grid_kmax, config=config)
    failures = [{"name": row.name, "k": row.k, "parameters": row.parameters,
                 "deviation": row.max_deviation} for row in table.failed_rows]
    values = {"rows_checked": len(table.rows),
              "row_failures": failures,
              "max_row_deviation": table.max_row_deviation,
              "parseval_max": table.parseval_max,
              "involution_max": table.involution_max,
              "grid_tolerance": table.grid_tolerance,
              "grids": table.grids}
    return values, {}, table.passed


def _trig_identity(args, config):
    return _report(verify_quadratic_trig_identity(args.r, args.p), config)


def _divisibility_parameters(parameters):
    # by default scan up to the first non-integer value when that is cheap
    if parameters["rmax"] is None:
        first = parameters["p"] * (parameters["p"] - 1) // 2 - 1
        parameters["rmax"] = first if first <= 100 else 15


def _divisibility(args, config):
    return _report(divisibility_scan(args.p, args.rmax), config)


class Command(NamedTuple):
    """A leaf command.  ``arguments`` are (flag, argparse keywords) pairs;
    the parameters, which key the cache, are those arguments by argparse
    dest, edited in place by ``fix`` where the row has one."""

    name: str
    help: str
    arguments: tuple
    shape: Callable
    fix: Callable | None = None


def _required(flag: str):
    return flag, dict(type=int, required=True)


def _option(flag: str, default, type=int, **extra):
    return flag, dict(type=type, default=default, **extra)


COMMANDS = (
    Command("count", "exact number of p-core partitions of n",
            (_required("--p"), _required("--n")), _count),
    Command("series", "all p-core counts for n = 0..max-n",
            (_required("--p"), _required("--max-n")), _series),
    Command("approx", "asymptotic estimate of the count",
            (_required("--p"), _required("--n"),
             ("--method", dict(choices=("singular", "divisor"),
                               required=True)),
             _option("--kmax", None,
                     help="singular-series truncation (default: 50)")),
            _approx, fix=_approx_parameters),
    Command("cp", "leading constant of the divisor-sum estimate",
            (_required("--p"),
             ("--variant", dict(choices=VARIANTS + ("all",), default="all"))),
            _cp),
    Command("trig", "Bernoulli and cotangent character sums",
            (_required("--r"), _required("--p")), _trig),
    Command("classnum", "class number h(-p) for p = 3 mod 4",
            (_required("--p"),
             ("--method", dict(choices=CLASS_NUMBER_METHODS + ("all",),
                               default="all"))),
            _classnum),
    Command("verify ramanujan-identity", "exponential sums vs Ramanujan sums",
            (_required("--p"), _option("--kmax", 30), _option("--nmax", 30)),
            _ramanujan_identity),
    Command("verify dedekind-parity",
            "integrality and parity of Dedekind-sum deltas",
            (_required("--p"), _option("--kmax", 60)), _dedekind_parity),
    Command("verify dirichlet-series",
            "twisted divisor Dirichlet series closed form",
            (_required("--p"), _option("--s", 2), _option("--n", 1),
             _option("--kmax", 10000)),
            _dirichlet_series),
    Command("verify eta-transform",
            "modular transformation of the core product",
            (_option("--p", 5), _option("--h", 1), _option("--k", 2),
             _option("--t", 0.5, float), _option("--factors", 400)),
            _eta_transform),
    Command("verify fft", "finite Fourier transform table",
            (_option("--kmax", 13), _option("--rmax", 6), _option("--smax", 6),
             _option("--pmax", 97), _option("--grids", 100),
             _option("--grid-kmax", 64)),
            _fft),
    Command("verify trig-identity", "quadratic-argument cotangent identity",
            (_required("--r"), _required("--p")), _trig_identity),
    Command("verify divisibility", "divisibility pattern of Bernoulli sums",
            (_required("--p"), _option("--rmax", None)),
            _divisibility, fix=_divisibility_parameters),
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec", type=int, default=None, metavar="DIGITS",
                        help="working decimal digits (default: "
                             f"${PRECISION_ENV} or {DEFAULT_DIGITS})")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default: text)")
    common.add_argument("--cache", default=None, metavar="PATH",
                        help="append-only JSON-lines result cache")

    parser = argparse.ArgumentParser(
        prog="pcore",
        description="p-core partition counts, circle-method asymptotics, "
                    "and identity verification")
    levels = {"": parser.add_subparsers(dest="command", required=True)}
    for command in COMMANDS:
        group, _, leaf = command.name.rpartition(" ")
        if group not in levels:  # "verify", added at its first row
            levels[group] = levels[""].add_parser(
                group, help="machine checks of the identities"
            ).add_subparsers(dest="check", required=True)
        sp = levels[group].add_parser(leaf, parents=[common],
                                      help=command.help)
        for flag, options in command.arguments:
            sp.add_argument(flag, **options)
        sp.set_defaults(spec=command)
    return parser


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _render_text(envelope: dict) -> str:
    lines = [f"command: {envelope['command']}"]
    parameters = envelope["parameters"]
    if parameters:
        lines.append("parameters: " + " ".join(
            f"{key}={_plain(parameters[key])}" for key in sorted(parameters)))
    lines.append(f"precision: {envelope['precision']}")
    if envelope["command"] == "series":
        for n, count in envelope["values"]["counts"]:
            lines.append(f"{n} {count}")
    else:
        for key, value in envelope["values"].items():
            lines.append(f"{key}: {_plain(value)}")
    for key, value in envelope["residuals"].items():
        lines.append(f"residual {key}: {_plain(value)}")
    lines.append("pass: " + ("true" if envelope["pass"] else "false"))
    return "\n".join(lines) + "\n"


def _render_csv(envelope: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if envelope["command"] == "series":
        writer.writerow(["n", "count"])
        for n, count in envelope["values"]["counts"]:
            writer.writerow([n, count])
        return buffer.getvalue()
    writer.writerow(["key", "value"])
    for key, value in envelope["values"].items():
        writer.writerow([key, _plain(value)])
    for key, value in envelope["residuals"].items():
        writer.writerow([f"residual_{key}", _plain(value)])
    writer.writerow(["pass", "true" if envelope["pass"] else "false"])
    return buffer.getvalue()


def _render(envelope: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _render_csv(envelope)
    return _render_text(envelope)


def _execute(args, config: PrecisionConfig):
    command = args.spec
    # argparse's dest for a flag such as "--max-n" is "max_n"
    dests = [flag[2:].replace("-", "_") for flag, _ in command.arguments]
    parameters = {dest: getattr(args, dest) for dest in dests}
    if command.fix is not None:
        command.fix(parameters)
    envelope = None
    key = None
    if args.cache:
        from . import cache  # hashlib is loaded only for --cache
        key = cache.cache_key(command.name, parameters, config.decimal_digits)
        envelope = cache.load(args.cache, key)
    if envelope is None:
        values, residuals, passed = command.shape(
            argparse.Namespace(**parameters), config)
        envelope = {"command": command.name, "parameters": parameters,
                    "precision": config.decimal_digits, "values": values,
                    "residuals": residuals, "pass": passed}
        if args.cache:
            cache.append(args.cache, key, envelope)
    return envelope


def _emit_error(kind: str, exc: Exception) -> None:
    line = json.dumps({"error": kind, "message": str(exc)}, sort_keys=True)
    sys.stderr.write(line + "\n")


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        config = _resolve_precision(args)
        envelope = _execute(args, config)
    except VerificationError as exc:
        _emit_error("verification", exc)
        return 1
    except PrecisionError as exc:
        _emit_error("precision", exc)
        return 3
    except ValueError as exc:
        _emit_error("usage", exc)
        return 2
    except OSError as exc:
        _emit_error("io", exc)
        return 4
    sys.stdout.write(_render(envelope, args.format))
    sys.stdout.flush()
    return 0 if envelope["pass"] else 1


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
