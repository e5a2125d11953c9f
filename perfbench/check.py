"""Checks every response of a run, independently of the program's own code.

A response fails on a nonzero exit, on stdout that is not the documented
envelope for its request, on ``pass: false``, on a repeat whose answer
differs from the first one, on a p-core count that disagrees with another
answer for the same (p, n), on a singular-series estimate further from
the divisor estimate for the same (p, n) than its truncation allows, and on
a snapped integer longer than its working precision can certify.  The
exact-integer values of the answers also feed a digest that the default
seed compares with a committed one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction

from workloads import Request

ENVELOPE_KEYS = {"command", "parameters", "precision", "values",
                 "residuals", "pass"}
# Values snapped from a high-precision sum, by command.
SNAPPED_FIELDS = {"trig": "cotangent_sum",
                  "verify trig-identity": "cotangent_side",
                  "classnum": "class_number"}
# The library carries 10 guard digits and snaps at max(1e-30, 10^-(d - 10)).
GUARD_DIGITS = 10
_EXACT = re.compile(r"-?\d+(/\d+)?")


def certified_digits(prec: int) -> int:
    """Digits an integer snapped at --prec can have and still be certified:
    working digits minus log10(1 / snap tolerance)."""
    working = prec + GUARD_DIGITS
    tolerance_digits = min(30, prec - GUARD_DIGITS)
    return working - tolerance_digits


def singular_tolerance(p: int, kmax: int) -> float:
    """Largest relative gap allowed between the singular series truncated
    at kmax and the divisor estimate, which is the value of the full series.

    The term for denominator k is about k^(-h) |A_k| times the k = 1 term,
    h = (p - 1)/2, and the exponential sums A_k are about sqrt(k) in size,
    so the tail beyond kmax is about kmax^(3/2 - h) / (h - 3/2) of the
    whole.  Allow ten times that, and never more than 10 %."""
    h = (p - 1) / 2
    return min(0.1, 10 * kmax ** (1.5 - h) / (h - 1.5))


def exact_part(value):
    """The exact-integer content of a value: ints, bools and integer or
    fraction strings, kept through lists and dicts; floats and decimal
    strings (estimates, residuals) are dropped."""
    if isinstance(value, int):  # bools included
        return value
    if isinstance(value, str):
        return value if _EXACT.fullmatch(value) else None
    if isinstance(value, list):
        return [exact_part(v) for v in value]
    if isinstance(value, dict):
        return {k: exact_part(v) for k, v in value.items()}
    return None


def _plain(value) -> str:
    # how the text and CSV formats print one value (see the README)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def expected_rendering(envelope: dict, fmt: str) -> str:
    """The text or CSV form the README documents for a JSON envelope.

    The JSON form sorts the keys of ``values``, the other two keep the
    program's order, so compare renderings with :func:`same_lines`."""
    values, residuals = envelope["values"], envelope["residuals"]
    passed = "true" if envelope["pass"] else "false"
    if fmt == "text":
        lines = [f"command: {envelope['command']}"]
        parameters = envelope["parameters"]
        if parameters:
            lines.append("parameters: " + " ".join(
                f"{k}={_plain(parameters[k])}" for k in sorted(parameters)))
        lines.append(f"precision: {envelope['precision']}")
        if envelope["command"] == "series":
            lines += [f"{n} {count}" for n, count in values["counts"]]
        else:
            lines += [f"{k}: {_plain(v)}" for k, v in values.items()]
        lines += [f"residual {k}: {_plain(v)}" for k, v in residuals.items()]
        lines.append(f"pass: {passed}")
        return "\n".join(lines) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if envelope["command"] == "series":
        writer.writerow(["n", "count"])
        writer.writerows(values["counts"])
        return buffer.getvalue()
    writer.writerow(["key", "value"])
    writer.writerows([k, _plain(v)] for k, v in values.items())
    writer.writerows([f"residual_{k}", _plain(v)] for k, v in residuals.items())
    writer.writerow(["pass", passed])
    return buffer.getvalue()


def same_lines(a: str, b: str) -> bool:
    return sorted(a.splitlines()) == sorted(b.splitlines()) \
        and a.endswith("\n") == b.endswith("\n")


class Checker:
    """Checks one run's responses in order and keeps its digest."""

    def __init__(self) -> None:
        self.first: dict[tuple, dict] = {}   # request key -> first envelope
        self.counts: dict[tuple, str] = {}   # (p, n) -> p-core count
        # (p, n) -> {"divisor": estimate, "singular": [(kmax, estimate)]}
        self.estimates: dict[tuple, dict] = {}
        self._digest = hashlib.sha256()

    def check(self, request: Request, exit_code: int, stdout: bytes) -> list[str]:
        """Problems with one response; an empty list means it passed."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            text = stdout.decode()
        except UnicodeDecodeError:
            return ["stdout is not UTF-8"]
        first = self.first.get(request.key)
        if request.fmt != "json":
            if first is None:
                return ["repeat of a request that has no JSON answer"]
            if not same_lines(text, expected_rendering(first, request.fmt)):
                return [f"{request.fmt} answer differs from the first answer"]
            self._add_digest(first)
            return []
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError:
            return ["stdout is not JSON"]
        problems = self._envelope_problems(request, envelope)
        if problems:
            return problems
        if first is not None and (first["values"], first["pass"]) != (
                envelope["values"], envelope["pass"]):
            problems.append("answer differs from the first answer")
        if not envelope["pass"]:
            problems.append("pass: false")
        problems += self._count_problems(request, envelope["values"])
        problems += self._estimate_problems(request, envelope["values"])
        problems += self._snap_problems(request, envelope["values"])
        if not problems:
            self.first.setdefault(request.key, envelope)
            self._add_digest(envelope)
        return problems

    def digest(self) -> str:
        return self._digest.hexdigest()

    def _add_digest(self, envelope: dict) -> None:
        part = [envelope["command"], exact_part(envelope["values"]),
                envelope["pass"]]
        self._digest.update(json.dumps(part, sort_keys=True).encode() + b"\n")

    @staticmethod
    def _envelope_problems(request: Request, envelope) -> list[str]:
        if not isinstance(envelope, dict) or set(envelope) != ENVELOPE_KEYS:
            return ["not a result envelope"]
        if envelope["command"] != request.command:
            return [f"command echoed as {envelope['command']!r}"]
        echoed = envelope["parameters"]
        if not isinstance(echoed, dict) or any(
                echoed.get(k) != v for k, v in request.parameters.items()):
            return [f"parameters echoed as {echoed!r}"]
        if envelope["precision"] != request.prec:
            return [f"precision echoed as {envelope['precision']!r}"]
        if not isinstance(envelope["values"], dict) \
                or not isinstance(envelope["pass"], bool):
            return ["malformed values or pass"]
        return []

    def _count_problems(self, request: Request, values: dict) -> list[str]:
        p = request.parameters.get("p")
        if request.command == "count":
            found = [(request.parameters["n"], values.get("count"))]
        elif request.command == "series":
            found = [tuple(entry) for entry in values.get("counts", [])]
            if len(found) != request.parameters["max_n"] + 1:
                return ["series has the wrong number of entries"]
        elif request.command == "approx" and "exact" in values:
            found = [(request.parameters["n"], values["exact"])]
        else:
            return []
        problems = []
        for n, count in found:
            known = self.counts.setdefault((p, n), count)
            if known != count:
                problems.append(f"count for p={p}, n={n} is {count}, "
                                f"another answer gave {known}")
        return problems[:3]

    def _estimate_problems(self, request: Request, values: dict) -> list[str]:
        if request.command != "approx" or "estimate" not in values:
            return []
        try:
            estimate = Fraction(values["estimate"])
        except (TypeError, ValueError):
            return [f"estimate {values['estimate']!r} is not a number"]
        parameters = request.parameters
        p = parameters["p"]
        known = self.estimates.setdefault((p, parameters["n"]),
                                          {"singular": []})
        if parameters["method"] == "divisor":
            known["divisor"] = estimate
            pending = known["singular"]
        else:
            pending = [(parameters["kmax"], estimate)]
            known["singular"].append(pending[0])
        divisor = known.get("divisor")
        if not divisor:
            return []
        problems = []
        for kmax, singular in pending:
            gap = float(abs(singular - divisor) / abs(divisor))
            allowed = singular_tolerance(p, kmax)
            if gap > allowed:
                problems.append(
                    f"singular estimate (kmax={kmax}) is {gap:.3g} away from "
                    f"the divisor estimate; truncation allows {allowed:.3g}")
        return problems

    @staticmethod
    def _snap_problems(request: Request, values: dict) -> list[str]:
        field = SNAPPED_FIELDS.get(request.command)
        if field is None or field not in values:
            return []
        digits = len(str(values[field]).lstrip("-"))
        limit = certified_digits(request.prec)
        if digits > limit:
            return [f"{field} has {digits} digits; --prec {request.prec} "
                    f"certifies at most {limit}"]
        return []

