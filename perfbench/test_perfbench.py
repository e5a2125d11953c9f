"""Tests of the benchmark itself: streams, statistics and the checker.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from check import (Checker, certified_digits, exact_part,  # noqa: E402
                   expected_rendering, same_lines, singular_tolerance)
from run import LayerTotals  # noqa: E402
from stats import fit_exponent, percentile  # noqa: E402
from workloads import EXACT_CUTOFF, WORKLOADS, Request, generate  # noqa: E402

from pcores.cli import _build_parser, run_cli  # noqa: E402


def run_in_process(argv: list[str]) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return code, buffer.getvalue().encode()


def checked(checker: Checker, request: Request, cache=None) -> list[str]:
    code, out = run_in_process(request.argv(cache))
    return checker.check(request, code, out)


# --- streams ----------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    first = [r.argv("C") for r in generate(workload, 7, 200)]
    again = [r.argv("C") for r in generate(workload, 7, 200)]
    other = [r.argv("C") for r in generate(workload, 8, 200)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_request_parses(workload):
    parser = _build_parser()
    for seed in range(5):
        for request in generate(workload, seed, 300):
            args = parser.parse_args(request.argv("cache.jsonl"))
            for name, value in request.parameters.items():
                assert getattr(args, name) == value


@pytest.mark.parametrize("workload", WORKLOADS)
def test_requests_stay_in_their_domains(workload):
    for seed in range(5):
        stream = generate(workload, seed, 300)
        for index, r in enumerate(stream):
            q = r.parameters
            if r.repeat_of is not None:
                first = stream[r.repeat_of]
                assert r.repeat_of < index and first.repeat_of is None
                assert r.key == first.key and r.fmt != first.fmt
            if workload == "exact":
                assert r.cache and q.get("n", q.get("max_n")) <= EXACT_CUTOFF
            elif r.command == "approx":
                assert q["n"] > EXACT_CUTOFF
            if r.command == "verify eta-transform":
                # |x| = e^-t and |y| = e^(-4 pi^2 / (k^2 p t)) within 0.9
                assert math.exp(-q["t"]) <= 0.9
                assert math.exp(-4 * math.pi ** 2
                                / (q["k"] ** 2 * q["p"] * q["t"])) <= 0.9
                assert math.gcd(q["h"], q["k"]) == 1 and q["k"] % q["p"]
            if r.command == "verify trig-identity":
                assert q["r"] % 2 == 0 and q["p"] % 4 == 3
                assert math.gcd(q["p"], q["r"] + 1) == 1


def test_exact_stream_repeats_about_a_quarter():
    stream = generate("exact", 0, 400)
    share = sum(r.repeat_of is not None for r in stream) / len(stream)
    assert 0.2 <= share <= 0.3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_request_of_each_kind_passes(workload, tmp_path):
    checker = Checker()
    cache = str(tmp_path / "cache.jsonl")
    seen = set()
    for request in generate(workload, 0, 60):
        kind = (request.command, request.parameters.get("method"),
                request.fmt)
        if kind in seen:
            continue
        seen.add(kind)
        if request.repeat_of is not None:
            first = generate(workload, 0, 60)[request.repeat_of]
            assert checked(checker, first, cache) == []
        assert checked(checker, request, cache) == [], request.argv(cache)


# --- statistics -------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5.5
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile(values, 0) == 1 and percentile(values, 100) == 10
    assert percentile([4.0], 90) == 4.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_matches_inclusive_quantiles():
    rng = random.Random(3)
    for size in (2, 7, 100, 137):
        values = [rng.expovariate(1) for _ in range(size)]
        deciles = statistics.quantiles(values, n=10, method="inclusive")
        assert percentile(values, 90) == pytest.approx(deciles[8])
        assert percentile(values, 50) == pytest.approx(statistics.median(values))


def test_fit_exponent_recovers_a_power_law():
    sizes = [100, 200, 400, 800]
    assert fit_exponent(sizes, [3 * n ** 1.5 for n in sizes]) == pytest.approx(1.5)
    assert fit_exponent(sizes, [0.1 * n ** 2 for n in sizes]) == pytest.approx(2)


# --- checker ----------------------------------------------------------------

def test_checker_accepts_consistent_answers(tmp_path):
    checker = Checker()
    cache = str(tmp_path / "c.jsonl")
    series = Request("series", {"p": 5, "max_n": 30}, 40, cache=True)
    count = Request("count", {"p": 5, "n": 30}, 60, cache=True)
    approx = Request("approx", {"p": 5, "n": 25, "method": "divisor"}, 40,
                     cache=True)
    for request in (series, count, approx):
        assert checked(checker, request, cache) == []
    for fmt in ("text", "csv"):
        repeat = Request("series", series.parameters, 40, fmt=fmt,
                         cache=True, repeat_of=0)
        assert checked(checker, repeat, cache) == []


def test_checker_rejects_a_wrong_value():
    checker = Checker()
    series = Request("series", {"p": 5, "max_n": 30}, 40)
    count = Request("count", {"p": 5, "n": 30}, 40)
    assert checked(checker, series) == []
    code, out = run_in_process(count.argv())
    envelope = json.loads(out)
    envelope["values"]["count"] = str(int(envelope["values"]["count"]) + 1)
    problems = checker.check(count, 0, json.dumps(envelope).encode())
    assert problems and "count for p=5, n=30" in problems[0]


def test_checker_holds_singular_estimates_to_the_divisor_estimate():
    singular = Request("approx", {"p": 7, "n": 30000, "method": "singular",
                                  "kmax": 40}, 40)
    divisor = Request("approx", {"p": 7, "n": 30000, "method": "divisor"}, 60)
    _, out = run_in_process(singular.argv())
    for order in ((singular, divisor), (divisor, singular)):
        checker = Checker()
        assert [checked(checker, r) for r in order] == [[], []]
    envelope = json.loads(out)
    estimate = float(envelope["values"]["estimate"])
    envelope["values"]["estimate"] = repr(estimate * 1.05)
    checker = Checker()
    assert checked(checker, divisor) == []
    problems = checker.check(singular, 0, json.dumps(envelope).encode())
    assert problems and "singular estimate (kmax=40)" in problems[0]


def test_singular_tolerance_shrinks_with_p_and_kmax():
    assert singular_tolerance(5, 40) == 0.1
    assert singular_tolerance(7, 120) < singular_tolerance(7, 40) < 0.1
    assert singular_tolerance(31, 40) < 1e-20


def test_circle_divisor_requests_pair_with_a_singular_one():
    for seed in range(5):
        stream = generate("circle", seed, 300)
        singular = {(r.parameters["p"], r.parameters["n"]) for r in stream
                    if r.parameters.get("method") == "singular"}
        for r in stream:
            if r.parameters.get("method") == "divisor":
                assert (r.parameters["p"], r.parameters["n"]) in singular


def test_checker_rejects_a_changed_repeat():
    checker = Checker()
    first = Request("cp", {"p": 7}, 40)
    assert checked(checker, first) == []
    code, out = run_in_process(
        Request("cp", {"p": 7}, 40, fmt="text").argv())
    tampered = out.replace(b"consensus: ", b"consensus: 1")
    repeat = Request("cp", {"p": 7}, 40, fmt="text", repeat_of=0)
    assert checker.check(repeat, 0, out) == []
    assert checker.check(repeat, 0, tampered) != []


def test_checker_rejects_pass_false_and_nonzero_exit():
    checker = Checker()
    request = Request("classnum", {"p": 23}, 40)
    code, out = run_in_process(request.argv())
    envelope = json.loads(out)
    envelope["pass"] = False
    assert checker.check(request, 0, json.dumps(envelope).encode()) \
        == ["pass: false"]
    assert checker.check(request, 3, out) == ["exit code 3"]
    assert checker.check(request, 0, b"not json") == ["stdout is not JSON"]
    assert checker.check(request, 0, out) == []


def test_checker_rejects_a_wrong_echo():
    checker = Checker()
    request = Request("classnum", {"p": 23}, 40)
    code, out = run_in_process(request.argv())
    other = Request("classnum", {"p": 31}, 40)
    assert checker.check(other, 0, out) != []
    assert checker.check(Request("classnum", {"p": 23}, 60), 0, out) != []


def test_checker_rejects_an_uncertified_snap():
    assert certified_digits(40) == 20 and certified_digits(60) == 40
    assert certified_digits(100) == 80
    checker = Checker()
    request = Request("trig", {"r": 2, "p": 7}, 40)
    envelope = {"command": "trig", "parameters": {"r": 2, "p": 7},
                "precision": 40, "residuals": {"snap": 0.0}, "pass": True,
                "values": {"bernoulli_sum": "1" * 21, "cotangent_sum": "1" * 21}}
    problems = checker.check(request, 0, json.dumps(envelope).encode())
    assert problems and "certifies at most 20" in problems[0]


@pytest.mark.parametrize("argv", [
    ["series", "--p", "7", "--max-n", "12"],
    ["cp", "--p", "7"],
    ["approx", "--p", "17", "--n", "1000", "--method", "divisor"],
    ["verify", "dedekind-parity", "--p", "13", "--kmax", "20"],
    ["verify", "dirichlet-series", "--p", "7", "--s", "3", "--n", "12"],
])
def test_expected_rendering_matches_the_program(argv):
    _, raw = run_in_process(argv + ["--format", "json"])
    envelope = json.loads(raw)
    for fmt in ("text", "csv"):
        _, out = run_in_process(argv + ["--format", fmt])
        assert same_lines(out.decode(), expected_rendering(envelope, fmt))


def test_digest_keeps_only_exact_values():
    values = {"count": "123", "estimate": "1.5e+3", "ratio": "7/9",
              "checked": 4, "ok": True, "deviation": 1e-40,
              "rows": [{"r": 1, "value": "0.5"}]}
    assert exact_part(values) == {"count": "123", "estimate": None,
                                  "ratio": "7/9", "checked": 4, "ok": True,
                                  "deviation": None,
                                  "rows": [{"r": 1, "value": None}]}
    one, two = Checker(), Checker()
    request = Request("classnum", {"p": 23}, 40)
    assert checked(one, request) == [] and checked(two, request) == []
    assert one.digest() == two.digest() != Checker().digest()


def test_stream_mix_is_stratified():
    # every block of the circle stream holds the same command mix
    stream = generate("circle", 1, 100)
    mix = Counter(r.command for r in stream)
    assert mix["approx"] == 50 and mix["verify dedekind-parity"] == 20


# --- traced entry -----------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["count", "--p", "5", "--n", "40", "--format", "json"],
    ["verify", "ramanujan-identity", "--p", "7", "--kmax", "6", "--nmax", "3"],
])
def test_traced_entry_prints_the_same_bytes(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    spans = tmp_path / "spans.json"
    plain = subprocess.run([sys.executable, "-m", "pcores.cli", *argv],
                           capture_output=True, env=env, timeout=60)
    traced = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(spans), "7", "--",
         *argv], capture_output=True, env=env, timeout=60)
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    trace = json.loads(spans.read_text())
    assert trace["request"] == "7" and trace["import_s"] > 0
    names = [trace["names"][s[2]] for s in trace["spans"]]
    assert names[-1] == "cli.run_cli"     # the root span ends last
    # modules import functions by name; the CLI's own references are traced
    assert ("series.pcore_count" in names) == (argv[0] == "count")
    children = Counter()
    for span_id, parent, _, start, end, self_ns, _, _ in trace["spans"]:
        assert 0 <= self_ns <= end - start
        if parent is not None:
            children[parent] += end - start
    for span_id, _, _, start, end, self_ns, _, _ in trace["spans"]:
        assert self_ns == end - start - children[span_id]


def test_layer_totals_aggregate_spans():
    totals = LayerTotals()
    names = ["cli.run_cli", "arith.dedekind_sum", "asympt.verify_dedekind_parity",
             "series.pcore_series", "cache.load", "cache.append"]
    #         id parent name start end self count hit
    spans = [[1, 0, 1, 10, 20, 10, None, False],
             [2, 0, 1, 20, 25, 5, None, True],
             [3, 0, 1, 25, 27, 2, None, True],
             [4, 0, 3, 30, 40, 10, 101, False],
             [5, 0, 4, 40, 41, 1, 1000, None],
             [0, None, 2, 0, 50, 22, None, None]]
    totals.add({"import_s": 0.5, "names": names, "spans": spans})
    m = {k: v for k, (v, _) in totals.metrics().items()}
    assert m["cli.import_s"] == 0.5
    assert m["arith.dedekind_sum.calls"] == 3
    assert m["arith.dedekind_sum.hit_ratio"] == pytest.approx(2 / 3)
    assert m["arith.dedekind_sum.self_s"] == pytest.approx(17e-9)
    assert m["asympt.verify.self_s"] == pytest.approx(22e-9)
    assert m["series.pcore_series.coeffs"] == 101
    assert m["cache.load.bytes"] == 1000 and m["cache.hit_ratio"] == 1.0


def test_layer_totals_stay_aligned_when_spans_are_missing():
    totals = LayerTotals()
    names = ["cli.run_cli", "fourier.dft"]
    totals.add({"import_s": 0.1, "names": names,
                "spans": [[0, None, 0, 0, 10, 4, None, None],
                          [1, 0, 1, 2, 8, 6, 16, None]]})
    totals.add(None)
    totals.add({"import_s": 0.1, "names": names,
                "spans": [[0, None, 1, 0, 9, 9, 4, None]]})
    assert totals.requests == 2 and len(totals.per_request) == 3
    assert totals.per_request[1] == {}
    tail = totals.breakdown([1.0, 2.0, 3.0])[1]
    assert "(1 requests" in tail and "fourier.dft 0.000s" in tail
