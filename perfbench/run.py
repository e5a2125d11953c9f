"""The pcores benchmark.

Replays a seeded stream of ``pcore`` requests, each one a fresh
``python -m pcores.cli`` process with PYTHONPATH=src, as one client in a
closed loop: the next request starts when the previous one has exited.
Every answer is checked (see check.py).  The last stdout line is one JSON
object {correct, attempted, failed, metrics}.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics.  --trace 1 replays the stream
twice over, each request untraced and then through traced_cli.py, checks
that both print the same bytes, and reports per-layer metrics from the
spans plus the scaling ladders of ladders.py.

Run from the root of a checkout; all scratch files go to .perfbench-work/
there and are removed at exit.

For the default seed, --trace 0 also compares a digest of the first
MIN_REQUESTS answers with digest.json.  When the stream changes on purpose,
copy the digest that the mismatch message prints into digest.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import Checker  # noqa: E402
from stats import median, percentile  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
DIGEST_FILE = HERE / "digest.json"
DEFAULT_SEED = 0
# p90 needs ten samples beyond it, so a run lasts until at least this many
# requests have completed, even past --seconds ...
MIN_REQUESTS = 100
# ... but starts no request after this many seconds, to exit in time.
MAX_SECONDS = 150
SETUP_REPEATS = 5
WARM_UP = ["count", "--p", "5", "--n", "10", "--format", "json"]


@dataclass
class Outcome:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    max_rss_kb: int


class Runner:
    """Starts request processes, one at a time, and measures each."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PCORE_PREC", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, argv: list[str]) -> Outcome:
        out, err = self.work / "stdout", self.work / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv],
                             self.env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        return Outcome(exit_code=os.waitstatus_to_exitcode(status),
                       stdout=out.read_bytes(), stderr=err.read_bytes(),
                       wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                       max_rss_kb=usage.ru_maxrss)

    def cli(self, argv: list[str]) -> Outcome:
        return self.run(["-m", "pcores.cli", *argv])


def set_up(runner: Runner, workload: str, seed: int, count: int, tag: str):
    """Generate the stream, warm up (bytecode compiled, files cached) and
    start fresh cache files; returns (seconds taken, requests, caches)."""
    start = time.perf_counter()
    requests = generate(workload, seed, count)
    warm = runner.cli(WARM_UP)
    if warm.exit_code != 0:
        raise RuntimeError("warm-up request failed: "
                           + warm.stderr.decode(errors="replace").strip())
    caches = []
    for side in ("plain", "traced"):
        path = runner.work / f"cache-{tag}-{side}.jsonl"
        path.write_bytes(b"")
        caches.append(str(path))
    return time.perf_counter() - start, requests, caches


def stream_length(seconds: int) -> int:
    # more than a closed loop of 0.05 s requests could use
    return MIN_REQUESTS + 20 * seconds


def measure(runner: Runner, workload: str, seed: int, seconds: int):
    setups = [set_up(runner, workload, seed, stream_length(seconds), str(i))
              for i in range(SETUP_REPEATS)]
    _, requests, (cache, _) = setups[-1]
    checker = Checker()
    walls, cpus, rss, failures = [], [], [], []
    digest = None
    start = time.perf_counter()
    for index, request in enumerate(requests):
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and index >= MIN_REQUESTS) \
                or elapsed >= MAX_SECONDS:
            break
        outcome = runner.cli(request.argv(cache))
        walls.append(outcome.wall_s)
        cpus.append(outcome.cpu_s)
        rss.append(outcome.max_rss_kb)
        problems = checker.check(request, outcome.exit_code, outcome.stdout)
        if problems:
            failures.append((index, request, problems, outcome.stderr))
        if index + 1 == MIN_REQUESTS:
            digest = checker.digest()
    wall = time.perf_counter() - start
    attempted = len(walls)
    metrics = {
        "throughput_rps": (attempted / wall, "1/s"),
        "latency_p50_s": (percentile(walls, 50), "s"),
        "latency_p90_s": (percentile(walls, 90), "s"),
        "cpu_per_request_s": (sum(cpus) / attempted, "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
        "success_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        "setup_s": (median([s[0] for s in setups]), "s"),
    }
    return attempted, failures, digest, metrics


# --- traced run -------------------------------------------------------------

SELF_TIMES = (
    "cli.run_cli", "cache.load", "cache.append", "series.pcore_series",
    "series.pcore_numerator", "series.eta_quotient_value", "arith.dedekind_sum",
    "arith.ramanujan_sum", "arith.bernoulli_poly", "arith.divisors",
    "special.hurwitz_zeta", "special.periodic_zeta", "special.cot_derivative",
    "fourier.dft", "fourier.verify_transform_table", "asympt.exp_sum",
    "asympt.singular_term", "asympt.approx_divisor_sum",
    "asympt.leading_constant_report", "precision.snap_integer")
CALL_COUNTS = (
    "arith.dedekind_sum", "arith.ramanujan_sum", "arith.bernoulli_poly",
    "arith.legendre_symbol", "special.hurwitz_zeta", "special.periodic_zeta",
    "special.cot_derivative", "fourier.dft", "asympt.exp_sum",
    "precision.snap_integer")
HIT_RATIOS = ("series.pcore_series", "arith.dedekind_sum")
# the verify family, reported together as asympt.verify
VERIFY = ("asympt.divisibility_scan", "asympt.class_number")


class LayerTotals:
    """Per-layer sums over the spans of every traced request."""

    def __init__(self) -> None:
        self.requests = 0
        self.import_s = 0.0
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.work = defaultdict(float)     # counts from computed calls
        self.hits = defaultdict(int)
        self.lookups = defaultdict(int)
        self.headroom = None
        self.per_request: list[dict] = []  # name -> self ns, per request

    def add(self, trace: dict | None) -> None:
        """Adds one request's spans; None stands for a request that wrote
        none, so that per_request stays aligned with the run's requests."""
        if trace is None:
            self.per_request.append({})
            return
        self.requests += 1
        self.import_s += trace["import_s"]
        names = trace["names"]
        mine = defaultdict(int)
        for _, _, index, _, _, self_ns, count, hit in trace["spans"]:
            name = names[index]
            self.self_ns[name] += self_ns
            mine[name] += self_ns
            self.calls[name] += 1
            if hit is not None:
                self.lookups[name] += 1
                self.hits[name] += hit
            if name == "precision.snap_integer":
                if count is not None:
                    self.headroom = count if self.headroom is None \
                        else min(self.headroom, count)
            elif count is not None and not hit:
                self.work[name] += count
        self.per_request.append(mine)

    def metrics(self) -> dict:
        n = max(self.requests, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {"cli.import_s": (self.import_s / n, "s/req")}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9 / n, "s/req")
        verify_ns = sum(ns for name, ns in self.self_ns.items()
                        if name.startswith("asympt.verify_") or name in VERIFY)
        out["asympt.verify.self_s"] = (verify_ns / 1e9 / n, "s/req")
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = (self.calls[name] / n, "calls/req")
        for name in HIT_RATIOS:
            out[f"{name}.hit_ratio"] = (
                ratio(self.hits[name], self.lookups[name]), "ratio")
        loads, appends = self.calls["cache.load"], self.calls["cache.append"]
        out["cache.load.bytes"] = (ratio(self.work["cache.load"], loads),
                                   "bytes/load")
        out["cache.hit_ratio"] = (ratio(loads - appends, loads), "ratio")
        out["series.pcore_series.coeffs"] = (
            self.work["series.pcore_series"] / n, "coeffs/req")
        out["series.eta_quotient_value.factors"] = (
            self.work["series.eta_quotient_value"] / n, "factors/req")
        out["fourier.dft.mults"] = (self.work["fourier.dft"] / n,
                                    "calc-mults/req")
        out["precision.snap_headroom_min_digits"] = (
            self.headroom if self.headroom is not None else 0.0, "digits")
        return out

    def breakdown(self, walls: list[float]) -> list[str]:
        """Human-readable top layers by self time, over all requests and
        over the slowest tenth of them."""
        lines = []
        tail_cut = percentile(walls, 90) if walls else 0.0
        for label, chosen in (
                ("all", range(len(walls))),
                ("tail", [i for i, w in enumerate(walls) if w >= tail_cut])):
            totals = defaultdict(int)
            for i in chosen:
                for name, ns in self.per_request[i].items():
                    totals[name] += ns
            wall = sum(walls[i] for i in chosen)
            top = sorted(totals.items(), key=lambda kv: -kv[1])[:8]
            lines.append(f"self time, {label} ({len(chosen)} requests, "
                         f"{wall:.2f} s untraced): " + ", ".join(
                             f"{name} {ns / 1e9:.3f}s" for name, ns in top))
        return lines


def measure_traced(runner: Runner, workload: str, seed: int, seconds: int):
    _, requests, (plain_cache, traced_cache) = set_up(
        runner, workload, seed, stream_length(seconds), "traced")
    checker = Checker()
    totals = LayerTotals()
    plain_walls, traced_walls, failures = [], [], []
    spans_path = runner.work / "spans.json"
    start = time.perf_counter()
    for index, request in enumerate(requests):
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and index > 0) or elapsed >= MAX_SECONDS:
            break
        plain = runner.cli(request.argv(plain_cache))
        traced = runner.run([str(HERE / "traced_cli.py"), str(spans_path),
                             str(index), "--", *request.argv(traced_cache)])
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        problems = checker.check(request, plain.exit_code, plain.stdout)
        if (traced.exit_code, traced.stdout) != (plain.exit_code, plain.stdout):
            problems.append("traced run printed other bytes or exit code")
        spans = None
        if spans_path.exists():
            try:
                spans = json.loads(spans_path.read_text())
            except ValueError:
                pass
            spans_path.unlink()
        if spans is None:
            problems.append("traced run wrote no spans")
        totals.add(spans)
        if problems:
            failures.append((index, request, problems,
                             plain.stderr + traced.stderr))
    ladder = runner.run([str(HERE / "ladders.py")])
    if ladder.exit_code != 0:
        raise RuntimeError("ladders failed: "
                           + ladder.stderr.decode(errors="replace").strip())
    ladder_result = json.loads(ladder.stdout)
    metrics = totals.metrics()
    metrics["trace.overhead_ratio"] = (sum(traced_walls) / sum(plain_walls),
                                       "ratio")
    for name in ("series.pcore_series.exponent",
                 "asympt.approx_singular_series.exponent",
                 "fourier.dft.exponent"):
        metrics[name] = (ladder_result[name], "exponent")
    for line in totals.breakdown(plain_walls):
        print(line)
    print("ladders: " + json.dumps(ladder_result["points"]))
    return len(plain_walls), failures, None, metrics


# --- reporting --------------------------------------------------------------

def environment(workload: str, seed: int, seconds: int, trace: int,
                attempted: int) -> dict:
    import mpmath
    sources = hashlib.sha256()
    for path in sorted((SRC / "pcores").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "source_sha256": sources.hexdigest(),
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "requests": attempted}


def git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a
    repository (the source hash then identifies the code)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def expected_digest(workload: str) -> str | None:
    try:
        return json.loads(DIGEST_FILE.read_text()).get(workload)
    except (OSError, json.JSONDecodeError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pcores" / "cli.py").is_file():
        print(f"no pcores sources under {SRC}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        runner = Runner(work)
        measure_fn = measure_traced if args.trace else measure
        attempted, failures, digest, metrics = measure_fn(
            runner, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    correct = not failures
    for index, request, problems, stderr in failures[:10]:
        print(f"request {index} failed: {' '.join(request.argv('CACHE'))}: "
              f"{'; '.join(problems)} {stderr.decode(errors='replace')[:300]}",
              file=sys.stderr)
    if not args.trace and attempted < MIN_REQUESTS:
        print(f"the run ended after {attempted} requests, fewer than the "
              f"{MIN_REQUESTS} that p90 needs", file=sys.stderr)
    if args.seed == DEFAULT_SEED and not args.trace:
        expected = expected_digest(args.workload)
        if digest is None:
            correct = False
            print(f"the run ended before the {MIN_REQUESTS} answers that "
                  f"the committed digest covers", file=sys.stderr)
        elif digest != expected:
            correct = False
            print(f"answer digest {digest} differs from the committed "
                  f"{expected}", file=sys.stderr)
    print(json.dumps({"environment": environment(
        args.workload, args.seed, args.seconds, args.trace, attempted)}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
