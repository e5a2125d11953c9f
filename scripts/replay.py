#!/usr/bin/env python3
"""Replay one fixed set of requests on REV's src/ and on the checkout's,
and report every output that differs.

    python3 scripts/replay.py REV [--moved COMMAND:FIELD ...]

REV's src/ is exported with ``git archive`` into a temporary directory.
Each tree runs the whole request set in one subprocess, calling
``pcores.cli.run_cli`` in process, and the two trees run side by side.
The requests are:

- every request of tests/data/cli_golden.json;
- the first 100 requests of seeds 0 and 1 of each workload stream of
  perfbench/workloads.py, with --cache dropped;
- a precision sweep of approx, cp and verify dirichlet-series from 20 to
  4400 digits, across Python's 4300-digit limit on str() of an int.

For each request the stdout, the stderr and the exit code are compared.
``--moved COMMAND:FIELD`` (repeatable, e.g. ``"verify fft:max_row_deviation"``)
lets the value or residual line named FIELD of COMMAND's output differ, in
text, JSON and CSV.  Every difference is printed; the script exits 1 if
any is not allowed, 0 otherwise.  It needs git and the packages the tests
use, and no network.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1)
PER_STREAM = 100
SWEEP_DIGITS = (20, 60, 200, 1000, 4290, 4295, 4400)
SWEEP = ("approx --p 7 --n 30001 --method singular --kmax 5",
         "approx --p 17 --n 1000 --method divisor",
         "cp --p 5",
         "verify dirichlet-series --p 5 --s 2 --n 3")

# Runs in each tree's subprocess: argv lists in on stdin, one
# [code, stdout, stderr] per request out to the file named by argv[1].
RUNNER = """
import contextlib, io, json, sys
from pcores.cli import run_cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    results.append([code, out.getvalue(), err.getvalue()])
with open(sys.argv[1], "w") as handle:
    json.dump(results, handle)
"""


def requests() -> list[list[str]]:
    """The argv of every request, in replay order."""
    golden = json.loads((REPO_ROOT / "tests/data/cli_golden.json").read_text())
    argvs = [case["argv"] for case in golden]
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    from workloads import WORKLOADS, generate
    for workload in WORKLOADS:
        for seed in SEEDS:
            for request in generate(workload, seed, PER_STREAM):
                argv = request.argv()
                if "--cache" in argv:
                    at = argv.index("--cache")
                    del argv[at:at + 2]
                argvs.append(argv)
    for digits in SWEEP_DIGITS:
        for line in SWEEP:
            argvs.append(line.split() + ["--prec", str(digits),
                                         "--format", "json"])
    return argvs


def command_of(argv: list[str]) -> str:
    return " ".join(argv[:2]) if argv[0] == "verify" else argv[0]


def masked(text: str, fields) -> str:
    """text with the value of each named field replaced by '*': the text
    line 'FIELD: v' or 'residual FIELD: v', the JSON line '"FIELD": v' and
    the CSV row 'FIELD,v' or 'residual_FIELD,v'."""
    for field in fields:
        name = re.escape(field)
        text = re.sub(rf'(?m)^((?:residual )?{name}: ).*$', r"\1*", text)
        text = re.sub(rf'(?m)^(\s*"{name}": ).*?(,?)$', r"\1*\2", text)
        text = re.sub(rf'(?m)^((?:residual_)?{name},).*$', r"\1*", text)
    return text


def _short(line: str) -> str:
    # long lines are numbers that often differ only in their last digits
    return line if len(line) <= 160 else f"{line[:70]} ... {line[-70:]}"


def start(src: Path, argvs, out: Path) -> subprocess.Popen:
    env = {key: value for key, value in os.environ.items()
           if key != "PCORE_PREC"}
    env["PYTHONPATH"] = str(src)
    process = subprocess.Popen([sys.executable, "-c", RUNNER, str(out)],
                               stdin=subprocess.PIPE, env=env, text=True)
    process.stdin.write(json.dumps(argvs))
    process.stdin.close()
    return process


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--moved", action="append", default=[],
                        metavar="COMMAND:FIELD",
                        help="a field allowed to differ (repeatable)")
    args = parser.parse_args()
    moved: dict[str, list[str]] = {}
    for item in args.moved:
        command, sep, field = item.rpartition(":")
        if not sep or not command or not field:
            parser.error(f"--moved needs COMMAND:FIELD, got {item!r}")
        moved.setdefault(command, []).append(field)
    began = time.perf_counter()
    argvs = requests()
    with tempfile.TemporaryDirectory(prefix="pcores-replay-") as directory:
        root = Path(directory)
        archive = subprocess.run(["git", "archive", args.rev, "src"],
                                 cwd=REPO_ROOT, capture_output=True)
        if archive.returncode:
            sys.stderr.write(archive.stderr.decode())
            return 2
        subprocess.run(["tar", "-x", "-C", str(root)], input=archive.stdout,
                       check=True)
        trees = {args.rev: root / "src", "checkout": REPO_ROOT / "src"}
        processes = {name: start(src, argvs, root / f"{i}.json")
                     for i, (name, src) in enumerate(trees.items())}
        failed = [name for name, process in processes.items()
                  if process.wait()]
        for name in failed:
            print(f"the {name} tree's runner failed")
        if failed:
            return 2
        base, head = (json.loads((root / f"{i}.json").read_text())
                      for i in range(2))
    allowed = other = 0
    for argv, old, new in zip(argvs, base, head):
        if old == new:
            continue
        fields = moved.get(command_of(argv), ())
        ok = old[0] == new[0] and old[2] == new[2] \
            and masked(old[1], fields) == masked(new[1], fields)
        allowed += ok
        other += not ok
        print(f"{'moved' if ok else 'DIFFERS'}: {' '.join(argv)}")
        old_lines, new_lines = (set((out + err).splitlines())
                                for _, out, err in (old, new))
        for label, code, mine, theirs in (
                (args.rev, old[0], old_lines, new_lines),
                ("checkout", new[0], new_lines, old_lines)):
            only = sorted(_short(line.strip()) for line in mine - theirs)
            print(f"  {label}: exit {code}; "
                  + ("; ".join(only[:4]) or "no other lines"))
    print(f"{len(argvs)} requests: {len(argvs) - allowed - other} identical, "
          f"{allowed} moved as allowed, {other} other differences "
          f"({time.perf_counter() - began:.0f} s)")
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main())
