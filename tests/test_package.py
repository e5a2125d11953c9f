"""The package as callers see it: what an import loads, and the README's
library example."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["pcores.arith", "pcores.cache",
                                    "pcores.precision", "pcores.series"])
def test_import_loads_no_other_layer(module):
    # the pure-integer layers, and precision until a context is built, must
    # not pay for mpmath or the other layers
    probe = (f"import sys, json, {module}\n"
             "print(json.dumps(sorted(name for name in sys.modules\n"
             "    if name.split('.')[0] in ('mpmath', 'pcores'))))")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == ["pcores", module]


# Modules that only some commands need: dataclasses (with inspect) and
# mpmath in none, hashlib (with OpenSSL's _hashlib) only under --cache, and
# pcores.fourier only in verify fft.
OPTIONAL_MODULES = ("dataclasses", "inspect", "hashlib", "_hashlib",
                    "mpmath", "pcores.fourier")

# One case per COMMANDS row.  Every command computes in integers,
# Fractions and fixed-point values, so none loads mpmath.
LOAD_CASES = [
    (["classnum", "--p", "199"], []),
    (["approx", "--p", "17", "--n", "100000", "--method", "singular"], []),
    (["verify", "fft", "--kmax", "2", "--rmax", "1", "--smax", "2",
      "--pmax", "3", "--grids", "2", "--grid-kmax", "2"],
     ["pcores.fourier"]),
    (["count", "--p", "5", "--n", "10", "--cache", "CACHE"],
     ["_hashlib", "hashlib"]),
    (["series", "--p", "5", "--max-n", "10"], []),
    (["cp", "--p", "5"], []),
    (["trig", "--r", "8", "--p", "97"], []),
    (["verify", "ramanujan-identity", "--p", "13", "--kmax", "15",
      "--nmax", "15"], []),
    (["verify", "dedekind-parity", "--p", "13", "--kmax", "60"], []),
    (["verify", "dirichlet-series", "--p", "7", "--s", "3", "--n", "12",
      "--kmax", "100"], []),
    (["verify", "eta-transform", "--p", "7", "--h", "1", "--k", "6",
      "--t", "0.217"], []),
    (["verify", "trig-identity", "--r", "4", "--p", "43"], []),
    (["verify", "divisibility", "--p", "7", "--rmax", "5"], []),
]


def _command_name(argv):
    return " ".join(argv[:2]) if argv[0] == "verify" else argv[0]


@pytest.mark.parametrize("argv, loaded", LOAD_CASES)
def test_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    # the modules a command adds to those the interpreter starts with; a
    # COMMANDS row without a case fails every case
    from pcores.cli import COMMANDS
    assert sorted(_command_name(case) for case, _ in LOAD_CASES) == sorted(
        command.name for command in COMMANDS)
    argv = [str(tmp_path / "cache.jsonl") if a == "CACHE" else a
            for a in argv]
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             "from pcores.cli import run_cli\n"
             "code = run_cli(sys.argv[1:])\n"
             "print(json.dumps([code, sorted(set(sys.modules) - before)]))")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe, *argv],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    code, added = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert [name for name in added if name in OPTIONAL_MODULES] == loaded


@pytest.mark.parametrize("argv", [argv for argv, _ in LOAD_CASES])
def test_command_runs_with_mpmath_blocked(tmp_path, argv):
    # with mpmath's import refused, each command exits and prints as it does
    # with mpmath importable
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    runs = []
    for block in (False, True):
        probe = ("import sys\n"
                 + ("sys.modules['mpmath'] = None\n" if block else "")
                 + "from pcores.cli import run_cli\n"
                 "sys.exit(run_cli(sys.argv[1:]))")
        args = [str(tmp_path / f"{block}.jsonl") if a == "CACHE" else a
                for a in argv]
        result = subprocess.run([sys.executable, "-c", probe, *args],
                                capture_output=True, text=True, env=env)
        runs.append((result.returncode, result.stdout, result.stderr))
    assert runs[1] == runs[0]


def _contexts_built(argv):
    # [exit code, mpmath contexts built] of one command in a fresh process
    probe = ("import json, sys\n"
             "from pcores import precision\n"
             "from pcores.cli import run_cli\n"
             "code = run_cli(sys.argv[1:])\n"
             "print(json.dumps([code, precision._context.cache_info()"
             ".currsize]))")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe, *argv],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["trig", "--r", "8", "--p", "97"],
    ["classnum", "--p", "199"],
    ["verify", "trig-identity", "--r", "4", "--p", "43"],
    ["verify", "ramanujan-identity", "--p", "13", "--kmax", "15",
     "--nmax", "15"],
    ["cp", "--p", "7"],
    ["approx", "--p", "17", "--n", "30001", "--method", "singular",
     "--kmax", "120"],
    ["verify", "dirichlet-series", "--p", "7", "--s", "3", "--n", "12",
     "--kmax", "100", "--prec", "100"],
])
def test_exact_command_builds_no_mpmath_context(argv):
    # these commands compute in integers alone, whatever --prec says
    assert _contexts_built(argv) == [0, 0]


def test_divisor_estimate_builds_no_context():
    # the exact leading constant and the rounded D/C need no context
    assert _contexts_built(["approx", "--p", "17", "--n", "1000",
                            "--method", "divisor", "--prec", "40"]) == [0, 0]


def test_readme_library_example():
    # every expression line commented with a number must evaluate to it;
    # "~x" means within 5 %
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.partition("## Library example")[2]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README",
                             "eval"), namespace)
        comment = lines[statement.end_lineno - 1].partition("#")[2]
        claim = re.match(r"\s*(~?)(-?[0-9.]+(?:e-?[0-9]+)?)", comment)
        assert claim, f"no value in the comment of line {statement.lineno}"
        approximate, number = claim.groups()
        if approximate:
            assert math.isclose(value, float(number), rel_tol=0.05)
        else:
            assert value == int(number)
        checked += 1
    assert checked == 4
