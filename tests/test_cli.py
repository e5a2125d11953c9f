"""Command-line interface: formats, exit codes, caching, determinism."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import pytest

from pcores import asympt
from pcores.asympt import approx_singular_series, leading_constant
from pcores.cli import _number_str, run_cli
from pcores.precision import DEFAULT_PRECISION, PrecisionConfig

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_basic(self, capsys):
        code, out, err = run(capsys, "count", "--p", "5", "--n", "4")
        assert code == 0
        assert "count: 5" in out
        assert err == ""

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "count", "--p", "5", "--n", "4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "parameters", "precision", "values",
                            "residuals", "pass"}
        assert doc["values"]["count"] == "5"
        assert doc["parameters"] == {"p": 5, "n": 4}
        assert doc["pass"] is True

    def test_big_count_is_decimal_string(self, capsys):
        code, out, _ = run(capsys, "count", "--p", "13", "--n", "500",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["values"]["count"].isdigit()


class TestSeries:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "series", "--p", "5", "--max-n", "6",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,count"
        assert len(lines) == 8
        assert lines[1] == "0,1"
        assert lines[5] == "4,5"
        assert out.endswith("\n")

    def test_text_rows(self, capsys):
        code, out, _ = run(capsys, "series", "--p", "7", "--max-n", "3")
        assert code == 0
        assert "3 3" in out.splitlines()


class TestApprox:
    def test_divisor_method_json(self, capsys):
        code, out, _ = run(capsys, "approx", "--p", "5", "--n", "30",
                           "--method", "divisor", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["constant"] == "1"
        assert doc["values"]["exact"] == doc["values"]["divisor_sum"]

    def test_divisor_method_constant_beyond_float_range(self, capsys):
        # the constant for p = 211 exceeds 10^308
        code, out, err = run(capsys, "approx", "--p", "211", "--n", "1000000",
                             "--method", "divisor", "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["values"]["constant"] == str(leading_constant(211, "iv"))

    def test_singular_method_default_depth(self, capsys):
        code, out, _ = run(capsys, "approx", "--p", "5", "--n", "30",
                           "--method", "singular", "--format", "json")
        doc = json.loads(out)
        assert doc["parameters"]["kmax"] == 50
        assert doc["residuals"]["relative_error"] < 0.05


class TestLeadingConstant:
    def test_consensus_seven(self, capsys):
        code, out, _ = run(capsys, "cp", "--p", "7")
        assert code == 0
        assert "consensus: 8" in out

    def test_single_variant(self, capsys):
        code, out, _ = run(capsys, "cp", "--p", "11", "--variant", "iv")
        assert code == 0
        assert "value: 1275" in out

    def test_consensus_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "cp", "--p", "211", "--prec", "20",
                             "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["values"]["consensus"] == str(leading_constant(211, "iv"))
        assert max(doc["residuals"].values()) < 1e-10


class TestTrig:
    def test_agreeing_sums(self, capsys):
        code, out, _ = run(capsys, "trig", "--r", "2", "--p", "7")
        assert code == 0
        assert "bernoulli_sum: 8" in out
        assert "cotangent_sum: 8" in out

    @pytest.mark.parametrize("argv", [
        "--r 20 --p 97",             # the sum is 0
        "--r 61 --p 97",             # a 159-digit integer
        "--r 14 --p 31 --prec 20",   # exact at any precision
    ])
    def test_exact_sums_pass(self, capsys, argv):
        code, out, err = run(capsys, "trig", *argv.split(),
                             "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["values"]["cotangent_sum"] == doc["values"]["bernoulli_sum"]
        assert doc["residuals"] == {}
        assert doc["pass"] is True

    def test_non_integer_sum_fails_with_envelope(self, capsys):
        # both sides are 412751/5: equal, but not an integer
        code, out, err = run(capsys, "trig", "--r", "9", "--p", "5")
        assert (code, err) == (1, "")
        assert "bernoulli_sum: 412751/5" in out
        assert "cotangent_sum: 412751/5" in out
        assert out.endswith("pass: false\n")


class TestBeyondTheStrLimit:
    # Python refuses str() of an int longer than 4300 digits; the CLI
    # prints numbers of any length through precision.int_str

    def test_approx_at_4400_digits_is_nstr(self, capsys):
        # the digit after the 4400th is 5 or more, so the half-up carry of
        # the 4400-digit head is taken too
        code, out, err = run(capsys, "approx", "--p", "7", "--n", "30001",
                             "--method", "singular", "--kmax", "5",
                             "--prec", "4400", "--format", "json")
        assert (code, err) == (0, "")
        config = PrecisionConfig(4400)
        estimate = approx_singular_series(7, 30001, 5, config).estimate
        ctx = config.context()
        expected = ctx.nstr(
            ctx.fdiv(estimate.numerator, estimate.denominator), 4400)
        assert json.loads(out)["values"]["estimate"] == expected

    def test_5000_digit_int_and_fraction(self):
        n, config = 10 ** 4999 + 12345, DEFAULT_PRECISION
        digits = "1" + "0" * 4994 + "12345"
        assert _number_str(n, config) == digits
        assert _number_str(-n, config) == "-" + digits
        assert _number_str(Fraction(n, 2), config) == digits + "/2"
        assert _number_str(Fraction(-1, n), config) == "-1/" + digits


class TestPrecisionFailure:
    def test_stalled_zeta_tail_exits_3(self, capsys, monkeypatch,
                                       clear_zeta_caches):
        # corrections that grow stall the Euler-Maclaurin tail of variant i
        import pcores.special
        monkeypatch.setattr(pcores.special, "_euler_maclaurin_coefficient",
                            lambda j: Fraction(10 ** (40 * j)))
        code, out, err = run(capsys, "cp", "--p", "7", "--variant", "i")
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "precision"
        assert "stalled" in doc["message"]


class TestClassnum:
    def test_known_value(self, capsys):
        code, out, _ = run(capsys, "classnum", "--p", "23")
        assert code == 0
        assert "class_number: 3" in out

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "classnum", "--p", "7",
                           "--method", "sawtooth")
        assert code == 0
        assert "class_number: 1" in out


class TestVerifySubcommands:
    def test_dedekind_parity_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "dedekind-parity", "--p", "5",
                           "--kmax", "25")
        assert code == 0
        assert "pass: true" in out

    def test_ramanujan_small(self, capsys):
        code, out, _ = run(capsys, "verify", "ramanujan-identity",
                           "--p", "5", "--kmax", "8", "--nmax", "8")
        assert code == 0

    def test_eta_transform_default_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "eta-transform")
        assert code == 0

    def test_eta_transform_shallow_product_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", "eta-transform",
                           "--factors", "6")
        assert code == 1
        assert "pass: false" in out

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_eta_transform_non_finite_t_exits_2(self, capsys, t):
        # one usage line, not a traceback from Fraction(inf)
        code, out, err = run(capsys, "verify", "eta-transform", "--t", t)
        assert (code, out) == (2, "")
        assert [json.loads(line) for line in err.splitlines()] == [
            {"error": "usage", "message": "t must be positive and finite"}]

    def test_eta_transform_tolerance_is_fixed(self, capsys):
        # a looser tolerance could only pass a product too shallow to check
        code, out, _ = run(capsys, "verify", "eta-transform",
                           "--factors", "1", "--tolerance", "inf")
        assert code == 2
        assert out == ""

    def test_trig_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "trig-identity", "--r", "2",
                           "--p", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["relative_sign"] == -1

    def test_divisibility_default_rmax(self, capsys):
        code, out, _ = run(capsys, "verify", "divisibility", "--p", "5",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"]["rmax"] == 9
        assert doc["values"]["first_non_integer"] == 9

    def test_fft_small(self, capsys):
        code, out, _ = run(capsys, "verify", "fft", "--kmax", "4",
                           "--rmax", "2", "--smax", "2", "--pmax", "7",
                           "--grids", "8", "--grid-kmax", "12")
        assert code == 0

    def test_dirichlet_series_small(self, capsys):
        code, out, _ = run(capsys, "verify", "dirichlet-series", "--p", "5",
                           "--kmax", "1500")
        assert code == 0

    def test_divisibility_short_of_the_first_failure(self, capsys):
        # r = 20, where p = 7 first gives a non-integer, is not scanned
        code, out, err = run(capsys, "verify", "divisibility", "--p", "7",
                             "--rmax", "5")
        assert (code, err) == (0, "")
        assert "first_non_integer: none" in out.splitlines()
        assert "first_failure_holds: none" in out.splitlines()
        assert out.endswith("pass: true\n")


def altered(name, change, when=lambda *args: True):
    """asympt's function ``name`` with ``change`` applied to each value
    whose arguments satisfy ``when``."""
    original = getattr(asympt, name)

    def wrong(*args):
        value = original(*args)
        return change(value) if when(*args) else value

    return wrong


class TestFailingChecks:
    """Every check fails, with exit 1, once one ingredient is wrong."""

    def run_failing(self, capsys, *argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["pass"] is False
        return doc["values"]

    def run_raising(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "verification"
        return doc["message"]

    def test_ramanujan_identity_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr(asympt, "ramanujan_sum",
                            altered("ramanujan_sum", lambda c: c + 1))
        values = self.run_failing(capsys, "verify", "ramanujan-identity",
                                  "--p", "5", "--kmax", "3", "--nmax", "2")
        assert len(values["counterexamples"]) == values["checked"] == 9
        assert all(row["sum"] != row["expected"]
                   for row in values["counterexamples"])

    def test_dedekind_parity_non_integer(self, capsys, monkeypatch):
        monkeypatch.setattr(asympt, "_phase_6k",
                            altered("_phase_6k", lambda phase: phase + 1))
        values = self.run_failing(capsys, "verify", "dedekind-parity",
                                  "--p", "5", "--kmax", "6")
        reasons = {row["reason"] for row in values["counterexamples"]}
        assert reasons == {"non-integer"}
        assert len(values["counterexamples"]) == values["checked"]

    def test_dedekind_parity_wrong_parity(self, capsys, monkeypatch):
        # (k|5) = -1 for k = 2 and 3, whose deltas must then be odd
        monkeypatch.setattr(asympt, "legendre_symbol", lambda a, p: 1)
        values = self.run_failing(capsys, "verify", "dedekind-parity",
                                  "--p", "5", "--kmax", "4")
        assert {(row["k"], row["reason"])
                for row in values["counterexamples"]} == {(2, "parity"),
                                                          (3, "parity")}

    def test_divisibility_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(asympt, "bernoulli_char_sum",
                            altered("bernoulli_char_sum", lambda v: v + 1))
        values = self.run_failing(capsys, "verify", "divisibility",
                                  "--p", "7", "--rmax", "5")
        assert values["divisibility_holds"] is False
        assert values["first_failure_holds"] is None

    def test_class_number_routes_disagree(self, capsys, monkeypatch):
        monkeypatch.setattr(asympt, "quadratic_sawtooth_sum",
                            altered("quadratic_sawtooth_sum",
                                    lambda v: v + 1))
        message = self.run_raising(capsys, "classnum", "--p", "7")
        assert "class-number methods disagree for p=7" in message

    @pytest.mark.parametrize("variant, factor, message", [
        ("i", -1, "not positive"),   # the Hurwitz-zeta variant negated
        ("ii", 2, "variant ii for p=7 off consensus"),
    ])
    def test_leading_constant_variant_off(self, capsys, monkeypatch,
                                          variant, factor, message):
        monkeypatch.setattr(asympt, "leading_constant",
                            altered("leading_constant", lambda c: c * factor,
                                    lambda p, v, config: v == variant))
        assert message in self.run_raising(capsys, "cp", "--p", "7")


class TestUsageErrors:
    def test_nonprime_p(self, capsys):
        code, out, err = run(capsys, "count", "--p", "9", "--n", "5")
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, "count", "--p", "5", "--n", "1",
                             "--bogus")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, out, err = run(capsys)
        assert code == 2

    def test_small_precision_rejected(self, capsys):
        code, _, err = run(capsys, "count", "--p", "5", "--n", "1",
                           "--prec", "5")
        assert code == 2

    def test_negative_n(self, capsys):
        code, _, err = run(capsys, "count", "--p", "5", "--n", "-1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        "verify ramanujan-identity --p 5 --kmax 0",
        "verify dedekind-parity --p 5 --kmax 0",
        "verify fft --kmax 1 --pmax 2 --grids 0",
        "verify fft --kmax 2 --rmax 1 --smax 2 --pmax 3 --grids 2 --grid-kmax 1",
    ])
    def test_verify_checking_nothing(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "usage"

    def test_kmax_with_divisor_method(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        code, out, err = run(capsys, "approx", "--p", "17", "--n", "1000",
                             "--method", "divisor", "--kmax", "7",
                             "--cache", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "usage"
        assert not path.exists()


class TestPrecisionResolution:
    def test_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("PCORE_PREC", "35")
        code, out, _ = run(capsys, "cp", "--p", "5")
        assert code == 0
        assert "precision: 35" in out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PCORE_PREC", "35")
        code, out, _ = run(capsys, "cp", "--p", "5", "--prec", "44")
        assert "precision: 44" in out

    def test_bad_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PCORE_PREC", "many")
        code, _, err = run(capsys, "cp", "--p", "5")
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_default_is_sixty(self, capsys, monkeypatch):
        monkeypatch.delenv("PCORE_PREC", raising=False)
        code, out, _ = run(capsys, "count", "--p", "5", "--n", "1")
        assert "precision: 60" in out


class TestDeterminismAndCache:
    def test_byte_identical_reruns(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "cp", "--p", "13", "--format", "json")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_cache_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cache.jsonl"
        _, first, _ = run(capsys, "cp", "--p", "11", "--cache", str(path),
                          "--format", "json")
        assert path.exists()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        _, second, _ = run(capsys, "cp", "--p", "11", "--cache", str(path),
                           "--format", "json")
        assert first == second
        assert len(path.read_text().splitlines()) == 1  # hit, no re-append

    def test_cache_distinguishes_precision(self, capsys, tmp_path):
        path = tmp_path / "cache.jsonl"
        run(capsys, "cp", "--p", "7", "--cache", str(path))
        run(capsys, "cp", "--p", "7", "--cache", str(path), "--prec", "40")
        assert len(path.read_text().splitlines()) == 2

    def test_corrupt_lines_skipped(self, capsys, tmp_path):
        path = tmp_path / "cache.jsonl"
        _, first, _ = run(capsys, "count", "--p", "5", "--n", "9",
                          "--cache", str(path))
        with path.open("a") as handle:
            handle.write("{not json}\n")
            handle.write('{"key": "k", "payload": 1, "checksum": "bad"}\n')
        code, out, _ = run(capsys, "count", "--p", "5", "--n", "9",
                           "--cache", str(path))
        assert code == 0
        assert out == first

    def test_unwritable_cache_exits_4(self, capsys, tmp_path):
        blocker = tmp_path / "f"
        blocker.write_text("")
        code, out, err = run(capsys, "count", "--p", "5", "--n", "10",
                             "--cache", str(blocker / "c.jsonl"))
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "io"


# README commands in every format, recorded before the CLI was rebuilt on
# its command table; the two slow verify sweeps are shrunk to keep the
# suite fast.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json")
                    .read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_golden_rendering(capsys, monkeypatch, case):
    monkeypatch.delenv("PCORE_PREC", raising=False)
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


def _prepend(directory, rest):
    return os.pathsep.join(filter(None, [str(directory), rest]))


def checkout_env(bin_dir=None):
    """Environment for a child process that imports this checkout's `src`
    ahead of any installed `pcores`, with `bin_dir` (if given) first on
    PATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _prepend(SRC, env.get("PYTHONPATH"))
    if bin_dir is not None:
        env["PATH"] = _prepend(bin_dir, env.get("PATH"))
    return env


def declared_console_script(name):
    """The `[project.scripts]` entry `name` of pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    return metadata.EntryPoint(name=name, value=scripts[name],
                               group="console_scripts")


def write_launcher(bin_dir, entry_point):
    """Write the launcher pip generates for a console script."""
    bin_dir.mkdir()
    path = bin_dir / entry_point.name
    path.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry_point.module} import {entry_point.attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({entry_point.attr}())\n")
    path.chmod(0o755)
    return path


def installed_console_scripts(name):
    """Console-script entry points `name` of an installed `pcores`."""
    try:
        dist = metadata.distribution("pcores")
    except metadata.PackageNotFoundError:
        return []
    return list(dist.entry_points.select(group="console_scripts", name=name))


def assert_classnum_csv(env):
    result = subprocess.run(
        ["pcore", "classnum", "--p", "11", "--format", "csv"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert "class_number,1" in result.stdout


class TestInstalledEntryPoint:
    def test_subprocess_smoke(self):
        result = subprocess.run(
            [sys.executable, "-m", "pcores.cli", "count", "--p", "7",
             "--n", "10"],
            capture_output=True, text=True, env=checkout_env())
        assert result.returncode == 0
        assert "count: 21" in result.stdout

    def test_console_script(self, tmp_path):
        declared = declared_console_script("pcore")

        bin_dir = tmp_path / "bin"
        launcher = write_launcher(bin_dir, declared)
        env = checkout_env(bin_dir)
        assert shutil.which("pcore", path=env["PATH"]) == str(launcher)
        assert_classnum_csv(env)

        installed = installed_console_scripts("pcore")
        if installed:
            assert [ep.value for ep in installed] == [declared.value]
            script = shutil.which("pcore")
            assert script is not None, "pcores installed, pcore not on PATH"
            assert_classnum_csv(checkout_env(Path(script).parent))
