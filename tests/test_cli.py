import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import qtherm.checks
from qtherm import cli as cli_module
from qtherm import maxent
from qtherm.cli import cli
from qtherm.entropy import as_distribution, escort, tsallis
from qtherm.fileio import read_column, read_distribution, read_spectrum
from qtherm.errors import ParseError
from qtherm.maxent import solve_maxent


@pytest.fixture()
def runner():
    return CliRunner()


def _not_json(token):
    raise AssertionError(f"{token} is not a JSON value")


def _payload(result):
    for line in result.output.splitlines():
        if line.startswith("{"):
            return json.loads(line, parse_constant=_not_json)
    raise AssertionError(f"no JSON payload in output: {result.output!r}")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _g17(x: float) -> str:
    return format(x, ".17g")


def _fresh_env() -> dict:
    """The environment of a new interpreter that imports this qtherm."""
    src = os.path.dirname(os.path.dirname(qtherm.checks.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this qtherm."""
    return subprocess.run([sys.executable, "-c", code], env=_fresh_env(), check=True,
                          capture_output=True, text=True).stdout


class TestTransformCommand:
    def test_rescale(self, runner):
        result = runner.invoke(cli, ["transform", "--q", "1.5", "--alpha", "2"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["q_alpha"] == 1.25
        assert payload["additive_dual"] == 0.5
        assert payload["additive_dual_in_range"] is True

    def test_unit_invariant(self, runner):
        result = runner.invoke(cli, ["transform", "--q", "1", "--alpha", "9"])
        assert _payload(result)["q_alpha"] == 1.0

    def test_zero_alpha_is_flag_error(self, runner):
        result = runner.invoke(cli, ["transform", "--q", "1.5", "--alpha", "0"])
        assert result.exit_code == 2
        assert "alpha must be nonzero" in result.output

    def test_out_of_range_dual_is_flagged(self, runner):
        result = runner.invoke(cli, ["transform", "--q", "2.5", "--alpha", "2"])
        payload = _payload(result)
        assert payload["additive_dual"] == -0.5
        assert payload["additive_dual_in_range"] is False

    def test_zero_q_has_no_multiplicative_dual(self, runner):
        result = runner.invoke(cli, ["transform", "--q", "0", "--alpha", "2"])
        assert _payload(result)["multiplicative_dual"] is None

    def test_overflowed_dual_is_null(self, runner):
        # 1/5e-324 overflows; JSON has no Infinity token
        result = runner.invoke(cli, ["transform", "--q", "5e-324", "--alpha", "1"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["multiplicative_dual"] is None
        assert payload["multiplicative_dual_in_range"] is False

    @pytest.mark.parametrize("alpha", ["1e-320", "-1e-320"])
    def test_overflowing_q_alpha_is_domain_error(self, runner, alpha):
        result = runner.invoke(cli, ["transform", "--q", "1.5", "--alpha", alpha])
        assert result.exit_code == 4
        assert "q_alpha overflows" in result.output
        assert result.stdout == ""

    def test_non_finite_q_is_flag_error(self, runner):
        result = runner.invoke(cli, ["transform", "--q", "nan", "--alpha", "2"])
        assert result.exit_code == 2
        assert "q and alpha must be finite" in result.output

    def test_csv_null_dual_is_empty(self, runner):
        result = runner.invoke(
            cli, ["transform", "--q", "0", "--alpha", "2", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1] == "0,2,0.5,2,true,,"

    def test_csv_has_header_row(self, runner):
        result = runner.invoke(
            cli, ["transform", "--q", "1.5", "--alpha", "2", "--format", "csv"])
        lines = result.output.splitlines()
        assert lines[0].startswith("q,alpha,q_alpha")
        assert "1.25" in lines[1]


class TestEntropyCommand:
    def test_tsallis(self, runner, tmp_path):
        path = _write(tmp_path, "u2.csv", "p\n0.5\n0.5\n")
        result = runner.invoke(
            cli, ["entropy", "--input", path, "--kind", "tsallis", "--q", "2"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["value"] == 0.5
        assert payload["n"] == 2

    def test_shannon_needs_no_q(self, runner, tmp_path):
        path = _write(tmp_path, "u2.csv", "0.5\n0.5\n")
        result = runner.invoke(cli, ["entropy", "--input", path, "--kind", "shannon"])
        assert _payload(result)["value"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_missing_q_is_flag_error(self, runner, tmp_path):
        path = _write(tmp_path, "u2.csv", "0.5\n0.5\n")
        result = runner.invoke(cli, ["entropy", "--input", path, "--kind", "renyi"])
        assert result.exit_code == 2

    def test_hybrid_domain_error(self, runner, tmp_path):
        path = _write(tmp_path, "u2.csv", "p\n0.5\n0.5\n")
        result = runner.invoke(
            cli, ["entropy", "--input", path, "--kind", "hybrid", "--q", "0.3"])
        assert result.exit_code == 4

    @pytest.mark.parametrize("kind", ["tsallis", "renyi", "hybrid", "avg-hybrid",
                                      "shannon"])
    def test_non_finite_q_is_domain_error(self, runner, tmp_path, kind):
        path = _write(tmp_path, "u2.csv", "p\n0.5\n0.5\n")
        result = runner.invoke(
            cli, ["entropy", "--input", path, "--kind", kind, "--q", "nan"])
        assert result.exit_code == 4
        assert "q must be finite, got nan" in result.output
        assert result.stdout == ""

    def test_malformed_file_reports_line(self, runner, tmp_path):
        path = _write(tmp_path, "bad.csv", "p\n0.5\nnot-a-number\n")
        result = runner.invoke(
            cli, ["entropy", "--input", path, "--kind", "shannon"])
        assert result.exit_code == 3
        assert "line 3" in result.output

    def test_invalid_distribution_is_domain_error(self, runner, tmp_path):
        path = _write(tmp_path, "bad.csv", "p\n0.9\n0.9\n")
        result = runner.invoke(
            cli, ["entropy", "--input", path, "--kind", "shannon"])
        assert result.exit_code == 4

    def test_near_miss_is_renormalized(self, runner, tmp_path):
        path = _write(tmp_path, "near.csv", f"p\n0.5\n{0.5 + 1e-10!r}\n")
        result = runner.invoke(
            cli, ["entropy", "--input", path, "--kind", "shannon"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["renormalized"] is True
        assert payload["normalization_gap"] == pytest.approx(1e-10, rel=1e-3)


class TestEscortCommand:
    def test_json(self, runner, tmp_path):
        path = _write(tmp_path, "p.csv", "p\n0.8\n0.2\n")
        result = runner.invoke(cli, ["escort", "--input", path, "--r", "2"])
        payload = _payload(result)
        assert payload["levels"][0]["rho"] == pytest.approx(0.64 / 0.68, abs=1e-14)

    def test_csv(self, runner, tmp_path):
        path = _write(tmp_path, "p.csv", "p\n0.8\n0.2\n")
        result = runner.invoke(
            cli, ["escort", "--input", path, "--r", "2", "--format", "csv"])
        assert result.output.splitlines()[0] == "i,p,rho"

    def test_golden_output(self, runner, tmp_path):
        probs = np.random.default_rng(41).dirichlet(np.ones(7)).tolist()
        path = _write(tmp_path, "p.csv", "p\n" + "".join(f"{x!r}\n" for x in probs))
        p = as_distribution(probs).tolist()
        rho = escort(p, 1.7).tolist()
        expected_json = json.dumps({"r": 1.7, "levels": [
            {"i": i, "p": p[i], "rho": rho[i]} for i in range(7)]}) + "\n"
        expected_csv = "i,p,rho\n" + "".join(
            f"{i},{_g17(p[i])},{_g17(rho[i])}\n" for i in range(7))
        args = ["escort", "--input", path, "--r", "1.7"]
        assert runner.invoke(cli, args).stdout == expected_json
        assert runner.invoke(cli, args + ["--format", "csv"]).stdout == expected_csv


class TestMaxentCommand:
    def test_free_problem(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "2",
            "--omega", "0"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert [lvl["p"] for lvl in payload["levels"]] == \
            pytest.approx([1 / 3] * 3, abs=1e-12)
        assert payload["converged"] is True
        assert payload["residual"] <= 1e-12

    def test_json_schema_fields(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "1",
            "--omega", "0.5"])
        payload = _payload(result)
        assert set(payload) == {"levels", "Z_q", "Z_q_alpha", "phi",
                                "escort_mean", "residual", "iterations",
                                "converged"}
        assert set(payload["levels"][0]) == {"i", "E", "p"}

    def test_alpha_one_reports_family_diagnostic(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "1",
            "--omega", "0.5"])
        assert "q-exponential family check" in result.output

    def test_csv_round_trip(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        args = ["maxent", "--input", path, "--q", "1.2", "--alpha", "1",
                "--omega", "0.5"]
        probs_json = [lvl["p"] for lvl in
                      _payload(runner.invoke(cli, args))["levels"]]
        csv_result = runner.invoke(cli, args + ["--format", "csv"])
        assert csv_result.exit_code == 0
        out_path = _write(tmp_path, "solution.csv", csv_result.output)
        reparsed = read_column(out_path, "p")
        assert reparsed.tolist() == probs_json  # bit-faithful decimals
        entropy_result = runner.invoke(cli, [
            "entropy", "--input", out_path, "--kind", "tsallis", "--q", "1.2"])
        value = _payload(entropy_result)["value"]
        assert value == pytest.approx(tsallis(np.array(probs_json), 1.2),
                                      abs=1e-12)

    def test_golden_output(self, runner, tmp_path):
        energies = [0.0, 0.3, 0.7, 1.1, 1.6, 2.2, 3.05]
        path = _write(tmp_path, "e.csv", "E\n" + "".join(f"{x!r}\n" for x in energies))
        sol = solve_maxent(energies, 1.2, 2.0, 0.4)
        probs = sol.probs.tolist()
        expected_json = json.dumps({
            "levels": [{"i": i, "E": energies[i], "p": probs[i]} for i in range(7)],
            "Z_q": sol.z_q.z,
            "Z_q_alpha": sol.z_q_alpha.z,
            "phi": sol.phi,
            "escort_mean": sol.escort_mean,
            "residual": sol.stationarity_residual,
            "iterations": sol.iterations,
            "converged": True,
        }) + "\n"
        expected_csv = "i,E,p\n" + "".join(
            f"{i},{_g17(energies[i])},{_g17(probs[i])}\n" for i in range(7)) + (
            f"# Z_q={_g17(sol.z_q.z)} Z_q_alpha={_g17(sol.z_q_alpha.z)} "
            f"phi={_g17(sol.phi)} escort_mean={_g17(sol.escort_mean)} "
            f"residual={_g17(sol.stationarity_residual)} "
            f"iterations={sol.iterations} converged=true\n")
        args = ["maxent", "--input", path, "--q", "1.2", "--alpha", "2", "--omega", "0.4"]
        assert runner.invoke(cli, args).stdout == expected_json
        assert runner.invoke(cli, args + ["--format", "csv"]).stdout == expected_csv

    def test_csv_energy_column_reparses_too(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "1",
            "--omega", "0.5", "--format", "csv"])
        out_path = _write(tmp_path, "solution.csv", result.output)
        assert read_spectrum(out_path).tolist() == [0.0, 1.0, 2.0]

    def test_solver_failure_names_level(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "0.8", "--alpha", "2",
            "--omega", "50"])
        assert result.exit_code == 5
        payload = _payload(result)
        assert payload["converged"] is False
        assert payload["level"] is not None

    @pytest.mark.parametrize("n,q,alpha,omega", [
        (30, "1.5", "3", "2"), (3000, "1.2", "1.5", "3")])
    def test_first_sweep_beyond_real_roots_solves(self, runner, tmp_path, n, q,
                                                  alpha, omega):
        levels = "\n".join(repr(x) for x in np.linspace(0.0, 2.0, n).tolist())
        path = _write(tmp_path, "e.csv", "E\n" + levels + "\n")
        result = runner.invoke(cli, ["maxent", "--input", path, "--q", q,
                                     "--alpha", alpha, "--omega", omega])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["converged"] is True
        assert payload["residual"] <= 1e-9

    def test_overflowing_coupling_is_solver_failure(self, runner, tmp_path):
        levels = "\n".join(str(x) for x in np.linspace(-1e4, 1e4, 100).tolist())
        path = _write(tmp_path, "e.csv", "E\n" + levels + "\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "2.75", "--alpha", "0.0105",
            "--target-mean", "3000"])
        assert result.exit_code == 5
        assert isinstance(result.exception, SystemExit)
        assert _payload(result)["converged"] is False
        assert "Traceback" not in result.output

    def test_vanishing_coupling_is_solver_failure(self, runner, tmp_path):
        # exited 1 with a ZeroDivisionError traceback: the coupling underflows
        # to 0 and omega = lambda/0 was divided before the check
        levels = "\n".join(map(repr, np.linspace(0.0, 2.0, 30).tolist()))
        path = _write(tmp_path, "e.csv", "E\n" + levels + "\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "-0.98", "--alpha", "0.01",
            "--target-mean", "1.5"])
        assert result.exit_code == 5
        assert isinstance(result.exception, SystemExit)
        assert "coupling lambda/omega is 0" in result.output
        assert "Traceback" not in result.output
        # the overflowed values of the failed solve are JSON nulls, not
        # Infinity/NaN tokens, and every key stays
        payload = _payload(result)
        assert list(payload) == ["levels", "Z_q", "Z_q_alpha", "phi", "escort_mean",
                                 "residual", "iterations", "converged"]
        assert payload["Z_q_alpha"] is None and payload["residual"] is None
        assert payload["converged"] is False
        assert len(payload["levels"]) == 30

    def test_underflow_is_solver_failure(self, runner, tmp_path):
        levels = "\n".join(str(x) for x in np.linspace(-1e4, 1e4, 100).tolist())
        path = _write(tmp_path, "e.csv", "E\n" + levels + "\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "2.75", "--alpha", "0.0105",
            "--omega", "-0.01"])
        assert result.exit_code == 5
        assert isinstance(result.exception, SystemExit)
        assert _payload(result)["converged"] is False
        assert "underflows to 0" in result.output

    def test_target_mean_mode(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "2",
            "--target-mean", "0.6"])
        assert result.exit_code == 0
        assert _payload(result)["escort_mean"] == pytest.approx(0.6, abs=1e-8)

    def test_target_mode_alpha_just_above_one(self, runner, tmp_path):
        # exited 1 with a traceback: a level's far root made the gap NaN
        levels = "\n".join(map(repr, np.round(np.linspace(4006.7, 131073.98, 18), 2).tolist()))
        path = _write(tmp_path, "e.csv", "E\n" + levels + "\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--entropy", "renyi", "--q", "1.0000005982085276",
            "--alpha", "1.011454735190145", "--target-mean", "106186.1942746612"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["converged"] is True
        assert payload["residual"] <= 1e-14

    def test_non_finite_gap_is_solver_failure(self, runner, tmp_path, monkeypatch):
        # the first two level maps are real and every later one is NaN; the
        # Newton iteration in lambda, which starts from the uniform
        # distribution without a map and probes no end of this bounded
        # interval, reports the first of them, its third step, as a solver
        # failure
        real = maxent._Trinomial.level_map
        calls = []

        def level_map(fam, b, start):
            calls.append(b)
            p, slope, start = real(fam, b, start)
            return (p if len(calls) <= 2 else p * math.nan), slope, start

        monkeypatch.setattr(maxent._Trinomial, "level_map", level_map)
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "2",
            "--target-mean", "0.6"])
        assert len(calls) == 3
        assert result.exit_code == 5
        assert isinstance(result.exception, SystemExit)
        assert re.search(r"escort-mean gap at lambda = -0\.0\d* is nan", result.output)

    def test_overflowing_escort_weights_are_solver_failure(self, runner, tmp_path):
        # p^q overflows at q = -1000, so the gap is NaN: it exited 4 with the
        # target "not attainable" over the span [nan, nan]
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "-1000", "--alpha", "2",
            "--target-mean", "0.3"])
        assert result.exit_code == 5
        assert "escort-mean gap at lambda = 0 is nan" in result.output

    def test_omega_and_target_together_is_flag_error(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "2",
            "--omega", "0.3", "--target-mean", "0.6"])
        assert result.exit_code == 2

    def test_overflowing_shannon_coupling_is_domain_error(self, runner, tmp_path):
        # exp(-(q - 1)*S_1) overflows at the uniform start: a bare OverflowError
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, ["maxent", "--input", path, "--q", "-1e300",
                                     "--alpha", "inf", "--omega", "0.5"])
        assert result.exit_code == 4
        assert "overflows at q = -1e+300" in result.output

    @pytest.mark.parametrize("mode", [["--omega", "0.3"], ["--target-mean", "0.8"]],
                             ids=["omega", "target"])
    def test_rescaled_index_pole_is_domain_error(self, runner, tmp_path, mode):
        # q_alpha = 0 at q = alpha = 0.5
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, ["maxent", "--input", path, "--q", "0.5",
                                     "--alpha", "0.5", *mode])
        assert result.exit_code == 4
        assert "rescaled index pole" in result.output

    @pytest.mark.parametrize("mode", [["--omega", "0.3"], ["--target-mean", "0.8"]],
                             ids=["omega", "target"])
    def test_coupling_overflow_is_domain_error(self, runner, tmp_path, mode):
        # q(1-q) overflows at |q| = 1e200
        path = _write(tmp_path, "e.csv", "E\n0\n0.5\n1\n1.5\n2\n")
        result = runner.invoke(cli, ["maxent", "--input", path, "--q", "-1e200",
                                     "--alpha", "2", *mode])
        assert result.exit_code == 4
        assert "the coupling q(1 - q)/(q + alpha - 1) overflows" in result.output

    def test_alpha_inf_selects_lambert_solver(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.3", "--alpha", "inf",
            "--omega", "0.4"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["Z_q_alpha"] == 1.0
        assert payload["residual"] <= 1e-8

    def test_large_alpha_solves(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n0.5\n1\n1.5\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "1000",
            "--omega", "0.3"])
        assert result.exit_code == 0
        assert _payload(result)["residual"] <= 1e-8

    @pytest.mark.parametrize("entropy", ["tsallis", "renyi"])
    def test_alpha_rounding_q_alpha_to_one_is_domain_error(self, runner, tmp_path, entropy):
        # q_alpha = 1 + 0.2/1e300 rounds to 1: the Shannon limit's answer,
        # as --alpha inf gives
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        args = ["maxent", "--input", path, "--q", "1.2", "--omega", "0.3",
                "--entropy", entropy, "--alpha"]
        result = runner.invoke(cli, args + ["1e300"])
        limit = runner.invoke(cli, args + ["inf"])
        assert result.exit_code == 0 and limit.exit_code == 0
        assert result.stdout == limit.stdout

    def test_renyi_functional(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "2",
            "--omega", "0.3", "--entropy", "renyi"])
        assert result.exit_code == 0

    @pytest.mark.parametrize("alpha", ["two", "nan", "-inf", "0"])
    def test_bad_alpha_string(self, runner, tmp_path, alpha):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", alpha,
            "--omega", "0.3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("mode", [["--omega", "0.4"], ["--target-mean", "0.8"]],
                             ids=["omega", "target"])
    def test_alpha_inf_renyi_is_the_shannon_limit(self, runner, tmp_path, mode):
        # both entropies are Shannon's at alpha = inf
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        args = ["maxent", "--input", path, "--q", "1.3", "--alpha", "inf", *mode]
        tsallis = runner.invoke(cli, args)
        renyi = runner.invoke(cli, args + ["--entropy", "renyi"])
        assert tsallis.exit_code == 0 and renyi.exit_code == 0
        assert renyi.stdout == tsallis.stdout

    @pytest.mark.parametrize("offset,omega", [(1e9, "3"), (1e8, "0.3")])
    def test_gibbs_answer_above_the_stop_is_solver_failure(self, runner, tmp_path,
                                                           offset, omega):
        # residuals 1.7e-7 and 4.7e-9: neither is certified, and both keep
        # their diagnostics on stdout
        energies = (offset + np.linspace(0.0, 1.0, 5)).tolist()
        path = _write(tmp_path, "e.csv", "E\n" + "".join(f"{x!r}\n" for x in energies))
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1", "--alpha", "2", "--omega", omega])
        assert result.exit_code == 5
        payload = _payload(result)
        assert payload["converged"] is False
        assert payload["residual"] > 1e-9


class TestTrinomialCommand:
    def test_solves(self, runner):
        result = runner.invoke(cli, ["trinomial", "--alpha", "3", "--b", "0.05"])
        payload = _payload(result)
        assert payload["residual"] <= 1e-12

    def test_no_real_root_is_solver_failure(self, runner):
        result = runner.invoke(cli, ["trinomial", "--alpha", "2", "--b", "0.3"])
        assert result.exit_code == 5

    def test_negative_alpha_large_b_solves(self, runner):
        # the root of 1 - x + b/x = 0 is (1 + sqrt(1 + 4b))/2 = 1e154; from
        # the lower bound 1 + b/(1 + b) alone each Newton step only doubles x
        result = runner.invoke(cli, ["trinomial", "--alpha", "-1", "--b", "1e308"])
        assert result.exit_code == 0
        assert _payload(result)["x"] == pytest.approx(1e154, rel=1e-15)


class TestHeatbathCommand:
    def test_basic(self, runner):
        result = runner.invoke(cli, ["heatbath", "--n", "3"])
        assert _payload(result)["q"] == 1.5

    def test_rescaled(self, runner):
        result = runner.invoke(cli, ["heatbath", "--n", "3", "--alpha", "2"])
        payload = _payload(result)
        assert payload["n_rescaled"] == 5.0
        assert payload["q_rescaled"] == 1.25

    def test_too_small_is_domain_error(self, runner):
        result = runner.invoke(cli, ["heatbath", "--n", "1"])
        assert result.exit_code == 4

    def test_csv_writes_an_int_as_is(self, runner):
        result = runner.invoke(cli, ["heatbath", "--n", "3", "--alpha", "2", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output == "n,q,alpha,n_rescaled,q_rescaled\n3,1.5,2,5,1.25\n"


class TestAlgebraCheckCommand:
    def test_all_laws_hold(self, runner):
        result = runner.invoke(cli, [
            "algebra-check", "--x", "2", "--y", "3", "--q", "0.5",
            "--alpha", "2"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert {row["status"] for row in payload["laws"]} == {"ok"}

    def test_undefined_laws_are_reported_not_asserted(self, runner):
        result = runner.invoke(cli, [
            "algebra-check", "--x", "-2", "--y", "3", "--q", "0.5",
            "--alpha", "2"])
        assert result.exit_code == 0
        statuses = {row["law"]: row["status"]
                    for row in _payload(result)["laws"]}
        assert statuses["add"] == "ok"
        assert statuses["multiply"] in ("undefined", "domain-mismatch")

    @pytest.mark.parametrize("x,y,q,alpha", [
        # q_mul(x, y, q)**alpha overflows
        ("1e300", "3", "0.2", "5"),
        # x**alpha is complex
        ("-2", "3", "0.5", "2.5"),
    ])
    def test_overflowing_or_complex_sides_are_undefined(self, runner, x, y, q, alpha):
        result = runner.invoke(cli, ["algebra-check", "--x", x, "--y", y, "--q", q,
                                     "--alpha", alpha])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code in range(6)
        statuses = {row["status"] for row in _payload(result)["laws"]}
        assert statuses <= {"ok", "undefined", "domain-mismatch"}


    def test_output_is_pinned(self, runner):
        result = runner.invoke(cli, [
            "algebra-check", "--x", "2", "--y", "3", "--q", "0.5", "--alpha", "2"])
        assert result.output == (
            '{"q": 0.5, "alpha": 2.0, "q_alpha": 0.75, "laws": ['
            '{"law": "add", "lhs": 16.0, "rhs": 16.0, "status": "ok"}, '
            '{"law": "subtract", "lhs": -0.8, "rhs": -0.8, "status": "ok"}, '
            '{"law": "multiply", "lhs": 21.219388472398037, "rhs": 21.219388472398045, '
            '"status": "ok"}, '
            '{"law": "divide", "lhs": 0.2165469220917713, "rhs": 0.21654692209177137, '
            '"status": "ok"}, '
            '{"law": "exp-scaling", "lhs": 16.0, "rhs": 15.999999999999998, "status": "ok"}, '
            '{"law": "log-scaling", "lhs": 1.6568542494923801, '
            '"rhs": 1.6568542494923801, "status": "ok"}]}\n')

    @pytest.mark.parametrize("q", ["1.0000000015", "0.9999999985"])
    def test_q_and_q_alpha_across_one_agree(self, runner, q):
        # q_alpha = 1 + (q - 1)/2 lies within 1e-9 of 1 and q does not; each
        # q-function is one form across q = 1, so both sides keep their digits
        result = runner.invoke(cli, ["algebra-check", "--x", "1", "--y", "2", "--q", q,
                                     "--alpha", "2"])
        assert result.exit_code == 0, result.output
        assert [row["status"] for row in _payload(result)["laws"]] == ["ok"] * 6

    def test_no_law_fails_on_lost_digits(self, runner):
        # At x = 1e300, y = -2, q = 0.5, alpha = 5 both sides of the add law
        # are -10, and both lose every digit: 0 against 1.2e285.  Over this
        # grid 8 add rows used to report such a side as a failed law.
        failed = []
        for x in ("1e300", "-1e300", "2", "-2", "1e-300", "-1e-300", "0"):
            for y in ("-2", "3", "1e300", "1e-300"):
                for q in ("-3", "0.2", "0.5", "1.5", "3"):
                    for alpha in ("-5", "-1", "0.5", "2", "5"):
                        result = runner.invoke(cli, ["algebra-check", "--x", x, "--y", y,
                                                     "--q", q, "--alpha", alpha])
                        assert result.exit_code in (0, 4), result.output
                        if result.exit_code == 0:
                            failed += [(x, y, q, alpha, row["law"])
                                       for row in _payload(result)["laws"]
                                       if row["status"] == "fail"]
        assert failed == []

    def test_underflowed_side_is_not_a_failure(self, runner):
        # exp_q(-1e300) = 4e-600 underflows to 0; both sides are exactly 0.2515
        result = runner.invoke(cli, ["algebra-check", "--x", "-1e300", "--y", "-2",
                                     "--q", "1.5", "--alpha", "1e-3"])
        assert result.exit_code == 0
        row = {r["law"]: r for r in _payload(result)["laws"]}["exp-scaling"]
        assert row["lhs"] is None and row["status"] == "domain-mismatch"
        assert row["rhs"] == pytest.approx(0.2515371060307916, rel=1e-12)

    @pytest.mark.parametrize("x,alpha,lhs", [
        ("1", "1e300", None), ("1", "-1e300", None), ("0", "1e300", 1.0), ("0", "-1e300", 1.0)])
    def test_power_past_one_over_eps_loses_the_exp_side(self, runner, x, alpha, lhs):
        # exp_q(1) = 1 + 7e-298 rounds to 1, and (exp_q 1)^alpha keeps none of
        # that: 1.0 against 1e300 or 1e-300 is no fail.  exp_q(0) = 1 is exact.
        result = runner.invoke(cli, ["algebra-check", "--x", x, "--y", "2",
                                     "--q", "-1e300", "--alpha", alpha])
        assert result.exit_code == 0
        row = {r["law"]: r for r in _payload(result)["laws"]}["exp-scaling"]
        assert row["lhs"] == lhs
        assert row["status"] == ("ok" if x == "0" else "domain-mismatch")

    def test_lost_digits_are_undefined(self, runner):
        result = runner.invoke(cli, ["algebra-check", "--x", "1e300", "--y", "-2",
                                     "--q", "0.5", "--alpha", "5"])
        assert result.exit_code == 0
        add = _payload(result)["laws"][0]
        assert add == {"law": "add", "lhs": None, "rhs": None, "status": "undefined"}

    def test_csv(self, runner):
        result = runner.invoke(cli, [
            "algebra-check", "--x", "2", "--y", "3", "--q", "0.5", "--alpha", "2",
            "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "law,lhs,rhs,status"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "add", "subtract", "multiply", "divide", "exp-scaling", "log-scaling"]
        assert lines[1] == "add,16,16,ok"
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_failed_law_exits_one(self, runner, monkeypatch):
        monkeypatch.setattr(cli_module, "IDENTITY_TOL", -1.0)
        result = runner.invoke(cli, [
            "algebra-check", "--x", "2", "--y", "3", "--q", "0.5", "--alpha", "2"])
        assert result.exit_code == 1
        assert {row["status"] for row in _payload(result)["laws"]} == {"fail"}

    def test_zero_alpha_is_flag_error(self, runner):
        result = runner.invoke(cli, [
            "algebra-check", "--x", "2", "--y", "3", "--q", "0.5", "--alpha", "0"])
        assert result.exit_code == 2
        assert "alpha must be nonzero" in result.output

    def test_classical_q_holds_every_law(self, runner):
        # q = 1 gives q_alpha = 1 exactly; the exp-scaling side divided by
        # 1 - q_alpha as a Python float and raised ZeroDivisionError
        result = runner.invoke(cli, [
            "algebra-check", "--x", "1", "--y", "2", "--q", "1", "--alpha", "2"])
        assert result.exit_code == 0
        assert [row["status"] for row in _payload(result)["laws"]] == ["ok"] * 6

    def test_add_law_where_x_times_y_overflows(self, runner):
        # at q = 1 both sides are 4e160, although (1 - q)*(x*y) taken as
        # written is 0*inf = nan
        result = runner.invoke(cli, [
            "algebra-check", "--x", "1e160", "--y", "1e160", "--q", "1", "--alpha", "2"])
        add = _payload(result)["laws"][0]
        assert add == {"law": "add", "lhs": 4e160, "rhs": 4e160, "status": "ok"}

    @pytest.mark.parametrize("q,alpha", [("0", "1e300"), ("1.5", "1e17")])
    def test_q_alpha_rounded_to_one_is_domain_error(self, runner, q, alpha):
        # q_alpha = 1 + (q - 1)/alpha rounds to 1 although q does not: the
        # subtract law would compare a deformed side with a classical one
        result = runner.invoke(cli, [
            "algebra-check", "--x", "1", "--y", "2", "--q", q, "--alpha", alpha])
        assert result.exit_code == 4
        assert "rounds to 1" in result.output


class TestCheckCommand:
    def test_group_suite_passes(self, runner):
        result = runner.invoke(cli, ["check", "--suite", "group", "--seed", "7"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_corrupted_tolerance_fails(self, runner, monkeypatch):
        monkeypatch.setattr(qtherm.checks, "GROUP_TOL", -1.0)
        result = runner.invoke(cli, ["check", "--suite", "group", "--seed", "7"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_deterministic_under_seed(self, runner):
        first = runner.invoke(cli, ["check", "--suite", "entropy", "--seed", "5"])
        second = runner.invoke(cli, ["check", "--suite", "entropy", "--seed", "5"])
        assert first.output == second.output

    def test_negative_seed_is_flag_error(self, runner):
        # NumPy refuses a negative seed, which exited 1 like a failed property
        result = runner.invoke(cli, ["check", "--suite", "group", "--seed", "-1"])
        assert result.exit_code == 2
        assert "--seed" in result.output


# zeros of both signs, units, a subnormal, the float range's ends and nan
_EXTREMES = ["0", "-0", "1", "-1", "0.5", "1e-320", "1e300", "-1e300", "inf", "-inf", "nan"]


def test_exit_codes_over_extreme_values(runner, tmp_path):
    # every command exits with a documented code and no traceback, i.e. no
    # exception but the SystemExit that carries the code; under the suite's
    # error::RuntimeWarning filter a NumPy warning is such a traceback
    path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
    # a uniform distribution whose entropy ln 8 times 1 - q overflows at
    # q = 1e308, and one with a subnormal entry, whose ratios to it overflow
    dists = [_write(tmp_path, "u8.csv", "p\n" + "0.125\n" * 8),
             _write(tmp_path, "sub.csv", "p\n5e-324\n1\n")]
    # a spectrum whose width overflows and a flat one, where the alpha = 1
    # q-exponential check fits a line
    spectra = [_write(tmp_path, "wide.csv", "E\n1e300\n-1e300\n0\n"),
               _write(tmp_path, "flat.csv", "E\n5\n5\n5\n")]
    grid = list(itertools.product(_EXTREMES, _EXTREMES))
    indices = _EXTREMES + ["1e308", "-1e308"]
    runs = ([["transform", "--q", q, "--alpha", a] for q, a in grid]
            + [["trinomial", "--alpha", a, "--b", b] for a, b in grid]
            + [["heatbath", "--n", "2", "--alpha", a] for a in _EXTREMES]
            + [["algebra-check", "--x", "1", "--y", "2", "--q", q, "--alpha", a]
               for q, a in grid]
            + [["algebra-check", "--x", x, "--y", y, "--q", "0.5", "--alpha", "2"]
               for x, y in grid]
            + [["maxent", "--input", path, "--q", q, "--alpha", alpha, mode, v]
               for alpha in ("0.5", "1", "1.5", "2", "inf") for q, v in grid
               for mode in ("--omega", "--target-mean")]
            + [["maxent", "--input", e, "--q", q, "--alpha", alpha, mode, v, *flag]
               for e in spectra for alpha in ("1", "2", "inf") for q, v in grid
               for mode in ("--omega", "--target-mean")
               for flag in (["--entropy", "renyi"], ["--format", "csv"])]
            + [["escort", "--input", p, "--r", r] for p in dists for r in indices]
            + [["entropy", "--input", p, "--kind", kind, "--q", q] for p in dists
               for kind in ("tsallis", "renyi", "hybrid", "avg-hybrid") for q in indices])
    crashed = []
    for args in runs:
        result = runner.invoke(cli, args)
        if not (result.exit_code in range(6)
                and (result.exception is None or isinstance(result.exception, SystemExit))):
            crashed.append((args, result.exit_code, repr(result.exception)))
    assert crashed == []


@pytest.mark.parametrize("args", [
    ["maxent", "--input", "{path}", "--q", "1.2", "--alpha", "2", "--target-mean", "0.6"],
    ["maxent", "--input", "{path}", "--q", "1.3", "--alpha", "inf", "--omega", "0.4"],
    ["check", "--suite", "all", "--seed", "3"],
], ids=["maxent-target", "maxent-inf", "check-all"])
def test_commands_leave_scipy_unloaded(tmp_path, args):
    # SciPy is a test oracle only: Lambert W and the
    # series coefficients are in qtherm, and importing SciPy would cost each
    # command about half a second
    path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
    args = [arg.format(path=path) for arg in args]
    code = "\n".join([
        "import sys",
        "from qtherm.cli import cli",
        "try:",
        f"    cli({args!r})",
        "except SystemExit as exit:",
        "    assert exit.code in (0, None), exit.code",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    assert _fresh_python(code).strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("args", [
    ["transform", "--q", "1.5", "--alpha", "2"],
    ["entropy", "--input", "{p}", "--kind", "tsallis", "--q", "1.2"],
    ["maxent", "--input", "{e}", "--q", "1.2", "--alpha", "2", "--omega", "0.3"],
], ids=["transform", "entropy", "maxent"])
def test_commands_leave_checks_unloaded(tmp_path, args):
    # only check, algebra-check and alpha = 1 maxent used qtherm.checks, and
    # importing it costs every other command its compile and import time
    paths = {"p": _write(tmp_path, "p.csv", "p\n0.25\n0.25\n0.5\n"),
             "e": _write(tmp_path, "e.csv", "E\n0\n1\n2\n")}
    args = [arg.format(**paths) for arg in args]
    code = "\n".join([
        "import sys",
        "from qtherm.cli import cli",
        "try:",
        f"    cli({args!r})",
        "except SystemExit as exit:",
        "    assert exit.code in (0, None), exit.code",
        "print('qtherm.checks' in sys.modules)",
    ])
    assert _fresh_python(code).strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("args,answer", [
    # 0.5^-2000 overflows, the escort does not
    (["escort", "--input", "{p}", "--r", "-2000"],
     lambda out: [level["rho"] for level in out["levels"]] == [0.5, 0.5]),
    # b*b overflows, the root 1/b^2 = 1e-310 does not
    (["trinomial", "--alpha", "0.5", "--b", "-1e155"],
     lambda out: out["x"] == pytest.approx(1e-310, rel=1e-12)),
], ids=["escort", "trinomial"])
def test_extreme_inputs_warn_nothing(tmp_path, args, answer):
    # -W error turns a NumPy RuntimeWarning into a traceback
    path = _write(tmp_path, "p.csv", "p\n0.5\n0.5\n")
    args = [arg.format(p=path) for arg in args]
    done = subprocess.run([sys.executable, "-W", "error", "-m", "qtherm.cli", *args],
                          env=_fresh_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert answer(json.loads(done.stdout))


_EMITTED = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
            -1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789.0, 1e16, 1e-7]


def _emitter_columns():
    rng = np.random.default_rng(17)
    a = np.concatenate([_EMITTED, rng.standard_normal(500)
                        * 10.0 ** rng.uniform(-300.0, 300.0, 500)])
    return a, rng.permutation(a)


class TestEmitters:
    def test_json_levels_match_json_dumps(self):
        e, p = _emitter_columns()
        expected = json.dumps([{"i": i, "E": e_i, "p": p_i}
                               for i, (e_i, p_i) in enumerate(zip(e.tolist(), p.tolist()))])
        assert cli_module._json_levels(("E", "p"), e, p) == expected

    def test_json_levels_write_non_finite_as_null(self):
        e, p = _emitter_columns()
        p[[0, 5, 9]] = [math.inf, -math.inf, math.nan]
        levels = [{"i": i, "E": e_i, "p": p_i if math.isfinite(p_i) else None}
                  for i, (e_i, p_i) in enumerate(zip(e.tolist(), p.tolist()))]
        text = cli_module._json_levels(("E", "p"), e, p)
        assert text == json.dumps(levels)
        assert json.loads(text, parse_constant=_not_json) == levels

    def test_csv_levels_match_format_17g(self):
        e, p = _emitter_columns()
        p[[0, 5, 9]] = [math.inf, -math.inf, math.nan]
        expected = ["i,E,p"] + [f"{i},{_g17(e_i)},{_g17(p_i)}"
                                for i, (e_i, p_i) in enumerate(zip(e.tolist(), p.tolist()))]
        assert cli_module._csv_levels("i,E,p", e, p) == "\n".join(expected)


def _read_column_by_lines(path, column):
    """The line-by-line reader that ``read_column`` must agree with."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    rows = [(lineno, line) for lineno, line in enumerate(lines, start=1)
            if line.strip()[:1] not in ("", "#")]
    if not rows:
        raise ParseError(f"no data rows in {path}")
    first_line, first = rows[0]
    header = [cell.strip() for cell in first.split(",")]
    try:
        [float(cell) for cell in header]
        header = None
    except ValueError:
        rows = rows[1:]
        if not rows:
            raise ParseError("header present but no data rows", line=first_line)
    if header is None:
        index = 0
        if any("," in line for _, line in rows):
            raise ParseError(f"multi-column file without a header naming {column!r}",
                             line=rows[0][0])
    elif column not in header:
        raise ParseError(f"no column named {column!r} in header {header!r}",
                         line=first_line)
    else:
        index = header.index(column)
    values = []
    for lineno, line in rows:
        cells = line.split(",")
        if len(cells) <= index:
            raise ParseError(f"row has {len(cells)} columns, need {index + 1}",
                             line=lineno)
        try:
            values.append(float(cells[index]))
        except ValueError:
            raise ParseError(f"not a number: {cells[index].strip()!r}",
                             line=lineno) from None
    return np.asarray(values, dtype=float)


_EDGE_CELLS = ["1_0", "1_000.5", "1e1_0", "1__0", "_1", "\uff11\uff12", "\u0663.\u0665",
               "nan", "-NaN", "+inf", "-Infinity", "iNf", "1e400", "-1e400", "1e-400",
               "5e-324", "-0", ".5", "5.", " 0.5 ", "\t0.5\t", "\u20030.5\u00a0",
               "0.5 # x", "1,5", "0x10", "nan(1)", "1 2", "1e", "--1", "1.5j", "",
               "\x0c1"]


def _edge_files():
    for cell in _EDGE_CELLS:
        yield "p\n0.25\n" + cell + "\n0.75\n"
        yield "0.25\n" + cell + "\n"
        yield "p\r\n0.25\r\n" + cell + "\r\n"
        yield "i,p\n0,0.25\n1," + cell + "\n"
        yield "p,i\n0.25,0\n" + cell + ",1\n"
    yield "p\n0.25\n1,5\n"
    yield "p\n \n\t\n0.25\n   # note, with a comma\n0.75\n"
    yield "i,p\n0,0.25\n1\n"
    yield "i,p\n0,0.25\n1,\n"
    yield "i,p\n0,0.25\n,\n"
    yield "p\n# only a comment\n"
    yield "\n\n"


def _read_or_error(read, path):
    try:
        values = read(path, "p")
    except ParseError as err:
        return str(err), err.line
    return values.dtype, values.tobytes()


class TestFileIO:
    def test_read_column_agrees_with_line_loop(self, tmp_path):
        # the same values bit for bit, or the same error on the same line
        path = _write(tmp_path, "p.csv", "")
        texts = list(_edge_files())
        outcomes = []
        for text in texts:
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            outcomes.append((_read_or_error(read_column, path),
                             _read_or_error(_read_column_by_lines, path)))
        assert [text for text, (fast, slow) in zip(texts, outcomes) if fast != slow] == []
        errors = sum(isinstance(fast[0], str) for fast, _ in outcomes)
        assert 0 < errors < len(texts)

    def test_single_column_without_header(self, tmp_path):
        path = _write(tmp_path, "p.csv", "0.25\n0.75\n")
        assert read_distribution(path).tolist() == [0.25, 0.75]

    def test_crlf_and_blank_lines(self, tmp_path):
        path = _write(tmp_path, "p.csv", "p\r\n0.25\r\n\r\n0.75\r\n")
        assert read_distribution(path).tolist() == [0.25, 0.75]

    def test_comment_lines_are_skipped(self, tmp_path):
        path = _write(tmp_path, "p.csv", "p\n0.25\n# footer\n0.75\n")
        assert read_distribution(path).tolist() == [0.25, 0.75]

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "p.csv", "a,b\n1,2\n")
        with pytest.raises(ParseError):
            read_column(path, "p")

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "p.csv", "")
        with pytest.raises(ParseError):
            read_column(path, "p")

    def test_padded_cells(self, tmp_path):
        path = _write(tmp_path, "e.csv", " E ,\tp \n 0.5 ,\t0.25\t\n\t1.5,  0.75 \n")
        assert read_column(path, "p").tolist() == [0.25, 0.75]
        assert read_column(path, "E").tolist() == [0.5, 1.5]
        path = _write(tmp_path, "p.csv", "  0.25 \n\t0.75\t\n")
        assert read_column(path, "p").tolist() == [0.25, 0.75]

    def test_bad_number_names_its_file_line(self, tmp_path):
        text = "i,E,p\n\n# note, with a comma\n0,0.5,0.25\n\n1, oops ,0.75\n"
        path = _write(tmp_path, "e.csv", text)
        with pytest.raises(ParseError) as info:
            read_column(path, "E")
        assert str(info.value) == "line 6: not a number: 'oops'"
        assert info.value.line == 6
        assert read_column(path, "p").tolist() == [0.25, 0.75]

    def test_short_row(self, tmp_path):
        path = _write(tmp_path, "e.csv", "i,E,p\n0,0.5,0.25\n# c\n1,1.5\n")
        with pytest.raises(ParseError) as info:
            read_column(path, "p")
        assert str(info.value) == "line 4: row has 2 columns, need 3"
