import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import qtherm.checks
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


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this qtherm."""
    src = os.path.dirname(os.path.dirname(qtherm.checks.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
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

    @pytest.mark.parametrize("alpha", ["1e-320", "-1e-320"])
    def test_overflowing_q_alpha_is_domain_error(self, runner, alpha):
        result = runner.invoke(cli, ["transform", "--q", "1.5", "--alpha", alpha])
        assert result.exit_code == 4
        assert "q_alpha overflows" in result.output
        assert result.stdout == ""

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
        # the level maps at the two bracket ends are real; every later one is
        # NaN, which the root find in lambda reports as a solver failure
        real = maxent._Trinomial.level_map
        calls = []

        def level_map(fam, b):
            calls.append(b)
            p, roots = real(fam, b)
            return (p if len(calls) <= 2 else p * math.nan), roots

        monkeypatch.setattr(maxent._Trinomial, "level_map", level_map)
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "2",
            "--target-mean", "0.6"])
        assert len(calls) == 3
        assert result.exit_code == 5
        assert isinstance(result.exception, SystemExit)
        assert "function value" in result.output

    def test_omega_and_target_together_is_flag_error(self, runner, tmp_path):
        path = _write(tmp_path, "e.csv", "E\n0\n1\n2\n")
        result = runner.invoke(cli, [
            "maxent", "--input", path, "--q", "1.2", "--alpha", "2",
            "--omega", "0.3", "--target-mean", "0.6"])
        assert result.exit_code == 2

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
            '{"law": "multiply", "lhs": 21.21938847239805, "rhs": 21.219388472398055, '
            '"status": "ok"}, '
            '{"law": "divide", "lhs": 0.2165469220917717, "rhs": 0.2165469220917717, '
            '"status": "ok"}, '
            '{"law": "exp-scaling", "lhs": 16.0, "rhs": 16.0, "status": "ok"}, '
            '{"law": "log-scaling", "lhs": 1.6568542494923806, '
            '"rhs": 1.6568542494923806, "status": "ok"}]}\n')

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

    def test_lost_digits_are_undefined(self, runner):
        result = runner.invoke(cli, ["algebra-check", "--x", "1e300", "--y", "-2",
                                     "--q", "0.5", "--alpha", "5"])
        assert result.exit_code == 0
        add = _payload(result)["laws"][0]
        assert add == {"law": "add", "lhs": None, "rhs": None, "status": "undefined"}


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


@pytest.mark.parametrize("args", [
    ["maxent", "--input", "{path}", "--q", "1.2", "--alpha", "2", "--target-mean", "0.6"],
    ["maxent", "--input", "{path}", "--q", "1.3", "--alpha", "inf", "--omega", "0.4"],
    ["check", "--suite", "all", "--seed", "3"],
], ids=["maxent-target", "maxent-inf", "check-all"])
def test_commands_leave_scipy_unloaded(tmp_path, args):
    # SciPy is a test oracle only: the root find in lambda, Lambert W and the
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


class TestFileIO:
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
