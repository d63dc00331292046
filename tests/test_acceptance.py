"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n [PASS|FAIL]`` line (visible with
``pytest -s`` or in captured output).  The randomized criteria run the
seeded suites from qtherm.checks at their full sample counts.
"""

import json

import pytest
from click.testing import CliRunner

from qtherm.checks import (
    run_algebra_suite,
    run_entropy_suite,
    run_group_suite,
    run_maxent_suite,
)
from qtherm.cli import cli
from qtherm.fileio import read_column

SEED = 7


@pytest.fixture(scope="module")
def group_results():
    return run_group_suite(SEED)


@pytest.fixture(scope="module")
def algebra_results():
    return run_algebra_suite(SEED)


@pytest.fixture(scope="module")
def entropy_results():
    return run_entropy_suite(SEED)


@pytest.fixture(scope="module")
def maxent_results():
    return run_maxent_suite(SEED)


def _verdict(number, name, results):
    failed = [r for r in results if not r.passed]
    status = "FAIL" if failed else "PASS"
    print(f"ACCEPTANCE {number} [{status}] {name}")
    assert not failed, "; ".join(
        f"{r.suite}.{r.name}: {r.detail}" for r in failed)


def _select(results, names):
    picked = [r for r in results if r.name in names]
    assert len(picked) == len(names), "acceptance wiring lost a property"
    return picked


def test_criterion_1_group_suite(group_results):
    _verdict(1, "group laws, dualities, heat-bath consistency (1e-12 / 1e-15)",
             group_results)


def test_criterion_2_algebra_suite(algebra_results):
    _verdict(2, "inverse pairs, functional equations, scaling laws, "
                "distributivity witness (relative 1e-12)", algebra_results)


def test_criterion_3_entropy_suite(entropy_results):
    _verdict(3, "pseudo-additivity, entropy bridge, quasi-additivity "
                "(1e-12, alpha in [1,2], order 2.0 +/- 0.2)",
             _select(entropy_results, {
                 "nonadditive pseudo-additivity",
                 "renyi additivity",
                 "renyi = log q-exp of tsallis",
                 "quasi-additivity alpha in [1, 2]",
                 "alpha = 2 on uniform, 1 on delta",
                 "quasi-additivity gap is second order in q - 1",
                 "nonadditive entropy non-increasing in q",
             }))


def test_criterion_4_trinomial_suite(maxent_results):
    _verdict(4, "trinomial residuals (1e-12), series agreement (1e-10), "
                "Catalan coefficients (exact)",
             _select(maxent_results, {
                 "trinomial back-substitution",
                 "root branch continuous with x(0) = 1",
                 "series matches closed forms",
                 "alpha = 2 coefficients are Catalan",
             }))


def test_criterion_5_lambert_w(maxent_results):
    _verdict(5, "Lambert W residual (1e-14 scaled) and anchors",
             _select(maxent_results, {
                 "Lambert W back-substitution",
                 "Lambert W anchors W(0) = 0, W(e) = 1",
             }))


def test_criterion_6_maxent_suite(maxent_results):
    _verdict(6, "stationarity (1e-8), q-exponential affinity (1e-8), "
                "simplex oracle (1e-4), Gibbs limit (1e-6), "
                "partition bound (1e-14)",
             _select(maxent_results, {
                 "stationarity residual on (q, alpha) grid",
                 "all grid solves converged",
                 "alpha = 1 roots are q-exponential",
                 "n = 3 simplex-grid oracle agreement",
                 "shannon-limit solver matches Gibbs near q = 1",
                 "shannon-limit stationarity residual",
                 "omega = 0 gives uniform",
                 "degenerate spectrum gives uniform",
                 "partition-sum Cauchy-Schwarz bound",
             }))


def test_criterion_7_hybrid_suite(entropy_results):
    _verdict(7, "average hybrid rescaling (1e-12), domain gate, Shannon "
                "collapse (1e-12), hybrid pseudo-additivity (1e-10)",
             _select(entropy_results, {
                 "hybrid pseudo-additivity",
                 "hybrid at q = 1 is Shannon",
                 "average hybrid index rescaling",
                 "hybrid rejects q < 1/2",
             }))


def test_criterion_8_cli(tmp_path):
    runner = CliRunner()
    failures = []

    def expect(condition, label):
        if not condition:
            failures.append(label)

    # exit-code table
    energies = tmp_path / "e.csv"
    energies.write_text("E\n0\n1\n2\n", encoding="utf-8")
    probs = tmp_path / "p.csv"
    probs.write_text("p\n0.5\n0.5\n", encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text("p\n0.5\noops\n", encoding="utf-8")

    expect(runner.invoke(cli, ["transform", "--q", "1.5", "--alpha", "2"])
           .exit_code == 0, "exit 0 on success")
    expect(runner.invoke(cli, ["transform", "--q", "1.5", "--alpha", "0"])
           .exit_code == 2, "exit 2 on flag error")
    expect(runner.invoke(cli, ["entropy", "--input", str(bad), "--kind",
                               "shannon"]).exit_code == 3,
           "exit 3 on parse error")
    expect(runner.invoke(cli, ["entropy", "--input", str(probs), "--kind",
                               "hybrid", "--q", "0.3"]).exit_code == 4,
           "exit 4 on domain error")
    expect(runner.invoke(cli, ["maxent", "--input", str(energies), "--q", "0.8",
                               "--alpha", "2", "--omega", "50"]).exit_code == 5,
           "exit 5 on solver failure")

    # CSV round trip through the entropy reader, bit-faithful
    args = ["maxent", "--input", str(energies), "--q", "1.2", "--alpha", "1",
            "--omega", "0.5"]
    json_run = runner.invoke(cli, args)
    expect(json_run.exit_code == 0, "maxent json run")
    payload = json.loads(json_run.output.splitlines()[0])
    csv_run = runner.invoke(cli, args + ["--format", "csv"])
    expect(csv_run.exit_code == 0, "maxent csv run")
    solution = tmp_path / "solution.csv"
    solution.write_text(csv_run.output, encoding="utf-8")
    reparsed = read_column(str(solution), "p")
    expect(reparsed.tolist() == [lvl["p"] for lvl in payload["levels"]],
           "bit-faithful csv round trip")
    entropy_run = runner.invoke(cli, ["entropy", "--input", str(solution),
                                      "--kind", "shannon"])
    expect(entropy_run.exit_code == 0, "entropy re-parse of solver csv")

    # JSON schema stability
    expect(set(payload) == {"levels", "Z_q", "Z_q_alpha", "phi", "escort_mean",
                            "residual", "iterations", "converged"},
           "maxent json schema")

    # the full seeded self-check comes back green
    check_run = runner.invoke(cli, ["check", "--suite", "all", "--seed", "7"])
    expect(check_run.exit_code == 0, "check --suite all --seed 7 exits 0")

    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE 8 [{status}] CLI round-trip, exit codes, self-check")
    assert not failures, f"CLI criterion failures: {failures}"
