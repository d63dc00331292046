"""The ``cli`` workload: qtherm invocations as a user types them.

Each task is one argument list for the ``qtherm`` command plus a check of
its exit code and output.  The input files are written once per run under
the benchmark's output directory; the ``entropy`` task reads back the CSV
that the ``maxent --format csv`` task of the same round wrote.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from workloads import spectrum

MAXENT_KEYS = {"levels", "Z_q", "Z_q_alpha", "phi", "escort_mean", "residual",
               "iterations", "converged"}
LEVEL_KEYS = {"i", "E", "p"}
TRANSFORM_KEYS = {"q", "alpha", "q_alpha", "additive_dual", "additive_dual_in_range",
                  "multiplicative_dual", "multiplicative_dual_in_range"}
ENTROPY_KEYS = {"kind", "q", "value", "n", "normalization_gap", "renormalized"}
ALGEBRA_KEYS = {"q", "alpha", "q_alpha", "laws"}
LAWS = ["add", "subtract", "multiply", "divide", "exp-scaling", "log-scaling"]
CSV_FOOTER = ("Z_q", "Z_q_alpha", "phi", "escort_mean", "residual", "iterations",
              "converged")


class CheckFailed(Exception):
    """An output that the program reported as a success is wrong."""


@dataclass
class CliTask:
    name: str
    args: list[str]
    check: Callable[[str, dict], None]
    fault: str | None = None

    def stdout_path(self, out_dir: Path) -> Path:
        return out_dir / f"{self.name}.stdout"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _json(stdout: str, keys: set[str]) -> dict:
    payload = json.loads(stdout)
    _require(set(payload) == keys, f"JSON keys {sorted(payload)} != {sorted(keys)}")
    return payload


def _write_energies(path: Path, energies: np.ndarray) -> None:
    path.write_text("E\n" + "".join(f"{x:.17g}\n" for x in energies), encoding="utf-8")


def _maxent_json(stdout: str, energies: np.ndarray, ctx: dict) -> np.ndarray:
    payload = _json(stdout, MAXENT_KEYS)
    levels = payload["levels"]
    _require(len(levels) == energies.size, "level count differs from the input")
    _require(all(set(level) == LEVEL_KEYS for level in levels), "level keys changed")
    e = np.array([level["E"] for level in levels])
    _require(np.array_equal(e, energies), "echoed energies differ from the input")
    _require(payload["converged"] is True and payload["residual"] <= oracle.RESIDUAL_ACCEPT,
             "exit 0 without a certified residual")
    ctx["payload"] = payload
    return np.array([level["p"] for level in levels])


def _solution_check(family: str, p, e, q: float, alpha: float, omega: float | None,
                    ctx: dict, target: float | None = None) -> None:
    if omega is None:
        omega = oracle.fitted_omega(family, p, e, q, alpha)
    problems, residual = oracle.check_solution(family, p, e, q, alpha, omega,
                                               target=target)
    ctx["residual"] = residual
    _require(not problems, "; ".join(problems))


def build(seed: int, out_dir: Path, big_n: int) -> list[CliTask]:
    rng = np.random.default_rng([seed, 3])
    out_dir.mkdir(parents=True, exist_ok=True)
    big = spectrum(rng, big_n)
    small = spectrum(rng, 10)
    mid = spectrum(rng, 100)
    fault_input = np.linspace(0.0, 2.0, 5)
    paths = {}
    for key, energies in (("big", big), ("small", small), ("mid", mid),
                          ("fault", fault_input)):
        paths[key] = out_dir / f"energies-{key}.csv"
        _write_energies(paths[key], energies)

    q_t = 1.5 + rng.uniform(-0.05, 0.05)
    a_t = 2.0 + rng.uniform(-0.2, 0.2)
    omega_big = 1.0 * rng.uniform(0.95, 1.05)
    q_ent = 1.2 + rng.uniform(-0.02, 0.02)
    q_target = 1.2 + rng.uniform(-0.02, 0.02)
    target = float(small.mean()) - 0.2 * rng.uniform(0.9, 1.1)
    q_inf = 1.3 + rng.uniform(-0.02, 0.02)
    omega_inf = 0.4 * rng.uniform(0.95, 1.05)
    x, y = rng.uniform(1.5, 2.5), rng.uniform(2.5, 3.5)
    q_alg, a_alg = rng.uniform(0.4, 0.6), rng.uniform(1.8, 2.2)
    csv_path = out_dir / "maxent-csv.stdout"

    def check_transform(stdout, ctx):
        payload = _json(stdout, TRANSFORM_KEYS)
        q_alpha = oracle.rescaled_index(q_t, a_t)
        _require(abs(payload["q_alpha"] - q_alpha) <= 1e-15 * abs(q_alpha), "q_alpha")
        _require(payload["additive_dual"] == 2.0 - q_t, "additive dual")
        _require(abs(payload["multiplicative_dual"] - 1.0 / q_t) <= 1e-15, "multiplicative dual")

    def check_maxent_json(stdout, ctx):
        p = _maxent_json(stdout, big, ctx)
        _solution_check("gibbs", p, big, 1.0, 2.0, omega_big, ctx)
        ctx["big_p"] = p

    def check_maxent_csv(stdout, ctx):
        lines = stdout.splitlines()
        _require(lines[0] == "i,E,p" and len(lines) == big.size + 2, "CSV layout")
        rows = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
        _require(np.array_equal(rows[:, 1], big), "CSV energies differ from the input")
        _require(np.array_equal(rows[:, 2], ctx["big_p"]), "CSV and JSON p differ")
        footer = dict(item.split("=") for item in lines[-1][2:].split())
        _require(tuple(footer) == CSV_FOOTER, "CSV footer keys changed")
        payload = ctx["payload"]
        for key in CSV_FOOTER[:-2]:
            _require(float(footer[key]) == payload[key], f"CSV and JSON {key} differ")
        _require(int(footer["iterations"]) == payload["iterations"], "iterations differ")
        ctx["csv_p"] = rows[:, 2]

    def check_entropy(stdout, ctx):
        payload = _json(stdout, ENTROPY_KEYS)
        expected = oracle.tsallis_entropy(ctx["csv_p"], q_ent)
        _require(payload["n"] == big.size, "entropy n")
        _require(abs(payload["value"] - expected) <= 1e-12 * max(1.0, abs(expected)),
                 f"entropy {payload['value']!r} != {expected!r}")

    def check_target(stdout, ctx):
        p = _maxent_json(stdout, small, ctx)
        _solution_check("tsallis", p, small, q_target, 2.0, None, ctx, target=target)

    def check_inf(stdout, ctx):
        p = _maxent_json(stdout, mid, ctx)
        _solution_check("shannon", p, mid, q_inf, math.inf, omega_inf, ctx)

    def check_algebra(stdout, ctx):
        payload = _json(stdout, ALGEBRA_KEYS)
        _require([row["law"] for row in payload["laws"]] == LAWS, "law list changed")
        for row in payload["laws"]:
            _require(row["status"] in ("ok", "undefined", "domain-mismatch"), row["law"])
            if row["status"] == "ok":
                lhs, rhs = row["lhs"], row["rhs"]
                gap = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
                _require(gap <= 1e-12, f"{row['law']} gap {gap:.3g}")

    def check_suites(stdout, ctx):
        last = stdout.strip().splitlines()[-1]
        match = re.fullmatch(r"(\d+)/(\d+) properties passed \(suite all, seed (-?\d+)\)",
                             last)
        _require(match is not None and match[1] == match[2], last)
        _require(int(match[3]) == seed, "check ran with another seed than --seed")

    def check_fault(stdout, ctx):
        p = _maxent_json(stdout, fault_input, ctx)
        _solution_check("tsallis", p, fault_input, 1.2, 1000.0, 0.3, ctx)

    def num(x: float) -> str:
        return f"{x:.17g}"

    return [
        CliTask("transform", ["transform", "--q", num(q_t), "--alpha", num(a_t)],
                check_transform),
        CliTask("maxent-json", ["maxent", "--input", str(paths["big"]), "--q", "1",
                                "--alpha", "2", "--omega", num(omega_big)],
                check_maxent_json),
        CliTask("maxent-csv", ["maxent", "--input", str(paths["big"]), "--q", "1",
                               "--alpha", "2", "--omega", num(omega_big),
                               "--format", "csv"],
                check_maxent_csv),
        CliTask("entropy", ["entropy", "--input", str(csv_path), "--kind", "tsallis",
                            "--q", num(q_ent)],
                check_entropy),
        CliTask("maxent-target", ["maxent", "--input", str(paths["small"]),
                                  "--q", num(q_target), "--alpha", "2",
                                  "--target-mean", num(target)],
                check_target),
        CliTask("maxent-inf", ["maxent", "--input", str(paths["mid"]), "--q", num(q_inf),
                               "--alpha", "inf", "--omega", num(omega_inf)],
                check_inf),
        CliTask("algebra-check", ["algebra-check", "--x", num(x), "--y", num(y),
                                  "--q", num(q_alg), "--alpha", num(a_alg)],
                check_algebra),
        CliTask("check", ["check", "--suite", "all", "--seed", str(seed)], check_suites),
        # F2: series_radius overflows for alpha >~ 144 (fixed input).
        CliTask("F2-maxent-alpha1000", ["maxent", "--input", str(paths["fault"]),
                                        "--q", "1.2", "--alpha", "1000", "--omega", "0.3"],
                check_fault, fault="F2"),
    ]
