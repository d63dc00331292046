"""Smoke test of the benchmark: result schema and output checks, never a timing.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Kept faults fail once per round: F1 (fixed-omega), F3 twice (target-mean),
# F2 (cli).
KEPT_FAILURES = {"fixed-omega": 1, "target-mean": 2, "cli": 1}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema_and_checks(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == KEPT_FAILURES[workload]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_a_checkout_without_the_program(tmp_path: Path) -> None:
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixed-omega", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
