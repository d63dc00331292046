"""Benchmark of the qtherm MaxEnt solvers and the qtherm command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixed-omega --seed 1 --seconds 30 --trace 0

Workloads are ``fixed-omega``, ``target-mean`` and ``cli`` (see README.md).
One run repeats rounds of the workload's tasks, one task at a time, until
``--seconds`` have passed and at least three rounds are done; fresh
interpreters that import the entry module are started at even intervals
between tasks.  Every output is checked against computations made apart
from the program (``oracle.py``).  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter importing the entry module
  pass_s       sum over tasks of each task's upper-quartile wall time over the
               rounds (see README.md for why not the median)
  peak_rss_mb  peak resident memory of the process that ran the tasks (cli:
               the largest child process)

``--trace 1`` runs every task twice per round, untraced and traced, with the
tasks invoked in-process (for ``cli`` through click), and reports the
per-layer metrics of ``tracer.py`` together with both pass times.  Spans
are saved to ``perfbench/out/trace-<workload>.npz`` and a summary with
per-task counts to ``perfbench/out/trace-<workload>.json``.  Every run
also writes its raw task and set-up times to
``perfbench/out/samples-<workload>-trace<0|1>.json``.

``--smoke`` shrinks every input and runs one round; the benchmark's own test
uses it to check the schema and the output checks, never a timing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import clitasks
import oracle
import workloads
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("fixed-omega", "target-mean", "cli")
MIN_ROUNDS = 3
PROBES = 6
MAX_PROBES = 8
SPAN_CAPACITY = 3_600_000
CLI_BIG_N = 100_000
SMOKE_MAX_N = 30


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import qtherm from this checkout's src/, and nothing else."""
    if not (SRC / "qtherm" / "__init__.py").is_file():
        _fail(f"no qtherm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qtherm

    if Path(qtherm.__file__).resolve().parent != (SRC / "qtherm").resolve():
        _fail(f"imported qtherm from {qtherm.__file__}, not from {SRC}")
    return qtherm


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's src/ first, no QTHERM_SEED.

    QTHERM_SEED overrides ``qtherm check --seed``, so it would replace the
    workload seed.
    """
    env = {k: v for k, v in os.environ.items() if k != "QTHERM_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], stdout_path: Path) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in KiB)."""
    err_path = stdout_path.with_suffix(".stderr")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


QTHERM_ENTRY = ("import sys; from qtherm.cli import main; "
                "sys.argv[0] = 'qtherm'; sys.exit(main())")


class Probe:
    """Fresh interpreters importing the entry module, spread through a run."""

    def __init__(self, module: str, args):
        self.module = module
        self.interval = args.seconds / PROBES
        self.limit = 1 if args.smoke else MAX_PROBES
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.next_at = 0.0

    def maybe(self, elapsed: float) -> None:
        if elapsed < self.next_at or len(self.walls) >= self.limit:
            return
        code = (f"import time; t = time.perf_counter(); import {self.module}; "
                f"print(time.perf_counter() - t)")
        path = OUT / f"probe-{self.module}.stdout"
        wall, status, _ = run_child([sys.executable, "-c", code], path)
        if status != 0:
            _fail(f"importing {self.module} failed: {path.with_suffix('.stderr')}")
        self.walls.append(wall)
        self.imports.append(float(path.read_text()))
        self.next_at += self.interval


class Run:
    """Task outcomes and timings of one benchmark run."""

    def __init__(self, tasks, probe: Probe):
        self.probe = probe
        self.times = {t.name: [] for t in tasks}
        self.traced_times = {t.name: [] for t in tasks}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.max_residual = 0.0
        self.peak_child_kib = 0
        self.rounds = 0

    def record(self, task, verdict: str, detail: str, residual: float) -> None:
        self.attempted += 1
        if verdict == "failed":
            self.failed += 1
            if task.fault is None:
                print(f"perfbench: {task.name} failed: {detail}", file=sys.stderr)
        elif verdict == "wrong":
            self.wrong.append(f"{task.name}: {detail}")
            print(f"perfbench: WRONG {task.name}: {detail}", file=sys.stderr)
        else:
            self.max_residual = max(self.max_residual, residual)

    def pass_s(self, traced: bool = False) -> float:
        """Sum of the per-task upper quartiles of the wall times.

        This machine has turbo phases of 10-30 s in which every task runs up
        to twice as fast.  A median flips to the turbo time whenever such a
        phase covers half a run; the upper quartile stays on the normal time
        until one covers three quarters.
        """
        times = self.traced_times if traced else self.times
        return sum(float(np.percentile(v, 75)) for v in times.values())


def run_rounds(tasks, args, run: Run, execute, judge, tracer=None):
    """Repeat whole rounds of ``tasks`` until the run's time is up.

    ``execute(task, tracer)`` times one task and returns (wall, outcome);
    ``judge(task, outcome, ctx)`` returns (verdict, detail, residual), where
    ``ctx`` carries outputs from earlier tasks of the same round.  A traced
    run executes every task twice, untraced and traced, alternating which
    goes first, and stops early once another round would overflow the span
    store.
    """
    start = perf_counter()
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    while run.rounds < min_rounds or (
            not args.smoke and perf_counter() - start < args.seconds):
        if tracer is not None and run.rounds and tracer.full(tracer.round_size):
            break
        first = len(tracer) if tracer is not None else 0
        ctx: dict = {}
        for task_id, task in enumerate(tasks):
            run.probe.maybe(perf_counter() - start)
            order = (False,) if tracer is None else \
                (False, True) if run.rounds % 2 == 0 else (True, False)
            for traced in order:
                if not traced:
                    wall, outcome = execute(task, None)
                    run.times[task.name].append(wall)
                    continue
                tracer.task_id = task_id
                begin = len(tracer)
                with tracer:
                    wall, outcome = execute(task, tracer)
                run.traced_times[task.name].append(wall)
                tracer.task_ranges.append((task_id, run.rounds, begin, len(tracer)))
            run.record(task, *judge(task, outcome, ctx))
        if tracer is not None:
            tracer.round_ranges.append((first, len(tracer)))
            tracer.round_size = len(tracer) - first
        run.rounds += 1


# --- library workloads -------------------------------------------------------

def library_execute(qtherm):
    def execute(task, tracer):
        """The timed call: one public solver, looked up at call time."""
        args, kwargs = task.args()
        span = tracer.span("bench.task") if tracer is not None else nullcontext()
        with span:
            start = perf_counter()
            try:
                result = getattr(qtherm, task.solver)(*args, **kwargs)
            except Exception as err:  # every failure of the program is an outcome
                result = err
            wall = perf_counter() - start
        return wall, result
    return execute


def library_judge(task, result, ctx) -> tuple[str, str, float]:
    if isinstance(result, Exception):
        return "failed", f"{type(result).__name__}: {result}", math.nan
    if not (result.converged and result.stationarity_residual <= oracle.RESIDUAL_ACCEPT):
        return "failed", (f"uncertified: converged={result.converged}, "
                          f"residual {result.stationarity_residual:.3g}"), math.nan
    if task.energies.size <= oracle.SMALL_N and task.reference is None:
        task.reference = oracle.direct_maximizer(
            task.family, task.energies, task.q, task.alpha,
            task.target if task.target is not None else result.escort_mean)
    problems, residual = oracle.check_solution(
        task.family, result.probs, task.energies, task.q, task.alpha, result.omega,
        target=task.target, reference=task.reference)
    if problems:
        return "wrong", "; ".join(problems), residual
    return "ok", "", residual


# --- cli workload ------------------------------------------------------------

def cli_execute(run: Run, out_dir: Path, in_process: bool):
    """Child processes for the timed run, click's CliRunner for the traced one."""
    if in_process:
        from click.testing import CliRunner

        import qtherm.cli

        os.environ.pop("QTHERM_SEED", None)
        runner = CliRunner()

    def execute(task, tracer):
        path = task.stdout_path(out_dir)
        if not in_process:
            wall, code, kib = run_child(
                [sys.executable, "-c", QTHERM_ENTRY, *task.args], path)
            run.peak_child_kib = max(run.peak_child_kib, kib)
            return wall, code
        span = tracer.span("cli.invoke") if tracer is not None else nullcontext()
        with span:
            start = perf_counter()
            result = runner.invoke(qtherm.cli.cli, task.args)
            wall = perf_counter() - start
        path.write_text(result.stdout, encoding="utf-8")
        return wall, result.exit_code
    return execute


def cli_judge(out_dir: Path):
    def judge(task, code: int, ctx: dict) -> tuple[str, str, float]:
        if code != 0:
            return "failed", f"exit code {code}", math.nan
        ctx.pop("residual", None)
        try:
            task.check(task.stdout_path(out_dir).read_text(encoding="utf-8"), ctx)
        except (clitasks.CheckFailed, ValueError, KeyError, IndexError) as err:
            return "wrong", f"{type(err).__name__}: {err}", math.nan
        return "ok", "", ctx.get("residual", 0.0)
    return judge


# --- results -----------------------------------------------------------------

def end_to_end(run: Run, workload: str) -> dict:
    if workload == "cli":
        peak_kib = run.peak_child_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(run.probe.walls), "unit": "s"},
        "pass_s": {"value": run.pass_s(), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }


def per_layer(run: Run, tracer, workload: str) -> dict:
    units = layer_units()
    rounds = [layer_metrics(tracer, a, b) for a, b in tracer.round_ranges]
    values = {}
    for key in rounds[0]:
        value = statistics.median(r[key] for r in rounds)
        values[key] = int(value) if units[key] == "count" and value == int(value) \
            else value
    values["cli.import_s"] = (statistics.median(run.probe.imports)
                              if workload == "cli" else 0.0)
    values["maxent.max_residual"] = run.max_residual
    values["trace.pass_s"] = run.pass_s(traced=True)
    values["trace.untraced_pass_s"] = run.pass_s()
    values["trace.overhead_s"] = values["trace.pass_s"] - values["trace.untraced_pass_s"]
    return {key: {"value": values[key], "unit": units[key]} for key in units}


def layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def save_trace(tracer, tasks, workload: str) -> None:
    tracer.save(OUT / f"trace-{workload}.npz")
    per_task = {}
    for task_id, round_no, first, last in tracer.task_ranges:
        if round_no == 0:
            per_task[tasks[task_id].name] = layer_metrics(tracer, first, last)
    summary = {
        "rounds": [layer_metrics(tracer, a, b) for a, b in tracer.round_ranges],
        "first_round_per_task": per_task,
    }
    (OUT / f"trace-{workload}.json").write_text(json.dumps(summary, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one round; checks only")
    args = parser.parse_args(argv)

    qtherm = _import_program()
    warnings.simplefilter("ignore", RuntimeWarning)
    OUT.mkdir(exist_ok=True)
    max_n = SMOKE_MAX_N if args.smoke else None
    tracer = Tracer(SPAN_CAPACITY) if args.trace else None
    if args.workload == "cli":
        out_dir = OUT / "cli"
        tasks = clitasks.build(args.seed, out_dir, max_n or CLI_BIG_N)
        run = Run(tasks, Probe("qtherm.cli", args))
        run_rounds(tasks, args, run, cli_execute(run, out_dir, bool(args.trace)),
                   cli_judge(out_dir), tracer)
    else:
        build = (workloads.fixed_omega_tasks if args.workload == "fixed-omega"
                 else workloads.target_mean_tasks)
        tasks = build(args.seed, max_n)
        run = Run(tasks, Probe("qtherm", args))
        run_rounds(tasks, args, run, library_execute(qtherm), library_judge, tracer)

    if tracer is not None:
        metrics = per_layer(run, tracer, args.workload)
        save_trace(tracer, tasks, args.workload)
    else:
        metrics = end_to_end(run, args.workload)
    samples = {"tasks": run.times, "traced_tasks": run.traced_times,
               "setup_walls": run.probe.walls, "setup_imports": run.probe.imports}
    (OUT / f"samples-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(samples, indent=1))
    for name, times in run.times.items():
        print(f"perfbench: {name}: median {statistics.median(times):.4f} s over "
              f"{len(times)}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {run.rounds} rounds, "
          f"{len(run.probe.walls)} set-up probes, {run.failed}/{run.attempted} "
          f"failed", file=sys.stderr)
    result = {"correct": not run.wrong, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
