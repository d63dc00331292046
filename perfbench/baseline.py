"""Re-measure the baseline table of ROADMAP.md (single layers, one process).

Run from the repository root:

    python3 perfbench/baseline.py

Every spectrum is linspace(0, 2, n) with q = 1.2, as in the ROADMAP table.
Prints one Markdown row per case: median wall time over REPEATS runs, and the
work (sweeps, residual) of the last run.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import qtherm  # noqa: E402

REPEATS = 3
TRINOMIAL = [(2.0, 0.1, "closed form"), (1.5, 0.1, "series path"),
             (1.5, 0.37, "brentq path"), (3.0, 0.1, "series path"),
             (0.7, -1.5, "series path")]
SOLVES = [
    ("omega=0.3", 2.0, 300, {"omega": 0.3}),
    ("omega=0.3", 1.5, 300, {"omega": 0.3}),
    ("omega=0.3", 1.5, 3000, {"omega": 0.3}),
    ("omega=0.3", 2.0, 30000, {"omega": 0.3}),
    ("target_mean=0.8", 1.5, 30, {"target_mean": 0.8}),
]


def timed(fn):
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), result


def main() -> None:
    print("| case | time | work / note |")
    print("| --- | --- | --- |")
    for alpha, b, note in TRINOMIAL:
        seconds, _ = timed(lambda: [qtherm.solve_trinomial(alpha, b) for _ in range(1000)])
        print(f"| `solve_trinomial` alpha={alpha:g}, b={b:g} | "
              f"{seconds * 1e3:.1f} us | {note} |")
    for label, alpha, n, kwargs in SOLVES:
        energies = np.linspace(0.0, 2.0, n)
        seconds, sol = timed(lambda: qtherm.solve_maxent(energies, 1.2, alpha, **kwargs))
        print(f"| `solve_maxent` {label}, alpha={alpha:g}, n={n} | {seconds:.3g} s | "
              f"{sol.iterations} sweeps, residual {sol.stationarity_residual:.2g} |")


if __name__ == "__main__":
    main()
