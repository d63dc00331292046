"""Inputs of the three workloads, generated from the workload seed.

The seed draws the random spectra (sorted uniform energies on [0, 2],
optionally skewed towards one end), jitters q by at most +-0.02 and omega by
at most +-5 %, and places each target mean a seeded distance from the
spectrum's arithmetic mean.  Sizes, alpha and the side of q relative to 1
are fixed per task, so every seed costs about the same work.  The kept
faults use fixed inputs that do not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FAMILY_SOLVER = {
    "tsallis": "solve_maxent",
    "renyi": "solve_maxent_renyi",
    "shannon": "solve_maxent_shannon_limit",
    "gibbs": "solve_maxent",
}


@dataclass
class LibraryTask:
    """One call of a qtherm MaxEnt solver and what its answer must satisfy."""

    name: str
    family: str
    energies: np.ndarray
    q: float
    alpha: float
    omega: float | None = None
    target: float | None = None
    fault: str | None = None
    reference: np.ndarray | None = field(default=None, repr=False)

    @property
    def solver(self) -> str:
        return FAMILY_SOLVER[self.family]

    def args(self) -> tuple[tuple, dict]:
        kwargs = {} if self.target is None else {"target_mean": self.target}
        head = (self.energies, self.q)
        if self.family != "shannon":
            head += (self.alpha,)
        if self.omega is not None:
            head += (self.omega,)
        return head, kwargs


def spectrum(rng, n: int, skew: float = 1.0) -> np.ndarray:
    """n sorted energies on [0, 2]; skew > 1 crowds them towards 0.

    One uniform draw per stratum [i/n, (i+1)/n) keeps the spectrum mean, and
    with it the work per solve, nearly the same for every seed.
    """
    e = 2.0 * ((np.arange(n) + rng.uniform(0.0, 1.0, n)) / n) ** skew
    e[0], e[-1] = 0.0, 2.0
    return e


def _jitter_q(rng, q0: float) -> float:
    return 1.0 if q0 == 1.0 else q0 + rng.uniform(-0.02, 0.02)


def _jitter_omega(rng, omega0: float) -> float:
    return omega0 * rng.uniform(0.95, 1.05)


# name, family, alpha, n, q0, omega0, skew
FIXED_OMEGA = [
    ("tsallis-a2-n3000", "tsallis", 2.0, 3000, 1.2, 0.3, 1.0),
    ("tsallis-a0.5-n1000", "tsallis", 0.5, 1000, 1.2, 0.3, 1.0),
    ("renyi-a1-n1000", "renyi", 1.0, 1000, 0.8, 0.3, 1.0),
    ("tsallis-a1-n300", "tsallis", 1.0, 300, 1.2, 0.3, 1.0),
    ("renyi-a2-n300", "renyi", 2.0, 300, 0.8, 0.3, 1.0),
    ("tsallis-a0.7-n60", "tsallis", 0.7, 60, 0.8, 0.3, 1.0),
    ("tsallis-a0.7-n30-bracketed", "tsallis", 0.7, 30, 0.8, 8.0, 1.0),
    ("tsallis-a1.5-n60", "tsallis", 1.5, 60, 1.2, 0.3, 1.0),
    ("tsallis-a1.5-n30-bracketed", "tsallis", 1.5, 30, 1.2, 1.6, 3.0),
    ("renyi-a3-n30", "renyi", 3.0, 30, 1.2, 0.3, 1.0),
    ("tsallis-a3-n30-bracketed", "tsallis", 3.0, 30, 1.2, 1.4, 3.0),
    ("shannon-n1000", "shannon", None, 1000, 1.3, 0.4, 1.0),
    ("shannon-n300", "shannon", None, 300, 0.8, 0.4, 1.0),
    ("gibbs-n3000", "gibbs", 2.0, 3000, 1.0, 1.0, 1.0),
    ("tsallis-a2-n4", "tsallis", 2.0, 4, 1.2, 0.5, 1.0),
    ("shannon-n5", "shannon", None, 5, 1.3, 0.4, 1.0),
]

# name, family, alpha, n, q0, offset of the target from the spectrum mean
TARGET_MEAN = [
    ("tsallis-a2-n30", "tsallis", 2.0, 30, 1.2, -0.2),
    ("tsallis-a0.5-n20", "tsallis", 0.5, 20, 0.8, 0.2),
    ("renyi-a1-n30", "renyi", 1.0, 30, 1.2, 0.15),
    ("tsallis-a1.5-n3", "tsallis", 1.5, 3, 1.2, -0.15),
    ("renyi-a3-n4", "renyi", 3.0, 4, 0.8, 0.15),
    ("shannon-n10", "shannon", None, 10, 1.3, -0.15),
    ("shannon-n5", "shannon", None, 5, 0.8, 0.15),
    ("gibbs-n30", "gibbs", 2.0, 30, 1.0, -0.25),
]


def fixed_omega_tasks(seed: int, max_n: int | None = None) -> list[LibraryTask]:
    rng = np.random.default_rng([seed, 1])
    tasks = []
    for name, family, alpha, n, q0, omega0, skew in FIXED_OMEGA:
        n = min(n, max_n or n)
        tasks.append(LibraryTask(
            name, family, spectrum(rng, n, skew), _jitter_q(rng, q0),
            alpha if alpha is not None else np.inf, omega=_jitter_omega(rng, omega0),
        ))
    # F1: absolute step stop, residual grows with n (fixed input).
    tasks.append(LibraryTask("F1-tsallis-a0.5-n3000", "tsallis",
                             np.linspace(0.0, 2.0, 3000), 0.8, 0.5, omega=0.3,
                             fault="F1"))
    return tasks


def target_mean_tasks(seed: int, max_n: int | None = None) -> list[LibraryTask]:
    rng = np.random.default_rng([seed, 2])
    tasks = []
    for name, family, alpha, n, q0, offset in TARGET_MEAN:
        n = min(n, max_n or n)
        e = spectrum(rng, n)
        target = float(e.mean()) + offset * rng.uniform(0.9, 1.1)
        tasks.append(LibraryTask(
            name, family, e, _jitter_q(rng, q0),
            alpha if alpha is not None else np.inf, target=target,
        ))
    # F3: feasible targets refused after the bracket shrink (fixed inputs).
    tasks.append(LibraryTask("F3-shannon-n30", "shannon",
                             np.linspace(0.0, 2.0, 30), 1.3, np.inf,
                             target=0.6, fault="F3"))
    tasks.append(LibraryTask("F3-tsallis-a1.5-n30", "tsallis",
                             np.linspace(0.0, 2.0, 30), 0.8, 1.5,
                             target=0.6, fault="F3"))
    return tasks
