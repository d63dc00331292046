"""Computations made apart from the program, used to check its outputs.

Nothing here imports qtherm.  The stationarity conditions are derived from
the Lagrangian of each entropy under normalization and the q-escort energy
constraint <E>_q = sum p^q E / sum p^q:

* Tsallis, index q_a = 1 + (q-1)/alpha:
  q_a/(1-q_a) p^(q_a-1) - q_a/(1-q_a) Z_{q_a} - q w (E - <E>_q)/Z_q p^(q-1) = 0
* Renyi, same index:
  q_a/(1-q_a) p^(q_a-1)/Z_{q_a} - q_a/(1-q_a) - q w (E - <E>_q)/Z_q p^(q-1) = 0
* Shannon limit (alpha -> infinity):
  ln p + S_1 + q w (E - <E>_q)/Z_q p^(q-1) = 0
* Gibbs (q = 1): ln p + S_1 + w (E - <E>) = 0

The small-n reference maximizes the entropy directly with
``scipy.optimize`` and shares no code with the trinomial reduction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

RESIDUAL_ACCEPT = 1e-8
NORMALIZATION_TOL = 1e-12
TARGET_TOL = 1e-10
AFFINE_TOL = 1e-8
GIBBS_TOL = 1e-12
SMALL_N = 5
SMALL_N_TOL = 1e-5


def rescaled_index(q: float, alpha: float) -> float:
    return 1.0 + (q - 1.0) / alpha


def escort_mean(p: np.ndarray, e: np.ndarray, q: float) -> float:
    w = p**q
    return float(w @ e / w.sum())


def stationarity_gap(family: str, p, e, q: float, alpha: float,
                     omega: float) -> np.ndarray:
    """Per-level defect of the stationarity condition of ``family``."""
    p = np.asarray(p, dtype=float)
    e = np.asarray(e, dtype=float)
    s1 = float(-(p * np.log(p)).sum())
    if family == "gibbs":
        return np.log(p) + s1 + omega * (e - float(p @ e))
    z_q = float((p**q).sum())
    mean = float((p**q) @ e) / z_q
    constraint = q * omega * (e - mean) / z_q * p ** (q - 1.0)
    if family == "shannon":
        return np.log(p) + s1 + constraint
    q_a = rescaled_index(q, alpha)
    pre = q_a / (1.0 - q_a)
    z_a = float((p**q_a).sum())
    if family == "tsallis":
        return pre * p ** (q_a - 1.0) - pre * z_a - constraint
    if family == "renyi":
        return pre * p ** (q_a - 1.0) / z_a - pre - constraint
    raise ValueError(f"unknown family {family!r}")


def stationarity_residual(family: str, p, e, q: float, alpha: float,
                          omega: float) -> float:
    return float(np.max(np.abs(stationarity_gap(family, p, e, q, alpha, omega))))


def fitted_omega(family: str, p, e, q: float, alpha: float) -> float:
    """Least-squares multiplier for an answer reported without its omega.

    The stationarity defect is affine in omega, so the fit is one projection.
    """
    at_zero = stationarity_gap(family, p, e, q, alpha, 0.0)
    slope = stationarity_gap(family, p, e, q, alpha, 1.0) - at_zero
    return float(-(at_zero @ slope) / (slope @ slope))


def gibbs_weights(e, omega: float) -> np.ndarray:
    logits = -omega * np.asarray(e, dtype=float)
    w = np.exp(logits - logits.max())
    return w / w.sum()


def affine_fit_gap(p, e, q: float) -> float:
    """Largest deviation of p^(1-q) from its least-squares line in E."""
    y = np.asarray(p, dtype=float) ** (1.0 - q)
    e = np.asarray(e, dtype=float)
    design = np.column_stack([e - e.mean(), np.ones_like(e)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(np.max(np.abs(design @ coef - y)))


def tsallis_entropy(p, q: float) -> float:
    p = np.asarray(p, dtype=float)
    return float((1.0 - (p**q).sum()) / (q - 1.0))


def direct_maximizer(family: str, e, q: float, alpha: float,
                     mean: float) -> np.ndarray:
    """Maximize the family's entropy over the simplex at escort mean ``mean``.

    Softmax coordinates keep p > 0 and sum(p) = 1; SLSQP enforces the escort
    mean.  Tsallis and Renyi of one index are monotone in Z_{q_a}, so they
    share a maximizer; Gibbs uses the linear mean (q = 1).
    """
    e = np.asarray(e, dtype=float)
    q_a = rescaled_index(q, alpha) if family in ("tsallis", "renyi") else 1.0

    def probs(theta):
        w = np.exp(theta - theta.max())
        return w / w.sum()

    def neg_entropy(theta):
        p = probs(theta)
        if q_a == 1.0:
            return float((p * np.log(p)).sum())
        return float(-((p**q_a).sum() - 1.0) / (1.0 - q_a))

    def mean_gap(theta):
        return escort_mean(probs(theta), e, q) - mean

    best = None
    # Two starts guard against a stall on the flat side of the softmax.
    for start in (np.zeros(e.size), -(e - e.mean())):
        res = minimize(neg_entropy, start, method="SLSQP",
                       constraints=[{"type": "eq", "fun": mean_gap}],
                       options={"ftol": 1e-15, "maxiter": 500})
        if abs(mean_gap(res.x)) < 1e-10 and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise RuntimeError("direct maximization did not meet the mean constraint")
    return probs(best.x)


def check_distribution(p) -> list[str]:
    p = np.asarray(p, dtype=float)
    problems = []
    if not np.all(p > 0.0):
        problems.append("non-positive probability")
    gap = abs(float(p.sum()) - 1.0)
    if gap > NORMALIZATION_TOL:
        problems.append(f"sum(p) - 1 = {gap:.3g}")
    return problems


def check_solution(family: str, p, e, q: float, alpha: float, omega: float, *,
                   target: float | None = None,
                   reference: np.ndarray | None = None) -> tuple[list[str], float]:
    """All independent checks of one certified MaxEnt answer.

    Returns the list of failed checks and the recomputed residual.
    """
    p = np.asarray(p, dtype=float)
    e = np.asarray(e, dtype=float)
    problems = check_distribution(p)
    if problems:
        return problems, math.inf
    residual = stationarity_residual(family, p, e, q, alpha, omega)
    if not residual <= RESIDUAL_ACCEPT:
        problems.append(f"recomputed stationarity residual {residual:.3g}")
    if target is not None:
        mean = escort_mean(p, e, q)
        if abs(mean - target) > TARGET_TOL * max(1.0, abs(target)):
            problems.append(f"escort mean {mean!r} misses target {target!r}")
    if family in ("tsallis", "renyi") and alpha == 1.0:
        gap = affine_fit_gap(p, e, q)
        if gap > AFFINE_TOL:
            problems.append(f"p^(1-q) off affine in E by {gap:.3g}")
    if family == "gibbs":
        g = gibbs_weights(e, omega)
        gap = float(np.max(np.abs(p - g)) / g.max())
        if gap > GIBBS_TOL:
            problems.append(f"Gibbs weights differ by {gap:.3g} (relative)")
    if reference is not None:
        gap = float(np.max(np.abs(p - reference)))
        if gap > SMALL_N_TOL:
            problems.append(f"direct maximizer differs by {gap:.3g}")
    return problems, residual
