"""Entropy functionals, escort transforms, and quasi-additivity estimators.

Works on finite discrete probability vectors.  Every public function accepts
any array-like and validates it through :func:`as_distribution`; zero entries
follow the continuity conventions 0^q := 0 (q > 0) and 0*log(0) := 0, while
a zero entry combined with q <= 0 is a domain error.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .deformation import transform
from .errors import DomainError, RenormalizationWarning
from .qalgebra import Q_ONE_THRESHOLD

# Vectors this close to unit mass are accepted as-is; up to RENORM_TOL they
# are rescaled with a warning (file round-off), beyond that rejected.
NORM_TOL = 1e-12
RENORM_TOL = 1e-9


def as_distribution(probs) -> np.ndarray:
    """Validate and return a probability vector as a float ndarray.

    Entries must be finite and non-negative.  The total mass may deviate
    from 1 by at most ``RENORM_TOL``; deviations above ``NORM_TOL`` are
    renormalized and flagged with :class:`RenormalizationWarning`.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise DomainError(f"expected a 1-D probability vector, got shape {p.shape}")
    if p.size < 1:
        raise DomainError("probability vector must not be empty")
    if not np.all(np.isfinite(p)):
        raise DomainError("probability vector contains NaN or infinite entries")
    if np.any(p < 0.0):
        raise DomainError("probability vector contains negative entries")
    total = float(p.sum())
    gap = abs(total - 1.0)
    if gap <= NORM_TOL:
        return p.copy()
    if gap <= RENORM_TOL:
        warnings.warn(
            f"probabilities sum to {total!r}; renormalizing",
            RenormalizationWarning,
            stacklevel=2,
        )
        return p / total
    raise DomainError(f"probabilities sum to {total!r}, not 1")


def product_distribution(p, q) -> np.ndarray:
    """Joint distribution of two independent systems, p_ij = p_i * q_j."""
    a = as_distribution(p)
    b = as_distribution(q)
    return np.outer(a, b).ravel()


class PartitionSum(NamedTuple):
    """A partition sum Z_q = sum_k p_k^q together with the index used."""

    z: float
    q_used: float


def partition_sum(probs, q: float) -> float:
    """Z_q = sum_k p_k^q with the zero-entry convention 0^q := 0 for q > 0."""
    p = as_distribution(probs)
    return _partition_sum_raw(p, _finite_q(q))


def _finite_q(q) -> float:
    q = float(q)
    if not math.isfinite(q):
        raise DomainError(f"q must be finite, got {q!r}")
    return q


def _support(p: np.ndarray, q: float) -> np.ndarray:
    """The positive entries of p, the only ones in Z_q (0^q := 0 for q > 0);
    a zero entry with q <= 0 is a domain error."""
    if q <= 0.0 and np.any(p == 0.0):
        raise DomainError(f"Z_q undefined: zero probability with q = {q:g} <= 0")
    return p[p > 0.0]


def _partition_sum_raw(p: np.ndarray, q: float) -> float:
    return float(np.sum(_support(p, q) ** q))


def _partition_excess(p: np.ndarray, q: float) -> float:
    """Z_q - 1 as the sum of the terms p_k^q - p_k = p_k*expm1((q-1)*ln p_k).

    Through sum(p) = 1 the leading 1 cancels exactly, and every term has the
    sign of 1 - q, so (Z_q - 1)/(1 - q) keeps its digits as q -> 1 instead
    of losing about eps/|q - 1| of them.  Terms with |(q-1)*ln p_k| >= 1 are
    taken as p_k^q - p_k, where exp would inherit the rounding of the product.
    """
    s = _support(p, q)
    y = (q - 1.0) * np.log(s)
    terms = s**q - s
    small = np.abs(y) < 1.0
    terms[small] = s[small] * np.expm1(y[small])
    return float(np.sum(terms))


def tsallis(probs, q: float) -> float:
    """Nonadditive entropy S_q = (sum p_i^q - 1)/(1 - q); Shannon at q = 1."""
    p = as_distribution(probs)
    q = _finite_q(q)
    if abs(q - 1.0) < Q_ONE_THRESHOLD:
        return _shannon_raw(p)
    return _partition_excess(p, q) / (1.0 - q)


def shannon(probs) -> float:
    """Shannon entropy -sum p_i ln p_i in nats."""
    return _shannon_raw(as_distribution(probs))


def _shannon_raw(p: np.ndarray) -> float:
    support = p[p > 0.0]
    return float(-np.sum(support * np.log(support)))


def renyi(probs, q: float) -> float:
    """Additive entropy ln(Z_q)/(1 - q); Shannon at q = 1.

    Equals log(exp_q(S_q)) of the matching nonadditive entropy.
    """
    p = as_distribution(probs)
    q = _finite_q(q)
    if abs(q - 1.0) < Q_ONE_THRESHOLD:
        return _shannon_raw(p)
    excess = _partition_excess(p, q)
    # log1p keeps the digits of ln Z_q near q = 1; below Z_q = 1/2 the sum
    # 1 + excess would lose those that Z_q itself keeps
    z = 1.0 + excess if excess > -0.5 else _partition_sum_raw(p, q)
    if z <= 0.0 or math.isinf(z):
        raise DomainError(f"partition sum {z:g} outside (0, inf)")
    return (math.log1p(excess) if excess > -0.5 else math.log(z)) / (1.0 - q)


def escort(probs, r: float) -> np.ndarray:
    """Escort distribution rho_k = p_k^r / sum_j p_j^r.

    Requires a strictly positive vector when r <= 0; fails if every power
    under- or overflows.
    """
    p = as_distribution(probs)
    r = float(r)
    if r <= 0.0 and np.any(p == 0.0):
        raise DomainError(f"escort undefined: zero probability with r = {r:g} <= 0")
    powers = np.zeros_like(p)
    mask = p > 0.0
    powers[mask] = p[mask] ** r
    z = float(powers.sum())
    if z <= 0.0 or not math.isfinite(z):
        raise DomainError(f"escort normalizer Z_r = {z!r} outside (0, inf)")
    return powers / z


def escort_mean(probs, levels, r: float) -> float:
    """Escort average <E>_r = sum_k rho_k(r) E_k of a level vector."""
    p = as_distribution(probs)
    e = np.asarray(levels, dtype=float)
    if e.shape != p.shape:
        raise DomainError(
            f"levels shape {e.shape} does not match distribution shape {p.shape}"
        )
    return float(np.dot(escort(p, r), e))


def hartley_moments(probs) -> tuple[float, float]:
    """First and second moments of the surprisal I = -ln p under P.

    The first moment is the Shannon entropy; the second bounds it from
    below via Jensen: <I^2> >= <I>^2.
    """
    p = as_distribution(probs)
    support = p[p > 0.0]
    log_p = np.log(support)
    mean_info = float(-np.sum(support * log_p))
    second = float(np.sum(support * log_p**2))
    return mean_info, second


def hybrid(probs, q: float) -> float:
    """Hybrid entropy D_q = log_q exp(-sum_i rho_i(q) ln p_i).

    Only defined for q >= 1/2 (below that the functional loses maximality
    at the uniform distribution).  Zero-probability states carry no escort
    weight and are excluded from the average.
    """
    p = as_distribution(probs)
    q = _finite_q(q)
    if q < 0.5:
        raise DomainError(
            f"hybrid entropy requires q >= 1/2, got q = {q:g} (maximality fails below)"
        )
    rho = escort(p, q)
    mask = p > 0.0
    a = float(-np.sum(rho[mask] * np.log(p[mask])))
    if abs(q - 1.0) < Q_ONE_THRESHOLD:
        return a
    # log_q(exp(a)) evaluated stably as expm1((1-q)a)/(1-q)
    return math.expm1((1.0 - q) * a) / (1.0 - q)


def avg_hybrid(probs, q: float) -> float:
    """Average hybrid entropy A_q = D_{(q+1)/2}.

    The index is the alpha = 2 rescaling of q, which maps the admissible
    range q >= 0 onto the hybrid domain [1/2, inf).
    """
    q = _finite_q(q)
    if q < 0.0:
        raise DomainError(f"average hybrid entropy requires q >= 0, got {q:g}")
    return hybrid(probs, transform(q, 2.0))


def quasi_additivity_alpha(probs) -> float:
    """Scale factor 1 + <I>^2/<I^2> that makes S_q nearly additive near q = 1.

    Always in [1, 2]: equal to 2 exactly when P is uniform on its support
    and defined as the 0/0 limit 1 for a deterministic distribution.
    """
    mean_info, second = hartley_moments(probs)
    if second == 0.0:
        return 1.0
    return 1.0 + mean_info**2 / second


def quasi_additivity_check(probs, q: float) -> tuple[float, float, float]:
    """Compare 2*S_q(P) against S_{q_alpha}(P x P) with the matched alpha.

    Returns (lhs, rhs, gap).  The gap vanishes to second order in (q - 1):
    halving (q - 1) shrinks it roughly fourfold.
    """
    p = as_distribution(probs)
    q = float(q)
    alpha = quasi_additivity_alpha(p)
    lhs = 2.0 * tsallis(p, q)
    rhs = tsallis(product_distribution(p, p), transform(q, alpha))
    return lhs, rhs, abs(lhs - rhs)
