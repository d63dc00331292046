"""Entropy functionals, escort transforms, and quasi-additivity estimators.

Works on finite discrete probability vectors.  Every public function accepts
any array-like and validates it through :func:`as_distribution`; zero entries
follow the continuity conventions 0^q := 0 (q > 0) and 0*log(0) := 0, while
a zero entry combined with q <= 0 is a domain error.

Each functional has one implementation, a private row kernel over a batch of
distributions (a 2-D array, one zero-padded distribution per row, one index
per row), which the public 1-D functions call with a batch of one row.  In a
batch every zero lies outside the support (0^q := 0 for any q).  A row of a
batch gives its 1-D function's value to rounding (a few ulps).
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .deformation import transform
from .errors import DomainError, RenormalizationWarning
from .qalgebra import _is_classical

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
    return _checked(p)


def _checked(p: np.ndarray) -> np.ndarray:
    """``as_distribution`` for a 1-D vector or a 2-D batch of them, one per
    row; the error for a bad row of a batch names the row."""
    rows = np.atleast_2d(p)

    def fail(message: str, bad: np.ndarray):
        row = int(np.argmax(bad))
        return DomainError(message if p.ndim == 1 else f"row {row}: {message}")

    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise fail("probability vector contains NaN or infinite entries", bad)
    bad = (rows < 0.0).any(axis=1)
    if bad.any():
        raise fail("probability vector contains negative entries", bad)
    total = rows.sum(axis=1)
    gap = np.abs(total - 1.0)
    bad = gap > RENORM_TOL
    if bad.any():
        raise fail(f"probabilities sum to {float(total[bad][0])!r}, not 1", bad)
    near = gap > NORM_TOL
    if not near.any():
        return p.copy()
    row = int(np.argmax(near))
    where = "" if p.ndim == 1 else f"row {row}: "
    warnings.warn(
        f"{where}probabilities sum to {float(total[row])!r}; renormalizing",
        RenormalizationWarning,
        stacklevel=3,
    )
    return np.where(near[:, None], rows / total[:, None], rows).reshape(p.shape)


def product_distribution(p, q) -> np.ndarray:
    """Joint distribution of two independent systems, p_ij = p_i * q_j."""
    return _product_rows(as_distribution(p)[None, :], as_distribution(q)[None, :])[0]


def _product_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise joint distributions a_i * b_j, flattened with j fastest."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


class PartitionSum(NamedTuple):
    """A partition sum Z_q = sum_k p_k^q together with the index used."""

    z: float
    q_used: float


def partition_sum(probs, q: float) -> float:
    """Z_q = sum_k p_k^q with the zero-entry convention 0^q := 0 for q > 0."""
    p = as_distribution(probs)
    q = _finite_q(q)
    _require_support(p, q)
    return float(_partition_rows(_Rows(p), np.array([q]))[0])


def _finite_q(q) -> float:
    q = float(q)
    if not math.isfinite(q):
        raise DomainError(f"q must be finite, got {q!r}")
    return q


def _require_support(p: np.ndarray, q: float) -> None:
    """Z_q of a vector with a zero entry is undefined for q <= 0."""
    if q <= 0.0 and np.any(p == 0.0):
        raise DomainError(f"Z_q undefined: zero probability with q = {q:g} <= 0")


# --- row kernels ---------------------------------------------------------------


class _Rows:
    """A validated 1-D vector or 2-D batch as the row kernels take it.

    A 1-D vector is one row, and its errors name no row.  Row sums run over
    the whole row, zeros included, and differ from the sums over the 1-D
    support only in the order of the additions.
    """

    def __init__(self, p: np.ndarray):
        self.named = p.ndim == 2
        self.s = np.atleast_2d(p)
        self.on = self.s > 0.0
        # 1 off the support, where log and every power are masked anyway
        self.base = np.where(self.on, self.s, 1.0)
        self.log = np.log(self.base)

    def fail(self, message: str, bad: np.ndarray) -> DomainError:
        """The error for the first bad row, named if this is a batch."""
        row = int(np.argmax(bad))
        return DomainError(f"row {row}: {message}" if self.named else message)

    def power(self, q: np.ndarray) -> np.ndarray:
        """p**q on the support, 0 off it (0^q := 0), one q per row."""
        return np.where(self.on, self.base ** q[:, None], 0.0)


def _partition_rows(rows: _Rows, q: np.ndarray) -> np.ndarray:
    """Z_q = sum_k p_k^q per row."""
    return rows.power(q).sum(axis=1)


def _excess_rows(rows: _Rows, q: np.ndarray) -> np.ndarray:
    """Z_q - 1 per row, as the sum of the terms p_k^q - p_k = p_k*expm1((q-1)*ln p_k).

    Through sum(p) = 1 the leading 1 cancels exactly, and every term has the
    sign of 1 - q, so (Z_q - 1)/(1 - q) keeps its digits as q -> 1 instead
    of losing about eps/|q - 1| of them.  Terms with |(q-1)*ln p_k| >= 1 are
    taken as p_k^q - p_k, where exp would inherit the rounding of the product.
    """
    y = (q[:, None] - 1.0) * rows.log
    small = np.abs(y) < 1.0
    terms = np.where(small, rows.s * np.expm1(np.where(small, y, 0.0)),
                     rows.power(q) - rows.s)
    return terms.sum(axis=1)


def _shannon_rows(rows: _Rows) -> np.ndarray:
    return -(rows.s * rows.log).sum(axis=1)


def _tsallis_rows(rows: _Rows, q: np.ndarray) -> np.ndarray:
    """S_q = (Z_q - 1)/(1 - q) per row; Shannon where q is within
    ``Q_ONE_THRESHOLD`` of 1."""
    classical = _is_classical(q)
    value = _excess_rows(rows, q) / np.where(classical, 1.0, 1.0 - q)
    return np.where(classical, _shannon_rows(rows), value) if classical.any() else value


def _renyi_rows(rows: _Rows, q: np.ndarray) -> np.ndarray:
    """ln(Z_q)/(1 - q) per row; Shannon where q is within ``Q_ONE_THRESHOLD`` of 1."""
    classical = _is_classical(q)
    excess = _excess_rows(rows, q)
    # log1p keeps the digits of ln Z_q near q = 1; below Z_q = 1/2 the sum
    # 1 + excess would lose those that Z_q itself keeps
    near = excess > -0.5
    z = 1.0 + excess
    if not near.all():
        z = np.where(near, z, _partition_rows(rows, q))
    bad = ~classical & ((z <= 0.0) | np.isinf(z))
    if bad.any():
        raise rows.fail(f"partition sum {z[bad][0]:g} outside (0, inf)", bad)
    log_z = np.log1p(excess, out=np.log(z), where=near)
    value = log_z / np.where(classical, 1.0, 1.0 - q)
    return np.where(classical, _shannon_rows(rows), value) if classical.any() else value


def _escort_rows(rows: _Rows, r: np.ndarray) -> np.ndarray:
    """rho_k = p_k^r / sum_j p_j^r per row."""
    powers = rows.power(r)
    z = powers.sum(axis=1)
    bad = ~(z > 0.0) | ~np.isfinite(z)
    if bad.any():
        raise rows.fail(f"escort normalizer Z_r = {float(z[bad][0])!r} outside (0, inf)",
                        bad)
    return powers / z[:, None]


def _hybrid_rows(rows: _Rows, q: np.ndarray) -> np.ndarray:
    """D_q = log_q exp(-sum_i rho_i(q) ln p_i) per row (q >= 1/2)."""
    bad = q < 0.5
    if bad.any():
        raise rows.fail(f"hybrid entropy requires q >= 1/2, got q = {q[bad][0]:g} "
                        f"(maximality fails below)", bad)
    a = -(_escort_rows(rows, q) * rows.log).sum(axis=1)
    classical = _is_classical(q)
    # log_q(exp(a)) evaluated stably as expm1((1-q)a)/(1-q)
    e = 1.0 - q
    return np.where(classical, a, np.expm1(e * a) / np.where(classical, 1.0, e))


def _avg_hybrid_rows(rows: _Rows, q: np.ndarray) -> np.ndarray:
    """A_q = D_{(q+1)/2} per row (q >= 0)."""
    bad = q < 0.0
    if bad.any():
        raise rows.fail(f"average hybrid entropy requires q >= 0, got {q[bad][0]:g}", bad)
    return _hybrid_rows(rows, transform(q, 2.0))


def _hartley_rows(rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
    """<I> and <I^2> of the surprisal I = -ln p per row."""
    return _shannon_rows(rows), (rows.s * rows.log**2).sum(axis=1)


def _quasi_alpha_rows(rows: _Rows) -> np.ndarray:
    """1 + <I>^2/<I^2> per row, 1 where <I^2> = 0."""
    mean_info, second = _hartley_rows(rows)
    degenerate = second == 0.0
    return np.where(degenerate, 1.0, 1.0 + mean_info**2 / np.where(degenerate, 1.0, second))


def _bound_rows(rows: _Rows, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of Z_{(q+1)/2} <= sqrt(Z_q) per row (q >= 0)."""
    bad = q < 0.0
    if bad.any():
        raise rows.fail(f"bound check requires q >= 0, got {q[bad][0]:g}", bad)
    return _partition_rows(rows, 0.5 * (q + 1.0)), np.sqrt(_partition_rows(rows, q))


def partition_bound_check(probs, q: float) -> tuple[float, float]:
    """Evaluate both sides of the Cauchy-Schwarz bound Z_{(q+1)/2} <= sqrt(Z_q).

    Returns (Z_{(q+1)/2}, sqrt(Z_q)); equality holds exactly for the
    uniform distribution.
    """
    p = as_distribution(probs)
    q = _finite_q(q)
    lhs, rhs = _bound_rows(_Rows(p), np.array([q]))
    _require_support(p, q)
    return float(lhs[0]), float(rhs[0])


def _batch(probs) -> _Rows:
    """A 2-D batch of probability vectors, one zero-padded vector per row,
    validated once for the row kernels."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.size < 1:
        raise DomainError(f"expected a non-empty 2-D batch, got shape {p.shape}")
    return _Rows(_checked(p))


# --- the 1-D functionals ---------------------------------------------------------


def tsallis(probs, q: float) -> float:
    """Nonadditive entropy S_q = (sum p_i^q - 1)/(1 - q); Shannon at q = 1."""
    p = as_distribution(probs)
    q = _finite_q(q)
    _require_support(p, q)
    return float(_tsallis_rows(_Rows(p), np.array([q]))[0])


def shannon(probs) -> float:
    """Shannon entropy -sum p_i ln p_i in nats."""
    return float(_shannon_rows(_Rows(as_distribution(probs)))[0])


def renyi(probs, q: float) -> float:
    """Additive entropy ln(Z_q)/(1 - q); Shannon at q = 1.

    Equals log(exp_q(S_q)) of the matching nonadditive entropy.
    """
    p = as_distribution(probs)
    q = _finite_q(q)
    _require_support(p, q)
    return float(_renyi_rows(_Rows(p), np.array([q]))[0])


def escort(probs, r: float) -> np.ndarray:
    """Escort distribution rho_k = p_k^r / sum_j p_j^r.

    Requires a strictly positive vector when r <= 0; fails if every power
    under- or overflows.
    """
    p = as_distribution(probs)
    r = float(r)
    if r <= 0.0 and np.any(p == 0.0):
        raise DomainError(f"escort undefined: zero probability with r = {r:g} <= 0")
    return _escort_rows(_Rows(p), np.array([r]))[0]


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
    mean_info, second = _hartley_rows(_Rows(as_distribution(probs)))
    return float(mean_info[0]), float(second[0])


def hybrid(probs, q: float) -> float:
    """Hybrid entropy D_q = log_q exp(-sum_i rho_i(q) ln p_i).

    Only defined for q >= 1/2 (below that the functional loses maximality
    at the uniform distribution).  Zero-probability states carry no escort
    weight and are excluded from the average.
    """
    p = as_distribution(probs)
    return float(_hybrid_rows(_Rows(p), np.array([_finite_q(q)]))[0])


def avg_hybrid(probs, q: float) -> float:
    """Average hybrid entropy A_q = D_{(q+1)/2}.

    The index is the alpha = 2 rescaling of q, which maps the admissible
    range q >= 0 onto the hybrid domain [1/2, inf).
    """
    q = _finite_q(q)
    return float(_avg_hybrid_rows(_Rows(as_distribution(probs)), np.array([q]))[0])


def quasi_additivity_alpha(probs) -> float:
    """Scale factor 1 + <I>^2/<I^2> that makes S_q nearly additive near q = 1.

    Always in [1, 2]: equal to 2 exactly when P is uniform on its support
    and defined as the 0/0 limit 1 for a deterministic distribution.
    """
    return float(_quasi_alpha_rows(_Rows(as_distribution(probs)))[0])


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
