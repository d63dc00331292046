"""The one-parameter rescaling group of the nonadditivity index q.

The map q -> q_alpha = 1 + (q - 1)/alpha rescales the nonadditive coupling
(1 - q) by 1/alpha.  Under composition of scale factors it forms a group:
(q_alpha)_beta = q_{alpha*beta}, q_1 = q, and 1_alpha = 1 for every alpha.
The special choices alpha = -1 and alpha = -q give the additive (2 - q) and
multiplicative (1/q) dualities.  Two physical parameter maps are included:
a finite heat bath of N particles, q(N) = N/(N-1), and a bath with
temperature fluctuations, q = 1 - 1/C + rel_fluct.

Every function is elementwise over NumPy arrays: the arguments broadcast
against each other, a scalar call returns a Python ``float``, and one
element outside the domain raises ``DomainError`` for the whole call.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .errors import DomainError, DualityRangeWarning

# Dualities are conventionally restricted to q in [0, 2]; outside that range
# the group is still well defined, so we only warn.
DUALITY_RANGE = (0.0, 2.0)


def _elementwise(fn):
    """Run ``fn`` with NumPy's floating-point warnings off (every branch of a
    ``np.where`` is evaluated on every element) and return a 0-d result as
    a Python ``float``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(all="ignore"):
            out = fn(*args, **kwargs)
        return float(out) if np.ndim(out) == 0 else out

    return wrapper


def _first(value, mask) -> float:
    """The first element of ``value`` (broadcast to ``mask``) where ``mask`` holds."""
    return float(np.broadcast_to(value, np.shape(mask))[mask][0])


def _finite(name: str, value) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    bad = ~np.isfinite(value)
    if bad.any():
        raise DomainError(f"{name} must be finite, got {_first(value, bad)!r}")
    return value


def _particles(n_particles) -> np.ndarray:
    n = _finite("n_particles", n_particles)
    if np.any(n <= 1.0):
        raise DomainError(f"need more than one bath particle, got {_first(n, n <= 1.0):g}")
    return n


@_elementwise
def transform(q, alpha):
    """Rescale the nonadditivity index: q_alpha = 1 + (q - 1)/alpha.

    Computed in the centered form so that transform(1, alpha) == 1 and
    (q_alpha - 1)*alpha == q - 1 hold to the last bit.
    """
    q = _finite("q", q)
    alpha = _finite("alpha", alpha)
    if np.any(alpha == 0.0):
        raise DomainError("alpha must be nonzero")
    out = np.where(alpha == 1.0, q, 1.0 + (q - 1.0) / alpha)
    overflow = np.isinf(out)
    if overflow.any():
        raise _overflow(_first(q, overflow), _first(alpha, overflow))
    return out


def _rescaled_index(q: float, alpha: float) -> float:
    """``transform`` of one finite q and one nonzero alpha in plain floats,
    bit for bit, without the cost of the array machinery; unlike
    ``transform`` it takes alpha = inf too, which sends q to 1."""
    out = q if alpha == 1.0 else 1.0 + (q - 1.0) / alpha
    if math.isinf(out):
        raise _overflow(q, alpha)
    return out


def _overflow(q: float, alpha: float) -> DomainError:
    return DomainError(f"q_alpha overflows: 1 + ({q!r} - 1)/{alpha!r}")


@_elementwise
def compose(alpha, beta):
    """Combine two scale factors; transform(q, alpha*beta) applies both."""
    alpha = _finite("alpha", alpha)
    beta = _finite("beta", beta)
    if np.any((alpha == 0.0) | (beta == 0.0)):
        raise DomainError("scale factors must be nonzero")
    product = alpha * beta
    overflow = np.isinf(product)
    if overflow.any():
        raise DomainError(f"composed scale factor overflows: "
                          f"{_first(alpha, overflow)} * {_first(beta, overflow)}")
    return product


@_elementwise
def additive_dual(q):
    """Additive duality q -> 2 - q (the alpha = -1 group element)."""
    out = 2.0 - _finite("q", q)
    _warn_if_outside_range(out)
    return out


@_elementwise
def multiplicative_dual(q):
    """Multiplicative duality q -> 1/q (the q-dependent choice alpha = -q)."""
    q = _finite("q", q)
    if np.any(q == 0.0):
        raise DomainError("multiplicative dual is undefined at q = 0")
    out = 1.0 / q
    _warn_if_outside_range(out)
    return out


def _warn_if_outside_range(q: np.ndarray) -> None:
    lo, hi = DUALITY_RANGE
    outside = (q < lo) | (q > hi)
    if outside.any():
        warnings.warn(
            f"duality output q = {_first(q, outside):g} lies outside [{lo:g}, {hi:g}]",
            DualityRangeWarning,
            stacklevel=4,
        )


@_elementwise
def heat_bath_q(n_particles):
    """Nonadditivity index of a finite heat bath: q(N) = N/(N-1).

    Accepts any real count N > 1 so that rescaled (fractional) baths from
    :func:`rescale_bath` can be mapped back to an index.
    """
    n = _particles(n_particles)
    return n / (n - 1.0)


@_elementwise
def rescale_bath(n_particles, alpha):
    """Rescale the bath size: N_alpha = alpha*(N - 1) + 1.

    Returns a real number; fractional particle counts are not rounded.
    Consistency: heat_bath_q(rescale_bath(N, a)) == transform(heat_bath_q(N), a).
    """
    n = _particles(n_particles)
    alpha = _finite("alpha", alpha)
    if np.any(alpha <= 0.0):
        raise DomainError("alpha must be positive to keep the bath above one particle")
    return alpha * (n - 1.0) + 1.0


@_elementwise
def fluctuation_q(heat_capacity, rel_fluct):
    """Index of a bath with temperature fluctuations: q = 1 - 1/C + rel_fluct.

    ``heat_capacity`` is C in units of k_B (may be negative for a finite
    reservoir); ``rel_fluct`` is the relative squared inverse-temperature
    fluctuation and must be non-negative.
    """
    c = _finite("heat_capacity", heat_capacity)
    r = _finite("rel_fluct", rel_fluct)
    if np.any(c == 0.0):
        raise DomainError("heat capacity must be nonzero")
    if np.any(r < 0.0):
        raise DomainError("relative fluctuation must be non-negative")
    return 1.0 - 1.0 / c + r


@_elementwise
def rescaled_fluctuation(rel_fluct, alpha):
    """Relative fluctuation after rescaling the index: rel_fluct/alpha.

    Valid in the large-fluctuation regime where 1/C is negligible; there
    q_alpha - 1 equals the rescaled fluctuation directly.
    """
    r = _finite("rel_fluct", rel_fluct)
    alpha = _finite("alpha", alpha)
    if np.any(r < 0.0):
        raise DomainError("relative fluctuation must be non-negative")
    if np.any(alpha <= 0.0):
        raise DomainError("alpha must be positive")
    return r / alpha
