"""Roots of the trinomial equation 1 - x + b*x^alpha = 0.

The root of interest is the positive branch continuous in b with x(0) = 1;
it carries the probabilities of the rescaled MaxEnt problem.  Dispatch:

* alpha = 1:    x = 1/(1 - b)                       (geometric series)
* alpha = 1/2:  quadratic in sqrt(x)
* alpha = 2:    x = 2/(1 + sqrt(1 - 4b))            (stable minus branch)
* otherwise:    a bracketed Brent solve over a closed-form bracket.

For alpha > 1 the branch ends in a double root at x = alpha/(alpha - 1)
when b reaches (alpha-1)^(alpha-1)/alpha^alpha; beyond that there is no
real root and ``NoRealRootError`` is raised.  Every returned root is
polished until |1 - x + b*x^alpha| <= 1e-12.

The branch-root power series (``trinomial_series``) is the paper's result;
it serves as a test oracle and is not on the solve path.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq
from scipy.special import gammaln, gammasgn

from .errors import DivergentSeriesError, DomainError, NoRealRootError

RESIDUAL_TOL = 1e-12


def residual(alpha: float, b: float, x: float) -> float:
    """Defect 1 - x + b*x^alpha of a candidate root."""
    return 1.0 - x + b * x**alpha


def series_radius(alpha: float) -> float:
    """Convergence radius in |b| of the branch-root series.

    The ratio test on C(alpha*n, n-1) b^n / n gives
    |1-alpha|^(alpha-1) / alpha^alpha, with the limit 1 as alpha -> 1.
    For alpha > 1 this coincides with the largest b admitting a real
    branch root, so the series converges exactly while the root exists.
    Evaluated in log space, as exp((alpha-1)*log|1-1/alpha| - log alpha),
    so it neither overflows for large alpha nor loses digits near 1/(e*alpha).
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"series radius needs alpha > 0, got {alpha!r}")
    if alpha == 1.0:
        return 1.0
    log_ratio = math.log1p(-1.0 / alpha) if alpha > 1.0 else math.log(1.0 / alpha - 1.0)
    return math.exp((alpha - 1.0) * log_ratio - math.log(alpha))


def series_coefficient(alpha: float, n: int) -> float:
    """n-th series coefficient C(alpha*n, n-1)/n.

    Uses log-gamma with sign tracking so large orders neither overflow
    prematurely nor lose the sign pattern; Gamma poles (integer alpha*n
    below n-1) correctly yield 0.  At alpha = 2 these are the Catalan
    numbers.
    """
    if n < 1:
        raise DomainError("series order n must be >= 1")
    sign, log_mag = _log_coefficient(float(alpha), int(n))
    return sign * math.exp(log_mag)


def _log_coefficient(alpha: float, n: int) -> tuple[float, float]:
    """Sign and log-magnitude of C(alpha*n, n-1)/n."""
    z = alpha * n
    tail = float(gammaln(z - n + 2.0))
    if math.isinf(tail):
        # Gamma pole in the denominator: the coefficient is exactly 0
        # (gammasgn is NaN there on some scipy versions, so short-circuit).
        return 0.0, -math.inf
    sign = float(gammasgn(z + 1.0) * gammasgn(z - n + 2.0))
    log_mag = float(gammaln(z + 1.0) - gammaln(n)) - tail - math.log(n)
    return sign, log_mag


def trinomial_series(alpha: float, b: float, n_max: int = 500,
                     tol: float = 1e-15) -> tuple[float, int]:
    """Partial sum of the branch-root series x = 1 + sum_n C(alpha*n, n-1) b^n/n.

    Truncates once the latest term magnitude drops below ``tol`` or after
    ``n_max`` terms; returns (x, terms_used).  Raises
    ``DivergentSeriesError`` when |b| is outside the convergence region or
    when term magnitudes grow three orders in a row.
    """
    alpha = float(alpha)
    b = float(b)
    if not (math.isfinite(alpha) and math.isfinite(b)) or alpha == 0.0:
        raise DomainError(f"invalid series arguments alpha={alpha!r}, b={b!r}")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if b == 0.0:
        return 1.0, 0
    if alpha > 0.0 and abs(b) >= series_radius(alpha):
        raise DivergentSeriesError(
            f"|b| = {abs(b):g} is outside the convergence radius "
            f"{series_radius(alpha):g} for alpha = {alpha:g}"
        )
    log_abs_b = math.log(abs(b))
    sign_b = -1.0 if b < 0.0 else 1.0
    total = 1.0
    terms_used = 0
    prev_mag = math.inf
    growth_streak = 0
    small_streak = 0
    for n in range(1, n_max + 1):
        coeff_sign, log_mag = _log_coefficient(alpha, n)
        mag = math.exp(log_mag + n * log_abs_b) if coeff_sign != 0.0 else 0.0
        total += coeff_sign * (sign_b**n) * mag
        terms_used = n
        if mag > prev_mag:
            growth_streak += 1
            if growth_streak >= 3:
                raise DivergentSeriesError(
                    f"series terms growing at order {n} for alpha = {alpha:g}, "
                    f"b = {b:g}"
                )
        else:
            growth_streak = 0
        if mag > 0.0:
            prev_mag = mag
        # Two consecutive sub-tol terms end the sum; a single one may be an
        # exact-zero coefficient (Gamma pole) between live terms.
        small_streak = small_streak + 1 if mag < tol else 0
        if small_streak >= 2:
            break
    return total, terms_used


def solve_trinomial(alpha: float, b: float) -> float:
    """Positive real root of 1 - x + b*x^alpha = 0 on the x(0)=1 branch."""
    alpha = float(alpha)
    b = float(b)
    if not (math.isfinite(alpha) and math.isfinite(b)):
        raise DomainError(f"alpha and b must be finite, got {alpha!r}, {b!r}")
    if alpha == 0.0:
        raise DomainError("alpha must be nonzero")
    if b == 0.0:
        return 1.0
    if alpha == 1.0:
        if b == 1.0:
            raise NoRealRootError("pole at b = 1 for alpha = 1", alpha=alpha, b=b)
        if b > 1.0:
            raise NoRealRootError(
                f"no positive root for alpha = 1, b = {b:g} > 1", alpha=alpha, b=b
            )
        return _polish(alpha, b, 1.0 / (1.0 - b))
    if alpha == 0.5:
        u = 0.5 * (b + math.sqrt(b * b + 4.0))
        return _polish(alpha, b, u * u)
    if alpha == 2.0:
        disc = 1.0 - 4.0 * b
        if disc < 0.0:
            raise NoRealRootError(
                f"negative discriminant: b = {b:g} > 1/4 for alpha = 2",
                alpha=alpha, b=b,
            )
        return _polish(alpha, b, 2.0 / (1.0 + math.sqrt(disc)))
    return _solve_generic(alpha, b)


def _solve_generic(alpha: float, b: float) -> float:
    lo, hi = _bracket(alpha, b)
    if lo == hi:
        return lo
    # A negligible absolute tolerance leaves the relative one in charge, so
    # roots far below 1 (b << 0) keep their digits.
    x = brentq(lambda t: residual(alpha, b, t), lo, hi, xtol=1e-300, maxiter=200)
    if x <= 0.0:
        raise NoRealRootError(f"branch root underflows to 0 for alpha = {alpha:g}, "
                              f"b = {b:g}", alpha=alpha, b=b)
    return _polish(alpha, b, x)


def _bracket(alpha: float, b: float) -> tuple[float, float]:
    """Sign-change interval for the branch root; raises NoRealRootError."""
    if b > 0.0:
        # residual(1) = b > 0; look above 1 for the crossing.
        if alpha > 1.0:
            # Convex with a single interior minimum; the branch root is the
            # smaller of the two crossings (the other diverges as b -> 0).
            x_min = (1.0 / (alpha * b)) ** (1.0 / (alpha - 1.0))
            f_min = residual(alpha, b, x_min)
            if f_min > 0.0 and b > series_radius(alpha):
                raise NoRealRootError(
                    f"no real branch root: b = {b:g} beyond the critical value "
                    f"{series_radius(alpha):g} for alpha = {alpha:g}",
                    alpha=alpha, b=b,
                )
            if f_min >= 0.0:
                # b is the critical value up to rounding: the double root.
                return x_min, x_min
            return 1.0, x_min
        hi = 2.0
        for _ in range(300):
            if residual(alpha, b, hi) < 0.0:
                return 1.0, hi
            hi *= 2.0
        raise NoRealRootError(
            f"failed to bracket a root above 1 for alpha = {alpha:g}, b = {b:g}",
            alpha=alpha, b=b,
        )
    # b < 0: residual(1) = b < 0 and residual(0+) -> 1 for alpha > 0.
    if alpha > 0.0:
        return 0.0, 1.0
    lo = 0.5
    for _ in range(300):
        if residual(alpha, b, lo) > 0.0:
            return lo, 1.0
        lo *= 0.5
    raise NoRealRootError(
        f"failed to bracket a root below 1 for alpha = {alpha:g}, b = {b:g}",
        alpha=alpha, b=b,
    )


def _polish(alpha: float, b: float, x: float) -> float:
    """Newton-polish a near-root until the defect is within RESIDUAL_TOL."""
    for _ in range(4):
        f = residual(alpha, b, x)
        if abs(f) <= 1e-15 * max(1.0, abs(x), abs(b) * abs(x) ** alpha):
            break
        fp = -1.0 + alpha * b * x ** (alpha - 1.0)
        if fp == 0.0 or not math.isfinite(fp):
            break
        step = f / fp
        # a step off the positive axis would leave the real branch
        if not (math.isfinite(step) and x - step > 0.0):
            break
        x -= step
    return x


def trinomial_b(q: float, alpha: float, omega: float, delta_e: float,
                z_q: float, z_q_alpha: float) -> float:
    """Trinomial coefficient of one MaxEnt level.

    b = q(1-q)/(q+alpha-1) * Z_{q_alpha}^(alpha-1)/Z_q * Omega * DeltaE,
    where DeltaE is the level's offset from the escort mean.  The
    denominator q+alpha-1 vanishes exactly when the rescaled index
    q_alpha would be 0, which is a pole of the reduction.
    """
    for name, value in (("q", q), ("alpha", alpha), ("omega", omega),
                        ("delta_e", delta_e)):
        if not math.isfinite(float(value)):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if z_q <= 0.0 or z_q_alpha <= 0.0:
        raise DomainError("partition sums must be positive")
    denom = q + alpha - 1.0
    if denom == 0.0:
        raise DomainError(
            f"q + alpha - 1 = 0 (rescaled index pole) for q = {q:g}, alpha = {alpha:g}"
        )
    return q * (1.0 - q) / denom * z_q_alpha ** (alpha - 1.0) / z_q * omega * delta_e


# --- Lambert W ---------------------------------------------------------------

_BRANCH_POINT = -math.exp(-1.0)


def lambert_w(x: float) -> float:
    """Principal branch W0 of the Lambert W function on [-1/e, inf).

    Halley iteration from a piecewise seed (branch-point expansion below
    -0.3, log(1+x) in the middle, asymptotic log x - log log x above e);
    converges to |W e^W - x| <~ 1e-16 * max(1, |x|) in a handful of steps.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    if x < _BRANCH_POINT:
        if x < _BRANCH_POINT - 1e-15:
            raise DomainError(f"x = {x!r} below the branch point -1/e")
        x = _BRANCH_POINT
    if x == 0.0:
        return 0.0
    if x < -0.3:
        p = math.sqrt(max(2.0 * (math.e * x + 1.0), 0.0))
        w = -1.0 + p * (1.0 - p / 3.0 + 11.0 * p * p / 72.0)
    elif x < math.e:
        w = math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    return w
