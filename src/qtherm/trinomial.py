"""Roots of the trinomial equation 1 - x + b*x^alpha = 0.

The root of interest is the positive branch continuous in b with x(0) = 1;
it carries the probabilities of the rescaled MaxEnt problem.  One array
kernel, ``solve_trinomial_array``, solves for a whole vector of b at once:

* alpha = 1:    x = 1/(1 - b)                       (geometric series)
* alpha = 1/2:  quadratic in sqrt(x)
* alpha = 2:    x = 2/(1 + sqrt(1 - 4b))            (stable minus branch)
* otherwise:    safeguarded Newton inside closed-form brackets, from the
                bracket end where f is convex or concave towards the root.

A closed-form root whose defect |1 - x + b*x^alpha| is more than rounding,
1e-15*max(1, x, |b|*x^alpha), goes through the same Newton iteration.

For alpha > 1 the branch ends in a double root at x = alpha/(alpha - 1) when
b reaches (alpha-1)^(alpha-1)/alpha^alpha; beyond that there is no real root
and ``NoRealRootError`` is raised for the first such entry.
``lambert_w_array`` evaluates the principal Lambert W branch (the
alpha -> inf member) by two Halley steps from a close start (Corless et
al., Adv. Comput. Math. 5 (1996)).  The scalar ``solve_trinomial`` and
``lambert_w`` are thin wrappers over the two kernels.

The branch-root power series (``trinomial_series``) is the paper's result;
it serves as a test oracle and is not on the solve path.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DivergentSeriesError,
    DomainError,
    NonConvergenceError,
    NoRealRootError,
    QThermError,
)

# Cap on the Newton iterations of the branch-root kernel.
_MAX_STEPS = 200


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

    Uses ``math.lgamma`` with the sign of Gamma tracked, so large orders
    neither overflow prematurely nor lose the sign pattern.  A non-negative
    integer alpha*n below n-1 yields 0; a negative integer alpha*n = -m
    yields (-1)^(n-1)*C(m+n-2, n-1)/n, the limit of the two Gamma poles.
    An alpha*n beyond about 2.5e305, where log-gamma overflows, raises
    ``DomainError``.  At alpha = 2 these are the Catalan numbers, and at
    alpha = -1 they are (-1)^(n-1) times Catalan(n-1).
    """
    if n < 1:
        raise DomainError("series order n must be >= 1")
    sign, log_mag = _log_coefficient(float(alpha), int(n))
    return sign * math.exp(log_mag)


def _log_coefficient(alpha: float, n: int) -> tuple[float, float]:
    """Sign and log-magnitude of C(alpha*n, n-1)/n."""
    z = alpha * n
    try:
        if z < 0.0 and z == math.floor(z):
            # Gamma(z + 1) and Gamma(z - n + 2) both have poles; their ratio
            # gives C(-m, n-1) = (-1)^(n-1)*Gamma(m+n-1)/(Gamma(m)*Gamma(n))
            m = -z
            sign = -1.0 if n % 2 == 0 else 1.0
            log_mag = math.lgamma(m + n - 1.0) - math.lgamma(m) - math.lgamma(n)
            return sign, log_mag - math.log(n)
        tail = math.lgamma(z - n + 2.0)
        head = math.lgamma(z + 1.0)
    except ValueError:
        # Gamma pole in the denominator alone (z - n + 2 a non-positive
        # integer, z not negative): the coefficient is exactly 0
        return 0.0, -math.inf
    except OverflowError:
        raise DomainError(f"alpha*n = {z:g} overflows the log-gamma function") from None
    sign = _gamma_sign(z + 1.0) * _gamma_sign(z - n + 2.0)
    log_mag = (head - math.lgamma(n)) - tail - math.log(n)
    return sign, log_mag


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) away from its poles: negative on (-1, 0), (-3, -2), ..."""
    return -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


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
    return float(solve_trinomial_array(alpha, b))


def solve_trinomial_array(alpha: float, b) -> np.ndarray:
    """Branch roots of 1 - x + b_i*x^alpha = 0 for every entry b_i of ``b``.

    ``NoRealRootError`` names the first entry without a real branch root in
    ``level`` (``None`` for a scalar ``b``).
    """
    return _branch_roots(alpha, b, None)


def _branch_roots(alpha: float, b, x0) -> np.ndarray:
    """Branch roots of every b_i; for generic alpha the iteration starts from
    the roots ``x0`` of nearby coefficients when they are given.

    A failure shows as a root that is not positive and finite; the first such
    entry is reported as a scalar solve would report it.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    if alpha == 0.0:
        raise DomainError("alpha must be nonzero")
    b = np.asarray(b, dtype=float)
    shape = b.shape
    b = b.ravel()
    with np.errstate(all="ignore"):
        if alpha == 1.0:
            # one rounding away from the exact root: nothing to polish
            x = 1.0 / (1.0 - b)
        elif alpha == 0.5:
            u = 0.5 * (b + np.sqrt(b * b + 4.0))
            x = _refine(alpha, b, u * u)
        elif alpha == 2.0:
            x = _refine(alpha, b, 2.0 / (1.0 + np.sqrt(1.0 - 4.0 * b)))
        else:
            lo, hi, start = _brackets(alpha, b)
            if x0 is not None:
                start = np.minimum(np.maximum(x0, lo), hi)
            x = _newton(alpha, b, start, lo, hi)
    if x.size and not (x.min() > 0.0 and x.max() < math.inf):
        raise _no_root(alpha, b, x, shape)
    return x.reshape(shape)


def _no_root(alpha: float, b: np.ndarray, x: np.ndarray, shape) -> QThermError:
    """The error of the first entry whose root is not positive and finite."""
    i = int(np.argmin((x > 0.0) & (x < math.inf)))
    b_i = float(b[i])
    if not math.isfinite(b_i):
        return DomainError(f"b must be finite, got {b_i!r}")
    if x[i] == 0.0:
        why = "the branch root underflows to 0"
    elif alpha == 1.0:
        why = "no positive root for b >= 1, the pole of x = 1/(1 - b)"
    elif x[i] == math.inf:
        why = "the branch root overflows"
    elif alpha > 1.0:
        why = f"no real branch root beyond the critical b = {series_radius(alpha):g}"
    else:
        why = "no real branch root"
    return NoRealRootError(f"{why} (alpha = {alpha:g}, b = {b_i:g})", alpha=alpha,
                           b=b_i, level=i if shape else None)


def _defect(alpha: float, b: np.ndarray, x: np.ndarray):
    """1 - x + b*x^alpha, b*x^alpha, and where the defect is more than rounding."""
    bxa = b * x**alpha
    f = (1.0 - x) + bxa
    return f, bxa, np.abs(f) > 1e-15 * np.maximum(np.maximum(x, np.abs(bxa)), 1.0)


def _refine(alpha: float, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Newton-polish the closed-form roots whose defect is more than rounding."""
    rough = np.flatnonzero(_defect(alpha, b, x)[2])
    if rough.size:
        lo, hi, _ = _brackets(alpha, b[rough])
        x[rough] = _newton(alpha, b[rough], np.minimum(np.maximum(x[rough], lo), hi),
                           lo, hi)
    return x


def _brackets(alpha: float, b: np.ndarray):
    """Closed-form [lo, hi] around each branch root, and the end of it from
    which Newton converges monotonically (f is convex or concave there).

    ``lo`` is NaN where b has no branch root.
    """
    if alpha < 0.0:
        # b >= 0: f is convex and decreasing, with the root in
        # [1 + b(1+b)^alpha, 1 + b]; b < 0: f is concave with its maximum at
        # x_m, and the branch root lies in [x_m, 1] when f(x_m) >= 0.
        neg = b < 0.0
        x_m = (alpha * b) ** (1.0 / (1.0 - alpha))
        lo = np.where(neg, x_m, 1.0 + b * (1.0 + b) ** alpha)
        hi = np.where(neg, 1.0, 1.0 + b)
        np.copyto(lo, np.nan,
                  where=neg & ((x_m >= 1.0) | ((1.0 - x_m) + b * x_m**alpha < 0.0)))
        return lo, hi, np.where(neg, hi, lo)
    # b <= 0: the root of x = 1 - |b|*x^alpha lies between 1/(1+|b|) and
    # (1+|b|)^(-1/alpha).  b > 0: it is at least 1 + b, and at most the
    # minimum x_m of f for alpha > 1, or (1+b)^(1/(1-alpha)) for alpha < 1.
    pos = b > 0.0
    c = 1.0 - b
    lo = np.where(pos, 1.0 + b, c ** (-1.0 / min(alpha, 1.0)))
    if alpha < 1.0:
        hi = np.where(pos, (1.0 + b) ** (1.0 / (1.0 - alpha)), 1.0 / c)
        over = hi == math.inf
        if over.any():
            # the bound overflows as alpha -> 1-; the largest float still
            # bounds the root wherever f is not positive there, and elsewhere
            # the root overflows too (hi stays inf)
            big = np.finfo(float).max
            np.copyto(hi, big, where=over & ((1.0 - big) + b * big**alpha <= 0.0))
        return lo, hi, np.where(pos, hi, lo)
    hi = np.where(pos, (alpha * b) ** (1.0 / (1.0 - alpha)), c ** (-1.0 / alpha))
    # at the minimum, f(x_m) = 1 - x_m*(alpha-1)/alpha = -expm1(log(b/b_c)/(1-alpha))
    # has the sign of b - b_c, b_c the critical b: the double root there (up
    # to rounding), no root beyond.  Taking that sign from b itself neither
    # overflows x_m^alpha as alpha -> 1+ nor amplifies the rounding of x_m.
    b_c = series_radius(alpha)
    f_hi = np.where(pos, b - b_c, (1.0 - hi) + b * hi**alpha)
    np.copyto(lo, hi, where=f_hi >= 0.0)
    np.copyto(lo, np.nan, where=b > b_c)
    return lo, hi, np.where(pos, lo, hi)


def _newton(alpha: float, b: np.ndarray, x: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> np.ndarray:
    """Safeguarded Newton on 1 - x + b*x^alpha inside the brackets [lo, hi].

    Each step moves the bracket end on the iterate's side of the root; a
    step that leaves the bracket or is not finite bisects it geometrically.
    An entry stops once its defect is rounding or its step is at most
    2e-15*x, so each entry iterates as it would alone.  Overwrites x, lo
    and hi; raises ``NonConvergenceError`` if an entry is still moving after
    ``_MAX_STEPS`` steps.
    """
    moving = np.ones(x.size, dtype=bool)
    for _ in range(_MAX_STEPS):
        f, bxa, rough = _defect(alpha, b, x)
        moving &= rough
        if not np.count_nonzero(moving):
            return x
        above = f < 0.0
        np.copyto(hi, x, where=above)
        np.copyto(lo, x, where=~above)
        x_new = x - f / (alpha * bxa / x - 1.0)
        wild = moving & ~((x_new > lo) & (x_new < hi))
        if np.count_nonzero(wild):
            np.copyto(x_new, np.sqrt(lo) * np.sqrt(hi), where=wild)
        step = np.abs(x_new - x)
        np.copyto(x, x_new, where=moving)
        moving &= step > 2e-15 * x
    i = int(np.argmax(moving))
    raise NonConvergenceError(
        f"no branch root after {_MAX_STEPS} Newton steps "
        f"(alpha = {alpha:g}, b = {b[i]:g})"
    )


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
# 1/e as the double-double _INV_E + _INV_E_LO, so that x + 1/e is exact to
# rounding near the branch point, where it cancels
_INV_E = -_BRANCH_POINT
_INV_E_LO = -1.2428753672788363e-17
_TWO_E = 2.0 * math.e
# W0 = sum_k c_k p^k with p = sqrt(2*(e*x + 1)) about the branch point
# (Corless et al., Adv. Comput. Math. 5 (1996), eq. 4.22)
_BRANCH_SERIES = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0, 769.0 / 17280.0,
                  -221.0 / 8505.0, 680863.0 / 43545600.0, -1963.0 / 204120.0,
                  226287557.0 / 37623398400.0)
# Starts of the iteration: the series below _NEAR_BRANCH, Winitzki's form up
# to _FAR and the logarithmic asymptote beyond, each close enough to W0 that
# two Halley steps reach rounding.
_NEAR_BRANCH = -0.25
_FAR = 100.0
# Below this p the series is W0 to rounding (its next term is under 4e-16),
# while a Halley step there would move w by the rounding of x*e^(-w) over
# the small slope 1 + w.
_SERIES_ONLY = 0.05
# Up to this many arguments go one by one through `math`: a NumPy call on a
# short array costs about as much as a whole scalar evaluation.  The two
# paths took the same time per call at 41-43 entries, with one start branch
# in use or two (CPython 3.11, 2 shared x86 cores).
_SCALAR_SIZE = 40


def lambert_w(x: float) -> float:
    """Principal branch W0 of the Lambert W function on [-1/e, inf)."""
    return float(lambert_w_array(x))


def lambert_w_array(x) -> np.ndarray:
    """Principal branch W0 of every entry of ``x``.

    Arguments within 1e-15 below -1/e snap to the branch point, W = -1; one
    further below raises ``DomainError``.
    """
    try:
        return _lambert_w0(x)
    except NoRealRootError as err:
        raise DomainError(f"x = {err.b!r} below the branch point -1/e") from None


def _lambert_w0(x) -> np.ndarray:
    """W0 of every entry of ``x``; an argument below -1/e - 1e-15 raises
    ``NoRealRootError`` naming its index in ``level``.

    Two Halley steps from a start within 0.03 of W0 reach rounding; close
    to -1/e the branch-point series alone is the answer (``_w0_array``).
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.ravel()
    snap = None
    if x.size and not (x.min() > _BRANCH_POINT and x.max() < math.inf):
        bad = ~(np.isfinite(x) & (x >= _BRANCH_POINT - 1e-15))
        if bad.any():
            i = int(np.argmax(bad))
            if not math.isfinite(x[i]):
                raise DomainError(f"argument must be finite, got {x[i]!r}")
            raise NoRealRootError(f"Lambert W argument {x[i]:g} below -1/e",
                                  b=float(x[i]), level=i if shape else None)
        # the float nearest -1/e lies just below it: these snap to W = -1
        snap = x <= _BRANCH_POINT
        x = np.where(snap, 0.0, x)
    if x.size <= _SCALAR_SIZE:
        w = np.array([_w0_scalar(v) for v in x.tolist()])
    else:
        with np.errstate(all="ignore"):
            w = _w0_array(x)
    if snap is not None:
        np.copyto(w, -1.0, where=snap)
    return w.reshape(shape)


def _w0_scalar(x: float) -> float:
    """W0(x) for x > -1/e through `math`: the steps of ``_w0_array`` for one entry."""
    if x < _NEAR_BRANCH:
        p = math.sqrt(_TWO_E * ((x + _INV_E) + _INV_E_LO))
        w = _branch_series(p)
        if p < _SERIES_ONLY:
            return w
    elif x < _FAR:
        log = math.log1p(x)
        w = log * (1.0 - math.log1p(log) / (2.0 + log))
    else:
        log = math.log(x)
        log_log = math.log(log)
        w = log - log_log + log_log / log
    # the two Halley steps unrolled: a loop here costs a quarter of the call
    g = w - x * math.exp(-w)
    wp1 = w + 1.0
    w -= g / (wp1 - (w + 2.0) * g / (2.0 * wp1))
    g = w - x * math.exp(-w)
    wp1 = w + 1.0
    return w - g / (wp1 - (w + 2.0) * g / (2.0 * wp1))


def _w0_array(x: np.ndarray) -> np.ndarray:
    """W0 of every x > -1/e.  Starts: Winitzki's W0 ~ L(1 - log(1 + L)/(2 + L)),
    L = log(1 + x) (LNCS 2667 (2003)); beyond _FAR the asymptote log x -
    log log x + log log x/log x; below _NEAR_BRANCH the branch-point series.
    Then two Halley steps on g = w - x*e^(-w), which unlike w*e^w - x cannot
    overflow.  The asymptote and the series are evaluated only when some
    entry needs them."""
    log = np.log1p(x)
    w = log * (1.0 - np.log1p(log) / (2.0 + log))
    far = x >= _FAR
    if far.any():
        log = np.log(x)
        log_log = np.log(log)
        w = np.where(far, log - log_log + log_log / log, w)
    near = x < _NEAR_BRANCH
    series = None
    if near.any():
        p = np.sqrt(_TWO_E * ((x + _INV_E) + _INV_E_LO))
        series = _branch_series(p)
        w = np.where(near, series, w)
    for _ in range(2):
        g = w - x * np.exp(-w)
        wp1 = w + 1.0
        w = w - g / (wp1 - (w + 2.0) * g / (2.0 * wp1))
    if series is not None:
        w = np.where(p < _SERIES_ONLY, series, w)
    return w


def _branch_series(p):
    """W0 from its series about the branch point, by Horner's rule."""
    w = 0.0
    for c in reversed(_BRANCH_SERIES):
        w = w * p + c
    return w
