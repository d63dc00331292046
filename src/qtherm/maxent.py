"""Self-consistent MaxEnt distributions under escort energy constraints.

``solve_maxent`` extremizes the rescaled nonadditive entropy S_{q_alpha}
subject to normalization and the q-escort energy constraint.  Stationarity,

    q_alpha/(1-q_alpha) * p_i^((q-1)/alpha) - Phi
        - q*Omega*(E_i - <E>_q)/Z_q * p_i^(q-1) = 0,
    Phi = q_alpha/(1-q_alpha) * Z_{q_alpha},

reduces per level to the trinomial 1 - x + b_i*x^alpha = 0 with
b_i = lambda*(E_i - m), m the escort mean and lambda = q(1-q)/(q+alpha-1) *
Z_{q_alpha}^(alpha-1)/Z_q * Omega (times Z_{q_alpha} for the additive entropy
of ``solve_maxent_renyi``); then p_i ~ x_i^(alpha/(q-1)).  Wherever q_alpha
is 1 (alpha = inf, ``solve_maxent_shannon_limit``, or q = 1 for any alpha)
the entropy is Shannon's, and one family takes every q: p_i ~
exp(-W((q-1)b_i)/(q-1)) with the principal Lambert W branch, lambda =
q*exp(-(q-1)S_1)/Z_q * Omega, and at q = 1 the Gibbs kernel p_i ~ exp(-b_i).
So both families map (lambda, m) to p, with each level's slope d log p/db
at the same b, and one evaluation of each point gives both its Newton
system and the stationarity residual that certifies it.  At b = 0 both
families' roots are known exactly (p = 1/n), so the uniform start of either
mode costs no level map:

* fixed Omega: Newton's method on the two equations lambda =
  Omega*coupling(p) and m = <E>_q(p), with p = p(lambda, m) and the exact
  Jacobian from the level map's slopes.  It starts from the uniform
  distribution and stops once the answer is converged; ``iterations``
  counts Newton steps, and a solve of k steps makes k level maps plus one
  per rejected trial point.  Its steps are undamped while each lowers |F|;
  from the first that does not, each is damped by a pseudo-time step
  (pseudo-transient continuation), which carries it across folds of |F|
  where det J changes sign.  A step is taken only where every level keeps
  a real root and F is finite; m may leave the spectrum on the way.  A
  solve that stalls raises the kernel's ``NoRealRootError`` where the first
  sweep Omega*coupling(uniform) leaves some level's real-root region;
* target escort mean: m is pinned to the target and a safeguarded Newton
  iteration in lambda, with the exact slope of the escort mean from the same
  slopes, runs from the uniform distribution inside the interval where
  every level keeps a real root (b_i up to (alpha-1)^(alpha-1)/alpha^alpha
  for alpha > 1, below 1 at alpha = 1, (q-1)b_i from -1/e for Lambert W,
  unbounded otherwise), bisecting that bracket where a Newton step would
  leave it; ``iterations`` counts its steps.  On a bounded interval the
  gap runs the way of its slope at the start, so a solve of k steps makes k
  level maps; both ends are probed, once, for the attainable range and the
  gap's direction, only where a step would leave the bracket (as one from a
  start slope of 0 or NaN does) or where the iteration stops with the gap
  still open.  An unbounded interval is probed first, doubling its ends
  until the gap changes sign.  Omega follows from lambda and the final p,
  and an answer whose coupling lambda/Omega is 0 or not finite raises
  ``NonConvergenceError``, as does a gap that is not finite at any point.

Either mode returns its last point with the failure that stopped it, if
any, and ``_solve`` alone judges it: an answer is converged, and returned,
only where no level or partition sum underflows to 0, the mode did not fail
and its residual is at most 1e-9; ``NonConvergenceError`` carries any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .deformation import _rescaled_index
from .entropy import PartitionSum
from .errors import DomainError, NonConvergenceError, NoRealRootError
from .trinomial import (_BRANCH_POINT, _CLOSED_FORMS, _coupling, _lambert_w0, _real_root_edge,
                        _roots)

# Newton steps of a fixed-omega solve, or in lambda of a target-mean solve
MAX_ITER = 10_000
# A solve reports converged only at or below this certified residual, a
# margin below the 1e-8 that a caller accepts; the fixed-omega Newton solve
# stops on it.
STOP_RESIDUAL = 1e-9
# The target-mean Newton iteration stops on a step in lambda within its
# absolute tolerance plus this much of |lambda|.
_RTOL = 4.0 * math.ulp(1.0)


def as_spectrum(levels) -> np.ndarray:
    """Validate an energy spectrum: 1-D, finite, at least two levels."""
    e = np.asarray(levels, dtype=float)
    if e.ndim != 1:
        raise DomainError(f"expected a 1-D energy spectrum, got shape {e.shape}")
    if e.size < 2:
        raise DomainError("energy spectrum needs at least two levels")
    if not np.isfinite(e).all():
        raise DomainError("energy spectrum contains NaN or infinite entries")
    return e


@dataclass(frozen=True)
class MaxEntSolution:
    """Converged distribution with the diagnostics that certify it."""

    probs: np.ndarray
    z_q: PartitionSum
    z_q_alpha: PartitionSum
    phi: float
    escort_mean: float
    stationarity_residual: float
    iterations: int
    converged: bool
    omega: float


def solve_maxent(energies, q: float, alpha: float, omega: float | None = None, *,
                 target_mean: float | None = None) -> MaxEntSolution:
    """MaxEnt distribution of S_{q_alpha} under the q-escort energy constraint.

    Exactly one of ``omega`` (fixed Lagrange multiplier) or ``target_mean``
    (the escort mean to reach; omega is solved for) must be given.
    ``alpha`` must be positive, and may be inf; where q_alpha is 1 (alpha =
    inf, or q = 1 for any alpha) the entropy is Shannon's and the answer is
    ``solve_maxent_shannon_limit``'s, the Gibbs distribution at q = 1.

    At fixed omega the solve is one Newton iteration in the combined
    multiplier and the escort mean, damped by a pseudo-time step from the
    first undamped step that does not lower its residual.
    Raises ``NoRealRootError`` (with the first offending level) when that
    solve stalls and its first sweep from the uniform distribution leaves
    some level's real-root region, ``NonConvergenceError`` (carrying the
    last iterate) when it stalls otherwise, when ``MAX_ITER`` Newton steps
    do not settle or when the answer does not certify, and ``DomainError``
    for a target mean outside the attainable range.
    """
    return _solve_deformed(energies, q, alpha, omega, target_mean, renyi=False)


def solve_maxent_renyi(energies, q: float, alpha: float, omega: float | None = None, *,
                       target_mean: float | None = None) -> MaxEntSolution:
    """MaxEnt distribution of the additive entropy R_{q_alpha}.

    The gradient differs from the nonadditive case only by a 1/Z_{q_alpha}
    factor, so the same trinomial reduction applies with b scaled by
    Z_{q_alpha}.  So the two coincide up to the omega reparametrization
    Omega_Renyi = Omega/Z_{q_alpha}, and at one target mean they give the
    same distribution.  Where q_alpha is 1 (alpha = inf among others) both
    entropies are Shannon's and the answer is
    ``solve_maxent_shannon_limit``'s.
    """
    return _solve_deformed(energies, q, alpha, omega, target_mean, renyi=True)


def _solve_deformed(energies, q, alpha, omega, target_mean, *,
                    renyi: bool) -> MaxEntSolution:
    e = as_spectrum(energies)
    q = float(q)
    alpha = float(alpha)
    if not math.isfinite(q):
        raise DomainError("q must be finite")
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha:g}")
    # alpha = inf sends every q to 1
    q_alpha = _rescaled_index(q, alpha)
    # S_1 is Shannon's entropy, whatever q
    fam = _Shannon(e, q) if q_alpha == 1.0 else _Trinomial(e, q, alpha, q_alpha, renyi)
    return _solve(fam, omega, target_mean)


def solve_maxent_shannon_limit(energies, q: float, omega: float | None = None, *,
                               target_mean: float | None = None) -> MaxEntSolution:
    """The alpha -> infinity member: Shannon entropy, q-escort constraint.

    ``solve_maxent`` and ``solve_maxent_renyi`` at alpha = inf.
    Stationarity ln p_i + S_1 + q*Omega*DeltaE_i/Z_q * p_i^(q-1) = 0 is
    solved per level through the principal Lambert W branch,

        p_i = exp[-S_1 - W((q-1) b_i)/(q-1)],
        b_i = q * exp(-(q-1) S_1) * Omega * DeltaE_i / Z_q,

    whose q = 1 member is the Gibbs distribution p_i ~ exp(-Omega*DeltaE_i),
    taken in closed form at fixed omega.  It is solved for self-consistency
    in S_1, Z_q and the escort mean by the same Newton solve (or, with
    ``target_mean``, by the Newton iteration in the combined multiplier
    alone).  A failed solve whose first sweep puts a W argument below -1/e
    raises ``NoRealRootError``, and a q far enough below 1 that
    exp(-(q-1) S_1) overflows raises ``DomainError``.
    """
    return _solve_deformed(energies, q, math.inf, omega, target_mean, renyi=False)


# --- the families --------------------------------------------------------------
#
# A family holds the spectrum and the indices, and nothing else: it is not
# changed after ``__init__``.  ``q`` is the escort index of the constraint,
# ``b_range`` the interval of b = lambda*(E_i - m) where every level has a
# real root, ``lam_scale`` the order of lambda, at most 1, in units of the
# spectrum's inverse width, ``level_map(b, start)`` the normalized
# distribution p of the coefficients b with its slope, the derivative in b of
# each level's log weight at that same b, and the warm start of a next map,
# ``uniform()`` the same at b = 0 without a kernel call (p = 1/n with every
# trinomial root 1 or every W 0, which the kernels return there exactly), and
# ``terms(p, weights, z_q)``, from p, its escort weights p^q and their sum
# Z_q, the coupling lambda/Omega of p, the gradient of its log in log p, the
# entropy part of the stationarity condition, phi and Z_{q_alpha}.  A level
# map is one call of an array kernel of ``trinomial`` over all levels.  A
# warm start is None for a cold map or a kernel that takes none; for a
# generic alpha it is a map's roots with their b and tangent x'(b), from
# which the branch-root kernel starts at the roots moved along the tangent
# to the new b, since successive Newton steps move b only a little.  The
# caller threads it from one map to the next: ``uniform`` gives the roots 1
# at b = 0, where x'(b) is 1 too.

class _Trinomial:
    """Tsallis and Renyi levels: 1 - x + b*x^alpha = 0, p ~ x^(alpha/(q-1))."""

    def __init__(self, e: np.ndarray, q: float, alpha: float, q_alpha: float, renyi: bool):
        self.e, self.q, self.alpha, self.q_alpha, self.renyi = e, q, alpha, q_alpha, renyi
        # a closed-form root takes no start
        self.warm = alpha not in _CLOSED_FORMS
        # q(1-q)/(q+alpha-1), raising at the rescaled-index pole q_alpha = 0
        # and where it overflows
        self.coupling = _coupling(q, alpha)
        # lambda is O(q - 1), and its step tolerance with it
        self.lam_scale = min(1.0, abs(q - 1.0))
        # b reaches the double root for alpha > 1 and stays below the pole
        # of x = 1/(1-b) at alpha = 1
        self.b_range = (-math.inf, _real_root_edge(alpha))

    def level_map(self, b: np.ndarray, start):
        roots = dx = None
        if start is not None:
            # the tangent step x'(b_last)*(b - b_last) from the start's roots
            roots, b_last, dx_db = start
            dx = dx_db * (b - b_last)
        try:
            roots = _roots(self.alpha, b, roots, dx, self.b_range[1])
        except NoRealRootError as err:
            raise _at_level(err, self.e) from err
        # log x = log1p(b*x^alpha) on the trinomial keeps the digits that
        # log(x) loses near x = 1; log(x) keeps those of a root far below 1
        shift = b * roots**self.alpha
        log_roots = np.log1p(shift, out=np.log(roots), where=shift > -0.5)
        # d log x/db = x^(alpha-1)/(1 - alpha*b*x^(alpha-1)) on the trinomial
        xa1 = roots ** (self.alpha - 1.0)
        power = self.alpha / (self.q - 1.0)
        slope = power * xa1 / (1.0 - self.alpha * b * xa1)
        start = (roots, b, roots * slope / power) if self.warm else None
        return _normalized(power * log_roots), slope, start

    def uniform(self):
        # at b = 0 every root is 1 with dx/db = 1
        start = (np.ones(self.e.size), 0.0, 1.0) if self.warm else None
        return _uniform(self.e.size), np.full(self.e.size, self.alpha / (self.q - 1.0)), start

    def terms(self, p: np.ndarray, weights: np.ndarray, z_q: float):
        q_alpha = self.q_alpha
        p_qa = p**q_alpha
        # a NumPy scalar, so that a sum underflowed to 0 divides without raising
        z_qa = p_qa.sum()
        # Z_{q_alpha} enters the coupling to the power alpha - 1, or alpha for
        # Renyi
        scale = z_qa if self.renyi else 1.0
        coupling = self.coupling * z_qa ** (self.alpha - 1.0) / z_q * scale
        power = self.alpha - 1.0 + self.renyi
        grad = power * q_alpha * p_qa / z_qa - self.q * weights / z_q
        prefactor = q_alpha / (1.0 - q_alpha)
        # lead - phi = prefactor*(p^(q_alpha-1) - Z_{q_alpha}).  Near q_alpha =
        # 1 the two O(1/(q_alpha-1)) terms cancel exactly through sum(p) = 1
        # in the expm1 form; far from it that form subtracts two numbers near
        # -1 where the direct one keeps the digits of a small Z_{q_alpha}.
        if abs(q_alpha - 1.0) > 0.5:
            free = prefactor * (p ** (q_alpha - 1.0) - z_qa)
        else:
            em = np.expm1((q_alpha - 1.0) * np.log(p))
            free = prefactor * (em - np.dot(p, em))
        if self.renyi:
            return coupling, grad, free / z_qa, prefactor, PartitionSum(z_qa, q_alpha)
        return coupling, grad, free, prefactor * z_qa, PartitionSum(z_qa, q_alpha)


class _Shannon:
    """Shannon levels under the q-escort constraint: p ~ exp(-W((q-1)b)/(q-1)),
    W the principal branch, continued to the Gibbs kernel p ~ exp(-b) at q = 1."""

    lam_scale = 1.0

    def __init__(self, e: np.ndarray, q: float):
        self.e, self.q = e, q
        # (q-1)b stays at or above the branch point -1/e of W: a lower bound
        # on b for q > 1, an upper one for q < 1, none at q = 1
        edge = _BRANCH_POINT / (q - 1.0) if q != 1.0 else -math.inf
        self.b_range = (edge, math.inf) if q >= 1.0 else (-math.inf, edge)

    def level_map(self, b: np.ndarray, start):
        # Lambert W takes no start
        c = self.q - 1.0
        if c == 0.0:
            return _normalized(-b), np.full(b.shape, -1.0), None
        try:
            w = _lambert_w0(c * b)
        except NoRealRootError as err:
            raise _at_level(err, self.e) from err
        # d log p/db = -exp(-W)/(1 + W), -1 at b = 0
        return _normalized(-w / c), -np.exp(-w) / (1.0 + w), None

    def uniform(self):
        return _uniform(self.e.size), np.full(self.e.size, -1.0), None

    def terms(self, p: np.ndarray, weights: np.ndarray, z_q: float):
        q = self.q
        log_p = np.log(p)
        s1 = float(-(p * log_p).sum())
        try:
            coupling = q * math.exp(-(q - 1.0) * s1) / z_q
        except OverflowError:
            raise DomainError(
                f"exp(-(q - 1)*S_1) in the Shannon-limit coupling overflows at q = "
                f"{q!r}, S_1 = {s1:.17g}") from None
        grad = (q - 1.0) * p * log_p - q * weights / z_q
        return coupling, grad, -(log_p + s1), s1 - 1.0, PartitionSum(1.0, 1.0)


def _at_level(err: NoRealRootError, e: np.ndarray) -> NoRealRootError:
    """The kernel's error for the first level without a root, naming it."""
    i = err.level
    return NoRealRootError(f"level {i} (E = {e[i]:g}): {err}",
                           alpha=err.alpha, b=err.b, level=i)


def _normalized(log_weights: np.ndarray) -> np.ndarray:
    weights = np.exp(log_weights - log_weights.max())
    return weights / weights.sum()


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _affinity_residual(p: np.ndarray, e: np.ndarray, q: float) -> float:
    """Max deviation of p^(1-q) from the best affine fit in E; at alpha = 1
    the solutions form a q-exponential family, where it is 0 to rounding.

    The line is fitted in closed form on E mapped to [-1, 1], which no
    spectrum in the float range overflows; a flat spectrum has slope 0."""
    with np.errstate(all="ignore"):
        y = p ** (1.0 - q)
        dy = y - y.mean()
        lo, hi = e.min(), e.max()
        half = hi / 2 - lo / 2
        if half == 0.0:
            return float(np.max(np.abs(dy)))
        x = (e - (hi / 2 + lo / 2)) / half
        dx = x - x.mean()
        return float(np.max(np.abs(dx @ dy / (dx @ dx) * dx - dy)))


# --- the core --------------------------------------------------------------------

def _solve(fam, omega, target_mean) -> MaxEntSolution:
    """Run one mode and judge its last point.  The error that carries a
    failed solution names an underflow before the mode's own failure, and
    that before the certificate."""
    if (omega is None) == (target_mean is None):
        raise DomainError("exactly one of omega and target_mean must be given")
    # a level or a partition sum that underflows to 0 divides to inf or nan
    # on its way to the verdict below, which reports it; the kernels run
    # inside this block and open none of their own
    with np.errstate(all="ignore"):
        if target_mean is not None:
            point, iterations, failure = _solve_for_target(fam, float(target_mean))
        else:
            omega = float(omega)
            if not math.isfinite(omega):
                raise DomainError("omega must be finite")
            if fam.q == 1.0:
                # the Gibbs kernel, whose coupling is 1 at any normalized p:
                # lambda = omega in closed form
                p = fam.level_map(omega * fam.e, None)[0]
                point, iterations, failure = _evaluate(fam, p, omega, omega), 0, None
            else:
                point, iterations, failure = _fixed_omega(fam, omega)
    sol = MaxEntSolution(
        probs=point.p,
        z_q=point.z_q,
        z_q_alpha=point.z_q_alpha,
        phi=point.phi,
        escort_mean=point.escort_mean,
        stationarity_residual=point.residual,
        iterations=iterations,
        converged=point.converged and failure is None,
        omega=point.omega,
    )
    if point.underflow:
        failure = f"a level or a partition sum underflows to 0 (iteration {iterations})"
    elif failure is None and not point.converged:
        failure = (f"the answer does not certify: residual "
                   f"{point.residual:.3g} above {STOP_RESIDUAL:g}")
    if failure is not None:
        raise NonConvergenceError(failure, solution=sol)
    return sol


class _Point(NamedTuple):
    """One evaluation of p: its certificate at ``omega`` and, for a Newton
    point, F and its Jacobian at (lambda, m), flattened row by row."""

    p: np.ndarray
    z_q: PartitionSum
    z_q_alpha: PartitionSum
    phi: float
    escort_mean: float
    residual: float
    underflow: bool
    omega: float
    coupling: float
    f: tuple | None = None
    jac: tuple | None = None

    @property
    def converged(self) -> bool:
        return not self.underflow and self.residual <= STOP_RESIDUAL


def _evaluate(fam, p: np.ndarray, lam: float, omega: float | None,
              newton_at=None) -> _Point:
    """The certificate of p at this omega and, where ``newton_at`` = (slope,
    m) is given, F and its Jacobian at (lambda, m), for the p and slope of
    fam.level_map(lambda*(E - m), start), whatever its warm start.

    ``omega`` None is lambda over the coupling of p, as in target mode.  A
    lost coupling, 0 or not finite, leaves no omega: its answer is reported
    at omega = 0, where lambda/inf lands.  ``m`` None is the certificate's
    escort mean, as at the uniform start.
    """
    e, q = fam.e, fam.q
    weights = p**q
    total = weights.sum()
    coupling, grad, free, phi, z_q_alpha = fam.terms(p, weights, total)
    # Z_1 is the normalization itself.
    z_q = 1.0 if q == 1.0 else float(total)
    mean = float(np.dot(weights, e) / z_q)
    if omega is None:
        omega = lam / float(coupling) if 0.0 < abs(coupling) < math.inf else 0.0
    constraint = q * omega * (e - mean) / z_q * p ** (q - 1.0)
    residual = float(np.abs(free - constraint).max())
    underflow = not (p.min() > 0.0 and z_q > 0.0 and z_q_alpha.z > 0.0)
    certificate = (p, PartitionSum(z_q, q), z_q_alpha, phi, mean, residual,
                   underflow, omega, coupling)
    if newton_at is None:
        return _Point(*certificate)
    slope, m = newton_at
    if m is None:
        m = mean
    # F = (lambda - Omega*coupling, m - <E>_q) and its Jacobian, from d log
    # p/d(lambda, m): each level's slope times db_i, less the p-weighted mean
    # that the normalization takes out
    escort = weights / total
    escort_mean = float(np.dot(escort, e))
    wc = omega * coupling
    de = e - m
    d_lam = slope * de
    d_lam -= np.dot(p, d_lam)
    d_m = -lam * slope
    d_m -= np.dot(p, d_m)
    d_mean = q * escort * (e - escort_mean)
    return _Point(*certificate, (lam - wc, m - escort_mean),
                  (1.0 - wc * np.dot(grad, d_lam), -wc * np.dot(grad, d_m),
                   -np.dot(d_mean, d_lam), 1.0 - np.dot(d_mean, d_m)))


def _fixed_omega(fam, omega: float):
    """Newton's method in x = (lambda, m) for F = (lambda - Omega*coupling(p),
    m - <E>_q(p)) = 0, where p = p(lambda, m) is one level map.

    It starts from the uniform distribution, lambda = 0, which costs no level
    map and is certified first.  Each step solves (J + I/dt) d = -F with the
    exact Jacobian J and is taken only where every level keeps a real root
    and F and J are finite; m is not held inside the spectrum.  A solve of k
    steps makes k level maps plus one per rejected trial point.  Every trial
    point maps from the warm start of the last point taken, so a rejected
    trial's roots seed nothing.  The pseudo-time step dt (pseudo-transient
    continuation) starts at inf, so the steps are Newton steps, and an
    undamped step is taken only where it also lowers the scaled |F|.  The
    first step not taken is retried from the same point at dt = 3, after
    which dt halves on a step that is not taken and grows by the fall of
    the scaled |F| on one that is: the steps follow the damped fixed-point
    flow until F is small and are Newton steps again from there.  A step
    that cannot be taken even with dt below the square root of the float
    precision stalls the solve: it raises the kernel's ``NoRealRootError``
    where the first sweep Omega*coupling(uniform) has a level without a
    real root.

    Returns the last point, the Newton steps that reached it and ``None``,
    or the failure that stopped it: a stall, a step within 4 ulps of x or
    ``MAX_ITER`` steps.
    """
    e = fam.e
    # start is the warm start of the last point taken
    p, slope, start = fam.uniform()
    point = _evaluate(fam, p, 0.0, omega, (slope, None))
    lam, m = 0.0, point.escort_mean
    f0, f1 = point.f
    # lambda is measured against the first sweep, m against the spectrum's
    # width, so the scaled |F| is 1 at the start
    scale0, scale1 = abs(f0), e.max() - e.min()
    sweep = (lam - f0, m)
    # J = [[1, 0], [c, 1]] at the uniform start, so the first, undamped step
    # is the sweep itself
    dt = math.inf
    norm = 1.0
    iterations = 0
    while not (point.converged or point.underflow):
        if iterations == MAX_ITER:
            return point, iterations, (f"no convergence after {MAX_ITER} Newton steps "
                                       f"(residual {point.residual:.3g})")
        iterations += 1
        j00, j01, j10, j11 = point.jac
        while True:
            a00, a11 = j00 + 1.0 / dt, j11 + 1.0 / dt
            det = a00 * a11 - j01 * j10
            step0 = (j01 * f1 - a11 * f0) / det
            step1 = (j10 * f0 - a00 * f1) / det
            trial = _newton_point(fam, lam + step0, m + step1, omega, start)
            if trial is not None:
                f0_new, f1_new = trial[0].f
                new_norm = np.hypot(f0_new / scale0, f1_new / scale1)
                # an undamped step is taken only where it lowers |F|
                if dt < math.inf or new_norm < norm:
                    break
            # the first step not taken falls back to dt = 3
            dt = 3.0 if dt == math.inf else 0.5 * dt
            # a pseudo-time step below the square root of the float precision
            # moves x by no more than that: the iteration is stuck
            if not dt >= math.ulp(1.0) ** 0.5:
                # the kernel names the first level without a real root
                fam.level_map(sweep[0] * (e - sweep[1]), start)
                return point, iterations - 1, (f"the Newton step stalls at step {iterations} "
                                               f"(residual {point.residual:.3g})")
        # at the rounding floor an undamped step can cycle within a few ulps
        if abs(step0) <= 4.0 * math.ulp(lam) and abs(step1) <= 4.0 * math.ulp(m):
            return point, iterations - 1, (f"the Newton step no longer moves (lambda, m) at "
                                           f"step {iterations} (residual {point.residual:.3g})")
        lam, m = lam + step0, m + step1
        point, start = trial
        f0, f1 = f0_new, f1_new
        dt *= norm / new_norm
        norm = new_norm
    return point, iterations, None


def _newton_point(fam, lam: float, m: float, omega: float, start):
    """The point at (lambda, m), its level map warm-started from ``start``,
    with the warm start that its own roots give a next map; or ``None``
    where some level has no real root or b, F or J is not finite."""
    try:
        p, slope, start = fam.level_map(lam * (fam.e - m), start)
    except (NoRealRootError, DomainError):  # the kernels' error for a b not finite
        return None
    point = _evaluate(fam, p, lam, omega, (slope, m))
    if not all(map(math.isfinite, point.f + point.jac)):
        return None
    return point, start


def _feasible(fam, de_min: float, de_max: float) -> tuple[float, float]:
    """The interval of lambda where every level's b = lambda*(E_i - target)
    keeps a real root, from the extremes ``de_min`` < 0 < ``de_max`` of E_i -
    target."""
    b_min, b_max = fam.b_range
    return (max(b_max / de_min, b_min / de_max),
            min(b_max / de_max, b_min / de_min))


def _solve_for_target(fam, target: float):
    """Safeguarded Newton iteration in lambda for the escort mean, with m
    pinned to the target: each Newton point moves the bracket end of its
    gap's sign to lambda, and a Newton step that would leave the bracket
    bisects it.  It starts from the uniform distribution, lambda = 0, without
    a level map, and the gap runs the way of its slope there.

    Both ends are probed at one site, once, to tell whether the target is
    attainable and which way the gap runs: where the interval of lambda is
    unbounded, which the probes double until the gap changes sign, where a
    Newton step would leave the bracket (as one from a start slope of 0 or
    NaN does) or where the iteration stops on a small step with the gap
    still open.  Two warm starts are threaded, both begun at the uniform
    start: one from each Newton point to the next, and one through the end
    probes in the order they are made, so the probes leave the Newton
    iteration's maps as they are.  A bounded solve of k steps that probes
    nothing makes k level maps.  A gap that is not finite at any point
    raises ``NonConvergenceError``.

    Returns the last point, the steps that reached it and ``None``, or the
    failure that stopped it: ``MAX_ITER`` steps or a lost coupling.
    """
    if not math.isfinite(target):
        raise DomainError("target mean must be finite")
    e = fam.e
    de = e - target
    de_min, de_max = float(de.min()), float(de.max())
    if de_min == 0.0 == de_max:
        return _evaluate(fam, _uniform(e.size), 0.0, 0.0), 0, None
    if not de_min < 0.0 < de_max:
        raise DomainError(
            f"target mean {target:g} outside the attainable range "
            f"({e.min():g}, {e.max():g}) of the spectrum"
        )
    b_min, b_max = fam.b_range
    lo, hi = feasible = _feasible(fam, de_min, de_max)
    unbounded = math.isinf(hi)

    def gap(p: np.ndarray, slope: np.ndarray | None, lam: float):
        """The gap <E>_q - target of p at lambda and, from the slope of p where
        it is given, the gap's slope in lambda."""
        weights = p**fam.q
        z_q = float(weights.sum())
        if z_q == 0.0:
            raise NonConvergenceError(f"the partition sum underflows to 0 at lambda = {lam:g}")
        g = float(np.dot(weights, de)) / z_q
        if not math.isfinite(g):
            raise NonConvergenceError(f"the escort-mean gap at lambda = {lam:.17g} is {g}")
        if slope is None:
            return g, None
        # g' = q*sum_i P_i*(E_i - <E>_q)*s_i*(E_i - target), with s = d log p/db
        return g, fam.q * np.dot(weights / z_q * (de - g), slope * de)

    def probe(lam: float, start, newton: bool = True):
        """p, its gap at lambda, at a Newton point the gap's slope, and the
        warm start of a next map; the map starts from ``start``."""
        # b held inside b_range; np.clip does the same at twice the cost on a
        # short array, and an infinite end holds nothing
        b = lam * de
        if b_min > -math.inf:
            b = np.maximum(b, b_min)
        if b_max < math.inf:
            b = np.minimum(b, b_max)
        p, slope, start = fam.level_map(b, start)
        return (p, *gap(p, slope if newton else None, lam), start)

    scale = 1.0 / max(-de_min, de_max)

    def ends():
        """The feasible interval, or for an unbounded one the part of it that
        the doubling found, with the gap's direction there; raises
        ``DomainError`` where the gap has one sign at both ends.  The first
        probe maps from the uniform start, and each later one from the one
        before."""
        lo, hi = (-scale, scale) if unbounded else feasible
        _, g_lo, _, start = probe(lo, uniform_start, False)
        _, g_hi, _, start = probe(hi, start, False)
        # An unbounded interval grows by doubling the end on the target's
        # side until the gap changes sign, stops moving or overflows.
        while unbounded and g_lo * g_hi > 0.0 and g_lo != g_hi and math.isfinite(hi - lo):
            if (g_hi > g_lo) == (g_lo > 0.0):
                lo *= 2.0
                _, g_lo, _, start = probe(lo, start, False)
            else:
                hi *= 2.0
                _, g_hi, _, start = probe(hi, start, False)
        if not g_lo * g_hi <= 0.0:
            raise DomainError(
                f"target mean {target:g} is not attainable: with every level's root "
                f"real, the escort mean at this target spans only "
                f"[{target + min(g_lo, g_hi):.17g}, {target + max(g_lo, g_hi):.17g}]"
            )
        return lo, hi, g_lo < g_hi

    xtol = 1e-16 * scale * fam.lam_scale
    lam = 0.0
    p, slope, start = fam.uniform()
    uniform_start = start
    g, dg = gap(p, slope, lam)
    rising = dg > 0.0
    probed = False
    iterations = 0
    while True:
        if (g < 0.0) == rising:
            lo = lam
        else:
            hi = lam
        step = float(-g / dg)
        tol = xtol + _RTOL * abs(lam)
        # the Newton step is tested before the bracket: once lambda is a
        # bracket end, a converged iterate would otherwise bisect
        converged = abs(step) <= tol
        leaves = not (converged or lo < lam + step < hi)
        # an unbounded bracket, a step out of it or a stop with the gap still
        # open may mean a target beyond reach: the ends tell
        if not probed and (unbounded or leaves or (converged and abs(g) * scale > 1e-12)):
            probed = True
            end_lo, end_hi, end_rising = ends()
            if unbounded or end_rising != rising:
                # the bracket so far was unbounded or narrowed the wrong way
                lo, hi, rising = end_lo, end_hi, end_rising
                continue
        if leaves:
            step = 0.5 * (lo + hi) - lam
            converged = abs(step) <= tol
        if converged or iterations == MAX_ITER:
            break
        iterations += 1
        lam += step
        p, g, dg, start = probe(lam, start)
    point = _evaluate(fam, p, lam, None)
    if not converged:
        return point, iterations, f"no convergence after {MAX_ITER} Newton steps in lambda"
    if not 0.0 < abs(point.coupling) < math.inf:
        return point, iterations, (f"the coupling lambda/omega is {point.coupling:g} at the "
                                   f"target, so omega = lambda/{point.coupling:g} is lost")
    return point, iterations, None
