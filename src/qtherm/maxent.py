"""Self-consistent MaxEnt distributions under escort energy constraints.

``solve_maxent`` extremizes the rescaled nonadditive entropy S_{q_alpha}
subject to normalization and the q-escort energy constraint.  Stationarity,

    q_alpha/(1-q_alpha) * p_i^((q-1)/alpha) - Phi
        - q*Omega*(E_i - <E>_q)/Z_q * p_i^(q-1) = 0,
    Phi = q_alpha/(1-q_alpha) * Z_{q_alpha},

reduces per level to the trinomial 1 - x + b_i*x^alpha = 0 with
b_i = lambda*(E_i - m), m the escort mean and lambda = q(1-q)/(q+alpha-1) *
Z_{q_alpha}^(alpha-1)/Z_q * Omega (times Z_{q_alpha} for the additive entropy
of ``solve_maxent_renyi``); then p_i ~ x_i^(alpha/(q-1)).  The alpha -> inf
member ``solve_maxent_shannon_limit`` has p_i ~ exp(-W(b_i)/(q-1)) with the
principal Lambert W branch, and q within 1e-9 of 1 is the closed-form Gibbs
kernel.  So every family maps the two scalars (lambda, m) to p, and one
builder certifies each answer by its stationarity residual:

* fixed Omega: Newton's method on the two equations lambda =
  Omega*per_omega(p) and m = <E>_q(p), with p = p(lambda, m) and the exact
  Jacobian from each family's d log p/db, one level map per step.  It starts
  from the uniform distribution and stops once the answer is converged;
  ``iterations`` counts Newton steps.  Each step is damped by a
  pseudo-time step (pseudo-transient continuation), which carries it across
  folds of |F| where det J changes sign, and is taken only where every level
  keeps a real root and F is finite; m may leave the spectrum on the way.  A
  solve that stalls raises the kernel's ``NoRealRootError`` where the first
  sweep Omega*per_omega(uniform) leaves some level's real-root region;
* target escort mean: m is pinned to the target and one Brent root find in
  lambda runs over the interval where every level keeps a real root (b_i up
  to (alpha-1)^(alpha-1)/alpha^alpha for alpha > 1, below 1 at alpha = 1,
  from -1/e for Lambert W, unbounded otherwise); Omega follows from lambda
  and the final p, and an answer whose coupling lambda/Omega is 0 or not
  finite raises ``NonConvergenceError``.

An answer is converged, and returned, only where no level or partition sum
underflows to 0 and its residual is at most 1e-9; ``NonConvergenceError``
carries any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .deformation import transform
from .entropy import PartitionSum
from .errors import DomainError, NonConvergenceError, NoRealRootError
from .qalgebra import Q_ONE_THRESHOLD
from .rootfind import brent
from .trinomial import _branch_roots, _lambert_w0, series_radius, trinomial_b

# Newton steps of a fixed-omega solve, or root-find iterations in lambda of a
# target-mean solve
MAX_ITER = 10_000
# A solve reports converged only at or below this certified residual, a
# margin below the 1e-8 that a caller accepts; the fixed-omega Newton solve
# stops on it.
STOP_RESIDUAL = 1e-9


def as_spectrum(levels) -> np.ndarray:
    """Validate an energy spectrum: 1-D, finite, at least two levels."""
    e = np.asarray(levels, dtype=float)
    if e.ndim != 1:
        raise DomainError(f"expected a 1-D energy spectrum, got shape {e.shape}")
    if e.size < 2:
        raise DomainError("energy spectrum needs at least two levels")
    if not np.all(np.isfinite(e)):
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
    ``alpha`` must be positive; q within 1e-9 of 1 routes to the
    Shannon/Gibbs closed form.

    At fixed omega the solve is one Newton iteration in the combined
    multiplier and the escort mean, each step damped by a pseudo-time step.
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
    Z_{q_alpha}.  At alpha = 1 both families coincide up to an omega
    reparametrization, and at one target mean they give the same
    distribution.
    """
    return _solve_deformed(energies, q, alpha, omega, target_mean, renyi=True)


def _solve_deformed(energies, q, alpha, omega, target_mean, *,
                    renyi: bool) -> MaxEntSolution:
    e = as_spectrum(energies)
    q = float(q)
    alpha = float(alpha)
    if not (math.isfinite(q) and math.isfinite(alpha)):
        raise DomainError("q and alpha must be finite")
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha:g}")
    fam = _Gibbs(e) if abs(q - 1.0) < Q_ONE_THRESHOLD else _Trinomial(e, q, alpha, renyi)
    return _solve(fam, omega, target_mean)


def solve_maxent_shannon_limit(energies, q: float, omega: float | None = None, *,
                               target_mean: float | None = None) -> MaxEntSolution:
    """The alpha -> infinity member: Shannon entropy, q-escort constraint.

    Stationarity ln p_i + S_1 + q*Omega*DeltaE_i/Z_q * p_i^(q-1) = 0 is
    solved per level through the principal Lambert W branch,

        p_i = exp[-S_1 - W(u_i)/(q-1)],
        u_i = (q-1) * q * exp(-(q-1) S_1) * Omega * DeltaE_i / Z_q,

    solved for self-consistency in S_1, Z_q and the escort mean by the same
    Newton solve (or, with ``target_mean``, found by the root find in the
    combined multiplier).  A failed solve whose first sweep puts a W argument
    below -1/e raises ``NoRealRootError``.
    """
    e = as_spectrum(energies)
    q = float(q)
    if not math.isfinite(q):
        raise DomainError("q must be finite")
    fam = _Gibbs(e) if abs(q - 1.0) < Q_ONE_THRESHOLD else _Lambert(e, q)
    return _solve(fam, omega, target_mean)


# --- the families --------------------------------------------------------------
#
# A family holds the spectrum and the indices.  ``q`` is the escort index of
# the constraint, ``b_range`` the interval of b = lambda*(E_i - m) where every
# level has a real root, ``level_map(b)`` the normalized distribution of the
# coefficients b with the per-level roots it came from, ``log_slope(b,
# roots)`` the derivative in b of each level's log weight at those roots,
# ``per_omega(p, z_q)`` the coupling lambda/Omega of p,
# ``log_coupling_grad(p, weights)`` the gradient of its log in log p (weights
# = p^q), and
# ``free_gradient(p)`` the entropy part of the stationarity condition with the
# reported phi and Z_{q_alpha}.  A level map is one call of an array kernel of
# ``trinomial`` over all levels; the branch-root kernel starts from the
# family's previous roots (``roots``), since successive Newton steps and
# root-find probes move b only a little.

class _Trinomial:
    """Tsallis and Renyi levels: 1 - x + b*x^alpha = 0, p ~ x^(alpha/(q-1))."""

    def __init__(self, e: np.ndarray, q: float, alpha: float, renyi: bool):
        self.e, self.q, self.alpha, self.renyi = e, q, alpha, renyi
        self.roots = None
        self.q_alpha = transform(q, alpha)
        # q(1-q)/(q+alpha-1), raising at the rescaled-index pole q_alpha = 0
        self.coupling = trinomial_b(q, alpha, 1.0, 1.0, 1.0, 1.0)
        # b reaches the double root for alpha > 1 and stays below the pole
        # of x = 1/(1-b) at alpha = 1
        b_max = (series_radius(alpha) if alpha > 1.0 else
                 math.nextafter(1.0, 0.0) if alpha == 1.0 else math.inf)
        self.b_range = (-math.inf, b_max)

    def level_map(self, b: np.ndarray):
        try:
            self.roots = _branch_roots(self.alpha, b, self.roots)
        except NoRealRootError as err:
            raise _at_level(err, self.e) from err
        # log x = log1p(b*x^alpha) on the trinomial keeps the digits that
        # log(x) loses near x = 1; log(x) keeps those of a root far below 1
        shift = b * self.roots**self.alpha
        log_roots = np.log1p(shift, out=np.log(self.roots), where=shift > -0.5)
        return _normalized(self.alpha / (self.q - 1.0) * log_roots), self.roots

    def log_slope(self, b: np.ndarray, roots: np.ndarray) -> np.ndarray:
        # d log x/db = x^(alpha-1)/(1 - alpha*b*x^(alpha-1)) on the trinomial
        xa1 = roots ** (self.alpha - 1.0)
        return self.alpha / (self.q - 1.0) * xa1 / (1.0 - self.alpha * b * xa1)

    def per_omega(self, p: np.ndarray, z_q: float) -> float:
        z_qa = _partition(p, self.q_alpha)
        scale = z_qa if self.renyi else 1.0
        return self.coupling * z_qa ** (self.alpha - 1.0) / z_q * scale

    def log_coupling_grad(self, p: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # Z_{q_alpha} enters per_omega to the power alpha - 1, or alpha for Renyi
        p_qa = p**self.q_alpha
        power = self.alpha - 1.0 + self.renyi
        return (power * self.q_alpha * p_qa / np.sum(p_qa)
                - self.q * weights / np.sum(weights))

    def free_gradient(self, p: np.ndarray):
        z_qa = _partition(p, self.q_alpha)
        prefactor = self.q_alpha / (1.0 - self.q_alpha)
        # lead - phi = prefactor*(p^(q_alpha-1) - Z_{q_alpha}), with the two
        # O(1/(q_alpha-1)) terms cancelled exactly through sum(p) = 1
        em = np.expm1((self.q_alpha - 1.0) * np.log(p))
        free = prefactor * (em - np.dot(p, em))
        if self.renyi:
            return free / z_qa, prefactor, PartitionSum(z_qa, self.q_alpha)
        return free, prefactor * z_qa, PartitionSum(z_qa, self.q_alpha)


class _Lambert:
    """Shannon-limit levels: p ~ exp(-W(b)/(q-1)), W the principal branch."""

    b_range = (-math.exp(-1.0), math.inf)

    def __init__(self, e: np.ndarray, q: float):
        self.e, self.q = e, q

    def level_map(self, b: np.ndarray):
        try:
            w = _lambert_w0(b)
        except NoRealRootError as err:
            raise _at_level(err, self.e) from err
        return _normalized(-w / (self.q - 1.0)), w

    def log_slope(self, b: np.ndarray, w: np.ndarray) -> np.ndarray:
        # dW/db = exp(-W)/(1 + W), finite at b = 0
        return -np.exp(-w) / ((1.0 + w) * (self.q - 1.0))

    def per_omega(self, p: np.ndarray, z_q: float) -> float:
        return (self.q - 1.0) * self.q * math.exp(-(self.q - 1.0) * _shannon(p)) / z_q

    def log_coupling_grad(self, p: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return (self.q - 1.0) * p * np.log(p) - self.q * weights / np.sum(weights)

    def free_gradient(self, p: np.ndarray):
        s1 = _shannon(p)
        return -(np.log(p) + s1), s1 - 1.0, PartitionSum(1.0, 1.0)


class _Gibbs(_Lambert):
    """The q -> 1 kernel: p ~ exp(-b), the Boltzmann-Gibbs weights."""

    b_range = (-math.inf, math.inf)

    def __init__(self, e: np.ndarray):
        super().__init__(e, 1.0)

    def level_map(self, b: np.ndarray):
        return _normalized(-b), None

    def per_omega(self, p: np.ndarray, z_q: float) -> float:
        return 1.0


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


def _partition(p: np.ndarray, q: float) -> np.float64:
    # a NumPy scalar, so that a sum underflowed to 0 divides without raising
    return np.sum(p**q)


def _shannon(p: np.ndarray) -> float:
    return float(-np.sum(p * np.log(p)))


# --- the core --------------------------------------------------------------------

def _solve(fam, omega, target_mean) -> MaxEntSolution:
    if (omega is None) == (target_mean is None):
        raise DomainError("exactly one of omega and target_mean must be given")
    # a level or a partition sum that underflows to 0 divides to inf or nan
    # on its way to ``_certify``, which reports it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if target_mean is not None:
            sol = _solve_for_target(fam, float(target_mean))
        else:
            omega = float(omega)
            if not math.isfinite(omega):
                raise DomainError("omega must be finite")
            if isinstance(fam, _Gibbs):
                sol = _certify(fam, fam.level_map(omega * fam.e)[0], omega, 0)
            else:
                sol = _fixed_omega(fam, omega)
    if not sol.converged:
        raise NonConvergenceError(
            f"the answer does not certify: residual "
            f"{sol.stationarity_residual:.3g} above {STOP_RESIDUAL:g}", solution=sol)
    return sol


def _certify(fam, p: np.ndarray, omega: float, iterations: int) -> MaxEntSolution:
    """The solution at p with its stationarity residual at this omega,
    converged where no level or sum underflows to 0 and the residual is at
    most ``STOP_RESIDUAL``; raises ``NonConvergenceError`` carrying it where
    a level or a sum underflows to 0."""
    e = fam.e
    weights = p**fam.q
    # Z_1 is the normalization itself.
    z_q = 1.0 if fam.q == 1.0 else float(np.sum(weights))
    mean = float(np.dot(weights, e) / z_q)
    free, phi, z_q_alpha = fam.free_gradient(p)
    constraint = fam.q * omega * (e - mean) / z_q * p ** (fam.q - 1.0)
    underflow = not (p.min() > 0.0 and z_q > 0.0 and z_q_alpha.z > 0.0)
    residual = float(np.max(np.abs(free - constraint)))
    sol = MaxEntSolution(
        probs=p,
        z_q=PartitionSum(z_q, fam.q),
        z_q_alpha=z_q_alpha,
        phi=phi,
        escort_mean=mean,
        stationarity_residual=residual,
        iterations=iterations,
        converged=not underflow and residual <= STOP_RESIDUAL,
        omega=omega,
    )
    if underflow:
        raise NonConvergenceError(f"a level or a partition sum underflows to 0 "
                                  f"(iteration {iterations})", solution=sol)
    return sol


def _fixed_omega(fam, omega: float) -> MaxEntSolution:
    """Newton's method in x = (lambda, m) for F = (lambda - Omega*per_omega(p),
    m - <E>_q(p)) = 0, where p = p(lambda, m) is one level map.

    It starts from the uniform distribution, lambda = 0, which is certified
    first.  Each step solves (J + I/dt) d = -F with the exact Jacobian J, one
    level map per step, and is taken only where every level keeps a real
    root and F is finite; m is not held inside the spectrum.  The pseudo-time
    step dt (pseudo-transient continuation) starts at 3: it halves on a step
    that is not taken and grows by the fall of the scaled |F| on one that
    is, so the steps follow the damped fixed-point flow until F is small and
    are Newton steps from there.  A step that cannot be taken even with dt
    below the square root of the float precision stalls the solve: it raises
    the kernel's ``NoRealRootError`` where the first sweep
    Omega*per_omega(uniform) has a level without a real root, and
    ``NonConvergenceError`` otherwise, as does a step that no longer moves x.
    """
    e = fam.e
    p, roots = fam.level_map(np.zeros(e.size))  # the uniform distribution
    sol = _certify(fam, p, omega, 0)
    x = np.array([0.0, sol.escort_mean])
    f, jac = _newton_system(fam, p, roots, x, omega)
    # lambda is measured against the first sweep, m against the spectrum's
    # width, so the scaled |F| is 1 at the start
    scale = np.array([abs(f[0]), e.max() - e.min()])
    sweep = x - [f[0], 0.0]
    # J = [[1, 0], [c, 1]] at the uniform start, so the first step moves
    # lambda by dt/(1 + dt) of the sweep: three quarters at dt = 3
    dt = 3.0
    norm = 1.0
    iterations = 0
    while not sol.converged:
        if iterations == MAX_ITER:
            raise NonConvergenceError(
                f"no convergence after {MAX_ITER} Newton steps "
                f"(residual {sol.stationarity_residual:.3g})", solution=sol)
        iterations += 1
        while True:
            a = jac + np.eye(2) / dt
            det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            step = np.array([a[0, 1] * f[1] - a[1, 1] * f[0],
                             a[1, 0] * f[0] - a[0, 0] * f[1]]) / det
            point = _newton_point(fam, x + step, omega)
            if point is not None:
                break
            dt *= 0.5
            # a pseudo-time step below the square root of the float precision
            # moves x by no more than that: the iteration is stuck
            if not dt >= math.ulp(1.0) ** 0.5:
                # the kernel names the first level without a real root
                fam.level_map(sweep[0] * (e - sweep[1]))
                raise NonConvergenceError(
                    f"the Newton step stalls at step {iterations} "
                    f"(residual {sol.stationarity_residual:.3g})", solution=sol)
        if np.all(x + step == x):
            raise NonConvergenceError(
                f"the Newton step no longer moves (lambda, m) at step "
                f"{iterations} (residual {sol.stationarity_residual:.3g})",
                solution=sol)
        x = x + step
        p, roots, f, jac = point
        new_norm = np.hypot(*(f / scale))
        dt *= norm / new_norm
        norm = new_norm
        sol = _certify(fam, p, omega, iterations)
    return sol


def _newton_point(fam, x: np.ndarray, omega: float):
    """(p, roots, F, Jacobian) at x = (lambda, m), or ``None`` where some
    level has no real root or b or F is not finite."""
    try:
        p, roots = fam.level_map(x[0] * (fam.e - x[1]))
    except (NoRealRootError, DomainError):  # the kernels' error for a b not finite
        return None
    f, jac = _newton_system(fam, p, roots, x, omega)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(jac))):
        return None
    return p, roots, f, jac


def _newton_system(fam, p: np.ndarray, roots: np.ndarray, x: np.ndarray,
                   omega: float):
    """F of the fixed-Omega solve and its Jacobian at x = (lambda, m), where
    p, roots = fam.level_map(lambda*(E - m))."""
    e, q = fam.e, fam.q
    lam, m = x
    weights = p**q
    escort = weights / np.sum(weights)
    mean = float(np.dot(escort, e))
    wc = omega * fam.per_omega(p, np.sum(weights))
    grad = fam.log_coupling_grad(p, weights)
    slope = fam.log_slope(lam * (e - m), roots)
    # d log p/d(lambda, m): each level's slope times db_i, less the p-weighted
    # mean that the normalization takes out
    d_lam = slope * (e - m)
    d_lam -= np.dot(p, d_lam)
    d_m = -lam * slope
    d_m -= np.dot(p, d_m)
    d_mean = q * escort * (e - mean)
    f = x - [wc, mean]
    jac = np.array([[1.0 - wc * np.dot(grad, d_lam), -wc * np.dot(grad, d_m)],
                    [-np.dot(d_mean, d_lam), 1.0 - np.dot(d_mean, d_m)]])
    return f, jac


def _feasible(fam, de: np.ndarray) -> tuple[float, float]:
    """The interval of lambda where every level's b = lambda*de keeps a real
    root; ``de`` must have both signs."""
    b_min, b_max = fam.b_range
    return (max(b_max / de.min(), b_min / de.max()),
            min(b_max / de.max(), b_min / de.min()))


def _solve_for_target(fam, target: float) -> MaxEntSolution:
    """Brent root find in lambda for the escort mean, with m pinned to the target."""
    if not math.isfinite(target):
        raise DomainError("target mean must be finite")
    e = fam.e
    de = e - target
    if not np.any(de):
        return _certify(fam, _uniform(e.size), 0.0, 0)
    if not de.min() < 0.0 < de.max():
        raise DomainError(
            f"target mean {target:g} outside the attainable range "
            f"({e.min():g}, {e.max():g}) of the spectrum"
        )
    b_min, b_max = fam.b_range
    lo, hi = _feasible(fam, de)
    maps: dict[float, np.ndarray] = {}

    def level_map(lam: float) -> np.ndarray:
        if lam not in maps:
            # np.clip does the same at twice the cost on a short array
            maps[lam] = fam.level_map(np.minimum(np.maximum(lam * de, b_min), b_max))[0]
        return maps[lam]

    def gap(lam: float) -> float:
        weights = level_map(lam) ** fam.q
        z_q = float(np.sum(weights))
        if z_q == 0.0:
            raise NonConvergenceError(f"the partition sum underflows to 0 at lambda = {lam:g}")
        return float(np.dot(weights, de)) / z_q

    scale = 1.0 / float(np.max(np.abs(de)))
    unbounded = math.isinf(hi)
    if unbounded:
        lo, hi = -scale, scale
    g_lo, g_hi = gap(lo), gap(hi)
    # An unbounded interval grows by doubling the end on the target's side
    # until the gap changes sign, stops moving or overflows.
    while unbounded and g_lo * g_hi > 0.0 and g_lo != g_hi and math.isfinite(hi - lo):
        if (g_hi > g_lo) == (g_lo > 0.0):
            lo *= 2.0
            g_lo = gap(lo)
        else:
            hi *= 2.0
            g_hi = gap(hi)
    if not g_lo * g_hi <= 0.0:
        raise DomainError(
            f"target mean {target:g} is not attainable: with every level's root "
            f"real, the escort mean at this target spans only "
            f"[{target + min(g_lo, g_hi):.17g}, {target + max(g_lo, g_hi):.17g}]"
        )
    # lambda is O(q - 1) in every family but the Gibbs kernel, so its step
    # tolerance shrinks with q - 1
    xtol = 1e-16 * scale
    if not isinstance(fam, _Gibbs):
        xtol *= min(1.0, abs(fam.q - 1.0))
    lam, iterations, converged = brent(gap, lo, hi, xtol, MAX_ITER)
    p = level_map(lam)
    per_omega = float(fam.per_omega(p, _partition(p, fam.q)))
    omega = float(lam / per_omega)
    sol = _certify(fam, p, omega, iterations)
    if not converged:
        raise NonConvergenceError(
            f"no convergence after {MAX_ITER} root-find iterations in lambda",
            solution=replace(sol, converged=False),
        )
    if not 0.0 < abs(per_omega) < math.inf:
        raise NonConvergenceError(
            f"the coupling lambda/omega is {per_omega:g} at the target, so omega "
            f"= lambda/{per_omega:g} is lost", solution=replace(sol, converged=False))
    return sol

