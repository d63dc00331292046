"""Deterministic, seeded property suites behind ``qtherm check``.

Each suite replays the library's mathematical invariants on freshly drawn
random inputs and reports one result per property.  Tolerances and sample
counts live in module-level constants so a harness can tighten or corrupt
them.

All four suites draw their samples as arrays and evaluate each sampled
property in array calls over all its samples.  The entropy suite and the
partition-bound check draw a batch of random distributions as one array of
zero-padded rows and evaluate it through the row kernels of ``entropy``.  A
row gives its 1-D function's value to rounding, so each line reports what a
loop over the 1-D functions would.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import deformation as dfm
from . import entropy as ent
from . import qalgebra as qa
from .errors import DomainError, DualityRangeWarning
from .maxent import (
    _affinity_residual,
    solve_maxent,
    solve_maxent_renyi,
    solve_maxent_shannon_limit,
)
from .qalgebra import _rel_gap
from .trinomial import (
    lambert_w_array,
    residual as trinomial_residual,
    series_coefficient,
    solve_trinomial_array,
    trinomial_series,
)

GROUP_TOL = 1e-12
INVOLUTION_TOL = 1e-15
ALGEBRA_TOL = 1e-12
CLASSICAL_LIMIT_TOL = 1e-6
ENTROPY_TOL = 1e-12
HYBRID_ADDITIVITY_TOL = 1e-10
QUASI_ALPHA_TOL = 1e-10
BACKSUB_TOL = 1e-12
SERIES_MATCH_TOL = 1e-10
LAMBERT_TOL = 1e-14
STATIONARITY_TOL = 1e-8
AFFINITY_TOL = 1e-8
ORACLE_TOL = 1e-4
GIBBS_LIMIT_TOL = 1e-6
Q_ONE_CONTINUITY_TOL = 1e-8
ALPHA_LIMIT_TOL = 0.01
REPARAMETRIZATION_TOL = 1e-8
BOUND_SLACK = 1e-14

# samples per randomized property; the entropy suite draws whole distributions
SAMPLES = 10_000
ENTROPY_SAMPLES = 1_000


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _worst(suite: str, name: str, gaps, tol: float, count: int) -> CheckResult:
    gap = float(np.max(gaps, initial=0.0))
    return CheckResult(suite, name, gap <= tol,
                       f"{count} samples, worst gap {gap:.3g} (tol {tol:.3g})")


# --- group suite -------------------------------------------------------------

def run_group_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    q = rng.uniform(-2.0, 4.0, SAMPLES)
    # scale factors uniform on 1e-9 < |a| < 4, away from the excluded a = 0
    a, b, c = rng.uniform(1e-9, 4.0, (3, SAMPLES)) * rng.choice([-1.0, 1.0], (3, SAMPLES))
    via_steps = dfm.transform(dfm.transform(q, a), b)
    comp = np.maximum(_rel_gap(via_steps, dfm.transform(q, dfm.compose(a, b))),
                      _rel_gap(via_steps, dfm.transform(dfm.transform(q, b), a)))
    assoc = _rel_gap(dfm.transform(q, dfm.compose(dfm.compose(a, b), c)),
                     dfm.transform(q, dfm.compose(a, dfm.compose(b, c))))
    neutral_ok = bool(np.all(dfm.transform(q, 1.0) == q))
    invariant_ok = bool(np.all(dfm.transform(1.0, a) == 1.0))
    inverse = _rel_gap(dfm.transform(dfm.transform(q, a), 1.0 / a), q)
    up = a > 0.0
    sign_ok = bool(np.all(np.sign(dfm.transform(q[up], a[up]) - 1.0) == np.sign(q[up] - 1.0)))
    q_nonzero = q[np.abs(q) > 1e-9]
    with warnings.catch_warnings():
        # the draw intentionally spans indices outside [0, 2]
        warnings.simplefilter("ignore", DualityRangeWarning)
        add_dual = _rel_gap(dfm.additive_dual(dfm.additive_dual(q)), q)
        mul_dual = _rel_gap(dfm.multiplicative_dual(dfm.multiplicative_dual(q_nonzero)),
                            q_nonzero)

    n_bath = SAMPLES // 10
    n = rng.integers(2, 1000, n_bath)
    a_bath = rng.uniform(0.01, 4.0, n_bath)
    q_direct = dfm.heat_bath_q(dfm.rescale_bath(n, a_bath))
    q_mapped = dfm.transform(dfm.heat_bath_q(n), a_bath)
    return [
        _worst("group", "composition", comp, GROUP_TOL, SAMPLES),
        _worst("group", "associativity", assoc, GROUP_TOL, SAMPLES),
        CheckResult("group", "neutral element", neutral_ok,
                    f"{SAMPLES} samples, transform(q, 1) == q"),
        CheckResult("group", "unit invariant", invariant_ok,
                    f"{SAMPLES} samples, transform(1, a) == 1"),
        _worst("group", "inverse element", inverse, GROUP_TOL, SAMPLES),
        CheckResult("group", "sign preservation", sign_ok,
                    f"{SAMPLES} samples, sign(q_a - 1) == sign(q - 1)"),
        _worst("group", "additive dual involution", add_dual, INVOLUTION_TOL, SAMPLES),
        _worst("group", "multiplicative dual involution", mul_dual, INVOLUTION_TOL,
               SAMPLES),
        _worst("group", "heat bath consistency", _rel_gap(q_direct, q_mapped),
               GROUP_TOL, n_bath),
        CheckResult("group", "rescaled bath stays above q = 1",
                    bool(np.all(q_direct > 1.0)), f"{n_bath} samples"),
    ]


# --- algebra suite -----------------------------------------------------------

def _algebra_points(rng, samples: int) -> np.ndarray:
    """``samples`` points (q, a, x, y, u, v, w): an index, a signed scale, two
    reals and three positive operands, drawn in batches until enough pass."""
    chunks, kept = [], 0
    while kept < samples:
        q = rng.uniform(0.1, 1.9, samples)
        a = rng.uniform(0.25, 3.0, samples) * rng.choice([-1.0, 1.0], samples)
        x, y = rng.uniform(-0.5, 1.0, (2, samples))
        u, v, w = rng.uniform(0.5, 2.5, (3, samples))
        e = 1.0 - q
        ue, ve, we = u**e, v**e, w**e
        # Stay away from the q_sub pole and the cutoffs of exp_q and of the
        # q-products.
        ok = ((np.abs(1.0 + e * y) >= 0.05)
              & (1.0 + e * x >= 0.05) & (1.0 + e * y >= 0.05)
              & (1.0 + e * (x + y) >= 0.05)
              & (ue + ve - 1.0 >= 0.05) & (ve + we - 1.0 >= 0.05)
              & ((ue + ve - 1.0) + we - 1.0 >= 0.05) & (ue - ve + 1.0 >= 0.05))
        chunks.append(np.vstack([q, a, x, y, u, v, w])[:, ok])
        kept += int(np.count_nonzero(ok))
    return np.concatenate(chunks, axis=1)[:, :samples]


def run_algebra_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    q, a, x, y, u, v, w = _algebra_points(rng, SAMPLES)
    gaps = {
        "add/sub inverse": _rel_gap(qa.q_sub(qa.q_add(x, y, q), y, q), x),
        "mul/div inverse": _rel_gap(qa.q_div(qa.q_mul(u, v, q), v, q), u),
        "exp product": _rel_gap(qa.q_exp(x, q) * qa.q_exp(y, q),
                                qa.q_exp(qa.q_add(x, y, q), q)),
        "exp of sum": _rel_gap(qa.q_exp(x + y, q),
                               qa.q_mul(qa.q_exp(x, q), qa.q_exp(y, q), q)),
        "log of product": _rel_gap(qa.q_log(u * v, q),
                                   qa.q_add(qa.q_log(u, q), qa.q_log(v, q), q)),
        "log sum": _rel_gap(qa.q_log(u, q) + qa.q_log(v, q),
                            qa.q_log(qa.q_mul(u, v, q), q)),
        "dist add": _rel_gap(*qa.dist_add(x, y, q, a)),
        "dist sub": _rel_gap(*qa.dist_sub(x, y, q, a)),
        "dist mul": _rel_gap(*qa.dist_mul(u, v, q, a)),
        "dist div": _rel_gap(*qa.dist_div(u, v, q, a)),
        "exp scaling": _rel_gap(*qa.exp_scaling(x, q, a)),
        "log scaling": _rel_gap(*qa.log_scaling(u, q, a)),
        "assoc add": _rel_gap(qa.q_add(qa.q_add(x, y, q), u, q),
                              qa.q_add(x, qa.q_add(y, u, q), q)),
        "assoc mul": _rel_gap(qa.q_mul(qa.q_mul(u, v, q), w, q),
                              qa.q_mul(u, qa.q_mul(v, w, q), q)),
    }
    commutative_ok = bool(np.all(qa.q_add(x, y, q) == qa.q_add(y, x, q))
                          and np.all(qa.q_mul(u, v, q) == qa.q_mul(v, u, q)))
    results = [_worst("algebra", name, gap, ALGEBRA_TOL, SAMPLES)
               for name, gap in gaps.items()]
    results.append(CheckResult("algebra", "commutativity", commutative_ok,
                               f"{SAMPLES} samples, exact"))

    n_limit = SAMPLES // 10
    q = 1.0 + rng.choice([-1e-8, 1e-8], n_limit)
    x, y = rng.uniform(0.5, 2.5, (2, n_limit))
    limit = np.maximum.reduce([
        np.abs(qa.q_add(x, y, q) - (x + y)),
        np.abs(qa.q_sub(x, y, q) - (x - y)),
        np.abs(qa.q_mul(x, y, q) - x * y),
        np.abs(qa.q_div(x, y, q) - x / y),
        np.abs(qa.q_exp(x, q) - np.exp(x)),
        np.abs(qa.q_log(x, q) - np.log(x)),
    ])
    results.append(_worst("algebra", "classical limit q -> 1", limit,
                          CLASSICAL_LIMIT_TOL, n_limit))

    # Plain distributivity must fail: 2*(1 (+)_0.5 1) != 2 (+)_0.5 2.
    lhs = 2.0 * qa.q_add(1.0, 1.0, 0.5)
    rhs = qa.q_add(2.0, 2.0, 0.5)
    results.append(CheckResult(
        "algebra", "plain distributivity fails (witness)",
        abs(lhs - rhs) > 0.1,
        f"x(y (+)_q z) = {lhs:g} vs xy (+)_q xz = {rhs:g} at q = 0.5",
    ))
    return results


# --- entropy suite -----------------------------------------------------------

_N_MAX = 6


def _draw(rng, samples: int, distributions: int, *ranges) -> list[np.ndarray]:
    """``distributions`` zero-padded batches (``samples`` x ``_N_MAX``) of
    random distributions, then ``samples`` uniform values per (low, high)
    range, each drawn as one array.

    A row has n ~ U{2, ..., _N_MAX} states and is Dirichlet(1, ..., 1) on
    them: n standard exponentials over their sum.
    """
    batches = []
    for _ in range(distributions):
        sizes = rng.integers(2, _N_MAX + 1, samples)
        rows = rng.standard_exponential((samples, _N_MAX))
        rows[np.arange(_N_MAX) >= sizes[:, None]] = 0.0
        batches.append(rows / rows.sum(axis=1, keepdims=True))
    return [*batches, *(rng.uniform(low, high, samples) for low, high in ranges)]


def _uniform_rows(sizes) -> np.ndarray:
    """The uniform distribution on n states, one zero-padded row per n."""
    n = np.asarray(sizes)[:, None]
    return np.where(np.arange(n.max()) < n, 1.0 / n, 0.0)


def run_entropy_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    pa, pb, q, q_mid = _draw(rng, ENTROPY_SAMPLES, 2, (-1.0, 3.0), (0.2, 1.8))
    a, b = ent._batch(pa), ent._batch(pb)
    joint = ent._batch(ent._product_rows(pa, pb))
    pseudo = _rel_gap(ent._tsallis_rows(joint, q),
                      qa.q_add(ent._tsallis_rows(a, q), ent._tsallis_rows(b, q), q))
    renyi = _rel_gap(ent._renyi_rows(joint, q),
                     ent._renyi_rows(a, q) + ent._renyi_rows(b, q))
    mid = np.abs(q_mid - 1.0) > 0.05
    a_mid, q_mid = ent._batch(pa[mid]), q_mid[mid]
    bridge = _rel_gap(ent._renyi_rows(a_mid, q_mid),
                      np.log(qa.q_exp(ent._tsallis_rows(a_mid, q_mid), q_mid)))
    results.append(_worst("entropy", "nonadditive pseudo-additivity",
                          pseudo, ENTROPY_TOL, ENTROPY_SAMPLES))
    results.append(_worst("entropy", "renyi additivity", renyi,
                          ENTROPY_TOL, ENTROPY_SAMPLES))
    results.append(_worst("entropy", "renyi = log q-exp of tsallis",
                          bridge, ENTROPY_TOL, ENTROPY_SAMPLES))

    n_alpha = 10 * ENTROPY_SAMPLES
    (rows,) = _draw(rng, n_alpha, 1)
    alpha = ent._quasi_alpha_rows(ent._batch(rows))
    in_range = bool(np.all((1.0 - 1e-12 <= alpha) & (alpha <= 2.0 + 1e-12)))
    results.append(CheckResult("entropy", "quasi-additivity alpha in [1, 2]",
                               in_range, f"{n_alpha} samples"))
    uniform_alpha = ent._quasi_alpha_rows(ent._batch(_uniform_rows(range(2, 9))))
    worst_uniform = float(np.max(np.abs(uniform_alpha - 2.0)))
    delta_alpha = ent.quasi_additivity_alpha([1.0, 0.0, 0.0])
    results.append(CheckResult(
        "entropy", "alpha = 2 on uniform, 1 on delta",
        worst_uniform <= QUASI_ALPHA_TOL and delta_alpha == 1.0,
        f"uniform gap {worst_uniform:.3g}, delta alpha {delta_alpha:g}",
    ))

    p_fixed = np.array([0.5, 0.3, 0.2])
    gaps = [ent.quasi_additivity_check(p_fixed, 1.0 + dq)[2]
            for dq in (0.1, 0.05, 0.025)]
    orders = [math.log2(gaps[0] / gaps[1]), math.log2(gaps[1] / gaps[2])]
    order_ok = all(1.8 <= o <= 2.2 for o in orders)
    results.append(CheckResult(
        "entropy", "quasi-additivity gap is second order in q - 1",
        order_ok, f"measured orders {orders[0]:.3f}, {orders[1]:.3f}",
    ))

    pa, pb, q, q_pos = _draw(rng, ENTROPY_SAMPLES, 2, (0.5, 2.5), (0.0, 3.0))
    a, b = ent._batch(pa), ent._batch(pb)
    joint = ent._batch(ent._product_rows(pa, pb))
    hybrid = _rel_gap(ent._hybrid_rows(joint, q),
                      qa.q_add(ent._hybrid_rows(a, q), ent._hybrid_rows(b, q), q))
    hybrid_shannon = np.abs(ent._hybrid_rows(a, np.ones_like(q)) - ent._shannon_rows(a))
    avg = _rel_gap(ent._avg_hybrid_rows(a, q_pos), ent._hybrid_rows(a, 0.5 * (q_pos + 1.0)))
    results.append(_worst("entropy", "hybrid pseudo-additivity", hybrid,
                          HYBRID_ADDITIVITY_TOL, ENTROPY_SAMPLES))
    results.append(_worst("entropy", "hybrid at q = 1 is Shannon",
                          hybrid_shannon, ENTROPY_TOL, ENTROPY_SAMPLES))
    results.append(_worst("entropy", "average hybrid index rescaling",
                          avg, ENTROPY_TOL, ENTROPY_SAMPLES))
    try:
        ent.hybrid(p_fixed, 0.4)
        rejects = False
    except DomainError:
        rejects = True
    results.append(CheckResult("entropy", "hybrid rejects q < 1/2", rejects,
                               "hybrid(P, 0.4) raises DomainError"))

    grid = np.linspace(0.5, 2.0, 16)
    values = ent._tsallis_rows(ent._batch(np.tile(p_fixed, (grid.size, 1))), grid)
    monotone = bool(np.all(values[1:] <= values[:-1] + 1e-12))
    results.append(CheckResult("entropy", "nonadditive entropy non-increasing in q",
                               monotone, f"grid of {len(grid)} points on [0.5, 2]"))
    return results


# --- maxent suite ------------------------------------------------------------

_B_GRIDS = {
    0.5: np.linspace(-2.0, 2.0, 41),
    1.0: np.linspace(-2.0, 0.9, 41),
    1.5: np.linspace(-2.0, 0.38, 41),
    2.0: np.linspace(-2.0, 0.2499, 41),
    3.0: np.linspace(-2.0, 0.147, 41),
}


def run_maxent_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    worst_res = 0.0
    continuity_ok = True
    n_grid = 0
    for alpha, grid in _B_GRIDS.items():
        # the last entry checks that the branch starts at x(0) = 1
        x = solve_trinomial_array(alpha, np.append(grid, 1e-9))
        x, x_near_zero = x[:-1], x[-1]
        worst_res = max(worst_res,
                        float(np.max(np.abs(trinomial_residual(alpha, grid, x)))))
        continuity_ok &= bool(np.all(np.abs(np.diff(x)) <= 60.0 * (grid[1] - grid[0])))
        continuity_ok &= bool(abs(x_near_zero - 1.0) <= 1e-8)
        n_grid += grid.size
    results.append(_worst("maxent", "trinomial back-substitution", worst_res,
                          BACKSUB_TOL, n_grid))
    results.append(CheckResult("maxent", "root branch continuous with x(0) = 1",
                               continuity_ok, f"{n_grid} grid points"))

    worst_series = 0.0
    b_series = np.linspace(-0.2, 0.2, 21)
    for alpha in (0.5, 1.0, 2.0):
        closed = solve_trinomial_array(alpha, b_series)
        for b, x in zip(b_series, closed):
            x_series, _ = trinomial_series(alpha, float(b))
            worst_series = max(worst_series, abs(x_series - x))
    results.append(_worst("maxent", "series matches closed forms", worst_series,
                          SERIES_MATCH_TOL, 63))

    catalan_ok = True
    for n in range(1, 11):
        exact = math.comb(2 * n, n - 1) // n
        catalan_ok &= math.comb(2 * n, n - 1) % n == 0
        catalan_ok &= exact == math.comb(2 * n, n) // (n + 1)
        catalan_ok &= abs(series_coefficient(2.0, n) - exact) <= 1e-9 * exact
    results.append(CheckResult("maxent", "alpha = 2 coefficients are Catalan",
                               catalan_ok, "n = 1..10, integer identity"))

    xs = np.geomspace(1e-6, 1e6 + math.exp(-1.0), 1000) - math.exp(-1.0)
    w = lambert_w_array(xs)
    worst_w = float(np.max(np.abs(w * np.exp(w) - xs) / np.maximum(1.0, np.abs(xs))))
    w_zero, w_e = lambert_w_array([0.0, math.e])
    w_edges_ok = bool(w_zero == 0.0 and abs(w_e - 1.0) <= 1e-14)
    results.append(_worst("maxent", "Lambert W back-substitution", worst_w,
                          LAMBERT_TOL, len(xs)))
    results.append(CheckResult("maxent", "Lambert W anchors W(0) = 0, W(e) = 1",
                               w_edges_ok, "exact / 1e-14"))

    e3 = np.array([0.0, 1.0, 2.0])
    e5 = np.array([0.0, 0.5, 1.1, 1.7, 2.3])
    worst_stat = 0.0
    worst_reparam = 0.0
    all_converged = True
    for q in (0.8, 1.2):
        for alpha in (0.5, 1.0, 2.0):
            for e, omega in ((e3, 0.3), (e5, 0.25)):
                sol = solve_maxent(e, q, alpha, omega)
                all_converged &= sol.converged
                worst_stat = max(worst_stat, sol.stationarity_residual)
                # the Renyi coupling is the Tsallis one times Z_{q_alpha}
                renyi = solve_maxent_renyi(e, q, alpha, omega / sol.z_q_alpha.z)
                worst_reparam = max(worst_reparam,
                                    float(np.max(np.abs(renyi.probs - sol.probs))))
    results.append(_worst("maxent", "stationarity residual on (q, alpha) grid",
                          worst_stat, STATIONARITY_TOL, 12))
    results.append(CheckResult("maxent", "all grid solves converged",
                               all_converged, "12 problems"))
    results.append(_worst("maxent", "Renyi at omega/Z_{q_alpha} is Tsallis at omega",
                          worst_reparam, REPARAMETRIZATION_TOL, 12))

    worst_aff = 0.0
    for q in (0.8, 1.2):
        for solver in (solve_maxent, solve_maxent_renyi):
            sol = solver(e3, q, 1.0, 0.4)
            worst_aff = max(worst_aff, _affinity_residual(sol.probs, e3, q))
    results.append(_worst("maxent", "alpha = 1 roots are q-exponential",
                          worst_aff, AFFINITY_TOL, 4))

    worst_oracle = 0.0
    for q, alpha in ((1.2, 2.0), (0.8, 2.0), (1.2, 0.5)):
        sol = solve_maxent(e3, q, alpha, 0.3)
        p_oracle = simplex_constrained_maximizer(e3, q, alpha, sol.escort_mean)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(sol.probs - p_oracle))))
    results.append(_worst("maxent", "n = 3 simplex-grid oracle agreement",
                          worst_oracle, ORACLE_TOL, 3))

    sol_w = solve_maxent_shannon_limit(e3, 1.0 + 1e-7, 0.4)
    logits = -0.4 * e3
    gibbs = np.exp(logits - logits.max())
    gibbs /= gibbs.sum()
    gap_gibbs = float(np.max(np.abs(sol_w.probs - gibbs)))
    results.append(_worst("maxent", "shannon-limit solver matches Gibbs near q = 1",
                          gap_gibbs, GIBBS_LIMIT_TOL, 1))
    sol_w2 = solve_maxent_shannon_limit(np.array([0.0, 1.0]), 1.3, 0.4)
    results.append(_worst("maxent", "shannon-limit stationarity residual",
                          sol_w2.stationarity_residual, STATIONARITY_TOL, 1))

    # the one switch left at q = 1: the trinomial family at q = 1 +- 2e-9 and
    # the Gibbs kernel at q = 1
    e30 = np.linspace(0.0, 2.0, 30)
    worst_switch = 0.0
    for mode in ({"omega": 0.3}, {"target_mean": 0.8}):
        gibbs = solve_maxent(e30, 1.0, 1.5, **mode)
        for side in (1.0, -1.0):
            deformed = solve_maxent(e30, 1.0 + side * 2e-9, 1.5, **mode)
            worst_switch = max(worst_switch, float(np.max(np.abs(deformed.probs - gibbs.probs))))
    results.append(_worst("maxent", "Gibbs meets trinomial at q = 1",
                          worst_switch, Q_ONE_CONTINUITY_TOL, 4))

    # p_alpha approaches the Shannon limit as 1/alpha, and is it once
    # q_alpha rounds to 1
    shannon = solve_maxent_shannon_limit(e3, 1.3, target_mean=0.8).probs
    scaled = []
    for alpha in (10.0, 1e3, 1e5):
        p_alpha = solve_maxent(e3, 1.3, alpha, target_mean=0.8).probs
        scaled.append(alpha * float(np.max(np.abs(p_alpha - shannon))))
    results.append(_worst("maxent", "alpha * (p_alpha - p_inf) settles as alpha -> inf",
                          (max(scaled) - min(scaled)) / max(scaled), ALPHA_LIMIT_TOL, 3))
    rounded = solve_maxent(e3, 1.3, 1e17, target_mean=0.8).probs
    results.append(CheckResult("maxent", "q_alpha rounded to 1 is the Shannon limit",
                               bool(np.array_equal(rounded, shannon)),
                               "alpha = 1e17, bit for bit"))

    for name, sol in (
        ("omega = 0 gives uniform", solve_maxent(e3, 1.2, 2.0, 0.0)),
        ("degenerate spectrum gives uniform",
         solve_maxent(np.array([1.5, 1.5, 1.5]), 1.2, 2.0, 5.0)),
    ):
        gap = float(np.max(np.abs(sol.probs - 1.0 / sol.probs.size)))
        results.append(_worst("maxent", name, gap, 1e-12, 1))

    rows, q = _draw(rng, SAMPLES, 1, (0.0, 3.0))
    lhs, rhs = ent._bound_rows(ent._batch(rows), q)
    violations = int(np.count_nonzero(lhs > rhs + BOUND_SLACK))
    lhs, rhs = ent._bound_rows(ent._batch(_uniform_rows(range(2, 9))), np.full(7, 2.0))
    worst_bound = float(np.max(np.abs(lhs - rhs)))
    results.append(CheckResult(
        "maxent", "partition-sum Cauchy-Schwarz bound",
        violations == 0 and worst_bound <= BOUND_SLACK,
        f"{SAMPLES} samples, {violations} violations, "
        f"uniform equality gap {worst_bound:.3g}",
    ))
    return results


# points of the oracle's first scan along the constraint segment, and the
# rounds that refine it
_ORACLE_COARSE = 2001
_ORACLE_ROUNDS = 5


def simplex_constrained_maximizer(e, q: float, alpha: float,
                                  target_mean: float) -> np.ndarray:
    """Brute-force oracle for 3-level problems.

    Maximizes the rescaled nonadditive entropy over the 2-simplex with the
    q-escort mean pinned to ``target_mean``.  The constraint is linear in
    the escort rho = p^q/Z_q, so the feasible set is a segment in rho whose
    ends lie on two edges of the simplex, and p = rho^(1/q)/sum(rho^(1/q))
    on it.  The oracle scans the segment for the highest entropy and
    refines the scan around the best point.  Meant for q_alpha > 0, where
    the maximum is interior; shares no code with the trinomial-based
    solver but ``transform``.
    """
    e = np.asarray(e, dtype=float)
    if e.size != 3:
        raise DomainError("oracle is specific to 3-level spectra")
    q_alpha = dfm.transform(q, alpha)
    if q == 0.0 or q_alpha == 1.0:
        # the escort is uniform at q = 0, and the entropy below is 0/0 at
        # q_alpha = 1
        raise DomainError(f"oracle needs q != 0 and q_alpha != 1, got q = {q:g}, "
                          f"q_alpha = {q_alpha:g}")
    ends = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if e[i] != e[j] and 0.0 <= (r := (target_mean - e[j]) / (e[i] - e[j])) <= 1.0:
            # the end on the edge where the third level's escort weight is 0;
            # a target at a level's energy gives that vertex from two edges
            rho = [0.0, 0.0, 0.0]
            rho[i], rho[j] = r, 1.0 - r
            if rho not in ends:
                ends.append(rho)
    if len(ends) != 2:
        raise DomainError("oracle found no feasible point on the constraint")
    a, b = np.array(ends)

    def best_on(s: np.ndarray) -> tuple[float, np.ndarray]:
        """The point (s, p) of highest entropy; ties go to the first."""
        p = np.float_power(a + s[:, None] * (b - a), 1.0 / q)
        p /= p.sum(axis=1, keepdims=True)
        entropy = (np.float_power(p, q_alpha).sum(axis=1) - 1.0) / (1.0 - q_alpha)
        i = int(np.argmax(entropy))
        return float(s[i]), p[i]

    eps = 1e-12
    s = np.linspace(eps, 1.0 - eps, _ORACLE_COARSE)
    for _ in range(_ORACLE_ROUNDS):
        center, _ = best_on(s)
        span = 2.0 * (s[1] - s[0])
        s = np.linspace(max(eps, center - span), min(1.0 - eps, center + span), 41)
    return best_on(s)[1]


SUITES = {
    "group": run_group_suite,
    "algebra": run_algebra_suite,
    "entropy": run_entropy_suite,
    "maxent": run_maxent_suite,
}


def run_suite(name: str, seed: int) -> list[CheckResult]:
    """Run one named suite (or ``all``) and return its results."""
    if name == "all":
        results: list[CheckResult] = []
        for suite in SUITES.values():
            results.extend(suite(seed))
        return results
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; pick from "
                          f"{sorted(SUITES)} or 'all'")
    return SUITES[name](seed)
