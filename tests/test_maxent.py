import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtherm import maxent
from qtherm.checks import REPARAMETRIZATION_TOL, simplex_constrained_maximizer
from qtherm.deformation import transform
from qtherm.entropy import escort_mean, partition_bound_check
from qtherm.errors import DomainError, NonConvergenceError, NoRealRootError, QThermError
from qtherm.maxent import (
    _affinity_residual,
    _evaluate,
    _Shannon,
    _Trinomial,
    as_spectrum,
    solve_maxent,
    solve_maxent_renyi,
    solve_maxent_shannon_limit,
)
from qtherm.trinomial import series_radius

E3 = np.array([0.0, 1.0, 2.0])
E5 = np.array([0.0, 0.5, 1.1, 1.7, 2.3])
E5_GAPPED = np.array([0.0, 0.0, 2.0, 0.0, 2.0])
# |q - 1| from 2e-9 to 1e-6, where the O(1/(q - 1)) terms of the trinomial
# family cancel
Q_NEAR_ONE = [1.0 + 1e-7, 1.0 + 1e-8, 1.0 + 2e-9, 1.0 - 2e-9, 1.0 + 1e-6]

# a fuzz failure in target mode at alpha just above 1 (see TestTargetMeanMode)
E18_WIDE = np.round(np.linspace(4006.7, 131073.98, 18), 2)
Q_FUZZ, ALPHA_FUZZ, TARGET_FUZZ = 1.0000005982085276, 1.011454735190145, 106186.1942746612


def _recorded_maps(monkeypatch) -> list:
    """The b of every level map that the solves after this call make."""
    maps = []
    for family in (_Trinomial, _Shannon):
        def recorded(self, b, start, level_map=family.level_map):
            maps.append(b)
            return level_map(self, b, start)
        monkeypatch.setattr(family, "level_map", recorded)
    return maps


def independent_gibbs(e, omega):
    """Oracle: direct Boltzmann factor, no shared solver code."""
    weights = [math.exp(-omega * x) for x in e]
    total = sum(weights)
    return np.array([w / total for w in weights])


class TestSpectrumValidation:
    def test_rejects_single_level(self):
        with pytest.raises(DomainError):
            as_spectrum([1.0])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            as_spectrum([0.0, math.nan])

    def test_allows_degenerate(self):
        assert as_spectrum([2.0, 2.0]).tolist() == [2.0, 2.0]

    def test_rejects_two_dimensional(self):
        with pytest.raises(DomainError, match=r"1-D energy spectrum, got shape \(2, 3\)"):
            as_spectrum(np.ones((2, 3)))


class TestSolveMaxent:
    def test_free_problem_is_uniform(self):
        for q, alpha in ((0.8, 0.5), (1.2, 2.0), (2.0, 1.0)):
            sol = solve_maxent(E3, q, alpha, 0.0)
            assert sol.converged
            assert sol.probs == pytest.approx([1 / 3] * 3, abs=1e-13)
            assert sol.stationarity_residual <= 1e-12

    def test_degenerate_spectrum_is_uniform(self):
        sol = solve_maxent(np.array([1.5, 1.5, 1.5]), 1.2, 2.0, 5.0)
        assert sol.probs == pytest.approx([1 / 3] * 3, abs=1e-13)

    @pytest.mark.parametrize("q", [0.8, 1.2])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_stationarity_on_grid(self, q, alpha):
        for e, omega in ((E3, 0.3), (E5, 0.25)):
            sol = solve_maxent(e, q, alpha, omega)
            assert sol.converged
            assert sol.stationarity_residual <= 1e-8
            assert sol.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(sol.probs > 0.0)

    @pytest.mark.parametrize("e,q,alpha,omega", [
        (np.linspace(0.0, 2.0, 3000), 0.8, 0.5, 0.3),
        (np.linspace(0.0, 2.0, 3), 0.8, 0.7, 8.0),
        # just below alpha = 1 the closed-form bound on the root overflows
        (np.linspace(0.0, 2.0, 10), 1.2, 0.9999, 0.3),
    ] + [(np.linspace(0.0, 2.0, n), 1.2, alpha, 0.3)
         for n in (3, 3000, 30000) for alpha in (0.7, 1.5, 2.0)]
      # the q -> 1 crossover just outside the Gibbs branch
      + [(np.linspace(0.0, 2.0, 30), q, 1.5, 0.3) for q in Q_NEAR_ONE]
      # Omega*coupling of the uniform distribution puts b past the critical
      # value, yet a certified solution exists
      + [(np.linspace(0.0, 2.0, 30), 1.5, 3.0, 2.0),
         (np.linspace(0.0, 2.0, 3000), 1.2, 1.5, 3.0)]
      # a cluster of levels above an isolated ground level: |F| has a fold
      # where det J changes sign, on which Newton steps alone stall
      + [(np.array([0.0, 0.19, 0.2, 0.21, 0.22, 0.23, 2.0]), 0.5, 0.7, 26.0),
         (np.array([0.0, 0.3, 0.31, 0.32, 0.33, 0.34, 2.0]), 0.6, 0.7, 15.0)])
    def test_converged_means_certified(self, e, q, alpha, omega):
        # the iteration stops on the residual itself, at any size n
        sol = solve_maxent(e, q, alpha, omega)
        assert sol.converged
        assert sol.stationarity_residual <= 1e-8

    @pytest.mark.parametrize("offset,omega", [(1e9, 3.0), (1e12, 1e-4)])
    def test_gibbs_answer_above_the_stop_is_not_converged(self, offset, omega):
        # the closed-form Gibbs kernel certifies like every other family:
        # far from E = 0 its residual ends at 1.7e-7 and 1.6e-8
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_maxent(offset + np.linspace(0.0, 1.0, 5), 1.0, 2.0, omega)
        sol = excinfo.value.solution
        assert not sol.converged
        assert sol.stationarity_residual > 1e-9

    @pytest.mark.parametrize("n", [3, 3000, 30000])
    @pytest.mark.parametrize("alpha", [0.7, 1.5, 2.0])
    @pytest.mark.parametrize("q", [0.8, 1.2])
    def test_newton_steps_bounded(self, q, alpha, n):
        # a work count, never a timing
        sol = solve_maxent(np.linspace(0.0, 2.0, n), q, alpha, 0.3)
        assert sol.converged
        assert sol.iterations <= 10

    @pytest.mark.parametrize("solve,rejected", [
        (lambda: solve_maxent(np.linspace(0.0, 2.0, 30), 1.2, 1.5, 0.3), 0),
        # each of these takes one trial point where a level has no real root
        (lambda: solve_maxent(E3, 3.0, 2.0, -5.0), 1),
        (lambda: solve_maxent_renyi(E3, 3.0, 2.0, -20.0), 1),
        (lambda: solve_maxent_shannon_limit(E3, 2.0, 5.0), 1),
    ], ids=["tsallis", "tsallis-rejected", "renyi-rejected", "shannon-rejected"])
    def test_one_level_map_per_step_and_rejected_trial(self, monkeypatch, solve, rejected):
        # the uniform start costs no level map, so a solve of k Newton steps
        # makes k maps plus one per trial point that is not taken
        maps, failed = [], []
        for family in (_Trinomial, _Shannon):
            def recorded(self, b, start, level_map=family.level_map):
                maps.append(b)
                try:
                    return level_map(self, b, start)
                except NoRealRootError:
                    failed.append(b)
                    raise
            monkeypatch.setattr(family, "level_map", recorded)
        sol = solve()
        assert sol.converged
        assert len(failed) == rejected
        assert len(maps) == sol.iterations + rejected
        assert all(np.any(b) for b in maps)

    def test_trial_with_non_finite_newton_system_is_rejected(self, monkeypatch):
        # a NaN coupling at the first trial point makes F not finite: the
        # trial is rejected, the step retried with half the pseudo-time step
        # from the uniform start's roots, not from the rejected trial's, and
        # the solve still certifies with one extra level map
        e = np.linspace(0.0, 2.0, 30)
        maps, starts = [], []
        real_map, real_terms = _Trinomial.level_map, _Trinomial.terms

        def level_map(self, b, start):
            maps.append(b)
            starts.append(start)
            return real_map(self, b, start)

        def terms(self, p, weights, z_q):
            coupling, *rest = real_terms(self, p, weights, z_q)
            return (math.nan if len(maps) == 1 else coupling), *rest

        monkeypatch.setattr(_Trinomial, "level_map", level_map)
        plain = solve_maxent(e, 1.2, 1.5, 0.3)
        assert len(maps) == plain.iterations
        maps.clear()
        starts.clear()
        monkeypatch.setattr(_Trinomial, "terms", terms)
        sol = solve_maxent(e, 1.2, 1.5, 0.3)
        assert sol.converged
        assert len(maps) == sol.iterations + 1
        assert starts[1] is starts[0]
        assert sol.probs == pytest.approx(plain.probs, rel=1e-9)

    def test_level_map_of_non_finite_b_is_domain_error(self):
        # the kernel's error for a b that is not finite, which a Newton point
        # takes for a trial point that is not taken
        fam = _Trinomial(E3, 1.2, 1.5, transform(1.2, 1.5), False)
        with np.errstate(all="ignore"):
            for b in ([0.1, math.inf, 0.2], [0.1, math.nan, 0.2]):
                with pytest.raises(DomainError, match="b must be finite"):
                    fam.level_map(np.array(b), None)
            assert maxent._newton_point(fam, math.inf, 1.0, 0.3, None) is None

    @pytest.mark.parametrize("q", [0.8, 1.2])
    def test_alpha_one_is_q_exponential(self, q):
        # membership in the q-exponential family: p^(1-q) affine in E
        sol = solve_maxent(E3, q, 1.0, 0.5)
        assert _affinity_residual(sol.probs, E3, q) <= 1e-8

    def test_diagnostics_are_consistent(self):
        q, alpha, omega = 1.2, 2.0, 0.3
        sol = solve_maxent(E3, q, alpha, omega)
        q_a = transform(q, alpha)
        assert sol.z_q.q_used == q
        assert sol.z_q_alpha.q_used == q_a
        assert sol.z_q.z == pytest.approx(float(np.sum(sol.probs**q)), rel=1e-14)
        assert sol.phi == pytest.approx(q_a / (1.0 - q_a) * sol.z_q_alpha.z, rel=1e-14)
        assert sol.escort_mean == pytest.approx(
            escort_mean(sol.probs, E3, q), rel=1e-12)
        assert sol.omega == omega

    @pytest.mark.parametrize("q,alpha", [(1.2, 2.0), (0.8, 2.0), (1.2, 0.5)])
    def test_against_simplex_oracle(self, q, alpha):
        sol = solve_maxent(E3, q, alpha, 0.3)
        p_oracle = simplex_constrained_maximizer(E3, q, alpha, sol.escort_mean)
        assert np.max(np.abs(sol.probs - p_oracle)) <= 1e-4

    def test_classical_branch_is_gibbs(self):
        sol = solve_maxent(E3, 1.0, 2.0, 0.7)
        assert sol.probs == pytest.approx(independent_gibbs(E3, 0.7), abs=1e-14)
        assert sol.stationarity_residual <= 1e-12

    def test_no_real_root_names_level(self):
        # target mode reaches only |omega| <= 1.66 here
        with pytest.raises(NoRealRootError) as excinfo:
            solve_maxent(E3, 0.8, 2.0, 50.0)
        assert excinfo.value.level is not None
        assert excinfo.value.b is not None

    @pytest.mark.parametrize("solve", [
        lambda e: solve_maxent(e, 0.8, 2.0, 50.0),
        lambda e: solve_maxent(e, 0.8, 3.0, 50.0),
        lambda e: solve_maxent_shannon_limit(e, 0.7, 10.0),
    ])
    def test_first_level_without_root_is_named(self, solve):
        # levels 2 and 4 both leave the real-root region on the first sweep
        with pytest.raises(NoRealRootError) as excinfo:
            solve(E5_GAPPED)
        assert excinfo.value.level == 2
        assert str(excinfo.value).startswith("level 2 (E = 2): ")

    @pytest.mark.parametrize("e,solve", [
        (E3, lambda e, m: solve_maxent(e, 0.8, 2.0, target_mean=m)),
        (E5_GAPPED, lambda e, m: solve_maxent(e, 0.8, 2.0, target_mean=m)),
        (E5_GAPPED, lambda e, m: solve_maxent(e, 0.8, 3.0, target_mean=m)),
        (E5_GAPPED, lambda e, m: solve_maxent_shannon_limit(e, 0.7, target_mean=m)),
        (np.array([0.0, 1.0]),
         lambda e, m: solve_maxent_shannon_limit(e, 0.7, target_mean=m)),
    ], ids=["tsallis-3", "tsallis-gapped-2", "tsallis-gapped-3", "shannon-gapped",
            "shannon-two-level"])
    def test_no_real_root_inputs_are_unattainable(self, e, solve):
        # every escort mean that target mode reaches has |omega| < 10, so the
        # fixed-omega inputs above (|omega| >= 10) have no solution to miss
        lo, hi = e.min(), e.max()
        ends = [10.0**-k for k in range(1, 16)]
        means = (list(np.linspace(lo, hi, 41)[1:-1])
                 + [lo + d for d in ends] + [hi - d for d in ends])
        for m in means:
            try:
                omega = solve(e, m).omega
            except DomainError:
                continue
            assert abs(omega) < 10.0

    def test_non_convergence_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(maxent, "MAX_ITER", 2)
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_maxent(E3, 1.2, 2.0, 0.3)
        sol = excinfo.value.solution
        assert sol is not None
        assert not sol.converged
        assert sol.iterations == 2

    @pytest.mark.parametrize("solve", [
        # Z_{q_alpha}, a sum of p^167.75, underflows at the uniform start
        lambda: solve_maxent(np.linspace(-1e4, 1e4, 100), 2.75, 0.0105, -0.01),
        lambda: solve_maxent_renyi(np.linspace(-1e4, 1e4, 100), 2.75, 0.0105, -0.01),
        lambda: solve_maxent(np.linspace(-1e4, 1e4, 100), 2.75, 0.0105,
                             target_mean=-0.01),
        # the Gibbs weight exp(-1e4) of the upper level
        lambda: solve_maxent(np.array([0.0, 1e4]), 1.0, 1.0, 1.0),
    ])
    def test_underflow_carries_last_iterate(self, solve):
        with pytest.raises(NonConvergenceError, match="underflows to 0") as excinfo:
            solve()
        sol = excinfo.value.solution
        assert not sol.converged
        assert sol.probs.min() == 0.0 or sol.z_q_alpha.z == 0.0

    def test_step_that_no_longer_moves_raises(self):
        # a spread of 0.005 at an offset of -1e6: E - m keeps too few digits
        # for a Newton step to change (lambda, m) once the residual is near
        # 1e-8.  Centring the spectrum before the solve (ROADMAP item 2)
        # would certify this input and turn this test around.
        with pytest.raises(NonConvergenceError,
                           match=r"no longer moves \(lambda, m\) at step 11") as excinfo:
            solve_maxent_renyi(-1e6 + np.linspace(0.0, 0.005, 300), 1.0 + 9e-7, 0.04, -305.0)
        assert not excinfo.value.solution.converged

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            solve_maxent(E3, 1.2, -1.0, 0.3)

    @pytest.mark.parametrize("solve", [solve_maxent, solve_maxent_renyi])
    @pytest.mark.parametrize("q,alpha", [(1.2, 1e16), (1.2, 1e300), (0.8, 1e17)])
    @pytest.mark.parametrize("mode", [{"omega": 0.3}, {"target_mean": 0.8}])
    def test_q_alpha_rounded_to_one_is_domain_error(self, solve, q, alpha, mode):
        # 1 + (q - 1)/alpha rounds to 1 although q does not; S_1 is Shannon's
        # entropy, so the answer is the Shannon limit's, bit for bit
        sol = solve(E3, q, alpha, **mode)
        limit = solve_maxent_shannon_limit(E3, q, **mode)
        assert np.array_equal(sol.probs, limit.probs)
        assert sol.iterations == limit.iterations

    @pytest.mark.parametrize("solve", [solve_maxent, solve_maxent_renyi])
    @pytest.mark.parametrize("q", [0.8, 1.0, 1.3])
    @pytest.mark.parametrize("mode", [{"omega": 0.4}, {"target_mean": 0.8}])
    def test_alpha_inf_is_the_shannon_limit(self, solve, q, mode):
        # alpha = inf is the group element that sends every q to 1
        sol = solve(E3, q, math.inf, **mode)
        limit = solve_maxent_shannon_limit(E3, q, **mode)
        assert sol.converged
        assert np.array_equal(sol.probs, limit.probs)
        assert (sol.iterations, sol.omega, sol.stationarity_residual) == (
            limit.iterations, limit.omega, limit.stationarity_residual)

    @pytest.mark.parametrize("solve", [solve_maxent, solve_maxent_renyi])
    @pytest.mark.parametrize("alpha", [math.nan, -math.inf, 0.0])
    def test_rejects_alpha_outside_the_group(self, solve, alpha):
        with pytest.raises(DomainError, match="alpha must be positive"):
            solve(E3, 1.2, alpha, 0.3)

    def test_gibbs_kernel_at_q_one(self):
        # q = 1 takes the closed-form Gibbs weights without a Newton step
        sol = solve_maxent(E3, 1.0, 2.0, 1.0)
        assert sol.iterations == 0
        assert np.max(np.abs(sol.probs - independent_gibbs(E3, 1.0))) <= 1e-14

    def test_needs_exactly_one_mode(self):
        with pytest.raises(DomainError):
            solve_maxent(E3, 1.2, 2.0)
        with pytest.raises(DomainError):
            solve_maxent(E3, 1.2, 2.0, 0.3, target_mean=0.5)


class TestTargetMeanMode:
    def test_hits_target(self):
        sol = solve_maxent(E3, 1.2, 2.0, target_mean=0.6)
        assert sol.converged
        assert sol.escort_mean == pytest.approx(0.6, abs=1e-9)
        assert sol.stationarity_residual <= 1e-8
        # the resolved omega reproduces the same distribution
        again = solve_maxent(E3, 1.2, 2.0, sol.omega)
        assert np.max(np.abs(again.probs - sol.probs)) <= 1e-9

    def test_default_bracket_survives_infeasible_endpoints(self):
        # near the edge of the real-root region at alpha = 2
        sol = solve_maxent(E3, 1.2, 2.0, target_mean=0.9)
        assert sol.escort_mean == pytest.approx(0.9, abs=1e-9)

    def test_shannon_limit_target(self):
        sol = solve_maxent_shannon_limit(E3, 1.2, target_mean=0.8)
        assert sol.escort_mean == pytest.approx(0.8, abs=1e-9)

    def test_rejects_target_outside_spectrum(self):
        with pytest.raises(DomainError):
            solve_maxent(E3, 1.2, 2.0, target_mean=2.5)

    @pytest.mark.parametrize("solve,target", [
        # refused by an omega search whose bracket had shrunk
        (lambda e, t: solve_maxent_shannon_limit(e, 1.3, target_mean=t), 0.6),
        (lambda e, t: solve_maxent(e, 0.8, 1.5, target_mean=t), 0.6),
        # unbounded multiplier interval (alpha < 1), open edge (alpha = 1)
        (lambda e, t: solve_maxent_renyi(e, 0.8, 0.5, target_mean=t), 0.05),
        (lambda e, t: solve_maxent(e, 1.2, 1.0, target_mean=t), 1.95),
    ])
    def test_attainable_target_solves(self, solve, target):
        sol = solve(np.linspace(0.0, 2.0, 30), target)
        assert sol.converged
        assert sol.escort_mean == pytest.approx(target, abs=1e-12)
        assert sol.stationarity_residual <= 1e-8

    @pytest.mark.parametrize("q", Q_NEAR_ONE)
    def test_certifies_near_q_one(self, q):
        sol = solve_maxent(np.linspace(0.0, 2.0, 30), q, 1.5, target_mean=0.8)
        assert sol.converged
        assert sol.stationarity_residual <= 1e-8
        # lambda is O(q - 1) here, and the Newton step tolerance in it scales so
        assert sol.escort_mean == pytest.approx(0.8, abs=1e-12)
        # a Brent root find over the O(1) bracket took 17-38 iterations
        assert sol.iterations <= 8

    @pytest.mark.parametrize("solve,match", [
        # the Gibbs weights reach the spectrum's ends only as omega -> inf
        (lambda: solve_maxent(E3, 1.0, 2.0, target_mean=0.0), r"\(0, 2\)"),
        # at alpha = 2 every b stays at most 1/4, which keeps the mean off 0.2
        (lambda: solve_maxent(E3, 0.8, 2.0, target_mean=0.2), r"\[0\.218"),
    ])
    def test_target_at_or_beyond_attainable_edge(self, solve, match):
        with pytest.raises(DomainError, match=match):
            solve()

    def test_degenerate_spectrum_at_its_level(self):
        sol = solve_maxent(np.array([1.5, 1.5, 1.5]), 1.2, 2.0, target_mean=1.5)
        assert sol.probs == pytest.approx([1 / 3] * 3, abs=1e-15)
        assert sol.omega == 0.0
        assert sol.stationarity_residual <= 1e-12

    @pytest.mark.parametrize("q,alpha", [(1.0, 2.0), (0.8, 0.5)])
    def test_unbounded_interval_doubles_its_lower_end(self, monkeypatch, q, alpha):
        # a target by the top of the spectrum: the probes start at
        # lambda = -/+1/max|E - target| and double the lower end six times
        # before the gap changes sign
        e, target = np.linspace(0.0, 2.0, 30), 1.99
        lams = []
        for family in (_Trinomial, _Shannon):
            def recorded(self, b, start, level_map=family.level_map):
                lams.append(b[0] / (e[0] - target))
                return level_map(self, b, start)
            monkeypatch.setattr(family, "level_map", recorded)
        sol = solve_maxent(e, q, alpha, target_mean=target)
        assert sol.converged
        assert sol.escort_mean == pytest.approx(target, abs=1e-9)
        doubled = [-1.0, 1.0, -2.0, -4.0, -8.0, -16.0, -32.0, -64.0]
        assert lams[:8] == pytest.approx(np.array(doubled) / (target - e[0]), rel=1e-15)
        # then one map per Newton step: the start at lambda = 0 is the
        # uniform distribution, which costs none
        assert len(lams) == 8 + sol.iterations
        assert 0.0 not in lams

    @pytest.mark.parametrize("solve", [
        lambda e: solve_maxent(e, 1.2, 1.5, target_mean=0.8),
        lambda e: solve_maxent_renyi(e, 0.8, 3.0, target_mean=0.8),
        lambda e: solve_maxent_shannon_limit(e, 1.3, target_mean=0.8),
    ], ids=["tsallis", "renyi", "shannon"])
    def test_bounded_interval_maps_only_the_newton_steps(self, monkeypatch, solve):
        # the gap runs the way of its slope at the uniform start, so no end
        # of the bounded interval is probed
        maps = _recorded_maps(monkeypatch)
        sol = solve(np.linspace(0.0, 2.0, 30))
        assert sol.converged
        assert sol.iterations == 4
        assert len(maps) == sol.iterations

    def test_zero_slope_at_the_start_probes_the_ends(self):
        # at q = 0 every escort weight is 1, so the slope of the gap is 0 at
        # the start and its direction comes from the two ends
        with pytest.raises(DomainError, match=r"spans only \[") as excinfo:
            solve_maxent(np.linspace(0.0, 2.0, 5), 0.0, 2.0, target_mean=0.7)
        span = re.search(r"\[(.*), (.*)\]", str(excinfo.value)).groups()
        assert [float(x) for x in span] == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_step_out_of_the_bracket_probes_the_ends_once(self, monkeypatch):
        # the first Newton step leaves the interval below the W edge, so both
        # ends are probed, once, and the step bisects [0, hi] instead
        e, q, target = np.linspace(0.0, 2.0, 9), 0.75, 0.65
        maps = _recorded_maps(monkeypatch)
        sol = solve_maxent_shannon_limit(e, q, target_mean=target)
        assert sol.converged
        assert sol.escort_mean == pytest.approx(target, abs=1e-12)
        lams = [b[0] / (e[0] - target) for b in maps]
        edge = math.exp(-1.0) / (1.0 - q)
        lo, hi = edge / (e[0] - target), edge / (e[-1] - target)
        assert lams[:3] == pytest.approx([lo, hi, 0.5 * hi], rel=1e-15)
        assert len(maps) == sol.iterations + 2

    def test_wrong_start_direction_is_mended_by_the_ends(self, monkeypatch):
        # with the slopes at the start negated, the gap's direction is read
        # the wrong way round; the first probe of the ends sets it right and
        # the solve reaches the answer of the true direction
        e = np.linspace(0.0, 2.0, 30)
        expected = solve_maxent(e, 1.2, 1.5, target_mean=0.8)
        real = _Trinomial.uniform

        def uniform(self):
            p, slope, start = real(self)
            return p, -slope, start

        monkeypatch.setattr(_Trinomial, "uniform", uniform)
        maps = _recorded_maps(monkeypatch)
        sol = solve_maxent(e, 1.2, 1.5, target_mean=0.8)
        assert sol.converged
        assert sol.probs == pytest.approx(expected.probs, rel=1e-12)
        assert len(maps) == sol.iterations + 2

    def test_stop_with_the_gap_open_probes_the_ends(self, monkeypatch):
        # a step tolerance of 1000*|lambda| stops the iteration after one
        # step with the gap still open; the guard then probes both ends
        # before the answer is judged
        monkeypatch.setattr(maxent, "_RTOL", 1e3)
        e = np.linspace(0.0, 2.0, 30)
        maps = _recorded_maps(monkeypatch)
        with pytest.raises(NonConvergenceError, match="does not certify") as excinfo:
            solve_maxent(e, 1.2, 1.5, target_mean=0.8)
        assert excinfo.value.solution.iterations == 1
        b_max = series_radius(1.5)
        lams = [b[0] / (e[0] - 0.8) for b in maps]
        assert lams[1:] == pytest.approx([b_max / (e[0] - 0.8), b_max / (e[-1] - 0.8)],
                                         rel=1e-15)

    @pytest.mark.parametrize("e,q,alpha", [
        (np.linspace(0.0, 2.0, 3), -1000.0, 2.0),
        # the doubling of an unbounded interval
        (np.linspace(0.0, 2.0, 3), -1000.0, 0.5),
        (np.linspace(0.0, 2.0, 10), -300.0, 1.0),
    ], ids=["alpha-2", "alpha-half", "alpha-1-n10"])
    def test_gap_that_is_not_a_number_raises(self, e, q, alpha):
        # p^q overflows: the gap is NaN at a probe, which read as a target
        # not attainable with the span [nan, nan]
        with pytest.raises(NonConvergenceError, match=r"escort-mean gap at lambda = .* is nan"):
            solve_maxent(e, q, alpha, target_mean=0.3)

    def test_non_convergence_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(maxent, "MAX_ITER", 2)
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_maxent(E3, 1.2, 2.0, target_mean=0.6)
        sol = excinfo.value.solution
        assert not sol.converged
        assert sol.iterations == 2

    def test_probe_underflow_raises(self):
        # Z_q, a sum of p^200 over 1000 levels, underflows at the first probe,
        # before any iterate exists
        with pytest.raises(NonConvergenceError, match="underflows to 0"):
            solve_maxent(np.linspace(0.0, 2.0, 1000), 200.0, 1.0, target_mean=1.0)

    def test_overflowing_coupling_raises(self):
        # Z_{q_alpha}^(alpha - 1) overflows, so omega = lambda/inf would be -0
        with pytest.raises(NonConvergenceError, match="coupling") as excinfo:
            solve_maxent(np.linspace(-1e4, 1e4, 100), 2.75, 0.0105, target_mean=3000.0)
        assert not excinfo.value.solution.converged

    def test_vanishing_coupling_raises(self):
        # q_alpha = -197, so Z_{q_alpha}^(alpha - 1) and with it the coupling
        # underflow to 0: omega = lambda/0 raised a bare ZeroDivisionError
        with pytest.raises(NonConvergenceError, match="coupling lambda/omega is 0") as excinfo:
            solve_maxent(np.linspace(0.0, 2.0, 30), -0.98, 0.01, target_mean=1.5)
        assert not excinfo.value.solution.converged

    def test_uncertified_answer_raises(self):
        # q_alpha = -1 here and omega comes out near -3e15: the stationarity
        # terms are too large for an absolute residual of 1e-8
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_maxent(np.linspace(0.0, 2.0, 10), 0.8, 0.1, target_mean=1e-6)
        sol = excinfo.value.solution
        assert not sol.converged
        assert sol.stationarity_residual > 1e-8

    @pytest.mark.parametrize("solve", [solve_maxent, solve_maxent_renyi])
    def test_alpha_just_above_one_certifies(self, solve):
        # an 18-level fuzz input: at alpha = 1.0115 a level once took the far
        # trinomial root (about 5e305), and the gap was NaN inside the bracket
        sol = solve(E18_WIDE, Q_FUZZ, ALPHA_FUZZ, target_mean=TARGET_FUZZ)
        assert sol.converged
        assert sol.stationarity_residual <= 1e-14
        assert sol.escort_mean == pytest.approx(TARGET_FUZZ, rel=1e-12)


# q inside (-0.9, 3.9) or within 1e-9..1e-3 of 1; alpha across seven decades
# or one of the named values
TARGET_Q = st.one_of(
    st.floats(-0.9, 3.9, exclude_min=True, exclude_max=True),
    st.builds(lambda side, power: 1.0 + side * 10.0**power,
              st.sampled_from([-1.0, 1.0]), st.floats(-9.0, -3.0)))
TARGET_ALPHA = st.one_of(st.builds(lambda power: 10.0**power, st.floats(-3.0, 4.0)),
                         st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(family=st.sampled_from(["tsallis", "renyi", "shannon"]),
       n=st.one_of(st.integers(2, 40), st.integers(100, 3000)),
       seed=st.integers(0, 2**32 - 1), q=TARGET_Q, alpha=TARGET_ALPHA,
       target=st.floats(0.02, 1.98))
def test_target_mode_certifies_or_raises(family, n, seed, q, alpha, target):
    # a sorted uniform spectrum on [0, 2] with both ends in it
    e = np.sort(np.random.default_rng(seed).uniform(0.0, 2.0, n))
    e[0], e[-1] = 0.0, 2.0
    try:
        if family == "shannon":
            sol = solve_maxent_shannon_limit(e, q, target_mean=target)
        elif family == "renyi":
            sol = solve_maxent_renyi(e, q, alpha, target_mean=target)
        else:
            sol = solve_maxent(e, q, alpha, target_mean=target)
    except QThermError:
        return
    assert sol.converged
    assert sol.stationarity_residual <= maxent.STOP_RESIDUAL
    assert abs(sol.escort_mean - target) <= 1e-10 * max(1.0, abs(target))


def test_gap_runs_the_way_of_its_slope_at_the_start():
    # the premise of the target-mode solve on a bounded interval: the sign of
    # the gap's slope at lambda = 0 is the sign of g(hi) - g(lo) over the
    # interval; 200 problems of the benchmark's range
    rng = np.random.default_rng(2025)
    compared = 0
    while compared < 200:
        n = int(rng.integers(2, 60))
        e = np.sort(rng.uniform(0.0, 2.0, n))
        e[0], e[-1] = 0.0, 2.0
        family = rng.choice(["tsallis", "renyi", "shannon"])
        q = rng.uniform(0.5, 1.5) if family == "shannon" else rng.uniform(-0.5, 3.0)
        alpha = (10.0 ** rng.uniform(0.0, 1.5) if rng.uniform() < 0.7
                 else rng.choice([1.0, 1.5, 2.0, 3.0]))
        de = e - rng.uniform(0.02, 1.98)
        if family == "shannon" or transform(q, alpha) == 1.0:
            fam = _Shannon(e, q)
        else:
            fam = _Trinomial(e, q, alpha, transform(q, alpha), family == "renyi")
        b_min, b_max = fam.b_range
        lo, hi = maxent._feasible(fam, de.min(), de.max())
        p, slope, start = fam.uniform()
        escort = p**q / np.sum(p**q)
        g = np.dot(escort, de)
        slope_at_start = q * np.dot(escort * (de - g), slope * de)
        gaps = []
        with np.errstate(all="ignore"):
            for lam in (lo, hi):
                p, _, start = fam.level_map(np.clip(lam * de, b_min, b_max), start)
                gaps.append(np.dot(p**q, de) / np.sum(p**q))
        if not np.all(np.isfinite(gaps)) or gaps[0] == gaps[1]:
            continue
        assert np.sign(slope_at_start) == np.sign(gaps[1] - gaps[0])
        compared += 1


# Every way a solve ends with a carried solution, as (MAX_ITER or None, the
# solve, the start of its message, the iterations of the carried solution)
CARRIED_FAILURES = {
    "no-longer-moves": (None, lambda: solve_maxent_renyi(
        -1e6 + np.linspace(0.0, 0.005, 300), 1.0 + 9e-7, 0.04, -305.0),
        "the Newton step no longer moves (lambda, m) at step 11 (residual", 10),
    # every level keeps a real root on the first sweep, so no NoRealRootError
    "stall": (None, lambda: solve_maxent_renyi(np.array([-0.6, 1.0, 2.6]), 0.6, 2.0, 1.0),
              "the Newton step stalls at step 14 (residual", 13),
    "fixed-omega-max-iter": (2, lambda: solve_maxent(E3, 1.2, 2.0, 0.3),
                             "no convergence after 2 Newton steps (residual", 2),
    "not-certified": (None, lambda: solve_maxent(
        np.linspace(0.0, 2.0, 10), 0.8, 0.1, target_mean=1e-6),
        "the answer does not certify: residual", 24),
    "not-certified-gibbs": (None, lambda: solve_maxent(
        1e9 + np.linspace(0.0, 1.0, 5), 1.0, 2.0, 3.0),
        "the answer does not certify: residual", 0),
    "underflow": (None, lambda: solve_maxent(np.linspace(-1e4, 1e4, 100), 2.75, 0.0105, -0.01),
                  "a level or a partition sum underflows to 0 (iteration 0)", 0),
    "underflow-target": (None, lambda: solve_maxent(
        np.linspace(-1e4, 1e4, 100), 2.75, 0.0105, target_mean=-0.01),
        "a level or a partition sum underflows to 0 (iteration 6)", 6),
    "lost-coupling": (None, lambda: solve_maxent(
        np.linspace(0.0, 2.0, 30), -0.98, 0.01, target_mean=1.5),
        "the coupling lambda/omega is 0 at the target, so omega = lambda/0 is lost", 6),
    "target-max-iter": (2, lambda: solve_maxent(E3, 1.2, 2.0, target_mean=0.6),
                        "no convergence after 2 Newton steps in lambda", 2),
}


@pytest.mark.parametrize("max_iter,solve,message,iterations", CARRIED_FAILURES.values(),
                         ids=CARRIED_FAILURES.keys())
def test_carried_failure(monkeypatch, max_iter, solve, message, iterations):
    # the underflow is named before the mode's own failure, and that before
    # the certificate; the carried solution is never converged
    if max_iter is not None:
        monkeypatch.setattr(maxent, "MAX_ITER", max_iter)
    with pytest.raises(NonConvergenceError) as excinfo:
        solve()
    assert str(excinfo.value).startswith(message)
    sol = excinfo.value.solution
    assert sol.converged is False
    assert sol.iterations == iterations


MODES = [{"omega": 0.3}, {"target_mean": 0.8}]
FAMILIES_NEAR_ONE = {
    "tsallis": lambda e, q, **mode: solve_maxent(e, q, 1.5, **mode),
    "renyi": lambda e, q, **mode: solve_maxent_renyi(e, q, 2.0, **mode),
    "shannon": lambda e, q, **mode: solve_maxent_shannon_limit(e, q, **mode),
}



@pytest.mark.parametrize("mode", MODES, ids=["omega", "target"])
@pytest.mark.parametrize("solve", [solve_maxent, solve_maxent_renyi], ids=["tsallis", "renyi"])
def test_rescaled_index_pole_is_domain_error(solve, mode):
    # q + alpha - 1 = 0 at q = alpha = 0.5: q_alpha = 0, a pole of the
    # trinomial coupling q(1-q)/(q+alpha-1), in either mode
    assert transform(0.5, 0.5) == 0.0
    with pytest.raises(DomainError, match="rescaled index pole"):
        solve(np.linspace(0.0, 2.0, 5), 0.5, 0.5, **mode)


@pytest.mark.parametrize("mode", MODES, ids=["omega", "target"])
@pytest.mark.parametrize("solve", [solve_maxent, solve_maxent_renyi], ids=["tsallis", "renyi"])
def test_coupling_overflow_is_domain_error(solve, mode):
    # q(1-q) overflows beyond |q| of about 1.3e154, where the escort weight
    # p^q of any p < 1 overflows or underflows anyway
    with pytest.raises(DomainError, match=r"the coupling q\(1 - q\)/\(q \+ alpha - 1\) "
                                          r"overflows at q = -1e\+200, alpha = 2"):
        solve(np.linspace(0.0, 2.0, 5), -1e200, 2.0, **mode)


def test_rescaled_index_is_transform_bit_for_bit():
    # q_alpha is formed in plain floats on the solve path; it must be
    # transform's value, also where it rounds to 1 (the Shannon family)
    for q in (-0.5, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.2, 2.5):
        for alpha in (0.3, 1.0, 2.0, 7.0, 1e5, 1e300):
            sol = solve_maxent(E5, q, alpha, 0.3)
            assert sol.z_q_alpha.q_used == transform(q, alpha), (q, alpha)


@pytest.mark.parametrize("q,alpha", [(1.5, 1e-310), (0.5, 5e-324), (3.0, 1e-308)])
def test_rescaled_index_overflow_is_transforms_domain_error(q, alpha):
    with pytest.raises(DomainError) as expected:
        transform(q, alpha)
    for mode in MODES:
        with pytest.raises(DomainError) as raised:
            solve_maxent(E5, q, alpha, **mode)
        assert str(raised.value) == str(expected.value)


class TestContinuityAtQOne:
    """The trinomial family at q = 1 +- 2e-9 and the Gibbs kernel at q = 1
    give the same distribution, on both sides of 1."""

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("mode", MODES)
    def test_gibbs_meets_trinomial(self, side, mode):
        e = np.linspace(0.0, 2.0, 30)
        deformed = solve_maxent(e, 1.0 + side * 2e-9, 1.5, **mode)
        gibbs = solve_maxent(e, 1.0, 1.5, **mode)
        assert deformed.converged and gibbs.converged
        assert np.max(np.abs(deformed.probs - gibbs.probs)) <= 1e-8

    @pytest.mark.parametrize("delta", [1e-9, -1e-10])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("solve", FAMILIES_NEAR_ONE.values(),
                             ids=FAMILIES_NEAR_ONE.keys())
    def test_slope_in_q_is_smooth(self, solve, mode, delta):
        # the difference quotient (p_delta - p_1)/delta keeps its value at
        # delta = 1e-7 down to |q - 1| = 1e-10: no window around q = 1 makes
        # it 0
        e = np.linspace(0.0, 2.0, 30)
        p1 = solve(e, 1.0, **mode).probs
        reference = (solve(e, 1.0 + 1e-7, **mode).probs - p1) / 1e-7
        slope = (solve(e, 1.0 + delta, **mode).probs - p1) / delta
        assert np.max(np.abs(slope - reference)) <= 1e-4 * np.max(np.abs(reference))

    @pytest.mark.parametrize("q", [math.nextafter(1.0, math.inf),
                                   math.nextafter(1.0, -math.inf)])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("solve,alpha", [
        (solve_maxent, 1.5), (solve_maxent_renyi, 1.0), (solve_maxent_renyi, 0.5),
        (lambda e, q, alpha, **mode: solve_maxent_shannon_limit(e, q, **mode), math.inf),
    ], ids=["tsallis", "renyi", "renyi-half", "shannon"])
    def test_certifies_one_ulp_from_one(self, solve, alpha, mode, q):
        e = np.linspace(0.0, 2.0, 30)
        # q_alpha is not 1 either, so the deformed solvers run their trinomial levels
        assert math.isinf(alpha) or transform(q, alpha) != 1.0
        sol = solve(e, q, alpha, **mode)
        assert sol.converged
        assert sol.stationarity_residual <= maxent.STOP_RESIDUAL
        gibbs = solve_maxent(e, 1.0, 1.5, **mode)
        assert np.max(np.abs(sol.probs - gibbs.probs)) <= 1e-14


class TestNewtonJacobian:
    @pytest.mark.parametrize("fam", [
        _Trinomial(np.linspace(0.0, 2.0, 7), 1.2, 1.5, transform(1.2, 1.5), False),
        _Trinomial(np.linspace(0.0, 2.0, 7), 0.8, 2.0, transform(0.8, 2.0), True),
        _Shannon(np.linspace(0.0, 2.0, 7), 1.3),
    ], ids=["tsallis", "renyi", "shannon"])
    def test_matches_central_differences(self, fam):
        start = None

        def system(x):
            nonlocal start
            p, slope, start = fam.level_map(x[0] * (fam.e - x[1]), start)
            point = _evaluate(fam, p, x[0], 0.3, (slope, x[1]))
            return np.array(point.f), np.reshape(point.jac, (2, 2))

        x = np.array([0.1, 0.8])
        _, jac = system(x)
        for k, h in enumerate((1e-6, 1e-5)):
            dx = np.zeros(2)
            dx[k] = h
            column = (system(x + dx)[0] - system(x - dx)[0]) / (2.0 * h)
            assert jac[:, k] == pytest.approx(column, rel=1e-6, abs=1e-9)


class TestModesAgree:
    """A target mean gives omega; that fixed omega gives the same answer back."""

    @pytest.mark.parametrize("n", [3, 30, 3000])
    @pytest.mark.parametrize("solve", [
        lambda e, *args, **kw: solve_maxent(e, 1.2, 1.5, *args, **kw),
        lambda e, *args, **kw: solve_maxent_renyi(e, 1.2, 2.0, *args, **kw),
        lambda e, *args, **kw: solve_maxent_shannon_limit(e, 1.3, *args, **kw),
    ], ids=["tsallis", "renyi", "shannon"])
    def test_fixed_omega_reproduces_target(self, solve, n):
        e = np.linspace(0.0, 2.0, n)
        target = solve(e, target_mean=0.8)
        fixed = solve(e, target.omega)
        assert fixed.converged
        # the fixed-omega solve stops once its certified residual is at most
        # 1e-9, and its escort mean is no more accurate than that: Tsallis at
        # n = 3000 stops at 8e-10 and misses 0.8 by 6.8e-10
        assert abs(fixed.escort_mean - 0.8) <= 1e-9
        assert np.max(np.abs(fixed.probs - target.probs) / target.probs) <= 1e-8

    @pytest.mark.parametrize("e,solve,omega", [
        # m = 3.16e-6, at the spectrum's lower end
        (E3, lambda e, *args, **kw: solve_maxent(e, 1.2, 2.0, *args, **kw), 50.0),
        # m = 0.99456, near the upper end, past a fold of |F| at m = 0.9045
        (np.array([0.0, 1.0]),
         lambda e, *args, **kw: solve_maxent_shannon_limit(e, 1.3, *args, **kw),
         -10.0),
        (E5_GAPPED,
         lambda e, *args, **kw: solve_maxent_shannon_limit(e, 1.3, *args, **kw),
         -10.0),
    ], ids=["tsallis-end", "shannon-two-level", "shannon-gapped"])
    def test_target_reproduces_fixed_omega(self, e, solve, omega):
        # the first sweep from the uniform distribution leaves the real-root
        # region here, yet a solution exists
        fixed = solve(e, omega)
        assert fixed.converged
        assert fixed.stationarity_residual <= 1e-9
        target = solve(e, target_mean=fixed.escort_mean)
        assert target.omega == pytest.approx(omega, rel=1e-9)


class TestShannonLimit:
    def test_free_problem_is_uniform(self):
        sol = solve_maxent_shannon_limit(E3, 1.3, 0.0)
        assert sol.probs == pytest.approx([1 / 3] * 3, abs=1e-13)
        assert sol.stationarity_residual <= 1e-12

    def test_matches_gibbs_near_classical_point(self):
        sol = solve_maxent_shannon_limit(E3, 1.0 + 1e-7, 0.4)
        assert np.max(np.abs(sol.probs - independent_gibbs(E3, 0.4))) <= 1e-6

    def test_q_one_is_exact_gibbs(self):
        sol = solve_maxent_shannon_limit(E3, 1.0, 0.4)
        assert np.max(np.abs(sol.probs - independent_gibbs(E3, 0.4))) <= 1e-14

    def test_just_off_q_one_is_deformed(self):
        # the Lambert W levels at q - 1 = 1e-10, not the Gibbs weights: they
        # differ from Gibbs's by 1.35e-11, about 0.13*(q - 1)
        sol = solve_maxent_shannon_limit(E3, 1.0 + 1e-10, 0.4)
        gap = np.max(np.abs(sol.probs - independent_gibbs(E3, 0.4)))
        assert 1e-12 <= gap <= 1e-10

    def test_two_level_back_substitution(self):
        sol = solve_maxent_shannon_limit(np.array([0.0, 1.0]), 1.3, 0.4)
        assert sol.converged
        assert sol.stationarity_residual <= 1e-8
        # independent residual recomputation of ln p + S1 + q*w*dE/Z_q*p^(q-1)
        p = sol.probs
        s1 = -float(np.sum(p * np.log(p)))
        z_q = float(np.sum(p**1.3))
        mean = float(np.dot(p**1.3, [0.0, 1.0])) / z_q
        res = np.log(p) + s1 + 1.3 * 0.4 * (np.array([0.0, 1.0]) - mean) / z_q \
            * p**0.3
        assert np.max(np.abs(res)) <= 1e-8

    def test_lambert_domain_violation_names_level(self):
        with pytest.raises(NoRealRootError) as excinfo:
            solve_maxent_shannon_limit(np.array([0.0, 1.0]), 0.7, -10.0)
        assert excinfo.value.level is not None

    @pytest.mark.parametrize("solve", [
        lambda: solve_maxent_shannon_limit(E3, -1000.0, 0.5),
        # p stays near uniform, whose entropy ln 1000 puts the exponent at 711
        lambda: solve_maxent_shannon_limit(np.linspace(0.0, 2.0, 1000), -102.0,
                                           target_mean=1.0),
    ], ids=["fixed-omega", "target-mean"])
    def test_overflowing_coupling_is_domain_error(self, solve):
        # exp(-(q - 1)*S_1) in the coupling leaves the float range; it raised
        # a bare OverflowError
        with pytest.raises(DomainError, match=r"overflows at q = -10"):
            solve()

    @pytest.mark.parametrize("q,target,span", [
        (0.8, 0.02, (0.60627300238888349, 1.6125614976731668)),
        (0.5, 0.1, (0.87255565585723294, 1.2347442389494472)),
    ])
    def test_w_edge_is_an_upper_bound_below_q_one(self, q, target, span):
        # (q - 1)b >= -1/e bounds b from above for q < 1, and the escort
        # means inside that bound miss a target this low
        with pytest.raises(DomainError, match="spans only") as excinfo:
            solve_maxent_shannon_limit(np.linspace(0.0, 2.0, 30), q, target_mean=target)
        lo, hi = re.search(r"\[(\S+), (\S+)\]$", str(excinfo.value)).groups()
        assert (float(lo), float(hi)) == pytest.approx(span, rel=1e-12)

    def test_w_edge_admits_the_low_target_above_q_one(self):
        # for q > 1 the same edge bounds b from below instead
        sol = solve_maxent_shannon_limit(np.linspace(0.0, 2.0, 30), 1.3, target_mean=0.02)
        assert sol.converged
        assert sol.escort_mean == pytest.approx(0.02, abs=1e-12)

    def test_five_levels(self):
        sol = solve_maxent_shannon_limit(E5, 0.8, 0.3)
        assert sol.converged
        assert sol.stationarity_residual <= 1e-8

    def test_certifies_at_any_size(self):
        # the residual does not grow with the number of levels
        sol = solve_maxent_shannon_limit(np.linspace(0.0, 2.0, 30000), 1.3, 0.4)
        assert sol.converged
        assert sol.stationarity_residual <= 1e-8


class TestRenyiVariant:
    def test_free_problem_is_uniform(self):
        sol = solve_maxent_renyi(E3, 1.2, 2.0, 0.0)
        assert sol.probs == pytest.approx([1 / 3] * 3, abs=1e-13)

    @pytest.mark.parametrize("q", [0.8, 1.2])
    def test_alpha_one_is_q_exponential(self, q):
        sol = solve_maxent_renyi(E3, q, 1.0, 0.5)
        assert sol.converged
        assert _affinity_residual(sol.probs, E3, q) <= 1e-8

    def test_stationarity_residual(self):
        for q, alpha in ((0.8, 0.5), (1.2, 2.0)):
            sol = solve_maxent_renyi(E3, q, alpha, 0.3)
            assert sol.converged
            assert sol.stationarity_residual <= 1e-8

    def test_certifies_far_from_q_alpha_one(self):
        # q_alpha = 2.98 and Z_{q_alpha} = 1.4e-7: the expm1 form of the
        # entropy part subtracts two numbers near -1, and its residual
        # alternated between 2.0e-9 and 4.3e-9 for 10 000 Newton steps
        sol = solve_maxent_renyi(np.linspace(0.0, 2.0, 3000), 2.98, 1.0, -0.333)
        assert sol.converged
        assert sol.stationarity_residual <= 1e-13
        assert sol.iterations <= 10

    def test_agrees_with_nonadditive_solver_as_omega_vanishes(self):
        gaps = []
        for omega in (0.1, 0.05, 0.025):
            s_t = solve_maxent(E3, 1.2, 2.0, omega)
            s_r = solve_maxent_renyi(E3, 1.2, 2.0, omega)
            gaps.append(float(np.max(np.abs(s_t.probs - s_r.probs))))
        assert gaps[0] > gaps[1] > gaps[2]
        for wide, narrow in zip(gaps, gaps[1:]):
            assert wide / narrow == pytest.approx(2.0, abs=0.4)

    def test_coincides_with_nonadditive_solver_at_equal_target_mean(self):
        # R_{q_a} is a monotone transform of S_{q_a}, so under the same
        # escort-mean value both functionals pick the same distribution;
        # only the omega parametrizations differ.
        s_t = solve_maxent(E3, 1.2, 2.0, target_mean=0.7)
        s_r = solve_maxent_renyi(E3, 1.2, 2.0, target_mean=0.7)
        assert np.max(np.abs(s_t.probs - s_r.probs)) <= 1e-9
        assert s_t.omega != pytest.approx(s_r.omega, rel=1e-3)

    @pytest.mark.parametrize("e", [E3, E5, np.linspace(0.0, 2.0, 30)],
                             ids=["E3", "E5", "n30"])
    @pytest.mark.parametrize("q", [0.6, 0.8, 1.2, 1.5, 2.0])
    def test_omega_over_z_q_alpha_reproduces_tsallis(self, e, q):
        # the two couplings differ by the factor Z_{q_alpha}, so Renyi at
        # omega/Z_{q_alpha}(p_T) has the Tsallis solution p_T at omega;
        # worst gap 9.6e-10
        for omega in (-0.5, 0.3, 1.0):
            for alpha in (0.5, 1.0, 2.0):
                s_t = solve_maxent(e, q, alpha, omega)
                s_r = solve_maxent_renyi(e, q, alpha, omega / s_t.z_q_alpha.z)
                assert np.max(np.abs(s_r.probs - s_t.probs)) <= REPARAMETRIZATION_TOL

    def test_against_simplex_oracle(self):
        # maximizing S_{q_a} at the renyi solution's escort mean must
        # reproduce it, by the same monotone-transform argument
        sol = solve_maxent_renyi(E3, 1.2, 2.0, 0.3)
        p_oracle = simplex_constrained_maximizer(E3, 1.2, 2.0, sol.escort_mean)
        assert np.max(np.abs(sol.probs - p_oracle)) <= 1e-4


class TestPartitionBound:
    def test_uniform_is_equality(self):
        lhs, rhs = partition_bound_check([0.2] * 5, 2.0)
        # closed form: both sides are n^(-1/2)
        assert lhs == pytest.approx(5.0 ** -0.5, rel=1e-14)
        assert rhs == pytest.approx(5.0 ** -0.5, rel=1e-14)
        assert abs(lhs - rhs) <= 1e-14

    def test_delta_is_equality(self):
        # q > 0 so the zero entry falls under the 0^q := 0 convention
        for q in (0.5, 1.0, 3.0):
            lhs, rhs = partition_bound_check([1.0, 0.0], q)
            assert lhs == 1.0
            assert rhs == 1.0

    def test_two_state_strict_inequality(self):
        lhs, rhs = partition_bound_check([0.9, 0.1], 2.0)
        assert lhs == pytest.approx(0.9**1.5 + 0.1**1.5, rel=1e-14)
        assert rhs == pytest.approx(math.sqrt(0.82), rel=1e-14)
        assert lhs < rhs

    def test_random_distributions(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 7))))
            q = rng.uniform(0.0, 3.0)
            lhs, rhs = partition_bound_check(p, q)
            assert lhs <= rhs + 1e-14

    def test_rejects_negative_q(self):
        with pytest.raises(DomainError):
            partition_bound_check([0.5, 0.5], -0.5)
