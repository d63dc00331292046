import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from scipy.optimize import brentq

from qtherm import trinomial
from qtherm.errors import (
    DivergentSeriesError,
    DomainError,
    NonConvergenceError,
    NoRealRootError,
)
from qtherm.trinomial import (
    _branch_roots,
    lambert_w,
    lambert_w_array,
    residual,
    series_coefficient,
    series_radius,
    solve_trinomial,
    solve_trinomial_array,
    trinomial_b,
    trinomial_series,
)

ALPHAS = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0, 7.0)


def bisection_root(alpha, b, lo, hi=None, iterations=200):
    """Independent oracle: plain bisection on 1 - x + b*x^alpha.

    With ``hi=None`` it walks up from ``lo`` in small steps and brackets
    the first sign change, which isolates the branch root nearest 1.
    """

    def f(x):
        return 1.0 - x + b * x**alpha

    if hi is None:
        step = 0.02
        hi = lo + step
        while f(lo) * f(hi) > 0.0:
            lo, hi = hi, hi + step
            assert hi < 1e4, "oracle walk found no sign change"
    f_lo = f(lo)
    assert f_lo * f(hi) <= 0.0, "oracle bracket does not straddle a root"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


class TestSolveTrinomial:
    def test_linear_case(self):
        assert solve_trinomial(1.0, 0.2) == pytest.approx(1.25, abs=1e-15)

    def test_zero_coefficient_anchors_branch(self):
        for alpha in (0.5, 1.0, 1.7, 2.0, 3.0):
            assert solve_trinomial(alpha, 0.0) == 1.0

    def test_quadratic_case(self):
        # closed form (1 - sqrt(0.6))/0.2, cross-checked by bisection on [1, 2]
        x = solve_trinomial(2.0, 0.1)
        assert x == pytest.approx((1.0 - math.sqrt(0.6)) / 0.2, rel=1e-14)
        assert x == pytest.approx(bisection_root(2.0, 0.1, 1.0, 2.0), abs=1e-13)

    def test_cubic_case(self):
        x = solve_trinomial(3.0, 0.05)
        assert abs(residual(3.0, 0.05, x)) <= 1e-12
        assert x == pytest.approx(bisection_root(3.0, 0.05, 1.0, 1.5), abs=1e-13)

    def test_sqrt_case_against_bisection(self):
        for b in (-1.0, 0.3, 2.0):
            x = solve_trinomial(0.5, b)
            lo, hi = (1e-12, 1.0) if b < 0 else (1.0, 20.0)
            assert x == pytest.approx(bisection_root(0.5, b, lo, hi), abs=1e-12)

    def test_generic_exponent_against_bisection(self):
        for alpha, b in ((1.5, 0.2), (1.5, -1.0), (2.5, 0.1), (0.7, 1.5)):
            x = solve_trinomial(alpha, b)
            if b < 0:
                oracle = bisection_root(alpha, b, 1e-12, 1.0)
            else:
                oracle = bisection_root(alpha, b, 1.0)
            assert x == pytest.approx(oracle, abs=1e-12)
            assert abs(residual(alpha, b, x)) <= 1e-12

    def test_residual_over_grids(self):
        grids = {
            0.5: np.linspace(-2.0, 2.0, 41),
            1.0: np.linspace(-2.0, 0.9, 41),
            1.5: np.linspace(-2.0, 0.38, 41),
            2.0: np.linspace(-2.0, 0.2499, 41),
            3.0: np.linspace(-2.0, 0.147, 41),
        }
        for alpha, grid in grids.items():
            for b in grid:
                x = solve_trinomial(alpha, float(b))
                assert abs(residual(alpha, float(b), x)) <= 1e-12, (alpha, b)

    def test_branch_continuity_toward_zero(self):
        for alpha in (0.5, 1.3, 2.0, 3.0):
            assert solve_trinomial(alpha, 1e-10) == pytest.approx(1.0, abs=1e-9)
            assert solve_trinomial(alpha, -1e-10) == pytest.approx(1.0, abs=1e-9)

    def test_pole_at_one_for_linear(self):
        with pytest.raises(NoRealRootError):
            solve_trinomial(1.0, 1.0)

    def test_no_root_beyond_pole(self):
        with pytest.raises(NoRealRootError):
            solve_trinomial(1.0, 1.5)

    def test_no_root_beyond_quarter(self):
        with pytest.raises(NoRealRootError):
            solve_trinomial(2.0, 0.2501)

    def test_no_root_generic_exponent(self):
        with pytest.raises(NoRealRootError) as excinfo:
            solve_trinomial(3.0, 0.2)
        assert excinfo.value.b == 0.2

    def test_near_critical_b_still_solves(self):
        # close to the critical b, still inside the real-root region
        b = 0.9999 * series_radius(3.0)
        x = solve_trinomial(3.0, b)
        assert abs(residual(3.0, b, x)) <= 1e-12

    def test_tiny_root_keeps_relative_accuracy(self):
        # the root 64^(-10) ~ 9e-19 lies far below any absolute tolerance
        x = solve_trinomial(0.1, -64.0)
        assert x == pytest.approx(64.0**-10.0, rel=1e-3)
        assert abs(residual(0.1, -64.0, x)) <= 1e-12

    def test_rejects_zero_alpha(self):
        with pytest.raises(DomainError):
            solve_trinomial(0.0, 0.1)


class TestSeries:
    def test_geometric_case(self):
        x, terms = trinomial_series(1.0, 0.2)
        assert x == pytest.approx(1.25, rel=1e-13)
        assert terms > 1

    def test_zero_coefficient(self):
        assert trinomial_series(2.0, 0.0) == (1.0, 0)

    def test_matches_closed_forms(self):
        for alpha in (0.5, 1.0, 2.0):
            for b in np.linspace(-0.2, 0.2, 21):
                x_series, _ = trinomial_series(alpha, float(b), tol=1e-15)
                x_closed = solve_trinomial(alpha, float(b))
                assert abs(x_series - x_closed) <= 1e-10, (alpha, b)

    def test_truncation_tolerance_contract(self):
        for tol in (1e-6, 1e-9, 1e-12):
            x_series, _ = trinomial_series(2.0, 0.2, tol=tol)
            assert abs(x_series - solve_trinomial(2.0, 0.2)) <= 10.0 * tol

    def test_reports_terms_used(self):
        _, loose = trinomial_series(2.0, 0.2, tol=1e-6)
        _, tight = trinomial_series(2.0, 0.2, tol=1e-14)
        assert 0 < loose < tight

    def test_n_max_caps_the_sum(self):
        x, terms = trinomial_series(2.0, 0.2, n_max=10, tol=1e-15)
        assert terms == 10
        # the capped sum is a coarse but sane approximation
        assert x == pytest.approx(solve_trinomial(2.0, 0.2), abs=1e-2)

    def test_divergence_outside_radius(self):
        with pytest.raises(DivergentSeriesError):
            trinomial_series(2.0, 0.26)
        with pytest.raises(DivergentSeriesError):
            trinomial_series(0.5, 2.1)

    def test_catalan_coefficients(self):
        # integer identity: C(2n, n-1)/n is the n-th Catalan number
        for n in range(1, 11):
            assert math.comb(2 * n, n - 1) % n == 0
            exact = math.comb(2 * n, n - 1) // n
            assert exact == math.comb(2 * n, n) // (n + 1)
            assert series_coefficient(2.0, n) == pytest.approx(exact, rel=1e-12)

    def test_minus_one_coefficients_are_signed_catalan(self):
        # alpha*n = -n puts Gamma poles above and below; the limit is
        # C(-n, n-1)/n = (-1)^(n-1) Catalan(n-1): 1, -1, 2, -5, ...
        for n in range(1, 11):
            exact = (-1) ** (n - 1) * math.comb(2 * n - 2, n - 1) // n
            assert series_coefficient(-1.0, n) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("alpha", (-2.0, -1.0, -0.5))
    def test_negative_exponent_series_matches_root(self, alpha):
        x_series, _ = trinomial_series(alpha, 0.01)
        assert abs(x_series - solve_trinomial(alpha, 0.01)) <= 1e-14

    def test_half_exponent_coefficients_vanish_at_gamma_poles(self):
        # alpha*n integer and below n-1 makes C(alpha*n, n-1) = 0
        assert series_coefficient(0.5, 4) == 0.0
        assert series_coefficient(0.5, 6) == 0.0
        assert series_coefficient(0.5, 5) == pytest.approx(
            2.5 * 1.5 * 0.5 * (-0.5) / 24.0 / 5.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 2.0, 2.5))
    def test_coefficients_match_scipy_log_gamma(self, alpha):
        # oracle: the gammaln/gammasgn form; both exponentiate a difference of
        # log-gammas up to about 200 in size, each a few ulps off
        for n in range(1, 61):
            z = alpha * n
            tail = float(scipy.special.gammaln(z - n + 2.0))
            coefficient = series_coefficient(alpha, n)
            if math.isinf(tail):
                assert coefficient == 0.0, n
                continue
            sign = float(scipy.special.gammasgn(z + 1.0) * scipy.special.gammasgn(z - n + 2.0))
            log_mag = float(scipy.special.gammaln(z + 1.0) - scipy.special.gammaln(n)) - tail
            assert coefficient == pytest.approx(sign * math.exp(log_mag) / n, rel=1e-12), n

    def test_log_gamma_overflow_is_a_domain_error(self):
        # math.lgamma overflows beyond about 2.5e305
        with pytest.raises(DomainError):
            series_coefficient(1e306, 1)
        assert series_coefficient(1e300, 1) == 1.0

    def test_radius_values(self):
        assert series_radius(1.0) == 1.0
        assert series_radius(2.0) == pytest.approx(0.25, rel=1e-15)
        assert series_radius(0.5) == pytest.approx(2.0, rel=1e-15)
        assert series_radius(3.0) == pytest.approx(4.0 / 27.0, rel=1e-15)
        # 999^999/1000^1000 overflows a direct float evaluation
        assert series_radius(1000.0) == pytest.approx(
            float(Fraction(999**999, 1000**1000)), rel=1e-14)

    def test_radius_matches_coefficient_growth(self):
        # re-derived bound: |c_{n+1}/c_n| -> 1/radius by the ratio test
        for alpha in (1.5, 2.0, 3.0):
            n = 120
            ratio = abs(series_coefficient(alpha, n + 1) /
                        series_coefficient(alpha, n))
            assert ratio == pytest.approx(1.0 / series_radius(alpha), rel=0.03)

    def test_radius_is_real_root_boundary_above_one(self):
        # for alpha > 1 the series radius equals the critical b where the
        # branch root merges into a double root at x = alpha/(alpha - 1); just
        # above 1 the minimum x_m is large and its rounding amplified
        for alpha in (1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 7.0):
            b_c = series_radius(alpha)
            x_c = alpha / (alpha - 1.0)
            assert abs(residual(alpha, b_c, x_c)) <= 1e-12
            # at b_c itself the branch root is the double root
            x = solve_trinomial(alpha, b_c)
            assert x == pytest.approx(x_c, rel=1e-7)
            assert abs(residual(alpha, b_c, x)) <= 1e-12
            with pytest.raises(NoRealRootError):
                solve_trinomial(alpha, b_c * (1.0 + 1e-6))


class TestTrinomialB:
    def test_zero_offset(self):
        assert trinomial_b(1.3, 2.0, 0.7, 0.0, 0.9, 0.95) == 0.0

    def test_vanishes_at_classical_point(self):
        assert abs(trinomial_b(1.0 + 1e-9, 2.0, 0.5, 1.0, 0.9, 0.95)) < 1e-8

    def test_worked_example(self):
        # direct evaluation: 1.2*(-0.2)/2.2 * 0.95/0.9 * 0.5
        expected = 1.2 * (1.0 - 1.2) / (1.2 + 2.0 - 1.0) * 0.95 / 0.9 * 0.5
        value = trinomial_b(1.2, 2.0, 0.5, 1.0, 0.9, 0.95)
        assert value == pytest.approx(expected, rel=1e-15)
        assert value == pytest.approx(-0.0575757575757575, abs=1e-13)

    def test_rescaled_index_pole(self):
        with pytest.raises(DomainError):
            trinomial_b(0.5, 0.5, 0.7, 1.0, 0.9, 0.95)

    def test_rejects_nonpositive_partition_sums(self):
        with pytest.raises(DomainError):
            trinomial_b(1.2, 2.0, 0.5, 1.0, 0.0, 0.95)


def newton_w_oracle(x, w0=0.5, steps=200):
    """Independent Newton iteration on f(w) = w e^w - x."""
    w = w0
    for _ in range(steps):
        ew = math.exp(w)
        step = (w * ew - x) / (ew * (w + 1.0))
        w -= step
        if abs(step) < 1e-16:
            break
    return w


class TestLambertW:
    def test_zero(self):
        assert lambert_w(0.0) == 0.0

    def test_at_e(self):
        assert abs(lambert_w(math.e) - 1.0) <= 1e-14

    def test_omega_constant(self):
        expected = newton_w_oracle(1.0)
        assert expected == pytest.approx(0.5671432904097838, abs=1e-15)
        assert lambert_w(1.0) == pytest.approx(expected, abs=1e-15)

    def test_back_substitution_grid(self):
        xs = np.geomspace(1e-6, 1e6 + math.exp(-1.0), 1000) - math.exp(-1.0)
        for x in xs:
            w = lambert_w(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, abs(x))

    def test_against_scipy(self):
        for x in (-0.35, -0.2, 0.1, 1.0, 5.0, 100.0, 1e5):
            assert lambert_w(x) == pytest.approx(
                float(scipy.special.lambertw(x).real), rel=1e-14, abs=1e-14)

    def test_branch_point(self):
        assert lambert_w(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-7)

    def test_monotone(self):
        xs = np.linspace(-math.exp(-1.0) + 1e-9, 10.0, 500)
        ws = [lambert_w(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(ws, ws[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambert_w(-0.5)


def brentq_root(alpha, b):
    """Oracle: scipy's Brent solve on the residual over a sign change."""
    if b == 0.0:
        return 1.0
    if b < 0.0:
        lo, hi = 0.0, 1.0
    elif alpha > 1.0:
        lo, hi = 1.0, (1.0 / (alpha * b)) ** (1.0 / (alpha - 1.0))
    else:
        lo, hi = 1.0, 2.0
        while residual(alpha, b, hi) > 0.0:
            hi *= 2.0
    return brentq(lambda t: residual(alpha, b, t), lo, hi, xtol=1e-300,
                  rtol=4.0 * np.finfo(float).eps, maxiter=500)


class TestArrayKernels:
    def test_closed_forms(self):
        b = np.linspace(-64.0, 0.2499, 301)
        b = b[b != 0.0]
        assert solve_trinomial_array(1.0, b) == pytest.approx(1.0 / (1.0 - b), rel=1e-15)
        # the smaller root of the quadratic b*x^2 - x + 1
        assert solve_trinomial_array(2.0, b) == pytest.approx(
            (1.0 - np.sqrt(1.0 - 4.0 * b)) / (2.0 * b), rel=1e-13)
        b = np.linspace(-64.0, 64.0, 301)
        # sqrt(x) = (b + sqrt(b^2 + 4))/2, rationalized where it cancels
        root = np.sqrt(b * b + 4.0)
        u = np.where(b < 0.0, 2.0 / (root - b), 0.5 * (b + root))
        assert solve_trinomial_array(0.5, b) == pytest.approx(u * u, rel=1e-13)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_against_brentq(self, alpha):
        # up to the critical b, where the root turns double and loses half
        # its digits; b_c itself is covered by the radius test above
        b_top = 0.999 * series_radius(alpha) if alpha >= 1.0 else 50.0
        b = np.linspace(-64.0, b_top, 301)
        oracle = np.array([brentq_root(alpha, float(b_i)) for b_i in b])
        assert solve_trinomial_array(alpha, b) == pytest.approx(oracle, rel=1e-13)

    # the largest b of each alpha gives a root near 1e176 and 1e212
    @pytest.mark.parametrize("alpha,b_top", [(0.999, 1.5), (0.9999, 1.05)])
    def test_against_brentq_just_below_one(self, alpha, b_top):
        # (1+b)^(1/(1-alpha)) overflows here although the root may not; the
        # root's condition number grows like 1/(1-alpha)
        b = np.linspace(0.01, b_top, 31)
        oracle = np.array([brentq_root(alpha, float(b_i)) for b_i in b])
        x = solve_trinomial_array(alpha, b)
        assert x == pytest.approx(oracle, rel=1e-15 / (1.0 - alpha))
        assert solve_trinomial(0.9999, 0.5) == pytest.approx(1.99986139883375, rel=1e-11)
        # 1.5^1000 would overflow, the root 2.47e41 does not
        assert solve_trinomial(0.999, 1.1) == pytest.approx(2.46993291800e41, rel=1e-10)

    def test_newton_cap_raises(self, monkeypatch):
        monkeypatch.setattr(trinomial, "_MAX_STEPS", 1)
        with pytest.raises(NonConvergenceError):
            solve_trinomial_array(1.5, [0.1, -3.0])

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_against_series_inside_radius(self, alpha):
        radius = series_radius(alpha)
        b = np.linspace(-0.5 * radius, 0.5 * radius, 41)
        series = np.array([trinomial_series(alpha, float(b_i))[0] for b_i in b])
        assert solve_trinomial_array(alpha, b) == pytest.approx(series, rel=1e-13)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_scalar_wrapper_is_the_array_kernel(self, alpha):
        b = np.linspace(-3.0, 0.9 * min(series_radius(alpha), 1.0), 23)
        x = solve_trinomial_array(alpha, b)
        assert [solve_trinomial(alpha, float(b_i)) for b_i in b] == x.tolist()

    @pytest.mark.parametrize("alpha", ALPHAS + (-1.0,))
    def test_zero_coefficient_is_exactly_one(self, alpha):
        b = np.array([0.05, 0.0, -0.1, 0.0])
        assert solve_trinomial_array(alpha, b)[[1, 3]].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("alpha", (0.3, 0.7, 1.5, 3.0))
    def test_start_roots_do_not_change_the_answer(self, alpha):
        b = np.linspace(-5.0, 0.9 * min(series_radius(alpha), 1.0), 31)
        cold = solve_trinomial_array(alpha, b)
        for start in (solve_trinomial_array(alpha, 0.5 * b), np.ones_like(b),
                      np.full_like(b, 1e3), cold[::-1].copy()):
            assert _branch_roots(alpha, b, start) == pytest.approx(cold, rel=1e-14)

    @pytest.mark.parametrize("alpha,b", [
        (2.0, [0.1, -0.5, 0.3, 0.0, 0.5]),
        (3.0, [0.1, -0.5, 0.2, 0.0, 0.5]),
        (1.0, [0.1, -0.5, 1.0, 0.0, 1.5]),
        # roots near 3^1000, beyond the largest float
        (0.999, [0.1, -0.5, 3.0, 0.0, 5.0]),
    ])
    def test_first_infeasible_level_is_reported(self, alpha, b):
        with pytest.raises(NoRealRootError) as excinfo:
            solve_trinomial_array(alpha, b)
        assert excinfo.value.level == 2
        assert excinfo.value.b == b[2]
        assert excinfo.value.alpha == alpha

    def test_scalar_error_names_no_level(self):
        with pytest.raises(NoRealRootError) as excinfo:
            solve_trinomial(3.0, 0.2)
        assert excinfo.value.level is None

    @pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0, 1.5, 0.7))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_b_is_a_domain_error(self, alpha, bad):
        with pytest.raises(DomainError):
            solve_trinomial_array(alpha, [0.1, bad, 0.0])
        with pytest.raises(DomainError):
            solve_trinomial(alpha, bad)

    def test_lambert_back_substitution(self):
        x = np.concatenate([np.linspace(-0.36, 0.0, 50), np.geomspace(1e-300, 1e300, 200)])
        w = lambert_w_array(x)
        small = x <= 1.0
        assert w[small] * np.exp(w[small]) == pytest.approx(x[small], rel=4e-16, abs=1e-300)
        # w + log w = log x, free of the overflow of e^w
        assert w[~small] + np.log(w[~small]) == pytest.approx(np.log(x[~small]), rel=4e-16)
        assert np.all(np.diff(w) > 0.0)

    def test_lambert_anchor_values(self):
        ln2 = math.log(2.0)
        x = [0.0, math.e, -ln2 / 2.0, 2.0 * ln2, 1.0, 10.0 * math.exp(10.0)]
        expected = [0.0, 1.0, -ln2, ln2, 0.5671432904097838, 10.0]
        assert lambert_w_array(x) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_lambert_snaps_to_branch_point(self):
        w = lambert_w_array([-math.exp(-1.0) - 5e-16, -math.exp(-1.0), 0.0])
        assert w.tolist() == [-1.0, -1.0, 0.0]
        with pytest.raises(DomainError):
            lambert_w_array([0.0, -math.exp(-1.0) - 1e-14])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                lambert_w_array([1.0, bad])


class TestAlphaJustAboveOne:
    """Near alpha = 1+ the minimum x_m of 1 - x + b*x^alpha lies far out, where
    b*x_m^alpha overflows; the branch root must still be the near one."""

    def test_pinned_point_takes_the_branch_root(self):
        # f(x_m) once overflowed to +inf and passed for a double root at 5e305
        alpha = 1.011454735190145
        x = solve_trinomial(alpha, 3.1139e-4)
        assert x == pytest.approx(1.0003114881055, rel=1e-12)
        assert abs(residual(alpha, 3.1139e-4, x)) <= 1e-15

    @pytest.mark.parametrize("alpha", (1.001, 1.005, 1.01, 1.02))
    def test_geometric_grid_stays_on_the_branch(self, alpha):
        b = np.geomspace(1e-8, 0.999 * series_radius(alpha), 20001)
        x = solve_trinomial_array(alpha, b)
        # the branch root lies below the double root alpha/(alpha - 1)
        assert np.all(x < alpha / (alpha - 1.0))
        assert np.all(np.abs(1.0 - x + b * x**alpha) <= 1e-15 * x)


def _conditioned_gap(w, reference):
    """|w - reference| relative to max(1, |W|) and times min(1, |1 + W|): near
    -1/e, where dW/dx = e^-W/(1 + W) blows up, a difference of one rounding of
    x is then as small as it is elsewhere."""
    return (np.abs(w - reference) * np.minimum(1.0, np.abs(1.0 + reference))
            / np.maximum(1.0, np.abs(reference)))


class TestLambertWAgainstScipy:
    X_NEAR = -math.exp(-1.0) + np.geomspace(1e-16, 1e-3, 2000)
    X = np.concatenate([X_NEAR, np.linspace(-0.36, 5.0, 2000), np.geomspace(5.0, 1e300, 1000)])

    def test_agrees_down_to_the_branch_point(self):
        w = lambert_w_array(self.X)
        reference = scipy.special.lambertw(self.X).real
        assert np.max(_conditioned_gap(w, reference)) <= 1e-14
        away = self.X >= -math.exp(-1.0) + 1e-4
        assert np.max(np.abs(w - reference)[away] / np.maximum(1.0, np.abs(reference[away]))) <= 1e-14

    def test_same_backward_error_near_the_branch_point(self):
        # both are within one rounding of x there
        one_rounding = np.spacing(math.exp(-1.0))
        for w in (lambert_w_array(self.X_NEAR), scipy.special.lambertw(self.X_NEAR).real):
            assert np.max(np.abs(w * np.exp(w) - self.X_NEAR)) <= one_rounding

    def test_scalar_and_array_paths_agree(self):
        # short arrays go through `math` one entry at a time, long ones through NumPy
        chunks = np.array_split(self.X, math.ceil(self.X.size / trinomial._SCALAR_SIZE))
        short = np.concatenate([lambert_w_array(chunk) for chunk in chunks])
        assert np.max(_conditioned_gap(short, lambert_w_array(self.X))) <= 1e-15

    def test_long_array_snaps_to_branch_point(self):
        x = np.linspace(-0.3, 1.0, 3 * trinomial._SCALAR_SIZE)
        x[[5, 70]] = -math.exp(-1.0) - 5e-16, -math.exp(-1.0)
        w = lambert_w_array(x)
        assert w[[5, 70]].tolist() == [-1.0, -1.0]
        keep = np.ones(x.size, dtype=bool)
        keep[[5, 70]] = False
        assert np.array_equal(w[keep], lambert_w_array(x[keep]))
        x[9] = -math.exp(-1.0) - 1e-14
        with pytest.raises(DomainError):
            lambert_w_array(x)
