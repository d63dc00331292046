import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from qtherm.errors import DivergentSeriesError, DomainError, NoRealRootError
from qtherm.trinomial import (
    lambert_w,
    residual,
    series_coefficient,
    series_radius,
    solve_trinomial,
    trinomial_b,
    trinomial_series,
)


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

    def test_half_exponent_coefficients_vanish_at_gamma_poles(self):
        # alpha*n integer and below n-1 makes C(alpha*n, n-1) = 0
        assert series_coefficient(0.5, 4) == 0.0
        assert series_coefficient(0.5, 6) == 0.0
        assert series_coefficient(0.5, 5) == pytest.approx(
            2.5 * 1.5 * 0.5 * (-0.5) / 24.0 / 5.0, rel=1e-12)

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
        # branch root merges into a double root at x = alpha/(alpha - 1)
        for alpha in (1.1, 1.5, 2.0, 3.0, 7.0):
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
