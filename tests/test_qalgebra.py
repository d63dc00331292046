import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qtherm.errors import DomainError
from qtherm.qalgebra import (
    dist_add,
    dist_div,
    dist_mul,
    dist_sub,
    exp_scaling,
    log_scaling,
    lost_sides,
    q_add,
    q_div,
    q_exp,
    q_log,
    q_mul,
    q_sub,
)

# q across 1 and also within 1e-6 of it, where every law must hold as well
qs = st.floats(min_value=0.1, max_value=1.9) | st.floats(min_value=1.0 - 1e-6,
                                                         max_value=1.0 + 1e-6)
positives = st.floats(min_value=0.7, max_value=2.2)
small_reals = st.floats(min_value=-0.5, max_value=1.0)
scales = st.floats(min_value=0.25, max_value=3.0)


def rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestOperators:
    def test_add_classical(self):
        assert q_add(2.0, 3.0, 1.0) == 5.0

    def test_add_deformed(self):
        assert q_add(2.0, 3.0, 0.0) == 11.0

    def test_sub_classical(self):
        assert q_sub(5.0, 3.0, 1.0) == 2.0

    def test_sub_inverts_add(self):
        assert q_sub(11.0, 3.0, 0.0) == 2.0

    def test_sub_pole(self):
        # y = 1/(q-1) makes the denominator vanish
        with pytest.raises(DomainError):
            q_sub(4.0, -1.0, 0.0)

    def test_mul_classical_limit(self):
        assert q_mul(2.0, 3.0, 1.0) == 6.0

    def test_mul_deformed(self):
        expected = (math.sqrt(2.0) + math.sqrt(3.0) - 1.0) ** 2
        assert q_mul(2.0, 3.0, 0.5) == pytest.approx(expected, rel=1e-15)
        # second route: q-exponential of the summed q-logarithms
        via_logs = q_exp(q_log(2.0, 0.5) + q_log(3.0, 0.5), 0.5)
        assert q_mul(2.0, 3.0, 0.5) == pytest.approx(via_logs, rel=1e-13)

    def test_mul_unit(self):
        for q in (0.3, 0.9, 1.4, 2.0):
            assert q_mul(2.7, 1.0, q) == pytest.approx(2.7, rel=1e-14)

    def test_mul_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            q_mul(-1.0, 2.0, 0.5)

    def test_mul_cutoff_below_one(self):
        # bracket 2*0.1^0.5 - 1 < 0 cuts off to 0 for q < 1
        assert q_mul(0.01, 0.01, 0.5) == 0.0

    def test_mul_domain_error_above_one(self):
        # bracket <= 0 diverges for q > 1
        with pytest.raises(DomainError):
            q_mul(100.0, 100.0, 3.0)

    def test_div_classical(self):
        assert q_div(6.0, 3.0, 1.0) == 2.0

    def test_div_inverts_mul(self):
        m = q_mul(2.0, 3.0, 0.5)
        assert q_div(m, 3.0, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_div_self(self):
        for q in (0.3, 1.6):
            assert q_div(1.7, 1.7, q) == pytest.approx(1.0, rel=1e-14)

    def test_div_no_cutoff(self):
        with pytest.raises(DomainError):
            q_div(0.01, 100.0, 0.5)

    @given(positives, positives, qs)
    def test_mul_div_inverse(self, x, y, q):
        e = 1.0 - q
        if x**e + y**e - 1.0 > 0.05:
            assert rel_gap(q_div(q_mul(x, y, q), y, q), x) <= 1e-12

    @given(small_reals, small_reals, qs)
    def test_add_sub_inverse(self, x, y, q):
        if abs(1.0 + (1.0 - q) * y) > 0.05:
            assert rel_gap(q_sub(q_add(x, y, q), y, q), x) <= 1e-12

    @given(small_reals, small_reals, qs)
    def test_add_commutes_exactly(self, x, y, q):
        assert q_add(x, y, q) == q_add(y, x, q)

    @given(positives, positives, qs)
    def test_mul_commutes_exactly(self, x, y, q):
        e = 1.0 - q
        if x**e + y**e - 1.0 > 0.0:
            assert q_mul(x, y, q) == q_mul(y, x, q)


    def test_sub_where_the_denominator_overflows(self):
        # 1 + (1-q)*y = 1e310 overflows, which would make the quotient 0
        expected = 1e-2 * (1.0 - 1e-8) / (1.0 + 1e-10)
        assert q_sub(1e308, 1e300, -1e10) == pytest.approx(expected, rel=1e-14)

class TestExpLog:
    def test_exp_classical(self):
        assert q_exp(0.7, 1.0) == pytest.approx(math.exp(0.7), rel=1e-15)

    def test_exp_q2(self):
        assert q_exp(0.5, 2.0) == 2.0

    def test_exp_cutoff(self):
        assert q_exp(-3.0, 0.5) == 0.0

    def test_exp_domain_error_above_one(self):
        # for q > 1 the base 1+(1-q)x turns non-positive at large x
        with pytest.raises(DomainError):
            q_exp(3.0, 2.0)

    @pytest.mark.parametrize("x,q,expected", [
        (-3.0, 1e308, 1.0),
        (-1e308, 3.0, 7.071067811865475e-155),
        (1e308, -1.0, 1.4142135623730951e154),
    ])
    def test_exp_where_the_bracket_overflows(self, x, q, expected):
        # (1-q)x overflows while [1+(1-q)x]^(1/(1-q)) does not, so x*L((1-q)x)
        # is no use there; exp of a log near 355 keeps about 13 digits
        assert q_exp(x, q) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_exp_at_zero(self):
        for q in (0.2, 1.0, 1.7):
            assert q_exp(0.0, q) == 1.0

    def test_log_classical(self):
        assert q_log(math.e, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_log_q2(self):
        assert q_log(2.0, 2.0) == 0.5

    def test_log_at_one(self):
        for q in (0.2, 1.0, 1.7):
            assert q_log(1.0, q) == 0.0

    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            q_log(0.0, 0.5)

    @given(small_reals, qs)
    def test_log_inverts_exp(self, x, q):
        if 1.0 + (1.0 - q) * x > 0.05:
            assert rel_gap(q_log(q_exp(x, q), q), x) <= 1e-12

    def test_monotone_on_support(self):
        for q in (0.5, 1.5):
            values = [q_exp(x, q) for x in (-0.4, 0.0, 0.5, 1.0)]
            assert values == sorted(values)


class TestFunctionalEquations:
    @given(small_reals, small_reals, qs)
    def test_exp_of_q_sum(self, x, y, q):
        e = 1.0 - q
        if 1.0 + e * x > 0.05 and 1.0 + e * y > 0.05:
            lhs = q_exp(x, q) * q_exp(y, q)
            rhs = q_exp(q_add(x, y, q), q)
            assert rel_gap(lhs, rhs) <= 1e-12

    @given(small_reals, small_reals, qs)
    def test_q_product_of_exps(self, x, y, q):
        e = 1.0 - q
        if min(1.0 + e * x, 1.0 + e * y, 1.0 + e * (x + y)) > 0.05:
            lhs = q_exp(x + y, q)
            rhs = q_mul(q_exp(x, q), q_exp(y, q), q)
            assert rel_gap(lhs, rhs) <= 1e-12

    @given(positives, positives, qs)
    def test_log_of_product(self, x, y, q):
        lhs = q_log(x * y, q)
        rhs = q_add(q_log(x, q), q_log(y, q), q)
        assert rel_gap(lhs, rhs) <= 1e-12

    @given(positives, positives, qs)
    def test_log_of_q_product(self, x, y, q):
        e = 1.0 - q
        if x**e + y**e - 1.0 > 0.05:
            lhs = q_log(x, q) + q_log(y, q)
            rhs = q_log(q_mul(x, y, q), q)
            assert rel_gap(lhs, rhs) <= 1e-12


class TestScalingLaws:
    def test_dist_add_worked_example(self):
        lhs, rhs = dist_add(2.0, 3.0, 0.0, 2.0)
        assert lhs == 22.0
        assert rhs == 22.0

    def test_dist_add_identity_scale(self):
        lhs, rhs = dist_add(0.4, -0.2, 0.7, 1.0)
        assert lhs == rhs == q_add(0.4, -0.2, 0.7)

    def test_dist_add_classical(self):
        lhs, rhs = dist_add(0.4, 0.3, 1.0, 3.0)
        assert lhs == pytest.approx(3.0 * 0.7, rel=1e-15)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_dist_mul_worked_example(self):
        lhs, rhs = dist_mul(2.0, 3.0, 0.5, 2.0)
        expected = ((math.sqrt(2.0) + math.sqrt(3.0) - 1.0) ** 2) ** 2
        assert lhs == pytest.approx(expected, rel=1e-14)
        assert rel_gap(lhs, rhs) <= 1e-12

    def test_dist_mul_identity_scale(self):
        lhs, rhs = dist_mul(2.0, 3.0, 0.5, 1.0)
        assert lhs == rhs == q_mul(2.0, 3.0, 0.5)

    def test_dist_mul_classical(self):
        lhs, rhs = dist_mul(2.0, 3.0, 1.0, 2.5)
        assert lhs == pytest.approx(6.0**2.5, rel=1e-14)
        assert rel_gap(lhs, rhs) <= 1e-12

    def test_exp_scaling_worked_example(self):
        lhs, rhs = exp_scaling(0.5, 2.0, 2.0)
        assert lhs == pytest.approx(4.0, rel=1e-14)
        assert rhs == pytest.approx(4.0, rel=1e-14)

    def test_exp_scaling_at_zero(self):
        lhs, rhs = exp_scaling(0.0, 1.6, 2.5)
        assert lhs == 1.0
        assert rhs == 1.0

    @given(small_reals, small_reals, qs, scales)
    def test_add_and_sub_laws(self, x, y, q, alpha):
        lhs, rhs = dist_add(x, y, q, alpha)
        assert rel_gap(lhs, rhs) <= 1e-12
        if abs(1.0 + (1.0 - q) * y) > 0.05:
            lhs, rhs = dist_sub(x, y, q, alpha)
            assert rel_gap(lhs, rhs) <= 1e-12

    @given(positives, positives, qs, scales)
    def test_mul_and_div_laws(self, x, y, q, alpha):
        e = 1.0 - q
        if x**e + y**e - 1.0 > 0.05:
            lhs, rhs = dist_mul(x, y, q, alpha)
            assert rel_gap(lhs, rhs) <= 1e-12
        if x**e - y**e + 1.0 > 0.05:
            lhs, rhs = dist_div(x, y, q, alpha)
            assert rel_gap(lhs, rhs) <= 1e-12

    @given(small_reals, qs, scales)
    def test_exp_scaling_law(self, x, q, alpha):
        if 1.0 + (1.0 - q) * x > 0.05:
            lhs, rhs = exp_scaling(x, q, alpha)
            assert rel_gap(lhs, rhs) <= 1e-12

    @given(positives, qs, scales)
    def test_log_scaling_law(self, x, q, alpha):
        lhs, rhs = log_scaling(x, q, alpha)
        assert rel_gap(lhs, rhs) <= 1e-12

    def test_plain_distributivity_fails(self):
        # 2*(1 (+)_0.5 1) = 5 but 2 (+)_0.5 2 = 6
        lhs = 2.0 * q_add(1.0, 1.0, 0.5)
        rhs = q_add(2.0, 2.0, 0.5)
        assert abs(lhs - rhs) > 0.5


class TestLostSides:
    def test_flags_cancelled_q_sums_elementwise(self):
        # 1e300 (+)_0.5 -2 = -2 comes out 0; 2 (+)_0.5 3 = 8 keeps its digits
        x, y = np.array([1e300, 2.0, 0.0, 1e-300]), np.array([-2.0, 3.0, 3.0, 1e-300])
        lhs, rhs = lost_sides(x, y, 0.5, 5.0)["add"]
        assert lhs.tolist() == [True, False, False, False]
        assert rhs.tolist() == [True, False, False, False]

    def test_lists_the_add_and_exp_scaling_laws(self):
        assert set(lost_sides(2.0, 3.0, 0.5, 2.0)) == {"add", "exp-scaling"}

    def test_flags_underflowed_q_exps_elementwise(self):
        # exp_1.5(-1e300) = 4e-600 comes out 0 while both sides are 0.2515;
        # exp_0.5(-3) is the cutoff 0, exact; exp(-1e300) underflows on both sides
        x = np.array([-1e300, 2.0, -3.0, -1e300])
        q = np.array([1.5, 0.5, 0.5, 1.0])
        lhs, rhs = lost_sides(x, x, q, 1e-3)["exp-scaling"]
        assert lhs.tolist() == [True, False, False, True]
        assert rhs.tolist() == [False, False, False, True]
        # a power of a positive exp_q that underflows is lost as well
        lhs, rhs = lost_sides(-1e300, -1e300, 1.5, 2.0)["exp-scaling"]
        assert bool(lhs) and bool(rhs)

    def test_classical_point_loses_nothing(self):
        # q = 1 gives q_alpha = 1 exactly at one point, which divided by
        # 1 - q_alpha as a Python float
        lost = lost_sides(1.0, 2.0, 1.0, 2.0)
        assert [bool(side) for sides in lost.values() for side in sides] == [False] * 4

    def test_never_raises_on_overflow(self):
        lhs, rhs = lost_sides(np.array([1e308, math.inf, math.nan]), 1e308, 3.0, 5.0)["add"]
        assert lhs.shape == rhs.shape == (3,)


class TestClassicalLimit:
    @pytest.mark.parametrize("q", [1.0 - 1e-8, 1.0 + 1e-8])
    def test_operators_converge(self, q):
        x, y = 1.7, 0.8
        assert abs(q_add(x, y, q) - (x + y)) <= 1e-6
        assert abs(q_sub(x, y, q) - (x - y)) <= 1e-6
        assert abs(q_mul(x, y, q) - x * y) <= 1e-6
        assert abs(q_div(x, y, q) - x / y) <= 1e-6
        assert abs(q_exp(x, q) - math.exp(x)) <= 1e-6
        assert abs(q_log(x, q) - math.log(x)) <= 1e-6

    def test_matches_mpmath_near_one(self):
        # 50-digit references of the power forms at |q - 1| in 10^U(-12, -2),
        # on both sides of 1, where evaluating those forms in floats loses
        # about eps/|q - 1| of the digits
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(200):
            q = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -2.0)
            (x, y), s = rng.uniform(0.5, 2.5, 2), rng.uniform(-0.5, 1.0)
            with mpmath.workdps(50):
                c, x_, y_ = 1 - mpmath.mpf(q), mpmath.mpf(x), mpmath.mpf(y)
                pairs = [
                    (q_log(x, q), (x_**c - 1) / c),
                    (q_exp(s, q), (1 + c * mpmath.mpf(s)) ** (1 / c)),
                    (q_mul(x, y, q), (x_**c + y_**c - 1) ** (1 / c)),
                    (q_div(x, y, q), (x_**c - y_**c + 1) ** (1 / c)),
                ]
                worst = max(worst, *(float(abs(got - ref) / abs(ref)) for got, ref in pairs))
        assert worst <= 1e-14


def _mp_mul(x, y, q):
    c = 1 - mpmath.mpf(q)
    return (mpmath.mpf(x) ** c + mpmath.mpf(y) ** c - 1) ** (1 / c)


def _mp_div(x, y, q):
    c = 1 - mpmath.mpf(q)
    return (mpmath.mpf(x) ** c - mpmath.mpf(y) ** c + 1) ** (1 / c)


class TestOverflowedPowers:
    """x^(1-q) or y^(1-q) beyond the float range, with the answer inside it."""

    @pytest.mark.parametrize("fn,mp_fn,x,y,q", [
        (q_mul, _mp_mul, 1e-300, 3.0, 3.0),
        (q_mul, _mp_mul, 3.0, 1e-300, 3.0),
        (q_mul, _mp_mul, 1e300, 1e-300, -3.0),
        (q_mul, _mp_mul, 1e300, 1e300, -3.0),
        (q_mul, _mp_mul, 2e300, 1e300, -3.0),
        (q_mul, _mp_mul, 1e-300, 1e-300, 3.0),
        (q_div, _mp_div, 1e-300, 3.0, 3.0),
        (q_div, _mp_div, 1e300, 3.0, -3.0),
        # y^(1-q) overflows as well, and the bracket stays positive
        (q_div, _mp_div, 1e-300, 1e-299, 3.0),
    ])
    def test_matches_mpmath(self, fn, mp_fn, x, y, q):
        with mpmath.workdps(50):
            ref = float(mp_fn(x, y, q))
        assert abs(fn(x, y, q) - ref) <= 4.0 * math.ulp(ref)

    def test_random_points_match_mpmath(self):
        # log10 x and the exponent 1 - q drawn so that x^(1-q) overflows; the
        # division keeps y^(1-q) at most half of x^(1-q), where the answer is
        # no worse conditioned than its operands
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(300):
            c = rng.choice([-1.0, 1.0]) * rng.uniform(1.1, 6.0)
            x = 10.0 ** (np.sign(c) * rng.uniform(310.0 / abs(c), 300.0))
            y = 10.0 ** rng.uniform(-300.0, 300.0)
            q = 1.0 - c
            with mpmath.workdps(60):
                ref = float(_mp_mul(x, y, q))
                got = [(q_mul(x, y, q), ref)]
                if (mpmath.mpf(y) / x) ** c <= 0.5:
                    got.append((q_div(x, y, q), float(_mp_div(x, y, q))))
            for value, expected in got:
                assert sys.float_info.min <= expected < math.inf
                worst = max(worst, abs(value - expected) / math.ulp(expected))
        assert worst <= 4.0

    def test_negative_bracket_still_raises(self):
        # both powers overflow and y^(1-q) is the larger: x^c - y^c + 1 < 0
        with pytest.raises(DomainError, match="not positive"):
            q_div(1e-300, 1e-301, 3.0)


class TestAssociativity:
    @given(small_reals, small_reals, small_reals, qs)
    def test_add_associative(self, x, y, z, q):
        lhs = q_add(q_add(x, y, q), z, q)
        rhs = q_add(x, q_add(y, z, q), q)
        assert rel_gap(lhs, rhs) <= 1e-12

    @given(positives, positives, positives, qs)
    def test_mul_associative(self, x, y, z, q):
        e = 1.0 - q
        if x**e + y**e - 1.0 > 0.05 and (x**e + y**e - 1.0) + z**e - 1.0 > 0.05 \
                and y**e + z**e - 1.0 > 0.05:
            lhs = q_mul(q_mul(x, y, q), z, q)
            rhs = q_mul(x, q_mul(y, z, q), q)
            assert rel_gap(lhs, rhs) <= 1e-12
