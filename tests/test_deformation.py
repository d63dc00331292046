import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qtherm.deformation import (
    additive_dual,
    compose,
    fluctuation_q,
    heat_bath_q,
    multiplicative_dual,
    rescale_bath,
    rescaled_fluctuation,
    transform,
)
from qtherm.errors import DomainError, DualityRangeWarning

qs = st.floats(min_value=-2.0, max_value=4.0, allow_nan=False)
scales = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).filter(
    lambda a: abs(a) > 1e-6
)


def rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestTransform:
    def test_neutral_element(self):
        assert transform(1.5, 1.0) == 1.5

    def test_unit_is_invariant(self):
        assert transform(1.0, 7.3) == 1.0

    def test_halving_the_coupling(self):
        q_alpha = transform(1.5, 2.0)
        assert q_alpha == 1.25
        # cross-check: (q_alpha - 1) * alpha recovers q - 1
        assert (q_alpha - 1.0) * 2.0 == pytest.approx(0.5, abs=1e-15)

    def test_rejects_zero_alpha(self):
        with pytest.raises(DomainError):
            transform(1.5, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            transform(math.nan, 2.0)
        with pytest.raises(DomainError):
            transform(1.5, math.inf)

    def test_rejects_overflow(self):
        for alpha in (1e-320, -1e-320):
            with pytest.raises(DomainError, match="overflows"):
                transform(1.5, alpha)
        # the error names the first element that overflows
        with pytest.raises(DomainError, match=r"\(3\.0 - 1\)/1e-320"):
            transform(np.array([1.5, 3.0, 5.0]), np.array([2.0, 1e-320, 1e-320]))

    @given(qs, scales, scales)
    @example(q=0.99999, a=1.7905320344326887e-05, b=0.75)
    def test_composition_rule(self, q, a, b):
        # the second step divides the rounding of the intermediate index,
        # about ulp(q_a), by its factor: ulp(q_a)/|b| in the result
        q_a, q_b = transform(q, a), transform(q, b)
        stepwise = transform(q_a, b)
        direct = transform(q, compose(a, b))
        assert rel_gap(stepwise, direct) <= 1e-12 + math.ulp(q_a) / abs(b)
        assert rel_gap(stepwise, transform(q_b, a)) <= \
            1e-12 + math.ulp(q_a) / abs(b) + math.ulp(q_b) / abs(a)

    @given(qs, scales)
    def test_inverse_element(self, q, a):
        assert rel_gap(transform(transform(q, a), 1.0 / a), q) <= 1e-12

    @given(qs, scales.filter(lambda a: a > 0))
    def test_sign_preserved_for_positive_alpha(self, q, a):
        if q != 1.0:
            assert math.copysign(1.0, transform(q, a) - 1.0) == \
                math.copysign(1.0, q - 1.0)


class TestCompose:
    def test_product(self):
        assert compose(2.0, 3.0) == 6.0
        assert transform(transform(1.5, 2.0), 3.0) == pytest.approx(13.0 / 12.0, abs=1e-15)
        assert transform(1.5, 6.0) == pytest.approx(13.0 / 12.0, abs=1e-15)

    def test_identity(self):
        assert compose(2.5, 1.0) == 2.5

    def test_inverse_pair(self):
        assert compose(2.0, 0.5) == 1.0

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            compose(0.0, 2.0)

    def test_rejects_overflow(self):
        with pytest.raises(DomainError):
            compose(1e300, 1e300)


class TestDualities:
    def test_additive_dual(self):
        assert additive_dual(1.5) == 0.5

    def test_additive_fixed_point(self):
        assert additive_dual(1.0) == 1.0

    def test_additive_dual_flags_out_of_range(self):
        with pytest.warns(DualityRangeWarning):
            assert additive_dual(2.5) == -0.5

    def test_multiplicative_dual(self):
        assert multiplicative_dual(2.0) == 0.5

    def test_multiplicative_fixed_point(self):
        assert multiplicative_dual(1.0) == 1.0

    def test_multiplicative_rejects_zero(self):
        with pytest.raises(DomainError):
            multiplicative_dual(0.0)

    @given(qs)
    def test_additive_involution(self, q):
        assert rel_gap(additive_dual(additive_dual(q)), q) <= 1e-15

    @given(qs.filter(lambda q: abs(q) > 1e-6))
    def test_multiplicative_involution(self, q):
        assert rel_gap(multiplicative_dual(multiplicative_dual(q)), q) <= 1e-15


class TestHeatBath:
    def test_two_particles(self):
        assert heat_bath_q(2) == 2.0

    def test_many_particles(self):
        assert heat_bath_q(101) == pytest.approx(1.01, abs=1e-15)

    def test_additive_limit(self):
        assert abs(heat_bath_q(10**9) - 1.0) <= 1e-8

    def test_rejects_single_particle(self):
        with pytest.raises(DomainError):
            heat_bath_q(1)

    def test_rescale(self):
        assert rescale_bath(3, 2.0) == 5.0
        assert rescale_bath(3, 1.0) == 3.0

    def test_rescale_consistency(self):
        # q(N_alpha) and q(N) transformed by alpha are the same number
        assert abs(heat_bath_q(rescale_bath(5, 0.5)) - transform(heat_bath_q(5), 0.5)) \
            <= 1e-15
        assert rescale_bath(5, 0.5) == 3.0

    def test_rescale_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            rescale_bath(3, 0.0)
        with pytest.raises(DomainError):
            rescale_bath(3, -1.0)

    @given(st.integers(min_value=2, max_value=10**6),
           st.floats(min_value=1e-3, max_value=100.0))
    def test_rescaled_bath_index_stays_above_one(self, n, alpha):
        q = heat_bath_q(rescale_bath(n, alpha))
        assert q > 1.0
        assert rel_gap(q, transform(heat_bath_q(n), alpha)) <= 1e-12


class TestFluctuations:
    def test_moderate_bath(self):
        assert fluctuation_q(10.0, 0.2) == pytest.approx(1.1, abs=1e-15)

    def test_cancellation_point(self):
        assert fluctuation_q(1.0, 1.0) == 1.0

    def test_classical_limit(self):
        assert abs(fluctuation_q(1e12, 0.0) - 1.0) <= 1e-11

    def test_rejects_zero_capacity(self):
        with pytest.raises(DomainError):
            fluctuation_q(0.0, 0.1)

    def test_rescaled_fluctuation(self):
        assert rescaled_fluctuation(0.4, 2.0) == 0.2
        assert rescaled_fluctuation(0.4, 1.0) == 0.4
        assert rescaled_fluctuation(0.0, 5.0) == 0.0

    def test_rescaled_fluctuation_matches_transform(self):
        # with 1/C negligible, q - 1 is the relative fluctuation itself
        rf = 0.4
        q = 1.0 + rf
        assert transform(q, 2.0) - 1.0 == pytest.approx(
            rescaled_fluctuation(rf, 2.0), abs=1e-15)

    def test_rejects_negative_fluctuation(self):
        with pytest.raises(DomainError):
            rescaled_fluctuation(-0.1, 2.0)
