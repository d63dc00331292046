import math
import warnings

import mpmath
import numpy as np
import pytest

from qtherm import entropy
from qtherm.checks import _draw
from qtherm.deformation import transform
from qtherm.entropy import (
    NORM_TOL,
    PartitionSum,
    _avg_hybrid_rows,
    _batch,
    _bound_rows,
    _escort_rows,
    _hartley_rows,
    _hybrid_rows,
    _partition_rows,
    _quasi_alpha_rows,
    _renyi_rows,
    _shannon_rows,
    _tsallis_rows,
    as_distribution,
    avg_hybrid,
    escort,
    escort_mean,
    hartley_moments,
    hybrid,
    partition_bound_check,
    partition_sum,
    product_distribution,
    quasi_additivity_alpha,
    quasi_additivity_check,
    renyi,
    shannon,
    tsallis,
)
from qtherm.errors import DomainError, RenormalizationWarning
from qtherm.qalgebra import q_add, q_exp, q_log

# Frozen from direct evaluation of the defining sums on (0.9, 0.1):
# -0.9 ln 0.9 - 0.1 ln 0.1 and 0.9 (ln 0.9)^2 + 0.1 (ln 0.1)^2.
SHANNON_91 = 0.3250829733914482
SECOND_MOMENT_91 = 0.5401805654815545


class TestDistributionValidation:
    def test_accepts_exact(self):
        p = as_distribution([0.25, 0.75])
        assert p.tolist() == [0.25, 0.75]

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            as_distribution([1.2, -0.2])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            as_distribution([0.5, math.nan])

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            as_distribution([0.5, 0.4])

    def test_renormalizes_near_miss_with_warning(self):
        with pytest.warns(RenormalizationWarning):
            p = as_distribution([0.5, 0.5 + 1e-10])
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_matrix(self):
        with pytest.raises(DomainError):
            as_distribution([[0.5, 0.5]])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            as_distribution([])


class TestPartitionSum:
    def test_named_fields(self):
        z = PartitionSum(0.82, 2.0)
        assert z.z == 0.82
        assert z.q_used == 2.0

    def test_zero_entry_convention(self):
        assert partition_sum([1.0, 0.0], 2.0) == 1.0

    def test_zero_entry_rejected_for_nonpositive_q(self):
        with pytest.raises(DomainError):
            partition_sum([1.0, 0.0], -1.0)


class TestTsallis:
    def test_uniform_two_q2(self):
        assert tsallis([0.5, 0.5], 2.0) == 0.5

    def test_shannon_limit_of_uniform(self):
        assert tsallis([0.5, 0.5], 1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_delta_is_zero(self):
        for q in (0.5, 1.0, 2.0):
            assert tsallis([1.0, 0.0, 0.0], q) == 0.0

    def test_maximal_at_uniform(self):
        for q in (0.5, 2.0):
            assert tsallis([0.25] * 4, q) > tsallis([0.4, 0.3, 0.2, 0.1], q)

    def test_non_increasing_in_q(self):
        p = [0.5, 0.3, 0.2]
        grid = np.linspace(0.5, 2.0, 16)
        values = [tsallis(p, q) for q in grid]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestShannon:
    def test_uniform_four(self):
        assert shannon([0.25] * 4) == pytest.approx(math.log(4.0), abs=1e-15)

    def test_delta(self):
        assert shannon([1.0, 0.0]) == 0.0

    def test_two_state(self):
        assert shannon([0.9, 0.1]) == pytest.approx(SHANNON_91, abs=1e-12)

    def test_matches_tsallis_at_one(self):
        p = [0.6, 0.3, 0.1]
        assert shannon(p) == tsallis(p, 1.0)


class TestRenyi:
    def test_uniform_is_log_n_for_all_q(self):
        for q in (0.2, 0.7, 2.0, 5.0):
            assert renyi([0.2] * 5, q) == pytest.approx(math.log(5.0), rel=1e-13)

    def test_two_state_q2(self):
        assert renyi([0.9, 0.1], 2.0) == pytest.approx(-math.log(0.82), abs=1e-13)

    def test_equals_log_qexp_of_tsallis(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            q = rng.uniform(0.2, 1.8)
            if abs(q - 1.0) < 0.05:
                continue
            assert renyi(p, q) == pytest.approx(
                math.log(q_exp(tsallis(p, q), q)), abs=1e-12)

    @pytest.mark.parametrize("p,q,exact", [
        # Z_q overflows: ln(1e600)/3
        ([1e-300, 1 - 1e-300], -2.0, 200.0 * math.log(10.0)),
        # Z_q underflows to 0
        ([0.5, 0.5], 1e308, math.log(2.0)),
        ([0.1] * 10, -1e308, math.log(10.0)),
    ])
    def test_partition_sum_out_of_range_stays_finite(self, p, q, exact):
        assert renyi(p, q) == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize("fn,match", [
    (tsallis, "Tsallis entropy overflows"),
    (partition_sum, "partition sum Z_q overflows"),
])
@pytest.mark.parametrize("p,q", [([1e-300, 1 - 1e-300], -2.0), ([0.5, 0.5], -1023.9)])
def test_overflowing_partition_sum_is_domain_error(fn, match, p, q):
    with pytest.raises(DomainError, match=match):
        fn(p, q)


class TestEscort:
    def test_identity_order(self):
        p = [0.7, 0.2, 0.1]
        assert escort(p, 1.0) == pytest.approx(p, abs=1e-15)

    def test_order_two(self):
        rho = escort([0.8, 0.2], 2.0)
        assert rho == pytest.approx([0.64 / 0.68, 0.04 / 0.68], abs=1e-15)

    def test_uniform_fixed_point(self):
        for r in (0.3, 2.0, 10.0):
            assert escort([0.25] * 4, r) == pytest.approx([0.25] * 4, abs=1e-15)

    def test_composition(self):
        p = [0.5, 0.3, 0.2]
        assert escort(escort(p, 2.0), 3.0) == pytest.approx(
            escort(p, 6.0), abs=1e-14)

    def test_extreme_order_is_finite(self):
        # every p^r under- or overflows here, the escort itself does not
        assert escort([0.5, 0.5], 3000.0).tolist() == [0.5, 0.5]
        assert escort([0.5, 0.5], -2000.0).tolist() == [0.5, 0.5]
        assert escort([0.9, 0.1], -2000.0).tolist() == [0.0, 1.0]
        assert escort([0.9, 0.1], 3000.0).tolist() == [1.0, 0.0]

    def test_subnormal_entry_at_order_near_zero(self):
        # p/p_min overflows for p_min = 5e-324, where inf**(-1e-12) = 0 would
        # give the escort [1, 0]; p^r is 1 to 1e-9 for both entries
        assert escort([5e-324, 1.0], -1e-12) == pytest.approx([0.5, 0.5], rel=1e-9)
        assert escort([5e-324, 1.0], -1.0).tolist() == [1.0, 5e-324]

    def test_zero_entry_at_extreme_order_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert escort([0.5, 0.5, 0.0], 3000.0).tolist() == [0.5, 0.5, 0.0]

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_is_a_domain_error(self, r):
        with pytest.raises(DomainError, match="r must be finite"):
            escort([0.5, 0.5], r)

    def test_mean_symmetric(self):
        assert escort_mean([0.5, 0.5], [0.0, 1.0], 7.3) == pytest.approx(0.5)

    def test_mean_order_two(self):
        assert escort_mean([0.8, 0.2], [0.0, 1.0], 2.0) == pytest.approx(
            0.04 / 0.68, abs=1e-15)

    def test_mean_constant_spectrum(self):
        assert escort_mean([0.6, 0.4], [2.5, 2.5], 1.7) == pytest.approx(2.5)

    def test_mean_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            escort_mean([0.5, 0.5], [0.0, 1.0, 2.0], 1.0)

    def test_mean_within_spectrum_range(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            e = rng.normal(size=4)
            m = escort_mean(p, e, rng.uniform(0.2, 3.0))
            assert e.min() - 1e-12 <= m <= e.max() + 1e-12

    @pytest.mark.parametrize("probs,levels,r,message", [
        ([0.5, math.nan], [0.0, 1.0], 1.0, "NaN or infinite"),
        ([0.5, 0.6], [0.0, 1.0], 1.0, "sum to 1.1"),
        ([0.5, 0.5], [0.0, 1.0, 2.0], 1.0, "does not match"),
        ([0.5, 0.5], [0.0, math.inf], 1.0, "levels contain"),
        ([0.5, 0.5], [0.0, 1.0], math.nan, "r must be finite"),
        ([1.0, 0.0], [0.0, 1.0], -1.0, "zero probability"),
        ([0.5, 0.5 + 1e-10], [0.0, 1.0], 2.0, None),
    ])
    def test_mean_validates_the_distribution_once(self, monkeypatch, probs, levels, r,
                                                  message):
        # one validation per call, with the errors and the renormalization
        # of escort's own
        if message is None:
            with pytest.warns(RenormalizationWarning):
                expected = float(np.dot(escort(probs, r), levels))
        calls = []
        real = entropy._checked
        monkeypatch.setattr(entropy, "_checked", lambda p: calls.append(p) or real(p))
        if message is None:
            with pytest.warns(RenormalizationWarning):
                assert escort_mean(probs, levels, r) == expected
        else:
            with pytest.raises(DomainError, match=message):
                escort_mean(probs, levels, r)
        assert len(calls) == 1


class TestHartleyAndQuasiAdditivity:
    def test_uniform_moments(self):
        mean, second = hartley_moments([0.2] * 5)
        assert mean == pytest.approx(math.log(5.0), abs=1e-14)
        assert second == pytest.approx(math.log(5.0) ** 2, abs=1e-14)

    def test_delta_moments(self):
        assert hartley_moments([1.0, 0.0]) == (0.0, 0.0)

    def test_two_state_moments(self):
        mean, second = hartley_moments([0.9, 0.1])
        assert mean == pytest.approx(SHANNON_91, abs=1e-12)
        assert second == pytest.approx(SECOND_MOMENT_91, abs=1e-12)

    def test_jensen(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mean, second = hartley_moments(rng.dirichlet(np.ones(5)))
            assert second >= mean**2 - 1e-14

    def test_alpha_uniform(self):
        assert quasi_additivity_alpha([0.2] * 5) == pytest.approx(2.0, abs=1e-10)

    def test_alpha_delta(self):
        assert quasi_additivity_alpha([1.0, 0.0, 0.0]) == 1.0

    def test_alpha_two_state(self):
        expected = 1.0 + SHANNON_91**2 / SECOND_MOMENT_91
        assert quasi_additivity_alpha([0.9, 0.1]) == pytest.approx(expected, abs=1e-12)
        assert quasi_additivity_alpha([0.9, 0.1]) == pytest.approx(1.19563, abs=1e-4)

    def test_alpha_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            alpha = quasi_additivity_alpha(rng.dirichlet(np.ones(4)))
            assert 1.0 - 1e-12 <= alpha <= 2.0 + 1e-12

    def test_check_exact_at_one(self):
        lhs, rhs, gap = quasi_additivity_check([0.6, 0.4], 1.0)
        assert gap <= 1e-12

    def test_check_uniform_brute_force(self):
        # brute force both sides on the n = 4 uniform distribution at q = 1.1
        n, q = 4, 1.1
        alpha = 2.0  # uniform has <I>^2 = <I^2>
        q_a = 1.0 + (q - 1.0) / alpha
        lhs_direct = 2.0 * (n * (1.0 / n) ** q - 1.0) / (1.0 - q)
        rhs_direct = (n * n * (1.0 / (n * n)) ** q_a - 1.0) / (1.0 - q_a)
        lhs, rhs, gap = quasi_additivity_check([1.0 / n] * n, q)
        assert lhs == pytest.approx(lhs_direct, rel=1e-13)
        assert rhs == pytest.approx(rhs_direct, rel=1e-13)
        assert gap == pytest.approx(abs(lhs_direct - rhs_direct), rel=1e-10)

    def test_gap_is_second_order(self):
        p = [0.5, 0.3, 0.2]
        gaps = [quasi_additivity_check(p, 1.0 + dq)[2] for dq in (0.1, 0.05, 0.025)]
        orders = [math.log2(gaps[0] / gaps[1]), math.log2(gaps[1] / gaps[2])]
        for order in orders:
            assert order == pytest.approx(2.0, abs=0.2)


class TestHybrid:
    def test_collapses_to_shannon(self):
        p = [0.5, 0.3, 0.2]
        assert hybrid(p, 1.0) == pytest.approx(shannon(p), abs=1e-14)

    def test_uniform_is_q_log_n(self):
        for q in (0.6, 1.3, 2.0):
            assert hybrid([0.25] * 4, q) == pytest.approx(q_log(4.0, q), rel=1e-13)

    def test_rejects_below_half(self):
        with pytest.raises(DomainError):
            hybrid([0.5, 0.5], 0.4)

    def test_non_negative(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            assert hybrid(rng.dirichlet(np.ones(4)), rng.uniform(0.5, 3.0)) >= 0.0

    def test_zero_entries_are_excluded(self):
        assert hybrid([0.5, 0.5, 0.0], 1.3) == pytest.approx(
            hybrid([0.5, 0.5], 1.3), abs=1e-14)

    def test_pseudo_additive_on_products(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            pa = rng.dirichlet(np.ones(3))
            pb = rng.dirichlet(np.ones(4))
            q = rng.uniform(0.5, 2.5)
            joint = product_distribution(pa, pb)
            expected = q_add(hybrid(pa, q), hybrid(pb, q), q)
            assert abs(hybrid(joint, q) - expected) <= \
                1e-10 * max(1.0, abs(expected))


class TestAvgHybrid:
    def test_matches_shifted_index(self):
        p = [0.5, 0.3, 0.2]
        for q in (0.0, 0.8, 1.0, 2.4):
            assert avg_hybrid(p, q) == hybrid(p, transform(q, 2.0))
            assert avg_hybrid(p, q) == pytest.approx(
                hybrid(p, 0.5 * (q + 1.0)), rel=1e-13)

    def test_q_one_is_shannon(self):
        p = [0.7, 0.2, 0.1]
        assert avg_hybrid(p, 1.0) == pytest.approx(shannon(p), abs=1e-14)

    def test_boundary_q_zero(self):
        p = [0.6, 0.4]
        assert avg_hybrid(p, 0.0) == hybrid(p, 0.5)

    def test_uniform(self):
        for q in (0.0, 1.4):
            assert avg_hybrid([0.25] * 4, q) == pytest.approx(
                q_log(4.0, 0.5 * (q + 1.0)), rel=1e-13)

    def test_rejects_negative_q(self):
        with pytest.raises(DomainError):
            avg_hybrid([0.5, 0.5], -0.1)


class TestNonFiniteIndex:
    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [tsallis, renyi, hybrid, avg_hybrid, partition_sum,
                                    partition_bound_check])
    def test_rejected(self, fn, q):
        with pytest.raises(DomainError, match="q must be finite"):
            fn([0.5, 0.3, 0.2], q)

    def test_message_names_the_value(self):
        with pytest.raises(DomainError, match=r"^q must be finite, got nan$"):
            tsallis([0.5, 0.5], math.nan)


class TestProductDistributions:
    def test_pseudo_additivity_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            pa = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
            pb = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
            q = rng.uniform(-1.0, 3.0)
            joint = product_distribution(pa, pb)
            lhs = tsallis(joint, q)
            rhs = q_add(tsallis(pa, q), tsallis(pb, q), q)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_pseudo_additivity_near_q_one(self):
        # |q - 1| far above the Shannon switch but small enough that
        # (Z_q - 1)/(1 - q) would lose about eps/|q - 1| of its digits
        rng = np.random.default_rng(43)
        q = 1.0 - 1.8e-6
        for _ in range(200):
            pa = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
            pb = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
            joint = product_distribution(pa, pb)
            lhs = tsallis(joint, q)
            rhs = q_add(tsallis(pa, q), tsallis(pb, q), q)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
            lhs = renyi(joint, q)
            rhs = renyi(pa, q) + renyi(pb, q)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_renyi_additivity(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            pa = rng.dirichlet(np.ones(3))
            pb = rng.dirichlet(np.ones(4))
            q = rng.uniform(0.0, 3.0)
            lhs = renyi(product_distribution(pa, pb), q)
            rhs = renyi(pa, q) + renyi(pb, q)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def _padded(dists, width=None) -> np.ndarray:
    width = width or max(len(p) for p in dists)
    out = np.zeros((len(dists), width))
    for i, p in enumerate(dists):
        out[i, :len(p)] = p
    return out


def _ulps(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def _assert_rows_match_1d(dists, q):
    """Every row kernel on the zero-padded batch of ``dists`` (with index
    q[i] in row i, mapped into each kernel's domain) against the 1-D
    function on the unpadded vector, to 4 ulps."""
    q = np.asarray(q, dtype=float)
    rows = _batch(_padded(dists, width=36))
    q_half, q_pos = 0.5 + np.abs(q), np.abs(q)

    def expect(fn, index):
        return [fn(p, qi) for p, qi in zip(dists, index)]

    assert _ulps(_tsallis_rows(rows, q), expect(tsallis, q)) <= 4
    assert _ulps(_renyi_rows(rows, q), expect(renyi, q)) <= 4
    assert _ulps(_partition_rows(rows, q), expect(partition_sum, q)) <= 4
    assert _ulps(_shannon_rows(rows), [shannon(p) for p in dists]) <= 4
    assert _ulps(np.transpose(_hartley_rows(rows)), [hartley_moments(p) for p in dists]) <= 4
    assert _ulps(_quasi_alpha_rows(rows), [quasi_additivity_alpha(p) for p in dists]) <= 4
    assert _ulps(_hybrid_rows(rows, q_half), expect(hybrid, q_half)) <= 4
    assert _ulps(_avg_hybrid_rows(rows, q_pos), expect(avg_hybrid, q_pos)) <= 4
    assert _ulps(np.transpose(_bound_rows(rows, q_pos)),
                 expect(partition_bound_check, q_pos)) <= 4
    rho = _escort_rows(rows, q)
    for i, p in enumerate(dists):
        assert _ulps(rho[i, :len(p)], escort(p, q[i])) <= 4
        assert np.all(rho[i, len(p):] == 0.0)


def _interior_zeros():
    """Vectors with zeros strictly inside, at n = 3 and past the 8 entries
    that ``np.sum`` adds one by one, each with its zeros dropped."""
    rng = np.random.default_rng(17)
    for n in (3, 9, 17, 36):
        for _ in range(25):
            p = rng.dirichlet(np.ones(n))
            p[rng.choice(np.arange(1, n - 1), size=max(1, n // 3), replace=False)] = 0.0
            p /= p.sum()
            yield p, p[p > 0.0]


class TestInteriorZeros:
    """A zero inside a vector changes a functional only by the rounding of
    another summation order."""

    @pytest.mark.parametrize("fn,ulps", [
        # one sum of same-sign terms
        (partition_sum, 4), (shannon, 4), (hartley_moments, 4),
        # a sum, then a quotient or a logarithm
        (tsallis, 8), (renyi, 8), (quasi_additivity_alpha, 8),
        # the escort normalizer, the escort average, then expm1
        (hybrid, 16), (avg_hybrid, 16),
    ])
    def test_functional_ignores_zeros(self, fn, ulps):
        for p, support in _interior_zeros():
            if fn in (shannon, hartley_moments, quasi_additivity_alpha):
                assert _ulps(fn(p), fn(support)) <= ulps
            else:
                for q in (0.5, 0.7, 1.3, 2.5):
                    assert _ulps(fn(p, q), fn(support, q)) <= ulps

    def test_escort_keeps_zeros_in_place(self):
        for p, support in _interior_zeros():
            for r in (0.5, 1.3, 2.5):
                rho = escort(p, r)
                assert np.all(rho[p == 0.0] == 0.0)
                assert _ulps(rho[p > 0.0], escort(support, r)) <= 8


class TestContinuityAtQOne:
    """Each functional is one form, continuous across q = 1: |dS/dq| at
    q = 1 is at most <I^2> for all three, and within 2e-9 of q = 1 the
    values move by at most twice that times |dq|."""

    @pytest.mark.parametrize("fn", [tsallis, renyi, hybrid])
    @pytest.mark.parametrize("n", [2, 9, 36])
    def test_branches_meet(self, fn, n):
        p = np.random.default_rng(n).dirichlet(np.ones(n))
        second = hartley_moments(p)[1]
        t = 1e-9
        for side in (1.0, -1.0):
            inner, outer = 1.0 + side * 0.5 * t, 1.0 + side * 2.0 * t
            gap = abs(fn(p, outer) - fn(p, inner))
            assert gap <= 2.0 * abs(outer - inner) * second
        assert abs(fn(p, 1.0 + 2.0 * t) - fn(p, 1.0 - 2.0 * t)) <= 2.0 * 4.0 * t * second

    def test_matches_mpmath_near_one(self):
        # 50-digit references at |q - 1| in 10^U(-12, -2), on both sides of
        # 1: S_q = sum_k p_k ln_q(1/p_k), R_q = ln(1 + (1 - q)S_q)/(1 - q) and
        # D_q = expm1((1 - q)a)/(1 - q), a the escort average of ln(1/p)
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(200):
            q = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -2.0)
            p = rng.dirichlet(np.ones(rng.integers(2, 7)))
            with mpmath.workdps(50):
                c, ps = 1 - mpmath.mpf(q), [mpmath.mpf(v) for v in p]
                s = sum(v * (v ** (q - 1) - 1) for v in ps) / c
                weights = [v ** mpmath.mpf(q) for v in ps]
                a = -sum(w * mpmath.log(v) for w, v in zip(weights, ps)) / sum(weights)
                pairs = [(tsallis(p, q), s), (renyi(p, q), mpmath.log1p(c * s) / c),
                         (hybrid(p, q), mpmath.expm1(c * a) / c)]
                worst = max(worst, *(float(abs(got - ref) / abs(ref)) for got, ref in pairs))
        assert worst <= 1e-14


class TestRowKernels:
    """The private row kernels behind every 1-D functional."""

    def test_rows_of_length_one_and_thirty_six(self):
        rng = np.random.default_rng(3)
        dists = [np.array([1.0])]
        for _ in range(40):
            pa, pb = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
            dists.append(product_distribution(pa, pb))
        dists += [rng.dirichlet(np.ones(n)) for n in range(1, 37)]
        q = rng.uniform(-1.0, 3.0, len(dists))
        assert {len(p) for p in dists} >= {1, 36}
        _assert_rows_match_1d(dists, q)

    def test_nonpositive_q_with_padding(self):
        # padded zeros lie outside the support for every q: 0^q := 0
        rng = np.random.default_rng(5)
        dists = [rng.dirichlet(np.ones(n)) for n in (2, 3, 5, 6, 1, 4)]
        q = np.array([-1.0, -0.3, 0.0, -2.5, -1.0, 0.0])
        _assert_rows_match_1d(dists, q)
        # the 1-D functions keep the zero-entry error for q <= 0
        with pytest.raises(DomainError, match="zero probability"):
            tsallis(_padded(dists[:1], width=4)[0], -1.0)

    @pytest.mark.parametrize("seed", [1594, 3578])
    def test_q_near_one(self, seed):
        # the entropy suite's draws at these seeds put q within 2e-6 of 1,
        # above and below
        pa, pb, q, _ = _draw(np.random.default_rng(seed), 1000, 2, (-1.0, 3.0), (0.2, 1.8))
        near = np.flatnonzero(np.abs(q - 1.0) < 1e-5)
        assert near.size > 0
        dists, qs = [], []
        for i in near:
            a, b = pa[i][pa[i] > 0.0], pb[i][pb[i] > 0.0]
            dists += [a, b, product_distribution(a, b)]
            qs += [q[i]] * 3
        # and within 1e-9 of q = 1, on both sides, and at q = 1
        for dq in (5e-10, -5e-10, 0.0):
            dists.append(dists[2])
            qs.append(1.0 + dq)
        _assert_rows_match_1d(dists, qs)

    def test_renyi_log_branch(self):
        # Z_q < 1/2, so ln Z_q comes from the powers relative to the largest
        # p and not from log1p
        dists = [np.full(36, 1.0 / 36), np.full(12, 1.0 / 12), np.array([0.5, 0.5])]
        q = np.array([3.0, 2.5, 1.5])
        z = _partition_rows(_batch(_padded(dists)), q)
        assert list(z <= 0.5) == [True, True, False]
        _assert_rows_match_1d(dists, q)

    def test_hybrid_at_q_one(self):
        rng = np.random.default_rng(11)
        dists = [rng.dirichlet(np.ones(n)) for n in (2, 6, 36)]
        rows = _batch(_padded(dists))
        got = _hybrid_rows(rows, np.ones(3))
        assert _ulps(got, [hybrid(p, 1.0) for p in dists]) <= 4
        assert _ulps(got, _shannon_rows(rows)) <= 4

    @pytest.mark.parametrize("row,message", [
        ([0.5, -0.5, 1.0], "row 2: probability vector contains negative entries"),
        ([0.5, math.nan, 0.5], "row 2: probability vector contains NaN or infinite"),
        ([0.5, 0.4, 0.0], r"row 2: probabilities sum to 0\.9, not 1"),
    ])
    def test_invalid_row_is_named(self, row, message):
        batch = [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], row, [0.2, 0.3, 0.5]]
        with pytest.raises(DomainError, match=f"^{message}"):
            _batch(batch)

    def test_domain_error_of_a_kernel_names_the_row(self):
        rows = _batch([[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]])
        with pytest.raises(DomainError, match=r"^row 1: hybrid entropy requires q >= 1/2"):
            _hybrid_rows(rows, np.array([1.0, 0.4, 0.3]))
        with pytest.raises(DomainError, match=r"^row 2: bound check requires q >= 0"):
            _bound_rows(rows, np.array([1.0, 0.0, -0.1]))

    def test_near_miss_row_is_renormalized(self):
        with pytest.warns(RenormalizationWarning, match="^row 1: "):
            rows = _batch([[0.5, 0.5], [0.5, 0.5 + 1e-10]])
        assert abs(rows.s[1].sum() - 1.0) <= NORM_TOL

    def test_batch_must_be_two_dimensional(self):
        with pytest.raises(DomainError):
            _batch([0.5, 0.5])
