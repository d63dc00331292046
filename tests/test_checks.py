import numpy as np
import pytest

from qtherm.checks import (
    ENTROPY_SAMPLES,
    _draw,
    run_algebra_suite,
    run_entropy_suite,
    run_group_suite,
    run_maxent_suite,
    run_suite,
    simplex_constrained_maximizer,
)
from qtherm.errors import DomainError
from qtherm.maxent import _affinity_residual, solve_maxent

E3 = np.array([0.0, 1.0, 2.0])

GROUP_PROPERTIES = [
    "composition", "associativity", "neutral element", "unit invariant",
    "inverse element", "sign preservation", "additive dual involution",
    "multiplicative dual involution", "heat bath consistency",
    "rescaled bath stays above q = 1",
]
ALGEBRA_PROPERTIES = [
    "add/sub inverse", "mul/div inverse", "exp product", "exp of sum",
    "log of product", "log sum", "dist add", "dist sub", "dist mul", "dist div",
    "exp scaling", "log scaling", "assoc add", "assoc mul", "commutativity",
    "classical limit q -> 1", "plain distributivity fails (witness)",
]

# Every property of `qtherm check --suite all`, in order, with the first
# field of its detail: the sample count where it has one, so that no
# property and no sample can drop out unnoticed.
ALL_PROPERTIES = [
    ("group.composition", "10000 samples"),
    ("group.associativity", "10000 samples"),
    ("group.neutral element", "10000 samples"),
    ("group.unit invariant", "10000 samples"),
    ("group.inverse element", "10000 samples"),
    ("group.sign preservation", "10000 samples"),
    ("group.additive dual involution", "10000 samples"),
    ("group.multiplicative dual involution", "10000 samples"),
    ("group.heat bath consistency", "1000 samples"),
    ("group.rescaled bath stays above q = 1", "1000 samples"),
    ("algebra.add/sub inverse", "10000 samples"),
    ("algebra.mul/div inverse", "10000 samples"),
    ("algebra.exp product", "10000 samples"),
    ("algebra.exp of sum", "10000 samples"),
    ("algebra.log of product", "10000 samples"),
    ("algebra.log sum", "10000 samples"),
    ("algebra.dist add", "10000 samples"),
    ("algebra.dist sub", "10000 samples"),
    ("algebra.dist mul", "10000 samples"),
    ("algebra.dist div", "10000 samples"),
    ("algebra.exp scaling", "10000 samples"),
    ("algebra.log scaling", "10000 samples"),
    ("algebra.assoc add", "10000 samples"),
    ("algebra.assoc mul", "10000 samples"),
    ("algebra.commutativity", "10000 samples"),
    ("algebra.classical limit q -> 1", "1000 samples"),
    ("algebra.plain distributivity fails (witness)", "x(y (+)_q z) = 5 vs xy (+)_q xz = 6 at q = 0.5"),
    ("entropy.nonadditive pseudo-additivity", "1000 samples"),
    ("entropy.renyi additivity", "1000 samples"),
    ("entropy.renyi = log q-exp of tsallis", "1000 samples"),
    ("entropy.quasi-additivity alpha in [1, 2]", "10000 samples"),
    ("entropy.alpha = 2 on uniform, 1 on delta", "uniform gap 4.44e-16"),
    ("entropy.quasi-additivity gap is second order in q - 1", "measured orders 1.940"),
    ("entropy.hybrid pseudo-additivity", "1000 samples"),
    ("entropy.hybrid at q = 1 is Shannon", "1000 samples"),
    ("entropy.average hybrid index rescaling", "1000 samples"),
    ("entropy.hybrid rejects q < 1/2", "hybrid(P"),
    ("entropy.nonadditive entropy non-increasing in q", "grid of 16 points on [0.5"),
    ("maxent.trinomial back-substitution", "205 samples"),
    ("maxent.root branch continuous with x(0) = 1", "205 grid points"),
    ("maxent.series matches closed forms", "63 samples"),
    ("maxent.alpha = 2 coefficients are Catalan", "n = 1..10"),
    ("maxent.Lambert W back-substitution", "1000 samples"),
    ("maxent.Lambert W anchors W(0) = 0, W(e) = 1", "exact / 1e-14"),
    ("maxent.stationarity residual on (q, alpha) grid", "12 samples"),
    ("maxent.all grid solves converged", "12 problems"),
    ("maxent.Renyi at omega/Z_{q_alpha} is Tsallis at omega", "12 samples"),
    ("maxent.alpha = 1 roots are q-exponential", "4 samples"),
    ("maxent.n = 3 simplex-grid oracle agreement", "3 samples"),
    ("maxent.shannon-limit solver matches Gibbs near q = 1", "1 samples"),
    ("maxent.shannon-limit stationarity residual", "1 samples"),
    ("maxent.Gibbs meets trinomial at q = 1", "4 samples"),
    ("maxent.alpha * (p_alpha - p_inf) settles as alpha -> inf", "3 samples"),
    ("maxent.q_alpha rounded to 1 is the Shannon limit", "alpha = 1e17"),
    ("maxent.omega = 0 gives uniform", "1 samples"),
    ("maxent.degenerate spectrum gives uniform", "1 samples"),
    ("maxent.partition-sum Cauchy-Schwarz bound", "10000 samples"),
]


def test_all_properties_and_sample_counts():
    results = run_suite("all", 7)
    assert [(f"{r.suite}.{r.name}", r.detail.split(",")[0]) for r in results] \
        == ALL_PROPERTIES
    assert len(results) == 57


@pytest.mark.parametrize("seed", range(10))
def test_group_and_algebra_suites_pass(seed):
    # `qtherm check` runs under any seed a caller picks
    group, algebra = run_group_suite(seed), run_algebra_suite(seed)
    assert [r.name for r in group] == GROUP_PROPERTIES
    assert [r.name for r in algebra] == ALGEBRA_PROPERTIES
    assert [r.name for r in group + algebra if not r.passed] == []
    assert group[0].detail.startswith("10000 samples")
    assert algebra[0].detail.startswith("10000 samples")


@pytest.mark.parametrize("seed", [1594, 3578])
def test_entropy_suite_passes_near_q_one(seed):
    # these seeds draw q within 2e-6 of 1, above and below, for the additivity
    # properties, where (Z_q - 1)/(1 - q) used to lose digits; the suite's
    # first draw is replayed so that a change of draws cannot void the test
    _, _, q, _ = _draw(np.random.default_rng(seed), ENTROPY_SAMPLES, 2,
                       (-1.0, 3.0), (0.2, 1.8))
    assert np.min(np.abs(q - 1.0)) < 2e-6
    assert [r.name for r in run_entropy_suite(seed) if not r.passed] == []


@pytest.mark.parametrize("seed", range(10))
def test_entropy_and_maxent_suites_pass(seed):
    results = run_entropy_suite(seed) + run_maxent_suite(seed)
    assert [(f"{r.suite}.{r.name}", r.detail.split(",")[0]) for r in results] \
        == [row for row in ALL_PROPERTIES if row[0].split(".")[0] in ("entropy", "maxent")]
    assert [r.name for r in results if not r.passed] == []


class TestSimplexOracle:
    def test_close_levels(self):
        # two levels 0.03 apart: the 2-D grid scan missed by 8.2e-4 here
        e = np.array([0.0, 1.97, 2.0])
        sol = solve_maxent(e, 2.03, 1.0, 1.0)
        p = simplex_constrained_maximizer(e, 2.03, 1.0, sol.escort_mean)
        assert np.max(np.abs(p - sol.probs)) <= 1e-6

    @pytest.mark.parametrize("q", [0.6, 0.8, 1.2, 1.7])
    @pytest.mark.parametrize("target", [0.5, 0.8, 1.3])
    def test_alpha_one_maximizer_is_q_exponential(self, q, target):
        # at alpha = 1 the maximizer's p^(1-q) is affine in E, with no
        # solver involved
        p = simplex_constrained_maximizer(E3, q, 1.0, target)
        assert _affinity_residual(p, E3, q) <= 1e-7

    def test_degenerate_levels_share_probability(self):
        for q, alpha, target in ((1.2, 2.0, 1.0), (0.7, 0.5, 0.4), (2.0, 3.0, 1.9)):
            p = simplex_constrained_maximizer([0.0, 0.0, 2.0], q, alpha, target)
            assert abs(p[0] - p[1]) <= 1e-6
            assert p.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("target", [0.0, 2.0, -1.0, 3.0, np.inf, np.nan])
    def test_target_outside_open_spectrum_is_domain_error(self, target):
        with pytest.raises(DomainError, match="no feasible point"):
            simplex_constrained_maximizer(E3, 1.2, 2.0, target)

    def test_flat_spectrum_is_domain_error(self):
        with pytest.raises(DomainError, match="no feasible point"):
            simplex_constrained_maximizer([1.0, 1.0, 1.0], 1.2, 2.0, 1.0)

    @pytest.mark.parametrize("q,alpha", [(0.0, 2.0), (1.0, 2.0), (1.3, 1e17)])
    def test_uniform_escort_or_shannon_index_is_domain_error(self, q, alpha):
        # the escort is uniform at q = 0; at q_alpha = 1 the entropy is 0/0
        with pytest.raises(DomainError, match="q != 0 and q_alpha != 1"):
            simplex_constrained_maximizer(E3, q, alpha, 0.8)

    @pytest.mark.parametrize("e", [[0.0, 2.0], [0.0, 1.0, 1.5, 2.0]])
    def test_other_sizes_are_domain_error(self, e):
        with pytest.raises(DomainError, match="3-level"):
            simplex_constrained_maximizer(e, 1.2, 2.0, 0.8)
