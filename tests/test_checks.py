import pytest

from qtherm.checks import run_algebra_suite, run_entropy_suite, run_group_suite

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


@pytest.mark.parametrize("seed", range(10))
def test_group_and_algebra_suites_pass(seed):
    # `qtherm check` runs under any seed a caller picks
    group, algebra = run_group_suite(seed), run_algebra_suite(seed)
    assert [r.name for r in group] == GROUP_PROPERTIES
    assert [r.name for r in algebra] == ALGEBRA_PROPERTIES
    assert [r.name for r in group + algebra if not r.passed] == []
    assert group[0].detail.startswith("10000 samples")
    assert algebra[0].detail.startswith("10000 samples")


@pytest.mark.parametrize("seed", [59, 244])
def test_entropy_suite_passes_near_q_one(seed):
    # these seeds draw q within 2e-6 of 1 for the additivity properties,
    # where (Z_q - 1)/(1 - q) used to lose digits
    assert [r.name for r in run_entropy_suite(seed) if not r.passed] == []
