import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qtherm.errors import DomainError, NonConvergenceError
from qtherm.rootfind import brent

# f_c with its only root at c; the tanh slope keeps a sign change on any
# bracket around c, and the quintic and arctan stress the bisection steps
FAMILIES = {
    "cubic": lambda c: lambda x: x**3 - c**3,
    "tanh": lambda c: lambda x: math.tanh(x - c) + 1e-3 * (x - c),
    "exp": lambda c: lambda x: math.exp(x) - math.exp(c),
    "quintic": lambda c: lambda x: (x - c) ** 5,
    "arctan": lambda c: lambda x: math.atan(50.0 * (x - c)),
}


@pytest.mark.parametrize("seed,family", list(enumerate(FAMILIES)))
def test_matches_scipy_brentq_bit_for_bit(seed, family):
    rng = np.random.default_rng([seed, 13])
    for _ in range(400):
        c = rng.uniform(-2.0, 2.0)
        f = FAMILIES[family](c)
        a, b = c - rng.uniform(0.01, 5.0), c + rng.uniform(0.01, 5.0)
        if rng.random() < 0.5:
            a, b = b, a
        xtol = 10.0 ** rng.uniform(-17.0, -2.0)
        maxiter = int(rng.integers(3, 100))
        root, info = brentq(f, a, b, xtol=xtol, maxiter=maxiter,
                            full_output=True, disp=False)
        assert brent(f, a, b, xtol, maxiter) == (root, info.iterations,
                                                 info.converged)


def test_root_at_an_end_takes_no_step():
    assert brent(lambda x: x - 1.0, 0.0, 1.0, 1e-12, 100) == (1.0, 0, True)
    assert brent(lambda x: x, 0.0, 1.0, 1e-12, 100) == (0.0, 0, True)


def test_iteration_cap_returns_last_iterate_unconverged():
    root, iterations, converged = brent(lambda x: x**3 - 2.0, 0.0, 3.0, 1e-15, 2)
    assert (iterations, converged) == (2, False)
    assert 0.0 < root < 3.0


def test_same_sign_ends_are_a_domain_error():
    with pytest.raises(DomainError):
        brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 100)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_value_is_non_convergence(bad):
    # finite with a sign change at both ends, not finite inside
    def gap(x):
        return x - 0.3 if x in (0.0, 1.0) else bad

    with pytest.raises(NonConvergenceError, match="function value"):
        brent(gap, 0.0, 1.0, 1e-12, 100)
