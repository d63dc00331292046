"""The result contract of the public scalar API over a seeded edge grid.

Every call returns a finite float, or +-inf where its exact value lies
beyond the float range, or raises a ``QThermError``.  A NaN or infinite
argument always raises.  No call returns NaN, an infinity that the exact
value does not reach, or raises any other exception; under the suite's
``error::RuntimeWarning`` filter a NumPy warning is such an exception.  The
entropy functionals take each of ``DISTRIBUTIONS`` with every index of the
grid.
"""

import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from qtherm import entropy as ent
from qtherm import qalgebra as qa
from qtherm.entropy import escort_mean
from qtherm.errors import QThermError, RenormalizationWarning
from qtherm.trinomial import lambert_w, solve_trinomial, trinomial_b, trinomial_series

# zeros of both signs, units, the float range's ends, a subnormal, the
# infinities, nan and the two sides of q = 1
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -3.0, 100.0, 1e6, 1e17, 1e-12, 1e-300,
         5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan, 1.0 + 1e-10, 1.0 - 1e-10]
# seeded draws from EDGES for a function of more than two arguments; one of
# at most two takes every combination
DRAWS = 1500
# the distributions of the entropy functionals: two levels, one of them
# subnormal, tiny or 0, and uniform ones whose entropy is large enough that
# (1 - q) times it overflows at q = 1e308 (8 levels), or at the average
# hybrid's index (1e308 + 1)/2 (1000 levels)
DISTRIBUTIONS = [[0.5, 0.5], [0.25, 0.75], [5e-324, 1.0], [1e-300, 1.0], [0.0, 1.0],
                 [0.125] * 8, [1e-3] * 1000]


def _power(base, exponent):
    """base**exponent over the reals, 0 where the base is not positive (the
    q < 1 cutoff; a q >= 1 base there raises and reaches no oracle)."""
    return base**exponent if base > 0 else mpmath.mpf(0)


def _exact_q_algebra(name: str, args):
    """The value of a q-algebra call in 50-digit arithmetic."""
    with mpmath.workdps(50):
        *xs, q = (mpmath.mpf(a) for a in args)
        c = 1 - q
        if name == "q_add":
            return xs[0] + xs[1] + c * xs[0] * xs[1]
        if name == "q_sub":
            return (xs[0] - xs[1]) / (1 + c * xs[1])
        if name == "q_exp":
            return mpmath.exp(xs[0]) if c == 0 else _power(1 + c * xs[0], 1 / c)
        if name == "q_log":
            return mpmath.log(xs[0]) if c == 0 else (xs[0]**c - 1) / c
        if c == 0:
            return xs[0] * xs[1] if name == "q_mul" else xs[0] / xs[1]
        sign = 1 if name == "q_mul" else -1
        return _power(xs[0]**c + sign * xs[1]**c - sign, 1 / c)


# name -> (function, arity, exact value where the call may overflow)
API = {
    "q_add": (qa.q_add, 3, _exact_q_algebra),
    "q_sub": (qa.q_sub, 3, _exact_q_algebra),
    "q_mul": (qa.q_mul, 3, _exact_q_algebra),
    "q_div": (qa.q_div, 3, _exact_q_algebra),
    "q_exp": (qa.q_exp, 2, _exact_q_algebra),
    "q_log": (qa.q_log, 2, _exact_q_algebra),
    "escort_mean": (lambda p0, p1, e0, e1, r: escort_mean([p0, p1], [e0, e1], r), 5, None),
    "trinomial_b": (trinomial_b, 6, None),
    "trinomial_series": (lambda alpha, b: trinomial_series(alpha, b)[0], 2, None),
    "solve_trinomial": (solve_trinomial, 2, None),
    "lambert_w": (lambert_w, 1, None),
    # arity None: a distribution and an index
    "partition_sum": (ent.partition_sum, None, None),
    "tsallis": (ent.tsallis, None, None),
    "renyi": (ent.renyi, None, None),
    "hybrid": (ent.hybrid, None, None),
    "avg_hybrid": (ent.avg_hybrid, None, None),
    # the largest escort weight, NaN if any weight is
    "escort": (lambda p, r: float(np.max(ent.escort(p, r))), None, None),
}

# calls where the formulas taken as written overflow or lose the answer
REPRODUCERS = {
    "q_add": [(1e160, 1e160, 1.0), (2.0, 1e308, 1.0), (1e160, 1e160, 1.0 - 1e-16),
              (1e308, 1e308, 2.0)],
    "q_sub": [(1e308, -1e308, -1.0), (1e308, -1e308, 3.0)],
    "escort_mean": [(0.2, 0.8, 0.0, math.inf, 1.0), (0.2, 0.8, 0.0, math.nan, 1.0)],
    "trinomial_b": [(1.2, 2.0, 1.0, 1.0, math.nan, 1.0), (1.2, 2.0, 1.0, 1.0, math.inf, 1.0),
                    (0.0, 0.0, 1.0, 1.0, 1.0, 5e-324), (1e308, -1.0, 1.0, 1.0, 1.0, 1e308)],
    "trinomial_series": [(-1.0, 1e308), (-3.0, 1e100)],
    "solve_trinomial": [(-1.0, 1e200), (-2.0, 1e300), (-1.0, 1e308)],
    # a power of a ratio to a subnormal entry, and (1 - q) times the hybrid
    # entropy's exponent, overflow to -inf on their way to the right value
    "escort": [([5e-324, 1.0], -1e308)],
    "hybrid": [([0.125] * 8, 1e308)],
    "avg_hybrid": [([1e-3] * 1000, 1e308)],
}


def _violation(name: str, args):
    """How the call breaks the contract, or None."""
    fn, _, exact = API[name]
    try:
        value = fn(*args)
    except QThermError:
        return None
    except Exception as err:  # noqa: BLE001 - any other exception breaks it
        return f"raises {type(err).__name__}: {err}"
    if not all(np.isfinite(arg).all() for arg in args):
        return f"returns {value!r} for an argument that is not finite"
    if not isinstance(value, float):
        return f"returns {type(value).__name__}"
    if math.isnan(value):
        return "returns nan"
    if math.isinf(value):
        true = None if exact is None else exact(name, args)
        if true is None or abs(true) <= sys.float_info.max or (true > 0) != (value > 0):
            return f"returns {value!r} where the value is {true}"
    return None


def _calls(name: str):
    arity = API[name][1]
    if arity is None:
        calls = list(itertools.product(DISTRIBUTIONS, EDGES))
    elif arity <= 2:
        calls = list(itertools.product(EDGES, repeat=arity))
    else:
        rng = np.random.default_rng(sum(map(ord, name)))
        calls = [tuple(EDGES[i] for i in row)
                 for row in rng.integers(0, len(EDGES), (DRAWS, arity))]
    return calls + REPRODUCERS.get(name, [])


@pytest.mark.parametrize("name", API)
def test_edge_grid_keeps_the_result_contract(name):
    with warnings.catch_warnings():
        # a distribution off normalization is rescaled with a warning
        warnings.simplefilter("ignore", RenormalizationWarning)
        broken = [(args, why) for args in _calls(name)
                  if (why := _violation(name, args)) is not None]
    assert broken == []
