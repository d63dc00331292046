"""The array contract of ``deformation`` and ``qalgebra``.

Each function is one elementwise implementation: an array call equals the
scalar calls bit for bit, a scalar call returns a Python float, and one
element outside the domain raises ``DomainError`` for the whole call.
"""

import itertools
import math

import numpy as np
import pytest

from qtherm import deformation as dfm
from qtherm import qalgebra as qa
from qtherm.errors import DomainError

# domain edges: zero, the q = 1 branch and its threshold, the q < 1 cutoff,
# overflow, the q_sub pole y = 1/(q - 1) and negative bases
GRID = [-1e300, -3.0, -1.0, -0.5, -0.0, 0.0, 1e-300, 0.3, 0.5, 1.0 - 1e-9,
        1.0 - 1e-12, 1.0, 1.0 + 2e-9, 1.5, 2.0, 7.3, 1e300]

# function, arity, one point outside its domain
FUNCTIONS = [
    (dfm.transform, 2, (1.5, 0.0)),
    (dfm.compose, 2, (1e300, 1e300)),
    (dfm.additive_dual, 1, (math.nan,)),
    (dfm.multiplicative_dual, 1, (0.0,)),
    (dfm.heat_bath_q, 1, (1.0,)),
    (dfm.rescale_bath, 2, (3.0, 0.0)),
    (dfm.fluctuation_q, 2, (10.0, -0.1)),
    (dfm.rescaled_fluctuation, 2, (0.4, -2.0)),
    (qa.q_add, 3, (1.0, math.inf, 0.5)),
    (qa.q_sub, 3, (4.0, -1.0, 0.0)),
    (qa.q_mul, 3, (100.0, 100.0, 3.0)),
    (qa.q_div, 3, (0.01, 100.0, 0.5)),
    (qa.q_exp, 2, (3.0, 2.0)),
    (qa.q_log, 2, (0.0, 0.5)),
]


def _inside(fn, arity):
    """The grid points where the scalar call returns, with its values."""
    points, values = [], []
    for point in itertools.product(GRID, repeat=arity):
        try:
            value = fn(*point)
        except DomainError:
            continue
        points.append(point)
        values.append(value)
    assert points, "the grid must reach the inside of the domain"
    return points, values


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("fn,arity,bad", FUNCTIONS, ids=[f.__name__ for f, _, _ in FUNCTIONS])
class TestElementwise:
    def test_array_call_equals_scalar_calls(self, fn, arity, bad):
        points, values = _inside(fn, arity)
        assert _same_bits(fn(*(np.array(c) for c in zip(*points))), values)

    def test_scalar_call_returns_float(self, fn, arity, bad):
        points, values = _inside(fn, arity)
        assert all(type(v) is float for v in values)

    def test_broadcasting(self, fn, arity, bad):
        points, _ = _inside(fn, arity)
        point = points[len(points) // 2]
        # the first argument as a column against rows of the others
        out = fn(np.full((2, 1), point[0]), *(np.full(3, v) for v in point[1:]))
        assert out.shape == ((2, 3) if arity > 1 else (2, 1))
        assert np.all(out == fn(*point))

    def test_one_bad_element_raises(self, fn, arity, bad):
        points, _ = _inside(fn, arity)
        with pytest.raises(DomainError):
            fn(*bad)
        with pytest.raises(DomainError):
            fn(*(np.array([g, b, g]) for g, b in zip(points[0], bad)))


LAW_GRID = [-0.5, 0.0, 0.3, 1.0, 2.2]


@pytest.mark.parametrize("law", ["add", "subtract", "multiply", "divide",
                                 "exp-scaling", "log-scaling"])
def test_scaling_law_sides_on_arrays_equal_scalar_sides(law):
    points = list(itertools.product(LAW_GRID, LAW_GRID, [0.3, 1.0, 1.4, 1.9],
                                    [-2.0, -0.5, 0.5, 1.0, 2.5]))
    for side in (0, 1):
        inside, values = [], []
        for point in points:
            try:
                value = qa.scaling_laws(*point)[law][side]()
            except DomainError:
                continue
            assert type(value) is float
            inside.append(point)
            values.append(value)
        columns = [np.array(c) for c in zip(*inside)]
        assert _same_bits(qa.scaling_laws(*columns)[law][side](), values)
