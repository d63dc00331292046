"""q-deformed arithmetic, exponential and logarithm, and their scaling laws.

Operators (all reduce to the ordinary ones as q -> 1):

    x (+)_q y = x + y + (1-q)xy
    x (-)_q y = (x - y) / (1 + (1-q)y)
    x (*)_q y = [x^(1-q) + y^(1-q) - 1]^(1/(1-q))
    x (/)_q y = [x^(1-q) - y^(1-q) + 1]^(1/(1-q))
    exp_q(x)  = [1 + (1-q)x]^(1/(1-q))
    log_q(x)  = (x^(1-q) - 1) / (1-q)

The operators are not distributive, but each plain identity has a rescaled
counterpart that trades q for q_alpha = 1 + (q-1)/alpha, e.g.
alpha*(x (+)_q y) = (alpha*x) (+)_{q_alpha} (alpha*y) and
(exp_q x)^alpha = exp_{q_alpha}(alpha*x).  ``scaling_laws`` defines both
sides of the six identities once; the ``dist_*`` and ``*_scaling`` helpers
and the ``algebra-check`` command evaluate each side independently.
"""

from __future__ import annotations

import math

from .deformation import transform
from .errors import DomainError

# Below this distance from q = 1 the deformed power forms lose all precision,
# so every function switches to its analytic q = 1 branch.
Q_ONE_THRESHOLD = 1e-9


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _is_classical(q: float) -> bool:
    return abs(q - 1.0) < Q_ONE_THRESHOLD


def q_add(x: float, y: float, q: float) -> float:
    """Deformed sum x + y + (1-q)xy; commutative with neutral element 0."""
    x = _check_finite("x", x)
    y = _check_finite("y", y)
    q = _check_finite("q", q)
    # grouped so the result is bitwise symmetric in x and y
    return x + y + (1.0 - q) * (x * y)


def q_sub(x: float, y: float, q: float) -> float:
    """Deformed difference (x-y)/(1+(1-q)y); inverts q_add in y."""
    x = _check_finite("x", x)
    y = _check_finite("y", y)
    q = _check_finite("q", q)
    denom = 1.0 + (1.0 - q) * y
    if denom == 0.0:
        raise DomainError(f"q-subtraction pole: y = 1/(q-1) = {y:g}")
    return (x - y) / denom


def q_mul(x: float, y: float, q: float) -> float:
    """Deformed product over positive operands.

    For q < 1 a non-positive bracket x^(1-q)+y^(1-q)-1 is cut off to 0 (the
    same convention as exp_q); for q > 1 it is a domain error because the
    power would diverge or turn complex.
    """
    x = _check_finite("x", x)
    y = _check_finite("y", y)
    q = _check_finite("q", q)
    if x <= 0.0 or y <= 0.0:
        raise DomainError("q-multiplication requires positive operands")
    if _is_classical(q):
        return x * y
    e = 1.0 - q
    bracket = _real_power(x, e) + _real_power(y, e) - 1.0
    return _bracket_power(bracket, q, cutoff=True, what="q-product")


def q_div(x: float, y: float, q: float) -> float:
    """Deformed quotient over positive operands; inverts q_mul in y.

    The bracket x^(1-q)-y^(1-q)+1 must stay positive: there is no cutoff
    convention for division.
    """
    x = _check_finite("x", x)
    y = _check_finite("y", y)
    q = _check_finite("q", q)
    if x <= 0.0 or y <= 0.0:
        raise DomainError("q-division requires positive operands")
    if _is_classical(q):
        return x / y
    e = 1.0 - q
    bracket = _real_power(x, e) - _real_power(y, e) + 1.0
    if not bracket > 0.0:
        raise DomainError(f"q-division bracket is not positive ({bracket:g})")
    return _bracket_power(bracket, q, cutoff=False, what="q-quotient")


def q_exp(x: float, q: float) -> float:
    """Deformed exponential [1+(1-q)x]^(1/(1-q)).

    For q < 1 the standard cutoff applies: arguments below the support edge
    x = -1/(1-q) return 0.  For q > 1 a non-positive base is a domain error.
    """
    x = _check_finite("x", x)
    q = _check_finite("q", q)
    if _is_classical(q):
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf
    base = 1.0 + (1.0 - q) * x
    return _bracket_power(base, q, cutoff=True, what="q-exponential")


def q_log(x: float, q: float) -> float:
    """Deformed logarithm (x^(1-q)-1)/(1-q) for x > 0; inverse of q_exp."""
    x = _check_finite("x", x)
    q = _check_finite("q", q)
    if x <= 0.0:
        raise DomainError("q-logarithm requires a positive argument")
    if _is_classical(q):
        return math.log(x)
    e = 1.0 - q
    return (_real_power(x, e) - 1.0) / e


def _real_power(base: float, alpha: float) -> float:
    """base**alpha over the reals: infinite where it overflows or meets the
    pole of a negative power at 0, ``DomainError`` where it is complex."""
    try:
        value = base**alpha
    except (OverflowError, ZeroDivisionError):
        return math.inf
    if isinstance(value, complex):
        raise DomainError(f"{base:g}**{alpha:g} is not real")
    return value


def _bracket_power(bracket: float, q: float, *, cutoff: bool, what: str) -> float:
    """Evaluate bracket^(1/(1-q)) with the cutoff/domain-error convention."""
    if bracket <= 0.0:
        if q < 1.0 and cutoff:
            return 0.0
        raise DomainError(
            f"{what} undefined: bracket {bracket:g} not positive for q = {q:g}"
        )
    try:
        return bracket ** (1.0 / (1.0 - q))
    except OverflowError:
        return math.inf


# --- generalized distributive and scaling identities -------------------------
#
# Each law is a pair of sides evaluated along independent paths; callers
# compare them (the library itself asserts nothing, so that a "domain
# mismatch" on one side can be observed rather than masked).


def scaling_laws(x: float, y: float, q: float, alpha: float) -> dict:
    """The six rescaled laws at one point, as name -> (lhs, rhs) thunks.

    Calling a side evaluates it on its own, so one side may raise while the
    other returns.  The exp and log laws use x only.  Powers follow
    ``_real_power``.
    """
    q_alpha = transform(q, alpha)

    def power(base: float) -> float:
        return _real_power(base, alpha)

    return {
        "add": (lambda: alpha * q_add(x, y, q),
                lambda: q_add(alpha * x, alpha * y, q_alpha)),
        "subtract": (lambda: alpha * q_sub(x, y, q),
                     lambda: q_sub(alpha * x, alpha * y, q_alpha)),
        "multiply": (lambda: power(q_mul(x, y, q)),
                     lambda: q_mul(power(x), power(y), q_alpha)),
        "divide": (lambda: power(q_div(x, y, q)),
                   lambda: q_div(power(x), power(y), q_alpha)),
        "exp-scaling": (lambda: power(q_exp(x, q)),
                        lambda: q_exp(alpha * x, q_alpha)),
        "log-scaling": (lambda: alpha * q_log(x, q),
                        lambda: q_log(power(x), q_alpha)),
    }


def _both_sides(law: str, *point: float) -> tuple[float, float]:
    lhs, rhs = scaling_laws(*point)[law]
    return lhs(), rhs()


def dist_add(x: float, y: float, q: float, alpha: float) -> tuple[float, float]:
    """Both sides of alpha*(x (+)_q y) = (alpha*x) (+)_{q_alpha} (alpha*y)."""
    return _both_sides("add", x, y, q, alpha)


def dist_sub(x: float, y: float, q: float, alpha: float) -> tuple[float, float]:
    """Both sides of alpha*(x (-)_q y) = (alpha*x) (-)_{q_alpha} (alpha*y)."""
    return _both_sides("subtract", x, y, q, alpha)


def dist_mul(x: float, y: float, q: float, alpha: float) -> tuple[float, float]:
    """Both sides of (x (*)_q y)^alpha = (x^alpha) (*)_{q_alpha} (y^alpha)."""
    return _both_sides("multiply", x, y, q, alpha)


def dist_div(x: float, y: float, q: float, alpha: float) -> tuple[float, float]:
    """Both sides of (x (/)_q y)^alpha = (x^alpha) (/)_{q_alpha} (y^alpha)."""
    return _both_sides("divide", x, y, q, alpha)


def exp_scaling(x: float, q: float, alpha: float) -> tuple[float, float]:
    """Both sides of (exp_q x)^alpha = exp_{q_alpha}(alpha*x)."""
    return _both_sides("exp-scaling", x, x, q, alpha)


def log_scaling(x: float, q: float, alpha: float) -> tuple[float, float]:
    """Both sides of alpha*log_q(x) = log_{q_alpha}(x^alpha) for x > 0."""
    return _both_sides("log-scaling", x, x, q, alpha)
