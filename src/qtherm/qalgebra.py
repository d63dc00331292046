"""q-deformed arithmetic, exponential and logarithm, and their scaling laws.

Operators (all reduce to the ordinary ones as q -> 1):

    x (+)_q y = x + y + (1-q)xy
    x (-)_q y = (x - y) / (1 + (1-q)y)
    x (*)_q y = [x^(1-q) + y^(1-q) - 1]^(1/(1-q)) = exp_q(log_q x + log_q y)
    x (/)_q y = [x^(1-q) - y^(1-q) + 1]^(1/(1-q)) = exp_q(log_q x - log_q y)
    exp_q(x)  = [1 + (1-q)x]^(1/(1-q))            = exp(x L((1-q)x))
    log_q(x)  = (x^(1-q) - 1) / (1-q)             = ln x E((1-q) ln x)

The operators are not distributive, but each plain identity has a rescaled
counterpart that trades q for q_alpha = 1 + (q-1)/alpha, e.g.
alpha*(x (+)_q y) = (alpha*x) (+)_{q_alpha} (alpha*y) and
(exp_q x)^alpha = exp_{q_alpha}(alpha*x).  ``scaling_laws`` defines both
sides of the six identities once; the ``dist_*`` and ``*_scaling`` helpers
and the ``algebra-check`` command evaluate each side independently, and
``lost_sides`` marks the sides that have lost every digit to cancellation
or underflow.

Every function is elementwise over NumPy arrays, as in ``deformation``, and
takes the last form above, E(u) = expm1(u)/u and L(u) = log1p(u)/u (1 at
u = 0): one form across q = 1, exact at it and with no digits lost near it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .deformation import _elementwise, _finite, _first, transform
from .errors import DomainError

# exp overflows beyond this
_LOG_MAX = math.log(sys.float_info.max)


def _expm1_div(z, c):
    """z E(c z) = expm1(c z)/c, continued to z where c z = 0 (at c = 0)."""
    u = c * z
    zero = u == 0.0
    return np.where(zero, z, np.expm1(u) / np.where(zero, 1.0, c))


def _log1p_ratio(u):
    """L(u), 1 at u = 0 and inf at u = inf: z L(c z) is +-inf where c z overflows."""
    zero = u == 0.0
    return np.where(zero, 1.0, np.log1p(u) / np.where(zero | (u == np.inf), 1.0, u))


@_elementwise
def q_add(x, y, q):
    """Deformed sum x + y + (1-q)xy; commutative with neutral element 0."""
    x, y, q = _finite("x", x), _finite("y", y), _finite("q", q)
    total, _, scale = _q_sum(x, y, q)
    return total * scale


def _q_sum(x, y, q):
    """x + y + (1-q)xy over s, bitwise symmetric in x and y, its three terms
    over s, and s: 1 where the sum is finite, else 2.

    At s = 2 the halves of x and y keep each term in the float range wherever
    the sum is, and where x*y overflows the smaller operand takes (1-q)/2
    first, so that the term is 0 at q = 1.
    """
    term = (1.0 - q) * (x * y)
    total = x + y + term
    finite = np.isfinite(total)
    if finite.all():
        return total, (x, y, term), 1.0
    half = 0.5 * (1.0 - q)
    small = np.abs(x) <= np.abs(y)
    half_term = np.where(small, half * x, half * y) * np.where(small, y, x)
    x, y = np.where(finite, x, 0.5 * x), np.where(finite, y, 0.5 * y)
    term = np.where(finite, term, half_term)
    return x + y + term, (x, y, term), np.where(finite, 1.0, 2.0)


@_elementwise
def q_sub(x, y, q):
    """Deformed difference (x-y)/(1+(1-q)y); inverts q_add in y."""
    x, y, q = _finite("x", x), _finite("y", y), _finite("q", q)
    denom = 1.0 + (1.0 - q) * y
    if np.any(denom == 0.0):
        raise DomainError(f"q-subtraction pole: y = 1/(q-1) = {_first(y, denom == 0.0):g}")
    diff = x - y
    out = diff / denom
    off = ~(np.isfinite(diff) & np.isfinite(denom))
    if off.any():
        # x - y or the denominator overflows; divided by max(|x|, |y|) neither
        # does
        m = np.maximum(np.abs(x), np.abs(y))
        out = np.where(off, (x / m - y / m) / (1.0 / m + (1.0 - q) * (y / m)), out)
    return out


@_elementwise
def q_mul(x, y, q):
    """Deformed product over positive operands.

    For q < 1 a non-positive bracket x^(1-q)+y^(1-q)-1 is cut off to 0 (the
    same convention as exp_q); for q > 1 it is a domain error because the
    power would diverge or turn complex.
    """
    x, y, q, a, b, lx, ly = _q_logs(x, y, q, "q-multiplication")
    c = 1.0 - q
    u = c * (a + b)
    l = _log1p_ratio(u)
    shares = _share(x, a * l, lx) * _share(y, b * l, ly)
    out = np.isinf(u)
    if out.any():
        # u overflows where x^c or y^c does: the larger of them, z^c, leaves
        # the bracket, z^c + w^c - 1 = z^c (1 + (w/z)^c - z^-c)
        x_out = c * (lx - ly) >= 0.0
        z, w = np.where(x_out, x, y), np.where(x_out, y, x)
        shares = np.where(out, _pulled_out(z, (w / z) ** c - z ** -c, c), shares)
    return _cut_off(shares, 1.0 + u, q, "q-product")


@_elementwise
def q_div(x, y, q):
    """Deformed quotient over positive operands; inverts q_mul in y.

    The bracket x^(1-q)-y^(1-q)+1 must stay positive: there is no cutoff
    convention for division.
    """
    x, y, q, a, b, lx, ly = _q_logs(x, y, q, "q-division")
    c = 1.0 - q
    u = c * (a - b)
    bracket = 1.0 + u
    # u is inf where x^c overflows, nan where y^c does too: x^c leaves the
    # bracket, x^c - y^c + 1 = x^c (1 - d), d = (y/x)^c - x^-c
    out = ~(u < np.inf)
    if out.any():
        d = (y / x) ** c - x ** -c
        bracket = np.where(out, (1.0 - d) * np.inf, bracket)
    bad = ~(bracket > 0.0)
    if bad.any():
        raise DomainError(f"q-division bracket is not positive ({_first(bracket, bad):g})")
    # x over x/r, r = x (/)_q y: x/r = y e^(ln(x/y) - ln r) stays in range
    # where x/y need not, and is y at q = 1
    r = x / (y * np.exp((lx - ly) - (a - b) * _log1p_ratio(u)))
    return np.where(out, _pulled_out(x, -d, c), r) if out.any() else r


def _share(z, al, lz):
    """e^(a l), a factor of q_mul, as its operand z times e^(a l - ln z), 1 at
    q = 1; for a z so small that e^(-ln z) overflows, e^(a l) itself."""
    d = al - lz
    share = z * np.exp(d)
    tiny = d > _LOG_MAX
    return np.where(tiny, np.exp(al), share) if tiny.any() else share


def _pulled_out(z, d, c):
    """(z^c (1 + d))^(1/c) = z (1 + d)^(1/c), for z^c past the float range.
    The |c| ulps that (w/z)^c in d may be off by, the 1/c power divides back
    down to about one."""
    return z * np.exp(np.log1p(d) / c)


def _q_logs(x, y, q, what: str):
    """Checked positive operands with log_q x, log_q y, ln x and ln y."""
    x, y, q = _finite("x", x), _finite("y", y), _finite("q", q)
    if np.any((x <= 0.0) | (y <= 0.0)):
        raise DomainError(f"{what} requires positive operands")
    lx, ly = np.log(x), np.log(y)
    return x, y, q, _expm1_div(lx, 1.0 - q), _expm1_div(ly, 1.0 - q), lx, ly


def _exp_q(x, q):
    """exp_q(x) before its cutoff, and its bracket 1 + (1-q)x; raises nothing.

    Where (1-q)x overflows, log1p of it is ln|1-q| + ln|x|: its 1/(1-q)-th
    power need not overflow.
    """
    c = 1.0 - q
    u = c * x
    log = x * _log1p_ratio(u)
    over = u == np.inf
    if over.any():
        log = np.where(over, (np.log(np.abs(c)) + np.log(np.abs(x))) / c, log)
    return np.exp(log), 1.0 + u


def _cut_off(value, bracket, q, what: str) -> np.ndarray:
    """``value`` where its bracket is positive, else 0 (q < 1) or an error."""
    dead = ~(bracket > 0.0)
    bad = dead & (q >= 1.0)
    if bad.any():
        raise DomainError(f"{what} undefined: bracket {_first(bracket, bad):g} "
                          f"not positive for q = {_first(q, bad):g}")
    return np.where(dead, 0.0, value)


@_elementwise
def q_exp(x, q):
    """Deformed exponential [1+(1-q)x]^(1/(1-q)).

    For q < 1 the standard cutoff applies: arguments below the support edge
    x = -1/(1-q) return 0.  For q > 1 a non-positive base is a domain error.
    """
    x, q = _finite("x", x), _finite("q", q)
    return _cut_off(*_exp_q(x, q), q, "q-exponential")


@_elementwise
def q_log(x, q):
    """Deformed logarithm (x^(1-q)-1)/(1-q) for x > 0; inverse of q_exp."""
    x, q = _finite("x", x), _finite("q", q)
    if np.any(x <= 0.0):
        raise DomainError("q-logarithm requires a positive argument")
    return _expm1_div(np.log(x), 1.0 - q)


@_elementwise
def _real_power(base, exponent):
    """base**exponent over the reals: +inf where it overflows or meets the
    pole of a negative power at 0, ``DomainError`` where it is complex."""
    value = np.float_power(base, exponent)
    complex_ = np.isnan(value)
    if complex_.any():
        raise DomainError(f"{_first(base, complex_):g}**{_first(exponent, complex_):g} "
                          f"is not real")
    return np.where(np.isinf(value), np.inf, value)


# --- generalized distributive and scaling identities -------------------------
#
# Each law is a pair of sides evaluated along independent paths; callers
# compare them (the library itself asserts nothing, so that a "domain
# mismatch" on one side can be observed rather than masked).


def _rel_gap(a, b):
    """Elementwise |a - b| / max(1, |a|, |b|), the gap by which
    ``algebra-check`` and the property suites compare two sides."""
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def scaling_laws(x: float, y: float, q: float, alpha: float) -> dict:
    """The six rescaled laws at one point (or elementwise over arrays), as
    name -> (lhs, rhs) thunks.

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


def lost_sides(x, y, q, alpha) -> dict:
    """The sides of the ``scaling_laws`` that have lost every digit to
    cancellation or underflow, as law name -> (lhs, rhs) masks, elementwise.

    The sides of the add law end in the q-sums x (+)_q y and
    (alpha*x) (+)_{q_alpha} (alpha*y).  A q-sum u + v + (1-r)uv of at most
    4 ulps of its terms, |u| + |v| + |(1-r)uv|, is their rounding and nothing
    else: at x = 1e300, y = -2, q = 0.5, alpha = 5 both sides are -10 and
    come out 0 and 1.2e285.  The exp-scaling sides (exp_q x)^alpha and
    exp_{q_alpha}(alpha*x) are positive wherever their brackets are, and one
    that underflows to 0 there has lost every digit: at x = -1e300, q = 1.5,
    alpha = 1e-3 exp_q(x) = 4e-600 comes out 0, while both sides are 0.2515.
    So has (exp_q x)^alpha where |alpha|*eps >= 1, for the power multiplies
    the rounding of exp_q(x) by |alpha|: at x = 1, q = -1e300, alpha =
    1e300 exp_q(1) = 1 + 7e-298 rounds to 1, and the lhs is 1.0 against
    1e300.  exp_q(0) = 1 is exact, so x = 0 loses nothing.  Such a side says
    nothing about the law, as an overflowed side says nothing.  The other
    laws are not listed.
    """
    x, y, q, alpha = (np.asarray(a, dtype=float) for a in (x, y, q, alpha))
    q_alpha = transform(q, alpha)
    with np.errstate(all="ignore"):
        return {"add": (_sum_lost(x, y, q), _sum_lost(alpha * x, alpha * y, q_alpha)),
                "exp-scaling": (_exp_lost(x, q, alpha), _exp_lost(alpha * x, q_alpha))}


def _sum_lost(u, v, r) -> np.ndarray:
    """Where u (+)_r v, summed as ``q_add`` sums it, is at most 4 ulps of its terms."""
    total, (u, v, uv), _ = _q_sum(u, v, r)
    terms = np.abs(u) + np.abs(v) + np.abs(uv)
    return np.abs(total) <= 4.0 * np.finfo(float).eps * terms


def _exp_lost(u, r, alpha=1.0) -> np.ndarray:
    """Where exp_r(u)**alpha, evaluated as ``q_exp`` and ``_real_power`` do,
    is 0 although the bracket 1 + (1-r)u is positive, so that its exact
    value is positive, or keeps no digit of a rounded exp_r(u), u != 0.
    The cutoff of a non-positive bracket for r < 1 is exactly 0, not lost."""
    value, bracket = _exp_q(u, r)
    amplified = (np.abs(alpha) * np.finfo(float).eps >= 1.0) & (u != 0.0)
    return (bracket > 0.0) & ((np.float_power(value, alpha) == 0.0) | amplified)


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
