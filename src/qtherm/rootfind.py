"""Brent's bracketing root find (zeroin), step for step as SciPy computes it.

Each step takes an inverse quadratic (or secant) step inside the bracket
when it shrinks the bracket fast enough, and bisects otherwise (Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 4).  The
arithmetic follows SciPy's C ``brentq`` operation for operation, so the
root, the iteration count and the convergence flag are those of SciPy's
``optimize.brentq``.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, NonConvergenceError

# SciPy's default and smallest relative tolerance
_RTOL = 4.0 * sys.float_info.epsilon


def brent(f, a: float, b: float, xtol: float,
          maxiter: int) -> tuple[float, int, bool]:
    """A root of ``f`` in [a, b] as ``(root, iterations, converged)``.

    f(a) and f(b) must not have the same sign.  The search stops once the
    bracket is within xtol + 4*eps*|root|; after ``maxiter`` steps it returns
    the last iterate with ``converged`` false.  A value of ``f`` that is not
    finite raises ``NonConvergenceError``.
    """

    def value(x: float) -> float:
        fx = f(x)
        if not math.isfinite(fx):
            raise NonConvergenceError(f"the function value at x = {x!r} is {fx!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, 0, True
    if fcur == 0.0:
        return xcur, 0, True
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError(f"f({xpre!r}) and f({xcur!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for i in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, i, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    return xcur, maxiter, False
