"""Command-line front end.

One subcommand per library capability, each emitting a single JSON object
(default) or a headered CSV block.  JSON has no token for inf or nan, so a
non-finite float is written as null.  Exit codes are stable:

    0  success
    1  property failure (check / algebra-check)
    2  flag or usage error
    3  input file parse error
    4  domain error
    5  solver failure (no real root, non-convergence, or residual too large)
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import warnings

import click
import numpy as np

from . import deformation as dfm
from . import entropy as ent
from . import qalgebra as qa
from .entropy import as_distribution
from .errors import (
    DivergentSeriesError,
    DomainError,
    NonConvergenceError,
    NoRealRootError,
    ParseError,
    RenormalizationWarning,
)
from .fileio import format_float, read_column, read_distribution, read_spectrum
from .maxent import _affinity_residual, solve_maxent, solve_maxent_renyi
from .qalgebra import _rel_gap
from .trinomial import residual as trinomial_residual
from .trinomial import solve_trinomial

EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE_ERROR = 3
EXIT_DOMAIN_ERROR = 4
EXIT_SOLVER_FAILURE = 5

IDENTITY_TOL = 1e-12

_FORMAT_OPTION = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    show_default=True, help="Output format.",
)


def _emit_object(payload: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(_json_object(payload))
        return
    click.echo(",".join(payload))
    click.echo(",".join(_csv_cell(v) for v in payload.values()))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _json_object(payload: dict) -> str:
    """``json.dumps(payload)``, with every non-finite float as null: JSON has
    no token for inf or nan."""
    return json.dumps({key: None if isinstance(value, float) and not math.isfinite(value)
                       else value for key, value in payload.items()})


def _json_levels(names: tuple[str, ...], *columns: np.ndarray) -> str:
    """The ``levels`` list, one object per level with its index ``i`` and one
    value per column, as ``json.dumps`` writes it.

    Every row goes through one ``%`` template: ``%s`` writes a finite float
    as its repr, as ``json.dumps`` does, and a non-finite one is ``null``.
    """
    template = '{"i": %d' + "".join(f', "{name}": %s' for name in names) + "}"
    values = [c.tolist() if np.isfinite(c).all()
              else [x if math.isfinite(x) else "null" for x in c.tolist()]
              for c in columns]
    return "[" + ", ".join(map(template.__mod__, zip(itertools.count(), *values))) + "]"


def _csv_levels(header: str, *columns: np.ndarray) -> str:
    """The header and one ``i,...`` line per level, each column with 17
    significant digits as ``format_float`` writes them."""
    template = "%d" + ",%.17g" * len(columns)
    rows = map(template.__mod__, zip(itertools.count(), *(c.tolist() for c in columns)))
    return "\n".join([header, *rows])


def _exit_codes(fn):
    """Map library exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ParseError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_PARSE_ERROR)
        except (NoRealRootError, NonConvergenceError, DivergentSeriesError) as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_SOLVER_FAILURE)
        except DomainError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_DOMAIN_ERROR)

    return wrapper


@click.group()
def cli() -> None:
    """Nonextensive thermostatistics toolkit.

    Rescaling group for the nonadditivity index, q-deformed algebra,
    entropy functionals, and MaxEnt solvers under escort energy
    constraints.
    """


@cli.command()
@click.option("--q", type=float, required=True, help="Nonadditivity index.")
@click.option("--alpha", type=float, required=True, help="Scale factor (nonzero).")
@_FORMAT_OPTION
@_exit_codes
def transform(q: float, alpha: float, fmt: str) -> None:
    """Rescale q by alpha and report both dualities."""
    if not math.isfinite(q) or not math.isfinite(alpha):
        raise click.UsageError("q and alpha must be finite")
    if alpha == 0.0:
        raise click.UsageError("alpha must be nonzero")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q_alpha = dfm.transform(q, alpha)
        add_dual = dfm.additive_dual(q)
        mul_dual = dfm.multiplicative_dual(q) if q != 0.0 else None
    lo, hi = dfm.DUALITY_RANGE
    _emit_object({
        "q": q,
        "alpha": alpha,
        "q_alpha": q_alpha,
        "additive_dual": add_dual,
        "additive_dual_in_range": lo <= add_dual <= hi,
        "multiplicative_dual": mul_dual,
        "multiplicative_dual_in_range":
            (lo <= mul_dual <= hi) if mul_dual is not None else None,
    }, fmt)


_KINDS = {
    "tsallis": lambda p, q: ent.tsallis(p, q),
    "shannon": lambda p, q: ent.shannon(p),
    "renyi": lambda p, q: ent.renyi(p, q),
    "hybrid": lambda p, q: ent.hybrid(p, q),
    "avg-hybrid": lambda p, q: ent.avg_hybrid(p, q),
}


@cli.command()
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV file with one probability per line (column 'p').")
@click.option("--kind", type=click.Choice(sorted(_KINDS)), required=True)
@click.option("--q", type=float, default=None,
              help="Entropy index (not needed for shannon).")
@_FORMAT_OPTION
@_exit_codes
def entropy(input_path: str, kind: str, q: float | None, fmt: str) -> None:
    """Evaluate an entropy functional on a distribution file."""
    if kind != "shannon" and q is None:
        raise click.UsageError(f"--q is required for --kind {kind}")
    if q is not None:
        # echoed in the output even where the kind ignores it
        ent._finite_q(q)
    raw = read_column(input_path, "p")
    norm_gap = abs(float(raw.sum()) - 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = as_distribution(raw)
    renormalized = any(isinstance(w.message, RenormalizationWarning) for w in caught)
    value = _KINDS[kind](p, q)
    _emit_object({
        "kind": kind,
        "q": q,
        "value": value,
        "n": int(p.size),
        "normalization_gap": norm_gap,
        "renormalized": renormalized,
    }, fmt)


@cli.command()
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV file with one probability per line (column 'p').")
@click.option("--r", type=float, required=True, help="Escort order.")
@_FORMAT_OPTION
@_exit_codes
def escort(input_path: str, r: float, fmt: str) -> None:
    """Escort-transform a distribution file."""
    p = read_distribution(input_path)
    rho = ent.escort(p, r)
    if fmt == "json":
        levels = _json_levels(("p", "rho"), p, rho)
        click.echo(f'{{"r": {json.dumps(r)}, "levels": {levels}}}')
        return
    click.echo(_csv_levels("i,p,rho", p, rho))


@cli.command()
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV file with one energy level per line (column 'E').")
@click.option("--q", type=float, required=True, help="Nonadditivity index.")
@click.option("--alpha", type=float, required=True,
              help="Positive scale factor; 'inf' (or any alpha with "
                   "q_alpha = 1) gives the Shannon entropy, the Gibbs "
                   "distribution at q = 1.")
@click.option("--omega", type=float, default=None,
              help="Fixed Lagrange multiplier for the escort energy constraint.")
@click.option("--target-mean", type=float, default=None,
              help="Solve for the omega whose escort mean hits this value.")
@click.option("--entropy", "functional", type=click.Choice(["tsallis", "renyi"]),
              default="tsallis", show_default=True,
              help="Entropy functional to extremize.")
@_FORMAT_OPTION
@_exit_codes
def maxent(input_path: str, q: float, alpha: float, omega: float | None,
           target_mean: float | None, functional: str, fmt: str) -> None:
    """Solve a MaxEnt problem for an energy spectrum file.

    Exits 0 only for a converged solution with stationarity residual at
    most 1e-9; solver failures exit 5 with the diagnostics still emitted.
    """
    if (omega is None) == (target_mean is None):
        raise click.UsageError("exactly one of --omega / --target-mean is required")
    if not alpha > 0.0:
        raise click.UsageError(f"--alpha must be positive (or 'inf'), got {alpha!r}")
    energies = read_spectrum(input_path)
    solve = solve_maxent_renyi if functional == "renyi" else solve_maxent
    # a solver failure emits its diagnostics here, and exits 5 through
    # _exit_codes
    try:
        sol = solve(energies, q, alpha, omega, target_mean=target_mean)
    except NoRealRootError as err:
        _emit_object({
            "error": str(err),
            "level": err.level,
            "b": err.b,
            "converged": False,
        }, fmt)
        raise
    except NonConvergenceError as err:
        if err.solution is not None:
            _emit_maxent(err.solution, energies, fmt)
        raise
    _emit_maxent(sol, energies, fmt)
    if alpha == 1.0:
        # alpha = 1 solutions form a q-exponential family: p^(1-q) affine in E
        fit_gap = _affinity_residual(sol.probs, energies, q)
        click.echo(f"# q-exponential family check: max affine-fit residual "
                   f"of p^(1-q) in E is {fit_gap:.3g}", err=True)


def _emit_maxent(sol, energies: np.ndarray, fmt: str) -> None:
    """Write the solution with one echo, since each echo flushes stdout.

    A failed solve may carry overflowed values; JSON writes them as null.
    """
    if fmt == "json":
        summary = _json_object({
            "Z_q": sol.z_q.z,
            "Z_q_alpha": sol.z_q_alpha.z,
            "phi": sol.phi,
            "escort_mean": sol.escort_mean,
            "residual": sol.stationarity_residual,
            "iterations": sol.iterations,
            "converged": sol.converged,
        })
        levels = _json_levels(("E", "p"), energies, sol.probs)
        click.echo(f'{{"levels": {levels}, {summary[1:]}')
        return
    footer = (
        "# "
        f"Z_q={format_float(sol.z_q.z)} "
        f"Z_q_alpha={format_float(sol.z_q_alpha.z)} "
        f"phi={format_float(sol.phi)} "
        f"escort_mean={format_float(sol.escort_mean)} "
        f"residual={format_float(sol.stationarity_residual)} "
        f"iterations={sol.iterations} "
        f"converged={str(sol.converged).lower()}"
    )
    click.echo(_csv_levels("i,E,p", energies, sol.probs) + "\n" + footer)


@cli.command()
@click.option("--alpha", type=float, required=True, help="Trinomial exponent.")
@click.option("--b", type=float, required=True, help="Trinomial coefficient.")
@_FORMAT_OPTION
@_exit_codes
def trinomial(alpha: float, b: float, fmt: str) -> None:
    """Solve 1 - x + b*x^alpha = 0 on the branch with x(0) = 1."""
    x = solve_trinomial(alpha, b)
    _emit_object({
        "alpha": alpha,
        "b": b,
        "x": x,
        "residual": abs(trinomial_residual(alpha, b, x)),
    }, fmt)


@cli.command()
@click.option("--n", type=int, required=True, help="Bath particle count (>= 2).")
@click.option("--alpha", type=float, default=None,
              help="Optional rescaling of the bath size.")
@_FORMAT_OPTION
@_exit_codes
def heatbath(n: int, alpha: float | None, fmt: str) -> None:
    """Nonadditivity index of a finite heat bath, optionally rescaled."""
    payload = {"n": n, "q": dfm.heat_bath_q(n)}
    if alpha is not None:
        n_rescaled = dfm.rescale_bath(n, alpha)
        payload.update({
            "alpha": alpha,
            "n_rescaled": n_rescaled,
            "q_rescaled": dfm.heat_bath_q(n_rescaled),
        })
    _emit_object(payload, fmt)


@cli.command(name="algebra-check")
@click.option("--x", type=float, required=True)
@click.option("--y", type=float, required=True)
@click.option("--q", type=float, required=True)
@click.option("--alpha", type=float, required=True)
@_FORMAT_OPTION
@_exit_codes
def algebra_check(x: float, y: float, q: float, alpha: float, fmt: str) -> None:
    """Evaluate the rescaled distributive and scaling laws at one point.

    Each law reports ok / fail / domain-mismatch / undefined; a law whose
    two sides live on different domains is reported, not asserted.  A side
    that overflows, or that has lost every digit to cancellation or
    underflow, counts as not evaluated.  Exits 1 if any law evaluates on
    both sides and disagrees, and 4 where q_alpha rounds to 1 while q does
    not.
    """
    if alpha == 0.0:
        raise click.UsageError("alpha must be nonzero")
    q_alpha = dfm.transform(q, alpha)
    if q_alpha == 1.0 and q != 1.0:
        # each law would compare a deformed side with a classical one
        raise DomainError(f"q_alpha = 1 + (q - 1)/alpha rounds to 1 at q = {q!r}, "
                          f"alpha = {alpha!r}")
    rows = []
    any_failed = False
    lost = qa.lost_sides(x, y, q, alpha)
    for name, (lhs_fn, rhs_fn) in qa.scaling_laws(x, y, q, alpha).items():
        lhs_lost, rhs_lost = lost.get(name, (False, False))
        lhs = None if lhs_lost else _try_eval(lhs_fn)
        rhs = None if rhs_lost else _try_eval(rhs_fn)
        if lhs is None and rhs is None:
            status = "undefined"
        elif lhs is None or rhs is None:
            status = "domain-mismatch"
        else:
            status = "ok" if _rel_gap(lhs, rhs) <= IDENTITY_TOL else "fail"
            any_failed |= status == "fail"
        rows.append({"law": name, "lhs": lhs, "rhs": rhs, "status": status})
    if fmt == "json":
        click.echo(json.dumps({"q": q, "alpha": alpha, "q_alpha": q_alpha,
                               "laws": rows}))
    else:
        click.echo("law,lhs,rhs,status")
        for row in rows:
            click.echo(f"{row['law']},{_csv_cell(row['lhs'])},"
                       f"{_csv_cell(row['rhs'])},{row['status']}")
    if any_failed:
        sys.exit(EXIT_PROPERTY_FAILURE)


def _try_eval(fn):
    try:
        value = fn()
    except (DomainError, ValueError):
        return None
    return value if math.isfinite(value) else None


@cli.command()
@click.option("--suite", type=click.Choice(["group", "algebra", "entropy",
                                            "maxent", "all"]),
              default="all", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="RNG seed.")
@_exit_codes
def check(suite: str, seed: int) -> None:
    """Run the seeded property suites and report pass/fail per property."""
    # imported here, since no other command needs the suites
    from .checks import run_suite

    results = run_suite(suite, seed)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += not result.passed
        click.echo(f"{status} {result.suite}.{result.name}: {result.detail}")
    click.echo(f"{len(results) - failures}/{len(results)} properties passed "
               f"(suite {suite}, seed {seed})")
    if failures:
        sys.exit(EXIT_PROPERTY_FAILURE)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
