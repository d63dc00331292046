"""In-memory span tracing of qtherm's public functions.

The tracer replaces the module attributes through which callers reach the
public functions of the traced layers (``qtherm.<layer>.<function>``, every
``from .<layer> import <function>`` binding in the other qtherm modules, the
package re-exports, the ``checks.SUITES`` table and the click command
callbacks of ``qtherm.cli``) with timing wrappers, and puts the originals
back on exit.  No file of the program is changed.

Each call into a layer from outside it records one span: name, parent span,
task id, start, end and whether it raised ``NoRealRootError`` or another
exception.  Calls that a layer makes to its own public functions run the
original directly and open no span, so a layer's spans time what its callers
wait for and not the wrapper.  Helpers that no metric reports are not
wrapped at all (``UNWRAPPED``).  Spans live in typed arrays and are written
out once, when the run ends.  Calls of ``solve_trinomial`` also record their
(alpha, b) so their cost can be split by input, and calls of the MaxEnt
solvers record the spectrum size n and the returned ``iterations``; both are
noted after the span's end time is taken.
"""

from __future__ import annotations

import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("trinomial", "maxent", "fileio", "cli", "checks", "qalgebra",
          "deformation", "entropy")
SOLVERS = ("solve_maxent", "solve_maxent_renyi", "solve_maxent_shannon_limit")
# Called per level, per bracket probe or per emitted number; wrapping them
# would time the wrapper and charge formatting to the wrong layer.
UNWRAPPED = ("trinomial.residual", "trinomial.series_radius",
             "trinomial.series_coefficient", "trinomial.trinomial_series",
             "trinomial.trinomial_b", "fileio.format_float")
READERS = ("fileio.read_spectrum", "fileio.read_column", "fileio.read_distribution")
CLOSED_ALPHAS = (0.5, 1.0, 2.0)
EDGE_SHARE = 0.9
ERR_NONE, ERR_NO_ROOT, ERR_OTHER = 0, 1, 2


class Tracer:
    """Span store plus the wrapping of qtherm's module attributes."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.parent = array("i")
        self.task = array("h")
        self.err = array("b")
        self.start = array("d")
        self.end = array("d")
        # (span, a1, a2): (alpha, b) for solve_trinomial, (n, iterations)
        # for the MaxEnt solvers.
        self.aux_span = array("i")
        self.aux1 = array("d")
        self.aux2 = array("d")
        self.task_id = -1
        # (first, last) span index of each traced round, and
        # (task, round, first, last) of each traced task execution.
        self.round_ranges: list[tuple[int, int]] = []
        self.task_ranges: list[tuple[int, int, int, int]] = []
        self.round_size = 0
        self._stack = [-1]
        # Open wrapped spans per layer, so nested same-layer calls open none.
        self._depth = [0] * len(LAYERS)
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def full(self, reserve: int) -> bool:
        """True when ``reserve`` more spans would exceed the capacity."""
        return len(self) + reserve > self.capacity

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.task.append(self.task_id)
        self.err.append(ERR_NONE)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, exc: BaseException | None) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if exc is not None:
            self.err[idx] = ERR_NO_ROOT if type(exc).__name__ == "NoRealRootError" \
                else ERR_OTHER

    def wrap(self, name: str, fn, always: bool = False):
        """Timing wrapper of ``fn``.

        It opens a span only when no wrapped span of the same layer is open,
        unless ``always`` is set (the suites and the command callbacks, which
        the metrics report by name).
        """
        nid = self.name_id(name)
        layer = LAYERS.index(name.split(".")[0])
        if name == "trinomial.solve_trinomial":
            def aux(args, result):
                return float(args[0]), float(args[1])
        elif name.split(".")[1] in SOLVERS:
            def aux(args, result):
                return float(len(args[0])), float(getattr(result, "iterations", math.nan))
        else:
            aux = None
        # Bound methods, looked up once: the wrapper runs on every call.
        open_span, close_span, note, depth = self._open, self._close, self._aux, self._depth

        def traced(*args, **kwargs):
            if depth[layer] and not always:
                return fn(*args, **kwargs)
            depth[layer] += 1
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close_span(idx, exc)
                depth[layer] -= 1
                if aux is not None:
                    note(idx, *aux(args, None))
                raise
            close_span(idx, None)
            depth[layer] -= 1
            if aux is not None:
                note(idx, *aux(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _aux(self, idx: int, a1: float, a2: float) -> None:
        self.aux_span.append(idx)
        self.aux1.append(a1)
        self.aux2.append(a2)

    # --- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced layers where it is reached."""
        import qtherm
        import qtherm.checks
        import qtherm.cli

        originals: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            module = sys.modules[f"qtherm.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and f"{layer}.{attr}" not in UNWRAPPED):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self.wrap(name, fn) for key, (fn, name) in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qtherm" and not mod_name.startswith("qtherm."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patch(module, attr, wrappers[id(obj)])
        suites = qtherm.checks.SUITES
        for key, fn in list(suites.items()):
            self._patch_item(suites, key,
                             self.wrap(f"checks.{key}_suite", fn, always=True))
        for cmd_name, command in qtherm.cli.cli.commands.items():
            self._patch(command, "callback",
                        self.wrap(f"cli.{cmd_name}", command.callback, always=True))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, mapping: dict, key, value) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # --- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "task": np.frombuffer(self.task, dtype=np.int16),
            "err": np.frombuffer(self.err, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "aux_span": np.frombuffer(self.aux_span, dtype=np.int32),
            "aux1": np.frombuffer(self.aux1, dtype=float),
            "aux2": np.frombuffer(self.aux2, dtype=float),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._close(self.idx, exc)


def layer_metrics(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of the spans with index in [first, last).

    Self time is a span's duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    ``fileio.read_s`` and ``cli.self_s`` use the outermost read, solve and
    suite spans only, so nested spans are not counted twice.
    """
    a = tracer.arrays()
    names = tracer.names
    nid = a["name"][first:last].astype(np.int64)
    parent = a["parent"][first:last].astype(np.int64)
    dur = a["end"][first:last] - a["start"][first:last]
    err = a["err"][first:last]
    count = last - first
    local_parent = np.where(parent >= first, parent - first, -1)
    has_parent = local_parent >= 0
    child_time = np.bincount(local_parent[has_parent], weights=dur[has_parent],
                             minlength=count)
    self_time = dur - child_time
    layer_names = sorted({n.split(".")[0] for n in names})
    layer_of_name = np.array([layer_names.index(n.split(".")[0]) for n in names],
                             dtype=np.int64)
    layer = layer_of_name[nid]

    def named(*full: str) -> np.ndarray:
        ids = [names.index(f) for f in full if f in names]
        return np.isin(nid, ids)

    def in_layer(name: str) -> np.ndarray:
        return layer == (layer_names.index(name) if name in layer_names else -2)

    out: dict[str, float] = {}

    # trinomial: solve_trinomial and lambert_w
    trin = named("trinomial.solve_trinomial")
    out["trinomial.calls"] = int(trin.sum())
    out["trinomial.self_s"] = float(self_time[trin].sum())
    out["trinomial.us_per_call"] = _per_call_us(dur[trin])
    aux_span = a["aux_span"]
    in_range = (aux_span >= first) & (aux_span < last)
    aux_idx = aux_span[in_range] - first
    aux1 = a["aux1"][in_range]
    aux2 = a["aux2"][in_range]
    is_trin_aux = trin[aux_idx]
    kinds = classify_trinomial(aux1[is_trin_aux], aux2[is_trin_aux])
    trin_dur = dur[aux_idx[is_trin_aux]]
    for kind in ("closed", "interior", "edge"):
        out[f"trinomial.us_per_call.{kind}"] = _per_call_us(trin_dur[kinds == kind])
    out["trinomial.no_root"] = int((trin & (err == ERR_NO_ROOT)).sum())
    lam = named("trinomial.lambert_w")
    out["trinomial.lambert_calls"] = int(lam.sum())
    out["trinomial.lambert_self_s"] = float(self_time[lam].sum())

    # maxent: public solves, their sweeps and level maps.  Root solves are
    # direct children of the solve span, since the fixed-point loops are
    # private and open no span.
    solver = named(*(f"maxent.{s}" for s in SOLVERS))
    is_solver_aux = solver[aux_idx]
    solve_n = np.zeros(count)
    solve_n[aux_idx[is_solver_aux]] = aux1[is_solver_aux]
    returned = aux2[is_solver_aux]
    root_parent = local_parent[trin | lam]
    root_parent = root_parent[root_parent >= 0]
    root_parent = root_parent[solver[root_parent]]
    roots_per_solve = np.bincount(root_parent, minlength=count)
    level_maps = float((roots_per_solve[solver] / solve_n[solver]).sum())
    sweeps = int(np.nansum(returned))
    out["maxent.sweeps"] = sweeps
    out["maxent.level_maps"] = level_maps
    out["maxent.useful_map_ratio"] = sweeps / level_maps if level_maps else 0.0
    out["maxent.ms_per_level_map"] = \
        1e3 * float(dur[solver].sum()) / level_maps if level_maps else 0.0

    # fileio, cli, checks.  cli.self_s is the in-process time left after the
    # reads, solves and suites under it: argument handling and emission.
    reads = named(*READERS)
    out["fileio.read_s"] = float(dur[_outermost(local_parent, reads)].sum())
    invoke = named("cli.invoke")
    inproc = float(dur[invoke].sum())
    work = reads | solver | in_layer("checks")
    under_invoke = _outermost(local_parent, work) & _below(local_parent, invoke)
    out["cli.inproc_s"] = inproc
    out["cli.self_s"] = inproc - float(dur[under_invoke].sum())
    for suite in ("group", "algebra", "entropy", "maxent"):
        out[f"checks.{suite}_s"] = float(dur[named(f"checks.{suite}_suite")].sum())
    for lay in ("qalgebra", "deformation", "entropy"):
        mask = in_layer(lay)
        out[f"{lay}.calls"] = int(mask.sum())
        out[f"{lay}.self_s"] = float(self_time[mask].sum())
    return out


def _below(local_parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mask of spans that have an ancestor span selected by ``mask``."""
    found = np.zeros(mask.shape, dtype=bool)
    ancestor = local_parent.copy()
    while (live := ancestor >= 0).any():
        found[live] |= mask[ancestor[live]]
        ancestor[live] = local_parent[ancestor[live]]
    return found


def _outermost(local_parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Spans selected by ``mask`` that have no selected ancestor."""
    return mask & ~_below(local_parent, mask)


def _per_call_us(durations: np.ndarray) -> float:
    return 1e6 * float(durations.mean()) if durations.size else 0.0


def classify_trinomial(alpha: np.ndarray, b: np.ndarray) -> np.ndarray:
    """'closed' for alpha in {0.5, 1, 2}, else 'interior' / 'edge' by |b|/b_crit.

    b_crit = |alpha-1|^(alpha-1) / alpha^alpha is formed in log space, so it
    stays finite for any alpha > 0 (the program's ``series_radius``
    overflows above alpha ~ 144).
    """
    kinds = np.full(alpha.shape, "interior", dtype=object)
    closed = np.isin(alpha, CLOSED_ALPHAS)
    generic = ~closed & (b != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_bcrit = np.where(
            alpha == 1.0, 0.0,
            (alpha - 1.0) * np.log(np.abs(alpha - 1.0)) - alpha * np.log(alpha))
        log_share = np.log(np.abs(b)) - log_bcrit
    kinds[generic & (log_share > math.log(EDGE_SHARE))] = "edge"
    kinds[closed] = "closed"
    return kinds
