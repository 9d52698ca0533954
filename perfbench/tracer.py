"""Span tracing of spindeph from outside the package, and per-layer metrics.

`Tracer.install` wraps every public function of the layer modules, plus the
methods of `WitnessEvaluator`, at each module attribute where a call site
looks the function up (for example `linalg.hermitian_eigenvalues` together
with the copies imported into `entanglement` and `oracle`). Each call
records a span: name, start, end and parent. Spans stay in memory; a few
call arguments are noted after the span closes, and every count is derived
from those notes once the solve is over, so no counting runs inside a span.

Tracing assumes a single thread: traced runs never pass --threads > 1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from time import perf_counter

import numpy as np

LAYERS = ("model", "thermal", "engine", "closedforms", "qubit", "entanglement", "linalg", "oracle", "cli")
EVALUATOR_METHODS = ("__init__", "series", "reduced_state", "factors", "log_det", "dlog_det")

BISECT = "engine.WitnessEvaluator.dlog_det"
SERIES = "engine.WitnessEvaluator.series"
EVAL_INIT = "engine.WitnessEvaluator.__init__"
EIG = ("linalg.hermitian_eigenvalues", "linalg.hermitian_eigensystem")
NEG_DETAILS = "entanglement.negativity_details"
WRITE_CSV = "cli.write_csv"

# metric prefix -> span names whose calls and self time it sums
GROUPS = {
    "engine.evaluator_init": (EVAL_INIT,),
    "engine.reduced_state": ("engine.WitnessEvaluator.reduced_state",),
    "model.config_matrix": ("model.config_matrix",),
    "model.total_energies": ("model.total_energies",),
    "entanglement.evolve_global": ("entanglement.evolve_global",),
    "linalg.householder": ("linalg.householder_tridiagonalize",),
    "linalg.ql": ("linalg.tridiagonal_eigen",),
    "linalg.lu_det": ("linalg.lu_det",),
    "oracle.superoperator": ("oracle.oracle_superoperator",),
    "cli.write_csv": (WRITE_CSV,),
}

# Per-layer metrics in the order they are printed. Units: "count", "s", "B", "1".
PER_LAYER = (
    [("engine.bisect.calls", "count"), ("engine.bisect.s", "s"),
     ("engine.series.calls", "count"), ("engine.series.grid_s", "s"),
     ("engine.series.phase_evals", "count"), ("engine.merged_freqs", "count"),
     ("engine.pairs", "count"), ("engine.env_configs", "count"),
     ("engine.evaluator_init.calls", "count"), ("engine.evaluator_init.s", "s"),
     ("engine.reduced_state.calls", "count"), ("engine.reduced_state.s", "s"),
     ("thermal.populations.calls", "count"), ("thermal.populations.s", "s"),
     ("model.config_matrix.calls", "count"), ("model.config_matrix.s", "s"),
     ("model.total_energies.calls", "count"), ("model.total_energies.s", "s"),
     ("entanglement.evolve_global.calls", "count"), ("entanglement.evolve_global.s", "s"),
     ("entanglement.negativity_details.calls", "count"),
     ("entanglement.negativity_details.self_s", "s"),
     ("entanglement.path.schmidt", "count"), ("entanglement.path.env_block", "count"),
     ("entanglement.path.dense", "count"), ("entanglement.path.other", "count"),
     ("linalg.eig.calls", "count"), ("linalg.eig.n3_sum", "count"),
     ("linalg.householder.s", "s"), ("linalg.ql.s", "s"),
     ("linalg.lu_det.calls", "count"), ("linalg.lu_det.s", "s"),
     ("oracle.superoperator.calls", "count"), ("oracle.superoperator.self_s", "s"),
     ("cli.write_csv.calls", "count"), ("cli.write_csv.s", "s"), ("cli.write_csv.bytes", "B")]
    + [(f"{layer}.s", "s") for layer in LAYERS]
    + [("cli.threads2_speedup", "1"), ("trace.overhead_ratio", "1"), ("check.max_rel_dev", "1")]
)


def _note_eig(args, kwargs):
    return int(np.shape(args[0] if args else kwargs["a"])[0])


def _note_dims(args, kwargs):
    return tuple(args[1] if len(args) > 1 else kwargs["dims"])


def _note_path(args, kwargs):
    return str(args[0] if args else kwargs["path"])


def _note_series(args, kwargs):
    return id(args[0]), int(np.size(args[1] if len(args) > 1 else kwargs["times"]))


# span name -> function of the call's (args, kwargs) kept as the span's note
NOTES = {
    EIG[0]: _note_eig,
    EIG[1]: _note_eig,
    NEG_DETAILS: _note_dims,
    WRITE_CSV: _note_path,
    SERIES: _note_series,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.notes: dict = {}
        self.evaluators: dict = {}  # id(evaluator) -> (evaluator, spec, env)
        self._stack: list = []
        self._patches: list = []

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self._stack
        note = NOTES.get(name)
        evaluators = self.evaluators if name == EVAL_INIT else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if note is not None:
                    self.notes[idx] = note(args, kwargs)
                elif evaluators is not None:
                    ev, spec, env = args[0], args[1], args[2] if len(args) > 2 else kwargs["env"]
                    evaluators[id(ev)] = (ev, spec, env)

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("spindeph")
        modules = [importlib.import_module(f"spindeph.{layer}") for layer in LAYERS]
        holders = [package, *modules]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapped)
        cls = importlib.import_module("spindeph.engine").WitnessEvaluator
        for method in EVALUATOR_METHODS:
            fn = vars(cls)[method]
            self._patches.append((cls, method, fn))
            setattr(cls, method, self._wrap(f"engine.WitnessEvaluator.{method}", fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and times of everything traced so far."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_time = list(dur)
        under_bisect = [False] * n
        eig_sizes = {}
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                self_time[par] -= dur[i]
                under_bisect[i] = under_bisect[par] or self.names[par] == BISECT
                if self.names[i] in EIG and self.names[par] == NEG_DETAILS:
                    eig_sizes.setdefault(par, []).append(self.notes[i])

        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, name in enumerate(self.names):
            add(f"{name.split('.', 1)[0]}.s", self_time[i])
            if name == BISECT:
                add("engine.bisect.calls", 1)
                add("engine.bisect.s", dur[i])
            elif name == SERIES:
                add("engine.series.calls", 1)
                if not under_bisect[i]:
                    add("engine.series.grid_s", self_time[i])
            elif name in EIG:
                add("linalg.eig.calls", 1)
                add("linalg.eig.n3_sum", self.notes[i] ** 3)
            elif name == NEG_DETAILS:
                add("entanglement.negativity_details.calls", 1)
                add("entanglement.negativity_details.self_s", self_time[i])
                add(f"entanglement.path.{_classify(self.notes[i], eig_sizes.get(i, []))}", 1)
            elif name.startswith("thermal."):
                add("thermal.populations.calls", 1)
                add("thermal.populations.s", self_time[i])
            if name == WRITE_CSV:
                add("cli.write_csv.bytes", os.path.getsize(self.notes[i]))
            for key, members in GROUPS.items():
                if name in members:
                    add(f"{key}.calls", 1)
                    suffix = "self_s" if key == "oracle.superoperator" else "s"
                    add(f"{key}.{suffix}", self_time[i])
        out.update(self._engine_sizes())
        zero = {"s": 0.0}
        return {k: out.get(k, zero.get(unit, 0)) for k, unit in PER_LAYER[:-3]}

    def _engine_sizes(self) -> dict:
        """Problem sizes of every evaluator built, from its public inputs."""
        merged = {}
        out = {"engine.merged_freqs": 0, "engine.pairs": 0, "engine.env_configs": 0,
               "engine.series.phase_evals": 0}
        for key, (_, spec, env) in self.evaluators.items():
            merged[key] = merged_frequencies(spec, env)
            out["engine.merged_freqs"] += merged[key]
            out["engine.pairs"] += spec.dim_system * (spec.dim_system - 1) // 2
            out["engine.env_configs"] += int(np.count_nonzero(np.asarray(env.weights)))
        for i, name in enumerate(self.names):
            if name == SERIES:
                ev_id, n_times = self.notes[i]
                out["engine.series.phase_evals"] += n_times * merged[ev_id]
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: names, start, end (seconds) and parent index."""
        with open(path, "w") as fh:
            json.dump({"name": self.names, "start": self.start, "end": self.end,
                       "parent": self.parent}, fh)


def _classify(dims, sizes) -> str:
    """Negativity path from the eigensolver calls one negativity_details made."""
    d_a, d_b = dims
    if sizes == [d_a * d_b]:
        return "dense"
    if sizes == [d_a]:
        return "schmidt"
    if len(sizes) == d_b and all(s == d_a for s in sizes):
        return "env_block"
    return "other"


def merged_frequencies(spec, env) -> int:
    """Distinct frequencies of A_{s,s'}(t), summed over unordered pairs.

    Counted from the ensemble and the populated environment configurations,
    with the engine's merge tolerance of 1e-12 relative to the largest
    frequency of the pair.
    """
    levels = spec.twice_spin + 1
    values = spec.twice_spin - 2.0 * np.arange(levels)
    grid = lambda k: np.array(np.meshgrid(*([values] * k), indexing="ij")).reshape(k, -1).T
    weights = np.asarray(env.weights)
    u = grid(spec.n_env)[weights > 0.0]
    vs = grid(spec.n_system)
    a, b = np.triu_indices(len(vs), k=1)
    omegas = np.sort(0.5 * ((vs[a] - vs[b]) @ np.asarray(spec.cross_couplings)) @ u.T, axis=1)
    tol = 1e-12 * np.maximum(1.0, np.abs(omegas).max(axis=1, initial=0.0))
    return int(len(a) + np.sum(np.diff(omegas, axis=1) > tol[:, None]))
