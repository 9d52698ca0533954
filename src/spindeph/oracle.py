"""Brute-force verification layer, independent of all closed forms.

The oracle rebuilds the reduced dynamics from global unitary evolution with
no dephasing factors. The Hamiltonian is diagonal, so with the energy table
E as d_S x d_E and u = exp(-i E t), tr_E[U (X x rho_E) U^H] = X * M(t)
(elementwise) with M(t) = (u diag rho_E) u^H: the entries the partial
trace reads and no others. ``oracle_reduced_state`` takes one time or a
1-D grid, (d_S, d_S) or (T, d_S, d_S), and evaluates M in the stacks of
times of the engine's ``_time_blocks``; ``oracle_superoperator`` pushes all
d_S^2 Bloch basis operators through one M(t) as a stack. The oracle shares
only the energy tables of :mod:`spindeph.model` and that block rule with
the engine.

``run_verification`` bundles the oracle comparisons and the structural
invariants into a report, the CLI's ``verify``. Once per ensemble it also
evolves a coherent rho_E densely and traces it: environment coherences
must not reach the subsystem, and the dense path checks the contraction.
It evaluates the engine once per ensemble, at the grid times and the probe
time together, and gathers the engine's reduced states and the Bloch
matrices by size into stacks, each folded once it holds the engine's
SERIES_MIN_TIMES x SERIES_BLOCK = 2^16 entries (or at the end): one
``hermitian_eigenvalues`` call per stack for the positivity check and one
``lu_det`` call per stack for the determinant check, each member bitwise
as alone. The determinant check needs a time where det M
is not near 0: the draws are tried in chunks of 8, 16, 32, ... times with
one ``series`` call per chunk, and the generator is then left where
drawing one time at a time would leave it, so the report is the same.
The oracle evaluates M at that time together with the grid times.
What depends only on the shape is built once per process: the Bloch
basis operators and the off-block mask once per system dimension (and
the small configuration tables once per site count, in
:mod:`spindeph.model`).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Optional

import numpy as np

from . import engine, entanglement
from .engine import (
    EnvPopulations,
    WitnessEvaluator,
    _time_blocks,
    bloch_to_density,
    bloch_vector,
)
from .linalg import hermitian_eigenvalues, lu_det
from .model import EnsembleSpec, ResourceCapError, total_energies

SUPEROP_SYSTEM_DIM_CAP = 16
# verify's determinant check draws up to DET_DRAWS times for one with
# det M > DET_FLOOR
DET_FLOOR = 1e-6
DET_DRAWS = 40


def _traced_phases(energies: np.ndarray, dim_system: int, env_diag: np.ndarray, t) -> np.ndarray:
    """M(t) of the module docstring, t.shape + (d_S, d_S), in stacks of phases cut by `_time_blocks`."""
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    phase = -1j * energies.reshape(dim_system, -1)
    out = np.empty((flat.size, dim_system, dim_system), dtype=complex)
    for block in _time_blocks(flat.size, phase.size):
        u = np.exp(phase * flat[block, None, None])
        out[block] = (u * env_diag) @ u.conj().swapaxes(-1, -2)
    return out.reshape(times.shape + out.shape[-2:])


def oracle_reduced_state(spec: EnsembleSpec, rho_s0: np.ndarray, rho_e0: np.ndarray, t):
    """tr_E of the globally evolved product state at t, or at each time of a 1-D grid."""
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    rho_e0 = np.asarray(rho_e0, dtype=complex)
    if rho_s0.shape != (spec.dim_system,) * 2 or rho_e0.shape != (spec.dim_env,) * 2:
        raise ValueError("initial factors have wrong dimensions")
    return rho_s0 * _traced_phases(total_energies(spec), spec.dim_system, np.diagonal(rho_e0), t)


def _bloch_matrix(traced: np.ndarray) -> np.ndarray:
    """The matrix of :func:`oracle_superoperator` from M(t) of its one time."""
    return bloch_vector(_bloch_basis(len(traced)) * traced).T


@functools.lru_cache(maxsize=None)
def _bloch_basis(dim: int) -> np.ndarray:
    """The dim^2 Bloch coordinate basis operators as density matrices, (dim^2, dim, dim), read-only."""
    basis = bloch_to_density(np.eye(dim * dim))
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=None)
def _off_block_mask(dim: int) -> np.ndarray:
    """Read-only (dim^2, dim^2) mask of the Bloch matrix entries outside its
    blocks: one 2x2 block per coherence a < b, then the populations block."""
    pairs = dim * (dim - 1) // 2
    block = np.minimum(np.arange(dim * dim) // 2, pairs)
    mask = block[:, None] != block[None, :]
    mask.flags.writeable = False
    return mask


def oracle_superoperator(spec: EnsembleSpec, env: EnvPopulations, t: float):
    """Bloch evolution matrix: column k is the image of coordinate basis operator k.

    The basis operators are Hermitian, not states (the map is linear), and
    go through the map as one stack. Returns (matrix, determinant), the
    determinant from LAPACK's pivoted LU (``lu_det``).
    """
    dim = spec.dim_system
    if dim > SUPEROP_SYSTEM_DIM_CAP:
        raise ResourceCapError(
            f"superoperator reconstruction capped at D={SUPEROP_SYSTEM_DIM_CAP}, got {dim}"
        )
    mat = _bloch_matrix(_traced_phases(total_energies(spec), dim, env.weights, t))
    return mat, lu_det(mat)


# ---------------------------------------------------------------------------
# verification suite


def _random_spec(rng: np.random.Generator, n_total: int, n_system: int) -> EnsembleSpec:
    j = rng.uniform(-1.0, 1.0, size=(n_total, n_total))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    h = rng.uniform(-1.0, 1.0, size=n_total)
    return EnsembleSpec(
        n_total=n_total, n_system=n_system, twice_spin=1, couplings=j, fields=h
    )


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_populations(rng: np.random.Generator, spec: EnsembleSpec) -> EnvPopulations:
    w = rng.uniform(0.05, 1.0, size=spec.dim_env)
    return EnvPopulations(
        n_sites=spec.n_env, twice_spin=spec.twice_spin, weights=w / w.sum()
    )


def _det_time(ev: WitnessEvaluator, rng: np.random.Generator):
    """(t, log det M(t)) at the first of DET_DRAWS draws t ~ U(0.05, 3) with
    det M(t) > DET_FLOOR, or None when no draw has.

    The draws go in chunks of 8, 16, 32, ... times, one ``series`` call per
    chunk (a time's value does not depend on the chunk; most of a call's
    cost does not depend on its size). The generator is
    then left where drawing one time at a time would leave it: just past
    the chosen draw, or past all DET_DRAWS.
    """
    drawn, chunk = 0, 8
    while drawn < DET_DRAWS:
        state = rng.bit_generator.state
        times = rng.uniform(0.05, 3.0, size=min(chunk, DET_DRAWS - drawn))
        log_det, _ = ev.series(times)
        good = np.flatnonzero(log_det > np.log(DET_FLOOR))
        if good.size:
            k = int(good[0])
            rng.bit_generator.state = state
            rng.uniform(size=k + 1)
            return float(times[k]), float(log_det[k])
        drawn += times.size
        chunk *= 2
    return None


def _check_passed(check: dict) -> bool:
    """Whether a check of a verification report holds: value <= tolerance,
    or value >= tolerance for direction "min"."""
    if check.get("direction") == "min":
        return check["value"] >= check["tolerance"]
    return check["value"] <= check["tolerance"]


def run_verification(
    seed: int = 2024,
    n_specs: int = 50,
    time_points: int = 20,
    energy_override: Optional[Callable[[EnsembleSpec], np.ndarray]] = None,
) -> dict:
    """Engine-versus-oracle comparison over random ensembles.

    Returns a report dict with per-check maximum deviations and a global
    ``passed`` flag. ``energy_override`` replaces the global energy table
    of every oracle path (reduced states, superoperator and the dense
    coherence probe); it exists for fault injection, to demonstrate that
    the suite catches a wrong Hamiltonian.
    """
    rng = np.random.default_rng(seed)
    started = time.perf_counter()

    dev_state = 0.0
    dev_det = 0.0
    dev_block = 0.0
    dev_coherence = 0.0
    dev_trace = 0.0
    min_eigenvalue = float("inf")
    # engine reduced states, and superoperator matrices with the engine's
    # determinant, by system dimension: one linalg call per stack
    states, dets = {}, {}

    def fold_states(dim):
        nonlocal min_eigenvalue
        low = hermitian_eigenvalues(states.pop(dim))[..., 0]
        min_eigenvalue = min(min_eigenvalue, float(low.min()))

    def fold_dets(dim):
        nonlocal dev_det
        mats, engine_dets = zip(*dets.pop(dim))
        for det_lu, det_engine in zip(lu_det(mats).tolist(), engine_dets):
            dev_det = max(dev_det, abs(det_lu - det_engine) / det_engine)

    def push(stacks, fold, dim, items, entries):
        stack = stacks.setdefault(dim, [])
        stack.extend(items)
        if len(stack) * entries >= engine.SERIES_MIN_TIMES * engine.SERIES_BLOCK:
            fold(dim)

    for _ in range(n_specs):
        n_total = int(rng.integers(3, 9))
        n_system = int(rng.integers(1, min(n_total, 4)))
        spec = _random_spec(rng, n_total, n_system)
        env = _random_populations(rng, spec)
        rho_s0 = _random_density(rng, spec.dim_system)
        ev = WitnessEvaluator(spec, env)
        dim = spec.dim_system

        times = rng.uniform(0.0, 6.0, size=time_points)
        energies = total_energies(spec) if energy_override is None else energy_override(spec)
        # a coherent rho_E for the probe below, drawn before the engine runs
        g = rng.normal(size=(spec.dim_env, spec.dim_env)) + 1j * rng.normal(
            size=(spec.dim_env, spec.dim_env)
        )
        rho_e_coh = 0.1 * (g + g.conj().T) / spec.dim_env
        np.fill_diagonal(rho_e_coh, env.weights)
        t_probe = float(rng.uniform(0.3, 3.0))
        # the engine at the grid times and the probe time in one call
        engine_all = ev.reduced_state(rho_s0, np.append(times, t_probe))
        engine_rho = engine_all[:-1]
        # determinant dual path, at a point where det is not degenerate (a
        # relative comparison at det ~ 0 would be meaningless); the oracle
        # evaluates M at that time in its call for the grid times
        found = _det_time(ev, rng) if dim <= 8 else None
        traced = _traced_phases(energies, dim, env.weights,
                                times if found is None else np.append(times, found[0]))
        oracle_rho = rho_s0 * traced[:time_points]
        dev_state = max(dev_state, float(np.max(np.abs(engine_rho - oracle_rho))))
        trace = np.trace(engine_rho, axis1=-2, axis2=-1).real
        dev_trace = max(dev_trace, float(np.max(np.abs(trace - 1.0))))
        push(states, fold_states, dim, engine_rho, dim**2)

        # coherence independence: environment off-diagonals never reach
        # rho_S; the dense evolution also cross-checks the contraction.
        # No name holds the D x D matrix past the trace
        probe = entanglement.partial_trace_env(
            entanglement.evolve_global(spec, rho_s0, rho_e_coh, t_probe, energies),
            (dim, spec.dim_env),
        )
        dev_coherence = max(dev_coherence, float(np.max(np.abs(probe - engine_all[-1]))))

        if found is not None:
            mat = _bloch_matrix(traced[-1])
            push(dets, fold_dets, dim, [(mat, float(np.exp(found[1])))], mat.size)
            # off-block entries of the reconstructed map must vanish
            dev_block = max(dev_block, float(np.max(np.abs(mat[_off_block_mask(dim)]))))

    for dim in list(states):
        fold_states(dim)
    for dim in list(dets):
        fold_dets(dim)
    report = {
        "seed": seed,
        "specs": n_specs,
        "time_points": time_points,
        "elapsed_seconds": time.perf_counter() - started,
        "checks": {
            "reduced_state_max_abs_dev": {"value": dev_state, "tolerance": 1e-12},
            "env_coherence_independence_max_abs_dev": {
                "value": dev_coherence,
                "tolerance": 1e-12,
            },
            "superoperator_det_max_rel_dev": {"value": dev_det, "tolerance": 1e-10},
            "superoperator_off_block_max": {"value": dev_block, "tolerance": 1e-12},
            "reduced_state_trace_max_err": {"value": dev_trace, "tolerance": 1e-12},
            "reduced_state_min_eigenvalue": {
                "value": min_eigenvalue,
                "tolerance": -1e-10,
                "direction": "min",
            },
        },
    }
    report["passed"] = all(map(_check_passed, report["checks"].values()))
    return report
