"""Global phase evolution, partial trace/transpose, and negativity.

The full ensemble Hamiltonian is diagonal in the computational basis, so
global evolution is an elementwise phase on the density matrix: element
(g, g') picks up exp(-i t [E_g - E_g']). Dense storage is fine up to the
default dimension cap of 1024 (N = 10 spins-1/2).

Negativity across the system|environment cut is (||rho^T_S||_1 - 1)/2.
For a product initial state rho_S x rho_E, `global_negativity_series`
picks one of three paths from the two factors, once for the whole grid:

- factor spectra: either factor is diagonal in the product basis. The
  partial transpose then has the spectrum eig(rho_S) x eig(rho_E) at every
  t (a diagonal rho_E leaves blocks w_k D_k rho_S D_k^H, a diagonal rho_S
  is untouched by the transpose), so one small eigenproblem per factor
  serves every time.
- Schmidt: both factors are rank one. The evolved vector, a d_S x d_E
  matrix, gives the Schmidt coefficients through its small Gram matrix;
  the partial transpose of |psi><psi| has eigenvalues {l_i^2} and
  {+- l_i l_j}, so the trace norm is (sum_i l_i)^2.
- dense: anything else. The global matrix is built at each time and its
  partial transpose diagonalized with the in-package solver.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .engine import EnvPopulations, WitnessEvaluator
from .linalg import hermitian_eigenvalues, trace_norm
from .model import DEFAULT_ENUM_CAP, EnsembleSpec, ResourceCapError, total_energies

GLOBAL_DIM_CAP = 1024
SCHMIDT_BLOCK = 2**16  # time x configuration entries per block of evolved vectors
_DIAGONAL_TOL = 1e-14  # off-diagonal size, relative to the largest entry, read as zero
_PURITY_TOL = 1e-10  # entrywise residual of a rank-one reconstruction


def evolve_global(
    spec: EnsembleSpec,
    rho_s0: np.ndarray,
    rho_e0: np.ndarray,
    t: float,
    dim_cap: int = GLOBAL_DIM_CAP,
) -> np.ndarray:
    """Unitarily evolved global matrix exp(-iHt) (rho_S x rho_E) exp(iHt).

    rho_e0 is the full environment matrix; its coherences matter here (they
    generate entanglement) even though they never reach the reduced state.
    Accepts any Hermitian inputs: the map is linear, not state-restricted.
    """
    dim = spec.dim_system * spec.dim_env
    if dim > dim_cap:
        raise ResourceCapError(f"global dimension {dim} exceeds cap {dim_cap}")
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    rho_e0 = np.asarray(rho_e0, dtype=complex)
    if rho_s0.shape != (spec.dim_system,) * 2 or rho_e0.shape != (spec.dim_env,) * 2:
        raise ValueError("initial factors have wrong dimensions")
    # product and phases in place: a second D x D temporary would make the
    # peak memory depend on the allocator's history
    rho = (rho_s0[:, None, :, None] * rho_e0[None, :, None, :]).reshape(dim, dim)
    u = np.exp(-1j * total_energies(spec) * t)
    np.multiply(u[:, None], rho, out=rho)
    rho *= u.conj()[None, :]
    return rho


def partial_trace_env(rho: np.ndarray, dims: Tuple[int, int]) -> np.ndarray:
    """Trace out the environment factor of a (d_S d_E) x (d_S d_E) matrix."""
    d_s, d_e = dims
    rho = np.asarray(rho)
    if rho.shape != (d_s * d_e, d_s * d_e):
        raise ValueError(f"matrix shape {rho.shape} does not match dims {dims}")
    return np.einsum("ikjk->ij", rho.reshape(d_s, d_e, d_s, d_e))


def partial_transpose_system(rho: np.ndarray, dims: Tuple[int, int]) -> np.ndarray:
    """Transpose the system indices only; Hermiticity is preserved."""
    d_s, d_e = dims
    rho = np.asarray(rho)
    if rho.shape != (d_s * d_e, d_s * d_e):
        raise ValueError(f"matrix shape {rho.shape} does not match dims {dims}")
    r = rho.reshape(d_s, d_e, d_s, d_e)
    return np.transpose(r, (2, 1, 0, 3)).reshape(d_s * d_e, d_s * d_e)


def _pure_vector(rho: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """Recover |psi> if rho = |psi><psi| within tol, else None."""
    diag = np.diag(rho).real
    j = int(np.argmax(diag))
    if diag[j] <= 0.0:
        return None
    psi = rho[:, j] / np.sqrt(diag[j])
    # confirm the rank-1 reconstruction before trusting it
    resid = np.outer(psi, psi.conj())
    resid -= rho
    if np.max(np.abs(resid)) > tol:
        return None
    return psi


def _schmidt_details(lam2: np.ndarray) -> Tuple[float, float, float]:
    """(negativity, minimum PT eigenvalue, PT trace norm) of a pure state.

    lam2 are the ascending squared Schmidt coefficients, the eigenvalues of
    a Gram matrix of the state's coefficient matrix.
    """
    # eigenvalue noise ~eps turns into sqrt(eps) Schmidt noise, so floor
    # the squared coefficients before taking the root
    lam2 = np.where(lam2 < 1e-14 * max(float(lam2[-1]), 0.0), 0.0, lam2)
    lam = np.sqrt(np.clip(lam2, 0.0, None))
    tnorm = float(lam.sum() ** 2)
    min_eig = -float(lam[-1] * lam[-2]) if lam.size > 1 else float(lam2[0])
    return (tnorm - 1.0) / 2.0, min_eig, tnorm


def negativity_details(
    rho: np.ndarray, dims: Tuple[int, int], purity_tol: float = 1e-12
) -> Tuple[float, float, float]:
    """(negativity, minimum PT eigenvalue, PT trace norm) for a state.

    Pure states take an exact Schmidt shortcut: the partial transpose of
    |psi><psi| has eigenvalues {l_i^2} and {+- l_i l_j}, so its trace norm
    is (sum_i l_i)^2 and its minimum eigenvalue -max_{i<j} l_i l_j. Mixed
    states go through the dense eigensolver.
    """
    d_s, d_e = dims
    rho = np.asarray(rho, dtype=complex)
    skew = rho.conj().T
    skew -= rho
    if np.max(np.abs(skew)) > 1e-10 * max(1.0, np.max(np.abs(rho))):
        raise ValueError("negativity needs a Hermitian matrix")
    del skew  # a D x D temporary: free it before the purity and residual ones
    purity = float(np.sum(np.abs(rho) ** 2).real)
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) < 1e-10 and abs(purity - 1.0) < purity_tol:
        psi = _pure_vector(rho, tol=_PURITY_TOL)
        if psi is not None:
            m = psi.reshape(d_s, d_e)
            return _schmidt_details(hermitian_eigenvalues(m @ m.conj().T))
    eigs = hermitian_eigenvalues(partial_transpose_system(rho, dims))
    tnorm = float(np.sum(np.abs(eigs)))
    return (tnorm - 1.0) / 2.0, float(np.min(eigs)), tnorm


def negativity(rho: np.ndarray, dims: Tuple[int, int]) -> float:
    """(||rho^T_S||_1 - 1)/2, clamped to zero.

    Nonzero negativity certifies entanglement across the cut; for a pair of
    two-level factors zero negativity also certifies separability.
    """
    value, _, _ = negativity_details(rho, dims)
    return max(value, 0.0)


class GlobalNegativity(NamedTuple):
    """Negativity columns on a time grid and the path that produced them."""

    path: str  # "factor_spectra", "schmidt" or "dense"
    negativity: np.ndarray  # unclamped (||rho^T_S||_1 - 1)/2
    min_eigenvalue: np.ndarray
    trace_norm: np.ndarray


def _is_diagonal(rho: np.ndarray) -> bool:
    off = np.abs(rho)
    scale = max(1.0, float(off.max()))
    np.fill_diagonal(off, 0.0)
    return float(off.max()) <= _DIAGONAL_TOL * scale


def _spectrum_and_trace_norm(rho: np.ndarray) -> Tuple[np.ndarray, float]:
    """Eigenvalues of a factor and its trace norm tr rho - 2 (sum of negatives).

    The trace comes from the diagonal, so a PSD factor whose eigenvalues
    carry ~eps noise still has trace norm 1 to the last bit.
    """
    trace = float(np.trace(rho).real)
    eigs = np.diag(rho).real.copy() if _is_diagonal(rho) else hermitian_eigenvalues(rho)
    return eigs, trace - 2.0 * float(eigs[eigs < 0.0].sum())


def global_negativity_series(
    spec: EnsembleSpec,
    rho_s0: np.ndarray,
    rho_e0: np.ndarray,
    times,
    map_times: Callable = map,
) -> GlobalNegativity:
    """Negativity across the system|environment cut of the evolved rho_S x rho_E.

    The path is chosen once from the factors (see the module docstring).
    Any Hermitian factors are accepted. ``map_times`` maps the per-time
    function of the dense path over the grid (for example a thread pool's
    map); the structured paths do not use it.
    """
    d_s, d_e = spec.dim_system, spec.dim_env
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    rho_e0 = np.asarray(rho_e0, dtype=complex)
    if rho_s0.shape != (d_s, d_s) or rho_e0.shape != (d_e, d_e):
        raise ValueError("initial factors have wrong dimensions")
    for rho in (rho_s0, rho_e0):
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(rho))):
            raise ValueError("negativity needs Hermitian factors")
    times = np.atleast_1d(np.asarray(times, dtype=float))

    if _is_diagonal(rho_s0) or _is_diagonal(rho_e0):
        (eig_s, norm_s), (eig_e, norm_e) = map(_spectrum_and_trace_norm, (rho_s0, rho_e0))
        tnorm = norm_s * norm_e
        extremes = [np.array([e.min(), e.max()]) for e in (eig_s, eig_e)]
        columns = ((tnorm - 1.0) / 2.0, float(np.outer(*extremes).min()), tnorm)
        return GlobalNegativity("factor_spectra", *(np.full(times.shape, c) for c in columns))

    psi_s = _pure_vector(rho_s0, tol=_PURITY_TOL)
    psi_e = _pure_vector(rho_e0, tol=_PURITY_TOL)
    if psi_s is not None and psi_e is not None:
        # coefficient matrix with the smaller side first: its Gram matrix
        # is the smaller one
        psi0 = np.outer(psi_s, psi_e)
        energies = total_energies(spec).reshape(d_s, d_e)
        if d_s > d_e:
            psi0, energies = psi0.T, energies.T
        phase = -1j * energies
        step = max(1, SCHMIDT_BLOCK // psi0.size)
        details = []
        for i in range(0, times.size, step):
            psi = np.exp(times[i : i + step, None, None] * phase) * psi0
            gram = psi @ psi.conj().transpose(0, 2, 1)
            details += [_schmidt_details(hermitian_eigenvalues(g)) for g in gram]
        path = "schmidt"
    else:
        dims = (d_s, d_e)
        details = list(map_times(
            lambda t: negativity_details(evolve_global(spec, rho_s0, rho_e0, t), dims), times
        ))
        path = "dense"
    return GlobalNegativity(path, *np.array(details, dtype=float).reshape(-1, 3).T)


def system_internal_negativity(
    spec: EnsembleSpec,
    rho_s0: np.ndarray,
    env: EnvPopulations,
    t: float,
    cut_sites: int = 1,
    cap: int = DEFAULT_ENUM_CAP,
) -> float:
    """Negativity inside the subsystem across a site cut, at time t.

    The reduced state is evolved exactly, then split after ``cut_sites``
    leading sites. For two spin-1/2 sites (the 1|1 cut of a two-site
    system) zero negativity is equivalent to separability.
    """
    if not 1 <= cut_sites < spec.n_system:
        raise ValueError("cut must leave sites on both sides")
    ev = WitnessEvaluator(spec, env, cap=cap)
    rho_t = ev.reduced_state(rho_s0, t)
    d_a = spec.levels**cut_sites
    d_b = spec.levels ** (spec.n_system - cut_sites)
    return negativity(rho_t, (d_a, d_b))


__all__ = [
    "GLOBAL_DIM_CAP",
    "GlobalNegativity",
    "evolve_global",
    "global_negativity_series",
    "partial_trace_env",
    "partial_transpose_system",
    "negativity",
    "negativity_details",
    "system_internal_negativity",
    "trace_norm",
]
