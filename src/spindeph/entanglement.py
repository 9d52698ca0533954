"""Global phase evolution, partial trace/transpose, and negativity.

The full ensemble Hamiltonian is diagonal in the computational basis, so
global evolution is an elementwise phase on the density matrix: element
(g, g') picks up exp(-i t [E_g - E_g']). Dense storage is fine up to the
default dimension cap of 1024 (N = 10 spins-1/2).

Negativity across the system|environment cut is (||rho^T_S||_1 - 1)/2. For
a globally pure state the partial-transpose trace norm is (sum of Schmidt
coefficients)^2, computed from a small Gram matrix; the generic path
diagonalizes the partially transposed matrix with the in-package solver.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .engine import EnvPopulations, WitnessEvaluator
from .linalg import hermitian_eigenvalues, trace_norm
from .model import DEFAULT_ENUM_CAP, EnsembleSpec, ResourceCapError, total_energies

GLOBAL_DIM_CAP = 1024


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


def _env_diagonal_blocks(rho: np.ndarray, dims: Tuple[int, int]):
    """System-space blocks when rho is exactly diagonal in the environment.

    Returns the list of d_S x d_S blocks rho[:, k, :, k] when every element
    with differing environment indices vanishes, else None. For such states
    the system partial transpose acts blockwise, so the full spectrum is the
    union of the (Hermitian) block spectra.
    """
    d_s, d_e = dims
    if d_e == 1:
        return None
    off = np.abs(rho).reshape(d_s, d_e, d_s, d_e)
    scale = max(1.0, float(off.max()))
    env = np.arange(d_e)
    off[:, env, :, env] = 0.0
    if float(off.max()) > 1e-14 * scale:
        return None
    r = rho.reshape(d_s, d_e, d_s, d_e)
    return [r[:, k, :, k] for k in range(d_e)]


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
        psi = _pure_vector(rho, tol=1e-10)
        if psi is not None:
            gram = psi.reshape(d_s, d_e) @ psi.reshape(d_s, d_e).conj().T
            lam2 = hermitian_eigenvalues(gram)
            # eigenvalue noise ~eps turns into sqrt(eps) Schmidt noise, so
            # floor the squared coefficients before taking the root
            lam2 = np.where(lam2 < 1e-14 * max(float(lam2[-1]), 0.0), 0.0, lam2)
            lam = np.sqrt(np.clip(lam2, 0.0, None))
            tnorm = float(lam.sum() ** 2)
            lam_desc = np.sort(lam)[::-1]
            min_eig = -float(lam_desc[0] * lam_desc[1]) if lam.size > 1 else float(lam2[0])
            return (tnorm - 1.0) / 2.0, min_eig, tnorm
    blocks = _env_diagonal_blocks(rho, dims)
    if blocks is not None:
        # block-diagonal over the environment index: the partial transpose
        # decomposes into per-block system transposes, eigenvalue-exactly
        eigs = np.concatenate([hermitian_eigenvalues(b) for b in blocks])
    else:
        pt = partial_transpose_system(rho, dims)
        eigs = hermitian_eigenvalues(pt)
    tnorm = float(np.sum(np.abs(eigs)))
    return (tnorm - 1.0) / 2.0, float(np.min(eigs)), tnorm


def negativity(rho: np.ndarray, dims: Tuple[int, int]) -> float:
    """(||rho^T_S||_1 - 1)/2, clamped to zero.

    Nonzero negativity certifies entanglement across the cut; for a pair of
    two-level factors zero negativity also certifies separability.
    """
    value, _, _ = negativity_details(rho, dims)
    return max(value, 0.0)


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
    "evolve_global",
    "partial_trace_env",
    "partial_transpose_system",
    "negativity",
    "negativity_details",
    "system_internal_negativity",
    "trace_norm",
]
