"""Global phase evolution, partial trace/transpose, and negativity.

The full ensemble Hamiltonian is diagonal in the computational basis, so
global evolution is an elementwise phase on the density matrix: element
(g, g') picks up exp(-i t [E_g - E_g']). Dense storage is fine up to the
dimension cap GLOBAL_DIM_CAP of 1024 (N = 10 spins-1/2); only the dense
path below is held to it.

Negativity across the system|environment cut is (||rho^T_S||_1 - 1)/2.
For a product initial state rho_S x rho_E, `global_negativity_series` picks
one of three paths from the two factors, once for the whole grid, and names
it in the series' `path`. A factor is a matrix or a sequence of one-site
states, whose Kronecker product it is and is diagonal (rank one) when each
of them is:

- factor spectra: either factor is diagonal in the product basis. The
  partial transpose then has the spectrum eig(rho_S) x eig(rho_E) at every
  t (a diagonal rho_E leaves blocks w_k D_k rho_S D_k^H, a diagonal rho_S
  is untouched by the transpose), so the factors' spectra, products of
  their site states', serve every time. A diagonal matrix's spectrum is
  its diagonal and a rank-one matrix's is exactly {0, ..., 0, tr rho}, so
  neither needs an eigensolver; only a general one takes a
  `hermitian_eigenvalues` call.
- Schmidt: both factors are rank one. The Gram matrix of the evolved
  d_S x d_E coefficient matrix, on the smaller side (the roles swap when
  d_E < d_S), is that side's reduced state, which the engine evolves with
  the other side's diagonal as populations (independent sites when that
  side is given as one-site states, else one flat block), holding that
  side to its pair cap. Its eigenvalues (`_rayleigh_eigenvalues`) are the
  squared Schmidt coefficients l_i^2; the partial transpose of |psi><psi|
  has eigenvalues {l_i^2} and {+- l_i l_j}, so the trace norm is
  (sum_i l_i)^2.
- dense: anything else. The global matrix is built at each time, under
  the cap, and its partial transpose diagonalized by `hermitian_eigenvalues`.

`system_negativity_series` cuts inside the subsystem: exact reduced states
go to `negativity_details` in stacks, one eigensolver call per stack. The
Schmidt path and this one cut their grids into stacks by the engine's
`_time_blocks`, at d^2 entries per reduced state of dimension d.
"""

from __future__ import annotations

import functools
import os
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .engine import EnvPopulations, WitnessEvaluator, _time_blocks
from .linalg import _checked, hermitian_eigensystem, hermitian_eigenvalues
from .model import EnsembleSpec, ResourceCapError, _count, total_energies

GLOBAL_DIM_CAP = 1024
_DIAGONAL_TOL = 1e-14  # off-diagonal size, relative to the largest entry, read as zero
_PURITY_TOL = 1e-10  # entrywise residual of a rank-one reconstruction
_RANK_ONE_ULPS = 8  # the same residual read as rounding, in eps of the largest entry
_PURE_STATE_TOL = 1e-12  # |purity - 1| below which a state may be pure


def evolve_global(
    spec: EnsembleSpec,
    rho_s0: np.ndarray,
    rho_e0: np.ndarray,
    t: float,
    energies: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unitarily evolved global matrix exp(-iHt) (rho_S x rho_E) exp(iHt).

    rho_e0 is the full environment matrix; its coherences matter here (they
    generate entanglement) even though they never reach the reduced state.
    Accepts any Hermitian inputs: the map is linear, not state-restricted.
    ``energies`` replaces the diagonal of H, ``total_energies(spec)``.
    """
    dim = spec.dim_system * spec.dim_env
    if dim > GLOBAL_DIM_CAP:
        raise ResourceCapError(f"global dimension {_count(dim)} exceeds cap {GLOBAL_DIM_CAP}")
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    rho_e0 = np.asarray(rho_e0, dtype=complex)
    if rho_s0.shape != (spec.dim_system,) * 2 or rho_e0.shape != (spec.dim_env,) * 2:
        raise ValueError("initial factors have wrong dimensions")
    # product and phases in place: a second D x D temporary would make the
    # peak memory depend on the allocator's history
    rho = (rho_s0[:, None, :, None] * rho_e0[None, :, None, :]).reshape(dim, dim)
    u = np.exp(-1j * (total_energies(spec) if energies is None else energies) * t)
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
    """Transpose the system indices only, of a matrix or of each one of a stack."""
    d_s, d_e = dims
    rho = np.asarray(rho)
    if rho.shape[-2:] != (d_s * d_e, d_s * d_e):
        raise ValueError(f"matrix shape {rho.shape} does not match dims {dims}")
    r = rho.reshape(rho.shape[:-2] + (d_s, d_e, d_s, d_e))
    return np.swapaxes(r, -4, -2).reshape(rho.shape)


def _pure_vectors(rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(psi, residual) for a stack of matrices.

    |psi><psi| is the rank-one candidate built from each matrix's largest
    diagonal entry and its column; residual is the largest entry of
    |psi><psi| - rho, or inf where no diagonal entry is positive.
    """
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    j = np.argmax(diag, axis=-1)[:, None]
    top = np.take_along_axis(diag, j, axis=-1)[:, 0]
    ok = top > 0.0
    column = np.take_along_axis(rho, j[:, None], axis=-1)[:, :, 0]
    psi = column / np.sqrt(np.where(ok, top, 1.0))[:, None]
    resid = psi[:, :, None] * psi.conj()[:, None, :]
    resid -= rho
    return psi, np.where(ok, np.max(np.abs(resid), axis=(-2, -1)), np.inf)


def _on_grid(a: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each matrix's hi of at most ``bits`` bits on one grid (Ozaki's split)."""
    top = np.max(np.abs(a), axis=(-2, -1), keepdims=True)
    sigma = np.ldexp(1.0, np.frexp(top)[1] + 53 - bits)
    hi = (a + sigma) - sigma
    return hi, a - hi


def _rayleigh_eigenvalues(g: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (n, d) of Hermitian matrices (n, d, d): Rayleigh quotients
    x.Rx / x.x of `hermitian_eigensystem`'s eigenvectors in the real form x = [Re v; Im v],
    R = [[Re g, -Im g], [Im g, Re g]]. Split on grids so that the 2d products of a sum
    fit 53 bits, r_hi @ x_hi is exact in any order, and the rest is 2^-20 smaller: the
    quotients carry the rounding of g's entries, not the eigensolver's few eps ||g||."""
    v = hermitian_eigensystem(g)[1]
    r = np.block([[g.real, -g.imag], [g.imag, g.real]])
    x = np.concatenate([v.real, v.imag], axis=-2)
    bits = (55 - x.shape[-2].bit_length()) // 2
    (r_hi, r_lo), (x_hi, x_lo) = _on_grid(r, bits), _on_grid(x, bits)
    rx = r_hi @ x_hi + (r_hi @ x_lo + r_lo @ x)
    return np.sort(np.sum(x * rx, axis=-2) / np.sum(x * x, axis=-2), axis=-1)


def _schmidt_details(lam2: np.ndarray) -> np.ndarray:
    """(negativity, minimum PT eigenvalue, PT trace norm) of pure states, (..., 3).

    lam2 (..., k) are the ascending squared Schmidt coefficients, the
    eigenvalues of a Gram matrix of each state's coefficient matrix.
    """
    # eigenvalue noise ~eps turns into sqrt(eps) Schmidt noise, so floor
    # the squared coefficients before taking the root
    lam2 = np.where(lam2 < 1e-14 * np.maximum(lam2[..., -1:], 0.0), 0.0, lam2)
    lam = np.sqrt(np.clip(lam2, 0.0, None))
    tnorm = lam.sum(axis=-1) ** 2
    min_eig = -(lam[..., -1] * lam[..., -2]) if lam.shape[-1] > 1 else lam2[..., 0]
    return np.stack([(tnorm - 1.0) / 2.0, min_eig, tnorm], axis=-1)


def negativity_details(rho: np.ndarray, dims: Tuple[int, int]):
    """(negativity, minimum PT eigenvalue, PT trace norm) for a state.

    rho may be a stack of states (..., D, D); the three values are then
    arrays of the stack's shape, else floats. Pure states take an exact
    Schmidt shortcut: the partial transpose of |psi><psi| has eigenvalues
    {l_i^2} and {+- l_i l_j}, so its trace norm is (sum_i l_i)^2 and its
    minimum eigenvalue -max_{i<j} l_i l_j. Mixed states go through the dense
    eigensolver, all of a stack in one call.
    """
    d_s, d_e = dims
    rho = np.asarray(rho, dtype=complex)
    stack = _checked(rho.reshape((-1,) + rho.shape[-2:]), "negativity input")
    purity = np.sum(np.abs(stack) ** 2, axis=(-2, -1))
    trace = np.trace(stack, axis1=-2, axis2=-1).real
    out = np.empty((len(stack), 3))
    mixed = np.ones(len(stack), dtype=bool)
    pure = np.flatnonzero((np.abs(trace - 1.0) < 1e-10) & (np.abs(purity - 1.0) < _PURE_STATE_TOL))
    if pure.size:
        # confirm the rank-1 reconstruction before trusting it
        psi, residual = _pure_vectors(stack[pure])
        ok = residual <= _PURITY_TOL
        pure = pure[ok]
        m = psi[ok].reshape(-1, d_s, d_e)
        out[pure] = _schmidt_details(hermitian_eigenvalues(m @ m.conj().swapaxes(1, 2)))
        mixed[pure] = False
    if mixed.any():
        part = stack if mixed.all() else stack[mixed]  # no copy of a lone D x D state
        eigs = hermitian_eigenvalues(partial_transpose_system(part, dims))
        tnorm = np.sum(np.abs(eigs), axis=-1)
        out[mixed] = np.stack([(tnorm - 1.0) / 2.0, eigs[:, 0], tnorm], axis=-1)
    out = out.reshape(rho.shape[:-2] + (3,))
    if rho.ndim == 2:
        return tuple(float(x) for x in out)
    return out[..., 0], out[..., 1], out[..., 2]


def negativity(rho: np.ndarray, dims: Tuple[int, int]) -> float:
    """(||rho^T_S||_1 - 1)/2, clamped to zero.

    Nonzero negativity certifies entanglement across the cut; for a pair of
    two-level factors zero negativity also certifies separability.
    """
    value, _, _ = negativity_details(rho, dims)
    return max(value, 0.0)


class NegativitySeries(NamedTuple):
    """Negativity columns on a time grid and the path that produced them."""

    path: str  # "factor_spectra", "schmidt", "dense" or "reduced-state"
    negativity: np.ndarray  # unclamped (||rho^T_S||_1 - 1)/2
    min_eigenvalue: np.ndarray
    trace_norm: np.ndarray


def _blocks(rho) -> np.ndarray:
    """A factor as the stack (k, m, m) of the blocks whose Kronecker product
    it is: a matrix is one block, a sequence of site states one per site."""
    rho = np.asarray(rho, dtype=complex)
    return rho if rho.ndim == 3 else rho[None]


def _peak_and_diagonal(blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """max|rho| of each block and whether its off-diagonal entries are
    within _DIAGONAL_TOL of max(1, max|rho|)."""
    off = np.abs(blocks)
    peak = off.max(axis=(-2, -1))
    i = np.arange(off.shape[-1])
    off[:, i, i] = 0.0
    return peak, off.max(axis=(-2, -1)) <= _DIAGONAL_TOL * np.maximum(1.0, peak)


def _spectrum_and_trace_norm(rho: np.ndarray, kind: str) -> Tuple[np.ndarray, float]:
    """Eigenvalues of a block of this kind and its trace norm tr rho - 2 (sum of negatives).

    A diagonal block's eigenvalues are its diagonal and a rank-one
    block's are exactly {0, ..., 0, tr rho}; only a "general" one goes to
    the eigensolver. The trace comes from the diagonal, so a unit-trace PSD
    block's trace norm moves off 1 only by the rounding noise of a general
    block's eigenvalues that come out negative.
    """
    trace = float(np.trace(rho).real)
    if kind == "diagonal":
        eigs = np.diag(rho).real.copy()
    elif kind == "rank_one":
        eigs = np.zeros(len(rho))
        eigs[-1] = trace
    else:
        # global_negativity_series has checked every factor (linalg._checked)
        eigs = np.linalg.eigvalsh(rho)
    return eigs, trace - 2.0 * float(eigs[eigs < 0.0].sum())


def _path_and_data(factors):
    """(path, data) for these factors, each a stack of blocks (`_blocks`).

    A block is rank one when its reconstruction residual (`_pure_vectors`)
    is rounding, _RANK_ONE_ULPS eps max|rho|. data is the kind of every
    block of both factors, system first, on the factor-spectra path
    ("diagonal", "rank_one" or "general"); on the Schmidt path, which takes
    the looser _PURITY_TOL, the factors with every other block replaced by
    its reconstruction; else None.
    """
    scans = [_peak_and_diagonal(f) for f in factors]
    rounding = _RANK_ONE_ULPS * np.finfo(float).eps
    if any(diagonal.all() for _, diagonal in scans):
        kinds = []
        for f, (peak, diagonal) in zip(factors, scans):
            rank_one = np.zeros_like(diagonal)
            rank_one[~diagonal] = _pure_vectors(f[~diagonal])[1] <= rounding * peak[~diagonal]
            kinds += np.select([diagonal, rank_one], ["diagonal", "rank_one"], "general").tolist()
        return "factor_spectra", kinds
    vectors = [_pure_vectors(f) for f in factors]
    if all(np.all(residual <= _PURITY_TOL) for _, residual in vectors):
        return "schmidt", [f if np.all(residual <= rounding * peak) else
                           np.where((residual <= rounding * peak)[:, None, None], f, psi[:, :, None] * psi.conj()[:, None, :])
                           for f, (psi, residual), (peak, _) in zip(factors, vectors, scans)]
    return "dense", None


def _reduced_state_series(path: str, ev: WitnessEvaluator, blocks, times, details, scale=1.0) -> NegativitySeries:
    """``details`` of ev's reduced states of scale x kron(blocks), in stacks cut by `_time_blocks`."""
    ev._pair_layout()  # the pair cap, met before rho0 is built
    rho0 = functools.reduce(np.kron, blocks) * scale
    times = np.atleast_1d(np.asarray(times, dtype=float))
    columns = np.empty((times.size, 3))
    for block in _time_blocks(times.size, ev.dim**2):
        columns[block] = details(ev.reduced_state(rho0, times[block]))
    return NegativitySeries(path, *columns.T)


def global_negativity_series(
    spec: EnsembleSpec,
    rho_s0,
    rho_e0,
    times,
    threads: int = 1,
) -> NegativitySeries:
    """Negativity across the system|environment cut of the evolved rho_S x rho_E.

    The path is chosen once from the factors (see the module docstring)
    and named in the series' ``path``. Any Hermitian factors are accepted,
    as matrices or as one-site states. With ``threads`` > 1 the dense path,
    and only it, maps its times over a pool of at most os.cpu_count()
    threads, each building its own global matrix.
    """
    factors = [_blocks(rho) for rho in (rho_s0, rho_e0)]
    for f, n in zip(factors, (spec.n_system, spec.n_env)):
        if f.shape not in ((1,) + (spec.levels**n,) * 2, (n, spec.levels, spec.levels)):
            raise ValueError("initial factors have wrong dimensions")
        _checked(f, "initial factor")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    path, data = _path_and_data(factors)

    if path == "factor_spectra":
        # the spectrum of a Kronecker product holds the products of its
        # blocks' eigenvalues: fold the extremes and the trace norms
        extremes, tnorm = np.ones(2), 1.0
        for rho, kind in zip([*factors[0], *factors[1]], data):
            eigs, norm = _spectrum_and_trace_norm(rho, kind)
            products = np.outer(extremes, [eigs.min(), eigs.max()])
            extremes, tnorm = np.array([products.min(), products.max()]), tnorm * norm
        columns = ((tnorm - 1.0) / 2.0, extremes[0], tnorm)
        return NegativitySeries(path, *(np.full(times.shape, c) for c in columns))

    if path == "schmidt":
        small, large = data
        if spec.dim_system > spec.dim_env:
            # the smaller side's Gram matrix: the environment as system, blocks swapped
            spec = EnsembleSpec._of_blocks(spec.n_total, spec.n_env, spec.twice_spin, spec.env_couplings,
                                           spec.cross_couplings.T, spec.system_couplings,
                                           np.roll(spec.fields, -spec.n_system))
            small, large = large, small
        # the Gram matrix is tr(rho_large) times the reduced state
        weights = np.diagonal(large, axis1=1, axis2=2).real.clip(0.0)
        rows = [w / w.sum() for w in weights]
        env = (EnvPopulations.product(spec.twice_spin, rows) if len(rows) == spec.n_env
               else EnvPopulations(spec.n_env, spec.twice_spin, rows[0]))
        ev = WitnessEvaluator(spec, env)  # its reduced states hold a smaller side to the pair cap
        return _reduced_state_series(path, ev, small, times,
                                     lambda states: _schmidt_details(_rayleigh_eigenvalues(states)),
                                     weights.sum(axis=1).prod())

    dim = spec.dim_system * spec.dim_env
    if dim > GLOBAL_DIM_CAP:
        raise ResourceCapError(f"global dimension {_count(dim)} exceeds the dense path's cap "
                               f"{GLOBAL_DIM_CAP}; a diagonal factor or two pure factors avoid the dense path")
    rho_s0, rho_e0 = (functools.reduce(np.kron, f) for f in factors)
    dims = (spec.dim_system, spec.dim_env)

    def at(t):
        return negativity_details(evolve_global(spec, rho_s0, rho_e0, t), dims)

    if threads == 1:
        details = list(map(at, times))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            details = list(pool.map(at, times))
    return NegativitySeries(path, *np.vstack(details).reshape(-1, 3).T)


def system_negativity_series(
    spec: EnsembleSpec,
    rho_s0,
    env: EnvPopulations,
    times,
    cut_sites: int = 1,
) -> NegativitySeries:
    """Negativity inside the subsystem across a site cut, on a time grid.

    The reduced state (of a matrix or of one-site states) is evolved
    exactly, then split after ``cut_sites`` leading sites. For two spin-1/2
    sites (the 1|1 cut of a two-site system) zero negativity is equivalent
    to separability. The states go to `negativity_details` in stacks cut by
    the engine's `_time_blocks`.
    """
    if not 1 <= cut_sites < spec.n_system:
        raise ValueError("cut must leave sites on both sides")
    ev = WitnessEvaluator(spec, env)
    dims = (spec.levels**cut_sites, spec.levels ** (spec.n_system - cut_sites))
    return _reduced_state_series("reduced-state", ev, _blocks(rho_s0), times,
                                 lambda states: np.stack(negativity_details(states, dims), axis=-1))


__all__ = [
    "GLOBAL_DIM_CAP",
    "NegativitySeries",
    "evolve_global",
    "global_negativity_series",
    "partial_trace_env",
    "partial_transpose_system",
    "negativity",
    "negativity_details",
    "system_negativity_series",
]
