"""Exact reduced dynamics of the subsystem and the volume witness.

A subsystem coherence between basis configurations s and s' evolves as

    rho_{s,s'}(t) = exp(i t [E_S(s') - E_S(s)]) * A_{s,s'}(t) * rho_{s,s'}(0)

where the dephasing factor A_{s,s'}(t) = sum_sigma a_sigma exp(i omega t) is
a finite weighted sum of environment phases, with frequencies

    omega(sigma) = 2 sum_{j>p} sigma_j sum_{i<=p} J_ij (s_i - s'_i).

Populations never move: the dynamics is purely dephasing. The Bloch-vector
evolution matrix is block diagonal, one 2x2 rotation-dilation block per
coherence, so its determinant is the product of |A|^2 over unordered
configuration pairs. The determinant is kept in log space throughout; the
closed-form exponents grow like 2^(2p) and would underflow any float.

Frequency sums are evaluated in extended precision (numpy longdouble). The
witness needs log|A| to stay accurate near zeros of A, where a double
precision sum loses all relative accuracy to cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .model import (
    DEFAULT_ENUM_CAP,
    EnsembleSpec,
    ResourceCapError,
    config_matrix,
    system_energies,
)

DET_UNDERFLOW_LOG = -690.0  # exp() underflows double below roughly -745


@dataclass(frozen=True)
class EnvPopulations:
    """Diagonal of the initial environment state in the computational basis.

    ``weights[k]`` is the population of the k-th environment configuration
    in lexicographic order. Only these populations enter the reduced
    dynamics; environment coherences are irrelevant to the subsystem.
    """

    n_sites: int
    twice_spin: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        expected = (self.twice_spin + 1) ** self.n_sites
        if w.shape != (expected,):
            raise ValueError(f"need {expected} weights, got {w.shape}")
        if np.any(w < 0.0):
            raise ValueError("populations must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"populations must sum to 1, got {w.sum()!r}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def populations_from_density(rho_env: np.ndarray, n_sites: int, twice_spin: int) -> EnvPopulations:
    """Extract the populations of an environment density matrix.

    The reduced dynamics depends on the environment state only through this
    diagonal, so two environment states differing by off-diagonal elements
    produce bitwise-identical witnesses.
    """
    diag = np.diag(np.asarray(rho_env)).real.copy()
    return EnvPopulations(n_sites=n_sites, twice_spin=twice_spin, weights=diag)


def _merge_frequencies(omegas: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum weights of (near-)coincident frequencies.

    Frequencies are exact float combinations of coupling entries, so equal
    values usually compare equal; the relative tolerance only mops up last
    ulp differences from different summation orders.
    """
    order = np.argsort(omegas, kind="stable")
    om = omegas[order]
    w = weights[order]
    if om.size == 0:
        return om, w
    tol = 1e-12 * max(1.0, float(np.max(np.abs(om))))
    boundaries = np.nonzero(np.diff(om) > tol)[0] + 1
    groups = np.concatenate(([0], boundaries, [om.size]))
    out_om = np.empty(groups.size - 1)
    out_w = np.empty(groups.size - 1)
    for k in range(groups.size - 1):
        a, b = groups[k], groups[k + 1]
        out_w[k] = w[a:b].sum()
        out_om[k] = om[a]
    return out_om, out_w


def _pair_list(dim: int) -> List[Tuple[int, int]]:
    """Unordered configuration pairs a < b in row-major order."""
    return [(a, b) for a in range(dim) for b in range(a + 1, dim)]


class WitnessEvaluator:
    """Precomputed pair spectra for witness evaluation over many times.

    Builds one merged spectrum per unordered configuration pair (i < j in
    lexicographic order, matching the Bloch coordinate layout) and exposes
    log det M, its time derivative, and full reduced states. Instances are
    immutable after construction and safe to share between workers.
    """

    def __init__(self, spec: EnsembleSpec, env: EnvPopulations, cap: int = DEFAULT_ENUM_CAP):
        if env.n_sites != spec.n_env or env.twice_spin != spec.twice_spin:
            raise ValueError("environment populations do not match the ensemble")
        self.spec = spec
        self.env = env
        self.dim = spec.dim_system
        # populated environment configurations (twice-values) and their weights
        populated = env.weights > 0.0
        u = config_matrix(spec.n_env, spec.twice_spin, cap=cap)[populated].astype(float)
        w = env.weights[populated]
        j_cross = spec.cross_couplings
        sys_cfg = config_matrix(spec.n_system, spec.twice_spin, cap=cap).astype(float)
        self.system_energies = system_energies(spec, cap=cap)
        self._pair_index = _pair_list(self.dim)
        self._weights: List[np.ndarray] = []
        self._omegas: List[np.ndarray] = []
        self.thetas: List[float] = []
        for a, b in self._pair_index:
            dt = sys_cfg[a] - sys_cfg[b]
            om, wm = _merge_frequencies(0.5 * (u @ (dt @ j_cross)), w)
            self._weights.append(wm)
            self._omegas.append(om)
            self.thetas.append(float(self.system_energies[b] - self.system_energies[a]))
        self._weights_ld = [w_.astype(np.longdouble) for w_ in self._weights]
        self._omegas_ld = [o.astype(np.longdouble) for o in self._omegas]

    @property
    def pair_index(self) -> List[Tuple[int, int]]:
        return list(self._pair_index)

    # -- double precision factors (matrix-element accuracy) ----------------

    def factors(self, t: float) -> np.ndarray:
        """A_{ab}(t) for every pair a < b, complex double.

        Evaluated as 1 + sum_k w_k (e^{i omega_k t} - 1): the weights are a
        distribution, so this is algebraically the same sum but exact at
        t = 0 even when the float weights do not sum to exactly 1.
        """
        out = np.empty(len(self._pair_index), dtype=complex)
        for k, (w, om) in enumerate(zip(self._weights, self._omegas)):
            ph = om * t
            out[k] = 1.0 + (np.cos(ph) - 1.0) @ w + 1j * (np.sin(ph) @ w)
        return out

    def reduced_state(self, rho0: np.ndarray, t: float) -> np.ndarray:
        """Evolve an initial subsystem density matrix to time t."""
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (self.dim, self.dim):
            raise ValueError(f"state must be {self.dim}x{self.dim}")
        rho = rho0.copy()
        fac = self.factors(t)
        for k, (a, b) in enumerate(self._pair_index):
            z = fac[k] * np.exp(1j * self.thetas[k] * t)
            rho[a, b] = rho0[a, b] * z
            rho[b, a] = np.conj(rho[a, b])
        return rho

    # -- extended precision witness ----------------------------------------

    def _pair_logabs_and_ratio(self, t, k: int):
        """log|A_k| and Re(conj(A_k) A_k')/|A_k|^2 on a time array."""
        tl = np.asarray(t, dtype=np.longdouble)
        w = self._weights_ld[k]
        om = self._omegas_ld[k]
        ph = np.multiply.outer(tl, om)
        cos = np.cos(ph)
        sin = np.sin(ph)
        c = cos @ w
        s = sin @ w
        wo = w * om
        cd = -(sin @ wo)
        sd = cos @ wo
        mod2 = c * c + s * s
        with np.errstate(divide="ignore", invalid="ignore"):
            logabs = 0.5 * np.log(mod2)
            ratio = (c * cd + s * sd) / mod2
        return logabs, ratio

    def series(self, times) -> Tuple[np.ndarray, np.ndarray]:
        """(log det M, d/dt log det M) on a time grid, double precision output.

        At exact zeros of any factor log det is -inf and the derivative NaN.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        logdet = np.zeros(times.shape, dtype=np.longdouble)
        dlogdet = np.zeros(times.shape, dtype=np.longdouble)
        for k in range(len(self._pair_index)):
            la, ra = self._pair_logabs_and_ratio(times, k)
            logdet += 2.0 * la
            dlogdet += 2.0 * ra
        return logdet.astype(float), dlogdet.astype(float)

    def log_det(self, t: float) -> float:
        return float(self.series([t])[0][0])

    def dlog_det(self, t: float) -> float:
        return float(self.series([t])[1][0])


# ---------------------------------------------------------------------------
# Bloch parametrization

def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Flatten a density matrix into the real coordinate vector.

    Layout: (Re rho_ij, Im rho_ij) for each pair i < j in row-major order,
    then D-1 weighted diagonal differences, then the trace. The last entry
    is 1 for a density matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    out = np.empty(dim * dim)
    k = 0
    for a, b in _pair_list(dim):
        out[2 * k] = rho[a, b].real
        out[2 * k + 1] = rho[a, b].imag
        k += 1
    base = dim * (dim - 1)
    diag = np.diag(rho).real
    partial = 0.0
    for l in range(1, dim):
        partial += diag[l - 1]
        out[base + l - 1] = np.sqrt(2.0 / (l * (l + 1))) * (partial - l * diag[l])
    out[dim * dim - 1] = diag.sum()
    return out


def bloch_to_density(coords: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bloch_vector` (defined for any real coordinates)."""
    coords = np.asarray(coords, dtype=float)
    dim = int(round(np.sqrt(coords.size)))
    if dim * dim != coords.size:
        raise ValueError("coordinate vector length must be a perfect square")
    rho = np.zeros((dim, dim), dtype=complex)
    k = 0
    for a, b in _pair_list(dim):
        rho[a, b] = coords[2 * k] + 1j * coords[2 * k + 1]
        rho[b, a] = np.conj(rho[a, b])
        k += 1
    base = dim * (dim - 1)
    trace = coords[dim * dim - 1]
    diag = np.empty(dim)
    partial = trace  # sum of the first l+1 diagonal entries, walked downward
    for l in range(dim - 1, 0, -1):
        c = coords[base + l - 1] / np.sqrt(2.0 / (l * (l + 1)))
        diag[l] = (partial - c) / (l + 1)
        partial -= diag[l]
    diag[0] = partial
    rho[np.diag_indices(dim)] = diag
    return rho


def bloch_evolution_matrix(
    spec: EnsembleSpec,
    env: EnvPopulations,
    t: float,
    cap: int = DEFAULT_ENUM_CAP,
) -> np.ndarray:
    """The D^2 x D^2 real matrix mapping Bloch coordinates from 0 to t.

    Block diagonal: each coherence pair picks up the 2x2 block of
    multiplication by A_{s,s'}(t) exp(i theta t); the diagonal sector is the
    identity because populations are conserved.
    """
    ev = WitnessEvaluator(spec, env, cap=cap)
    dim = ev.dim
    if dim * dim > cap:
        raise ResourceCapError(f"Bloch matrix needs dimension {dim * dim}, cap is {cap}")
    mat = np.eye(dim * dim)
    fac = ev.factors(t)
    for k in range(len(ev.pair_index)):
        z = fac[k] * np.exp(1j * ev.thetas[k] * t)
        mat[2 * k, 2 * k] = z.real
        mat[2 * k, 2 * k + 1] = -z.imag
        mat[2 * k + 1, 2 * k] = z.imag
        mat[2 * k + 1, 2 * k + 1] = z.real
    return mat


# ---------------------------------------------------------------------------
# witness series and episode detection

@dataclass(frozen=True)
class WitnessSeries:
    """Witness on a time grid plus detected non-Markovian episodes.

    ``det`` is exp(log_det) where that does not underflow, else 0 with the
    log retained. Episodes are open intervals with positive log-derivative;
    isolated zeros of det split episodes and never belong to one.
    """

    times: np.ndarray
    log_det: np.ndarray
    det: np.ndarray
    dlogdet_dt: np.ndarray
    episodes: List[Tuple[float, float]]
    in_episode: np.ndarray


def _det_from_log(log_det: np.ndarray) -> np.ndarray:
    det = np.zeros_like(log_det)
    ok = log_det > DET_UNDERFLOW_LOG
    det[ok] = np.exp(log_det[ok])
    return det


def _bisect_sign_change(fun, lo: float, hi: float, f_lo: float, rel_tol: float = 1e-9) -> float:
    """Locate a sign change of fun in (lo, hi) by bisection."""
    want_neg = f_lo > 0.0
    while hi - lo > rel_tol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        f_mid = fun(mid)
        if not np.isfinite(f_mid):
            # singular point: the derivative flips sign across it, so narrow
            # from whichever side keeps the bracket
            hi = mid
            continue
        if (f_mid < 0.0) == want_neg:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def detect_episodes(
    spec: EnsembleSpec,
    env: EnvPopulations,
    t_start: float,
    t_stop: float,
    points: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> WitnessSeries:
    """Witness series with non-Markovian episodes on [t_start, t_stop].

    Episode boundaries are refined by bisection on the sign of the
    log-derivative to 1e-9 relative tolerance. Grid points where det is an
    exact zero are excluded from episodes.
    """
    if not t_stop > t_start:
        raise ValueError("need t_stop > t_start")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    ev = WitnessEvaluator(spec, env, cap=cap)
    times = np.linspace(t_start, t_stop, points)
    log_det, dlogdet = ev.series(times)
    positive = np.isfinite(log_det) & np.isfinite(dlogdet) & (dlogdet > 0.0)

    episodes: List[Tuple[float, float]] = []
    open_start: Optional[float] = None
    for k in range(points):
        if positive[k] and open_start is None:
            if k == 0:
                open_start = times[0]
            else:
                open_start = _bisect_sign_change(
                    ev.dlog_det, times[k - 1], times[k], dlogdet[k - 1]
                )
        elif not positive[k] and open_start is not None:
            end = _bisect_sign_change(ev.dlog_det, times[k - 1], times[k], dlogdet[k - 1])
            episodes.append((open_start, end))
            open_start = None
    if open_start is not None:
        episodes.append((open_start, times[-1]))

    in_episode = np.zeros(points, dtype=bool)
    for a, b in episodes:
        in_episode |= (times > a) & (times < b) & np.isfinite(log_det)

    return WitnessSeries(
        times=times,
        log_det=log_det,
        det=_det_from_log(log_det),
        dlogdet_dt=dlogdet,
        episodes=episodes,
        in_episode=in_episode,
    )
