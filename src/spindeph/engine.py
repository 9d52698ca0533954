"""Exact reduced dynamics of the subsystem and the volume witness.

A subsystem coherence between basis configurations s and s' evolves as

    rho_{s,s'}(t) = exp(i t [E_S(s') - E_S(s)]) * A_{s,s'}(t) * rho_{s,s'}(0)

where the dephasing factor A_{s,s'}(t) = sum_sigma a_sigma exp(i omega t) is
a finite weighted sum of environment phases (twice-values s, sigma), with
frequencies omega(sigma) = sigma . nu and nu = 1/2 (s - s') J_cross. A pair
enters only through nu, and populations are real, so A(-nu) = conj A(nu):
pairs fall into nu classes, the sign folded so that the first nonzero entry
of nu is positive.

The environment populations are a product over independent blocks of sites
(one block per site for the maximally mixed and basis states, one block of
all sites for a Gibbs state at beta > 0). The phase sum then factorizes:
A = prod_blocks A_block, each A_block a sum over the configurations of that
block alone, with nu restricted to it. Only sites with a nonzero J_cross
column enter, so a block is marginalized onto its coupled sites and a block
without one drops out. Each (class, block) pair is one row holding a merged
spectrum; the rows of all classes are evaluated at once, and a class's A is
the product of its rows. For the mixed spin-1/2 environment a row is
cos(nu_j t), which gives the cosine products of the closed forms.

Populations never move: the dynamics is purely dephasing. The Bloch-vector
evolution matrix is block diagonal, one 2x2 rotation-dilation block per
coherence, so its determinant is the product of |A|^2 over unordered
configuration pairs, each class counted with its multiplicity. The
determinant is kept in log space throughout; the closed-form exponents grow
like 2^(2p) and would underflow any float.

Frequency sums are evaluated in extended precision (numpy longdouble). The
witness needs log|A| to stay accurate near zeros of A, where a double
precision sum loses all relative accuracy to cancellation. Episode
boundaries are bisected all together, one evaluation per round at every
open midpoint; each bracket keeps its own stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .model import DEFAULT_ENUM_CAP, EnsembleSpec, ResourceCapError, config_matrix, system_energies

DET_UNDERFLOW_LOG = -690.0  # exp() underflows double below roughly -745
# time x row x frequency entries per extended-precision block; rows of a
# product environment hold few frequencies, so the time x row temporaries
# are about as large as a block: 2^12 ran as fast as 2^13 with half the peak
SERIES_BLOCK = 2**12


class EnvBlock(NamedTuple):
    """Populations of a group of environment sites, independent of all others.

    ``weights[k]`` is the population of the k-th configuration of ``sites``
    in lexicographic order, the first listed site most significant.
    """

    sites: Tuple[int, ...]
    weights: np.ndarray


class EnvPopulations:
    """Diagonal of the initial environment state in the computational basis.

    The populations are a product over independent blocks of sites (see
    :class:`EnvBlock`). ``EnvPopulations(n_sites, twice_spin, weights=w)``
    is the one-block case, with w over all configurations in lexicographic
    order; :meth:`product` gives one block per site. Only these populations
    enter the reduced dynamics; environment coherences are irrelevant to the
    subsystem. All arrays are read-only.
    """

    def __init__(self, n_sites: int, twice_spin: int, weights=None, blocks=None):
        if (weights is None) == (blocks is None):
            raise ValueError("give either the flat weights or the blocks")
        if weights is not None:
            blocks = [(range(n_sites), weights)]
        self.n_sites = int(n_sites)
        self.twice_spin = int(twice_spin)
        checked = []
        for sites, w in blocks:
            sites = tuple(int(i) for i in sites)
            w = np.array(w, dtype=float)
            expected = (self.twice_spin + 1) ** len(sites)
            if w.shape != (expected,):
                raise ValueError(f"need {expected} weights, got {w.shape}")
            if np.any(w < 0.0):
                raise ValueError("populations must be nonnegative")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ValueError(f"populations must sum to 1, got {w.sum()!r}")
            w.flags.writeable = False
            checked.append(EnvBlock(sites, w))
        if sorted(i for block in checked for i in block.sites) != list(range(self.n_sites)):
            raise ValueError("blocks must partition the environment sites")
        self.blocks = tuple(checked)
        self._weights = checked[0].weights if weights is not None else None

    @classmethod
    def product(cls, twice_spin: int, marginals) -> "EnvPopulations":
        """Independent sites: site i has the populations ``marginals[i]``."""
        return cls(len(marginals), twice_spin, blocks=[((i,), m) for i, m in enumerate(marginals)])

    @property
    def weights(self) -> np.ndarray:
        """Populations of all (2S+1)^n_sites configurations, lexicographic.

        Built from the blocks on first read; raises ResourceCapError past
        DEFAULT_ENUM_CAP configurations.
        """
        if self._weights is None:
            total = (self.twice_spin + 1) ** self.n_sites
            if total > DEFAULT_ENUM_CAP:
                raise ResourceCapError(
                    f"flat populations need {total} configurations, cap is {DEFAULT_ENUM_CAP}"
                )
            flat, order = np.ones(1), []
            for block in self.blocks:
                flat = np.kron(flat, block.weights)
                order += block.sites
            shape = (self.twice_spin + 1,) * self.n_sites
            flat = flat.reshape(shape).transpose(np.argsort(order)).ravel()
            flat.flags.writeable = False
            self._weights = flat
        return self._weights


def populations_from_density(rho_env: np.ndarray, n_sites: int, twice_spin: int) -> EnvPopulations:
    """Extract the populations of an environment density matrix.

    The reduced dynamics depends on the environment state only through this
    diagonal, so two environment states differing by off-diagonal elements
    produce bitwise-identical witnesses.
    """
    diag = np.diag(np.asarray(rho_env)).real.copy()
    return EnvPopulations(n_sites=n_sites, twice_spin=twice_spin, weights=diag)


def check_pair_cap(dim: int, cap: int = DEFAULT_ENUM_CAP) -> None:
    """Raise ResourceCapError when dim configurations make more than cap pairs."""
    pairs = dim * (dim - 1) // 2
    if pairs > cap:
        raise ResourceCapError(
            f"{dim} system configurations make {pairs} configuration pairs, cap is {cap}"
        )


def _merge_frequencies(omegas: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum weights of (near-)coincident frequencies, row by row.

    Row r has frequencies omegas[r] with weights weights[r]. Frequencies
    are exact float combinations of coupling entries, so equal values
    usually compare equal; the relative tolerance only mops up last ulp
    differences. Returns ascending (rows, F) arrays padded with weight 0.
    """
    rows, k = omegas.shape
    order = np.argsort(omegas, axis=1, kind="stable")
    om = np.take_along_axis(omegas, order, axis=1)
    w = np.take_along_axis(weights, order, axis=1)
    tol = 1e-12 * np.maximum(1.0, np.max(np.abs(om), axis=1, initial=0.0))
    first = np.ones(om.shape, dtype=bool)
    first[:, 1:] = np.diff(om, axis=1) > tol[:, None]
    starts = np.flatnonzero(first)
    row = starts // k
    counts = np.bincount(row, minlength=rows)
    col = np.arange(starts.size) - np.repeat(np.cumsum(counts) - counts, counts)
    out_om = np.zeros((rows, int(counts.max(initial=0))))
    out_w = np.zeros_like(out_om)
    out_om[row, col] = om.ravel()[starts]
    out_w[row, col] = np.add.reduceat(w.ravel(), starts)
    return out_om, out_w


def _row_dot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_f x[..., c, f] w[c, f], each one dot product whatever the batch."""
    return np.matmul(x[..., None, :], w[:, :, None])[..., 0, 0]


class WitnessEvaluator:
    """Merged spectra, one per (nu class, environment block), for the witness.

    Pairs a < b are in lexicographic order, the Bloch coordinate layout.
    Exposes log det M, its time derivative, and full reduced states.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, spec: EnsembleSpec, env: EnvPopulations, cap: int = DEFAULT_ENUM_CAP):
        if env.n_sites != spec.n_env or env.twice_spin != spec.twice_spin:
            raise ValueError("environment populations do not match the ensemble")
        self.spec = spec
        self.env = env
        sys_cfg = config_matrix(spec.n_system, spec.twice_spin, cap=cap).astype(float)
        self.dim = len(sys_cfg)
        check_pair_cap(self.dim, cap)
        self._a, self._b = np.triu_indices(self.dim, k=1)
        energies = system_energies(spec, cap=cap)
        self.thetas = energies[self._b] - energies[self._a]

        # nu of every pair, sign folded so that its first nonzero entry is
        # positive (+ 0.0 turns -0.0 into 0.0 before rows are compared)
        nu = 0.5 * ((sys_cfg[self._a] - sys_cfg[self._b]) @ spec.cross_couplings)
        lead = nu[np.arange(len(nu)), np.argmax(nu != 0.0, axis=1)]
        self._flip = lead < 0.0
        nu[self._flip] *= -1.0
        classes, inverse, counts = np.unique(nu + 0.0, axis=0, return_inverse=True,
                                             return_counts=True)
        self._pair_class = inverse.ravel()
        self._n_classes = len(classes)

        # one row per (class, environment block with a coupled site): the
        # class's A is the product of its rows' factors. A row's spectrum is
        # sigma . nu over the populated configurations of the block's coupled
        # sites, weighted by their marginal populations; uncoupled sites
        # (zero J_cross column) leave every factor unchanged
        coupled = np.any(spec.cross_couplings != 0.0, axis=0)
        levels = spec.twice_spin + 1
        blocks = []  # (coupled sites, populated configurations, their weights)
        point_sites, point_cfg, point_w = [], [], 1.0
        for block in env.blocks:
            keep = [k for k, site in enumerate(block.sites) if coupled[site]]
            if not keep:
                continue
            w = block.weights
            if len(keep) < len(block.sites):
                drop = tuple(k for k in range(len(block.sites)) if k not in keep)
                w = w.reshape((levels,) * len(block.sites)).sum(axis=drop).ravel()
            populated = w > 0.0
            sites = [block.sites[k] for k in keep]
            u = config_matrix(len(keep), spec.twice_spin, cap=cap)[populated].astype(float)
            if len(u) > 1:
                blocks.append((sites, u, w[populated]))
            else:
                # a point mass is a pure phase: all of them make one row, so
                # that opposite phases cancel exactly, as in one configuration
                point_sites += sites
                point_cfg.append(u[0])
                point_w *= w[populated][0]
        if point_sites:
            blocks.append((point_sites, np.concatenate(point_cfg)[None, :], np.array([point_w])))
        self._rows_per_class = len(blocks)
        width = max((w.size for _, _, w in blocks), default=0)
        omegas = np.zeros((len(classes), self._rows_per_class, width))
        weights = np.zeros_like(omegas)
        for b, (sites, u, w) in enumerate(blocks):
            # matrix-vector products keep the rounding of one pair's
            # frequencies; near zeros of A, log|A| feels their last bit
            omegas[:, b, : w.size] = [u @ nu_class for nu_class in classes[:, sites]]
            weights[:, b, : w.size] = w
        shape = (len(classes) * self._rows_per_class, width)
        self._omegas, self._weights = _merge_frequencies(omegas.reshape(shape), weights.reshape(shape))
        self._omegas_ld = self._omegas.astype(np.longdouble)
        self._weights_ld = self._weights.astype(np.longdouble)
        self._wo_ld = self._weights_ld * self._omegas_ld
        # each row carries its class's multiplicity, twice (|A|^2 per pair)
        self._mult2 = np.repeat(2.0 * counts.astype(np.longdouble), self._rows_per_class)
        # 1 - each row's weight total, summed as `series` sums at t = 0,
        # so that A(0) = 1 exactly although float weights sum to 1 +- ulp
        self._c_shift = 1.0 - _row_dot(np.ones_like(self._weights_ld), self._weights_ld)

    @property
    def pair_index(self) -> List[Tuple[int, int]]:
        return list(zip(self._a.tolist(), self._b.tolist()))

    # -- double precision factors (matrix-element accuracy) ----------------

    def factors(self, t: float) -> np.ndarray:
        """A_{ab}(t) for every pair a < b, complex double.

        Evaluated per row as 1 + sum_k w_k (e^{i omega_k t} - 1): the same
        sum for weights of a distribution, but exact at t = 0 even when the
        float weights do not sum to 1. A class multiplies its rows; flipped
        pairs take the conjugate.
        """
        ph = self._omegas * t
        real = 1.0 + _row_dot(np.cos(ph) - 1.0, self._weights)
        rows = real + 1j * _row_dot(np.sin(ph), self._weights)
        out = rows.reshape(self._n_classes, self._rows_per_class).prod(axis=1)[self._pair_class]
        return np.where(self._flip, out.conj(), out)

    def reduced_state(self, rho0: np.ndarray, t: float) -> np.ndarray:
        """Evolve an initial subsystem density matrix to time t."""
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (self.dim, self.dim):
            raise ValueError(f"state must be {self.dim}x{self.dim}")
        a, b = self._a, self._b
        rho = rho0.copy()
        rho[a, b] = rho0[a, b] * (self.factors(t) * np.exp(1j * self.thetas * t))
        rho[b, a] = np.conj(rho[a, b])
        return rho

    # -- extended precision witness ----------------------------------------

    def series(self, times) -> Tuple[np.ndarray, np.ndarray]:
        """(log det M, d/dt log det M) on a 1-D time grid, double precision output.

        Each row adds 2 x its class's multiplicity x (log|A|,
        Re(conj(A) A')/|A|^2) of its factor, so a class adds those of the
        product of its rows. Re A is shifted by 1 minus the row's weight
        total, which makes both values exactly 0 at t = 0 and changes
        nothing when the weights sum to 1 exactly.
        Times go in blocks of SERIES_BLOCK entries; a time's values do not
        depend on the other times. At exact zeros of any factor log det is
        -inf and the derivative NaN.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        logdet = np.empty(times.shape, dtype=np.longdouble)
        dlogdet = np.empty_like(logdet)
        step = max(1, SERIES_BLOCK // max(1, self._omegas_ld.size))
        for i in range(0, times.size, step):
            ph = times[i : i + step, None, None].astype(np.longdouble) * self._omegas_ld
            cos, sin = np.cos(ph), np.sin(ph)
            c = _row_dot(cos, self._weights_ld) + self._c_shift
            s = _row_dot(sin, self._weights_ld)
            cd = -_row_dot(sin, self._wo_ld)
            sd = _row_dot(cos, self._wo_ld)
            mod2 = c * c + s * s
            with np.errstate(divide="ignore", invalid="ignore"):
                logdet[i : i + step] = (0.5 * np.log(mod2)) @ self._mult2
                dlogdet[i : i + step] = ((c * cd + s * sd) / mod2) @ self._mult2
        return logdet.astype(float), dlogdet.astype(float)

    def log_det(self, t: float) -> float:
        return float(self.series([t])[0][0])

    def dlog_det(self, t):
        """d/dt log det M: a float at one time, an array on an array of times."""
        d = self.series(t)[1]
        return float(d[0]) if np.ndim(t) == 0 else d


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
    base = dim * (dim - 1)
    upper = rho[np.triu_indices(dim, k=1)]
    out[0:base:2] = upper.real
    out[1:base:2] = upper.imag
    diag = np.diag(rho).real
    l = np.arange(1, dim)
    partial = np.cumsum(diag)[:-1]  # sum of the first l diagonal entries
    out[base : dim * dim - 1] = np.sqrt(2.0 / (l * (l + 1))) * (partial - l * diag[1:])
    out[dim * dim - 1] = diag.sum()
    return out


def bloch_to_density(coords: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bloch_vector` (defined for any real coordinates)."""
    coords = np.asarray(coords, dtype=float)
    dim = int(round(np.sqrt(coords.size)))
    if dim * dim != coords.size:
        raise ValueError("coordinate vector length must be a perfect square")
    rho = np.zeros((dim, dim), dtype=complex)
    base = dim * (dim - 1)
    a, b = np.triu_indices(dim, k=1)
    rho[a, b] = coords[0:base:2] + 1j * coords[1:base:2]
    rho[b, a] = np.conj(rho[a, b])
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
    z = ev.factors(t) * np.exp(1j * ev.thetas * t)
    re = 2 * np.arange(z.size)
    im = re + 1
    mat[re, re] = mat[im, im] = z.real
    mat[re, im] = -z.imag
    mat[im, re] = z.imag
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


def _bisect_sign_changes(fun, lo, hi, f_lo, rel_tol: float = 1e-9) -> np.ndarray:
    """Locate a sign change of fun in each bracket (lo, hi) of the arrays.

    Each round calls fun once, on the midpoints of all brackets still open.
    """
    lo, hi = lo.copy(), hi.copy()
    want_neg = f_lo > 0.0
    open_ = np.flatnonzero(hi - lo > rel_tol * np.maximum(1.0, np.abs(hi)))
    while open_.size:
        mid = 0.5 * (lo[open_] + hi[open_])
        f_mid = fun(mid)
        # a non-finite midpoint is a singular point: the derivative flips
        # sign across it, so narrow from whichever side keeps the bracket
        to_hi = ~np.isfinite(f_mid) | ((f_mid < 0.0) == want_neg[open_])
        hi[open_[to_hi]] = mid[to_hi]
        lo[open_[~to_hi]] = mid[~to_hi]
        open_ = open_[hi[open_] - lo[open_] > rel_tol * np.maximum(1.0, np.abs(hi[open_]))]
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
    log-derivative to 1e-9 relative tolerance, all brackets together. Grid
    points where det is an exact zero are excluded from episodes.
    """
    if not t_stop > t_start:
        raise ValueError("need t_stop > t_start")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    ev = WitnessEvaluator(spec, env, cap=cap)
    times = np.linspace(t_start, t_stop, points)
    log_det, dlogdet = ev.series(times)
    positive = np.isfinite(log_det) & np.isfinite(dlogdet) & (dlogdet > 0.0)

    # grid intervals where positivity changes alternate between episode
    # starts and ends; an episode open at either end of the grid keeps it
    k = np.flatnonzero(positive[1:] != positive[:-1]) + 1
    edges = _bisect_sign_changes(ev.dlog_det, times[k - 1], times[k], dlogdet[k - 1]).tolist()
    if positive[0]:
        edges.insert(0, float(times[0]))
    if positive[-1]:
        edges.append(float(times[-1]))
    episodes = list(zip(edges[::2], edges[1::2]))

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
