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

The witness needs log|A| to stay accurate near zeros of A, where a double
precision frequency sum loses all relative accuracy to cancellation. The
merged rows are therefore sorted by kind. A row of one frequency (the point
masses of basis and beta = infinity environments) is a pure phase, |A| = 1,
and drops out of the witness. A row of two opposite frequencies +-w (a
coupled site of a spin-1/2 product environment with both levels populated,
or a Gibbs block with one coupled site) is evaluated in closed form in
double, its phase t w carried exactly as a Dekker product and its rows
summed by an error-free extraction. Every other row (Gibbs blocks of two or
more coupled sites at beta > 0, spin > 1/2) is summed in extended precision
(numpy longdouble).

Episodes are certified where every coupled site has uniform populations
(the maximally mixed environment, and Gibbs at beta = 0): A is then a
product of Dirichlet kernels, its zeros are known in closed form, and each
opens one episode whose end is the one root of the derivative before the
next zero (see :mod:`spindeph.dirichlet`). Elsewhere episode boundaries are
the sign changes of the derivative between grid points. Both routes refine
their brackets with the one ITP root finder of :mod:`spindeph.dirichlet`,
all brackets together, one evaluation per round at every open bracket; each
bracket keeps its own stopping rule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from . import dirichlet
from .model import (
    DEFAULT_ENUM_CAP,
    PRODUCT_ENV_HINT,
    EnsembleSpec,
    ResourceCapError,
    config_matrix,
    system_energies,
)

DET_UNDERFLOW_LOG = -690.0  # exp() underflows double below roughly -745
# time x row x frequency entries per block of `factors` and `series` (a
# two-level row counts one entry); rows of a product environment hold few
# frequencies, so the time x row temporaries are about as large as a block:
# 2^12 ran as fast as 2^13 with half the peak
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
                    f"flat populations need {total} configurations, cap is {DEFAULT_ENUM_CAP}; "
                    f"{PRODUCT_ENV_HINT}"
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


def check_pair_cap(dim: int) -> None:
    """Raise ResourceCapError when dim configurations make more than DEFAULT_ENUM_CAP pairs."""
    pairs = dim * (dim - 1) // 2
    if pairs > DEFAULT_ENUM_CAP:
        raise ResourceCapError(
            f"{dim} system configurations make {pairs} configuration pairs, "
            f"cap is {DEFAULT_ENUM_CAP}"
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


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo, exact, each part of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _accurate_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis of n terms with about one rounding.

    Rump, Ogita and Oishi's extraction (2008): with sigma a power of two
    above (n + 2) max|x|, q = (sigma + x) - sigma is exact and lies on the
    grid of sigma's ulp, so sum q is exact in any order and x - q is exact
    and tiny. The error is half an ulp of the sum plus a term of order
    n^2 eps^2 max|x|, whatever the order of the terms and the other axes.
    A non-finite term makes the sum non-finite as a plain sum would.
    """
    top = np.max(np.abs(x), axis=-1, keepdims=True, initial=0.0)
    sigma = np.ldexp(1.0, np.frexp(top)[1] + (x.shape[-1] + 2).bit_length())
    q = (sigma + x) - sigma
    high = q.sum(axis=-1)
    return high + np.where(np.isfinite(high), (x - q).sum(axis=-1), 0.0)


def _row_dot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_f x[..., c, f] w[c, f], each one dot product whatever the batch."""
    return np.matmul(x[..., None, :], w[:, :, None])[..., 0, 0]


class _TwoLevelRows(NamedTuple):
    """Rows of two frequencies +-omega, weights w+ and w-, as `series` reads them.

    A = S cos x + 1 - S + i m sin x with x = omega t, S = w+ + w- and
    m = w+ - w-.
    """

    omega: np.ndarray
    omega_hi: np.ndarray  # Veltkamp halves of omega
    omega_lo: np.ndarray
    total: np.ndarray  # S
    shift: np.ndarray  # 1 - S
    skew: np.ndarray  # S (1 - S)
    m2: np.ndarray  # m^2
    k: np.ndarray  # S^2 - m^2 = 4 w+ w-
    mult: np.ndarray  # the class's multiplicity

    def terms(self, t: np.ndarray, value: bool = True) -> np.ndarray:
        """mult x (log|A|^2, d/dt log|A|^2) at times t, shape (2, times, rows), in double.

        x = omega t is carried as the exact sum hi + lo of Dekker's product,
        and cos x = cos hi - sin hi lo, sin x = sin hi + cos hi lo to double
        precision, so the rounding of t omega does not reach log|A| near its
        zeros. With k = S^2 - m^2,

            |A|^2 - 1 = -k sin^2 x - 2 S (1 - S) (1 - cos x)
            d/dt log|A|^2 = -2 omega sin x (k cos x + S (1 - S)) / |A|^2

        free of cancellation; log|A|^2 is log1p of the first where
        |A|^2 > 1/2 and log(c^2 + s^2), c = S cos x + 1 - S, elsewhere.
        With value=False only the derivative, shape (times, rows).
        """
        t = t[:, None]
        hi = t * self.omega
        t_hi, t_lo = _split(t)
        lo = ((t_hi * self.omega_hi - hi) + t_hi * self.omega_lo + t_lo * self.omega_hi
              + t_lo * self.omega_lo)
        cos_hi, sin_hi = np.cos(hi), np.sin(hi)
        cos = cos_hi - sin_hi * lo
        sin = sin_hi + cos_hi * lo
        sin2 = sin * sin
        c = self.total * cos + self.shift
        mod2 = c * c + self.m2 * sin2
        derivative = -2.0 * self.omega * sin * (self.k * cos + self.skew) / mod2
        if not value:
            return derivative * self.mult
        out = np.empty((2,) + hi.shape)
        out[0] = np.where(mod2 > 0.5, np.log1p(-(self.k * sin2) - 2.0 * self.skew * (1.0 - cos)),
                          np.log(mod2))
        out[1] = derivative
        out *= self.mult
        return out


class WitnessEvaluator:
    """Merged spectra, one per (nu class, environment block), for the witness.

    Pairs a < b are in lexicographic order, the Bloch coordinate layout.
    Exposes log det M, its time derivative, and full reduced states.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, spec: EnsembleSpec, env: EnvPopulations):
        if env.n_sites != spec.n_env or env.twice_spin != spec.twice_spin:
            raise ValueError("environment populations do not match the ensemble")
        self.spec = spec
        self.env = env
        check_pair_cap(spec.dim_system)
        sys_cfg = config_matrix(spec.n_system, spec.twice_spin).astype(float)
        self.dim = len(sys_cfg)
        self._a, self._b = _bloch_layout(self.dim)[:2]
        energies = system_energies(spec)
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
        uniform = True  # every block's marginal on its coupled sites
        for block in env.blocks:
            keep = [k for k, site in enumerate(block.sites) if coupled[site]]
            if not keep:
                continue
            w = block.weights
            if len(keep) < len(block.sites):
                drop = tuple(k for k in range(len(block.sites)) if k not in keep)
                w = w.reshape((levels,) * len(block.sites)).sum(axis=drop).ravel()
            uniform = uniform and bool(np.all(w == w[0]))
            populated = w > 0.0
            sites = [block.sites[k] for k in keep]
            u = config_matrix(len(keep), spec.twice_spin)[populated].astype(float)
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

        # uniform marginals make each class's A a product of Dirichlet kernels
        # D_n(|nu_j| t), one per coupled site: the distinct nonzero |nu_j|
        # with their summed multiplicities certify the episodes
        self._dirichlet = None
        if uniform:
            nu_abs = np.abs(classes[:, coupled])
            rates, mults = _merge_frequencies(
                nu_abs.reshape(1, -1), np.repeat(counts.astype(float), nu_abs.shape[1])[None, :])
            self._dirichlet = (rates[rates > 0.0], mults[rates > 0.0])

        # `series` sorts the merged rows by kind: a row of one frequency is
        # a pure phase and drops out; a row of two opposite frequencies +-w
        # is evaluated in closed form in double; every other row is summed
        # in extended precision. Each row carries its class's multiplicity.
        mult = np.repeat(counts.astype(float), self._rows_per_class)
        entries = np.count_nonzero(self._weights, axis=1)
        om, wt = (np.pad(x[:, :2], ((0, 0), (0, 2 - x[:, :2].shape[1])))  # first two columns
                  for x in (self._omegas, self._weights))
        two_level = (entries == 2) & (om[:, 0] == -om[:, 1])
        general = (entries > 1) & ~two_level
        w_minus, w_plus = wt[two_level].T
        total = w_plus + w_minus
        # 1 - S from the exact sum (Knuth's TwoSum): where S is 1 - ulp,
        # 1 - S decides log|A| next to |A| = 1
        z = total - w_plus
        shift = (1.0 - total) - ((w_plus - (total - z)) + (w_minus - z))
        omega = om[two_level, 1]
        self._two_level = _TwoLevelRows(
            omega, *_split(omega), total, shift, total * shift,
            (w_plus - w_minus) ** 2, 4.0 * w_plus * w_minus, mult[two_level])

        self._omegas_ld = self._omegas[general].astype(np.longdouble)
        self._weights_ld = self._weights[general].astype(np.longdouble)
        self._wo_ld = self._weights_ld * self._omegas_ld
        # twice the multiplicity (|A|^2 per pair)
        self._mult2 = 2.0 * mult[general].astype(np.longdouble)
        # 1 - each row's weight total, summed as `series` sums at t = 0,
        # so that A(0) = 1 exactly although float weights sum to 1 +- ulp
        self._c_shift = 1.0 - _row_dot(np.ones_like(self._weights_ld), self._weights_ld)

    @property
    def pair_index(self) -> List[Tuple[int, int]]:
        return list(zip(self._a.tolist(), self._b.tolist()))

    # -- double precision factors (matrix-element accuracy) ----------------

    def factors(self, t) -> np.ndarray:
        """A_{ab}(t) for every pair a < b, complex double, shape t.shape + (pairs,).

        Evaluated per row as 1 + sum_k w_k (e^{i omega_k t} - 1): the same
        sum for weights of a distribution, but exact at t = 0 even when the
        float weights do not sum to 1. A class multiplies its rows; flipped
        pairs take the conjugate. Times go in blocks of SERIES_BLOCK
        entries; a time's factors do not depend on the other times.
        """
        times = np.asarray(t, dtype=float)
        flat = times.reshape(-1)
        out = np.empty((flat.size, self._pair_class.size), dtype=complex)
        step = max(1, SERIES_BLOCK // max(1, self._omegas.size))
        for i in range(0, flat.size, step):
            ph = flat[i : i + step, None, None] * self._omegas
            real = 1.0 + _row_dot(np.cos(ph) - 1.0, self._weights)
            rows = real + 1j * _row_dot(np.sin(ph), self._weights)
            rows = rows.reshape(len(ph), self._n_classes, self._rows_per_class)
            out[i : i + step] = rows.prod(axis=-1)[:, self._pair_class]
        out = np.where(self._flip, out.conj(), out)
        return out.reshape(times.shape + out.shape[-1:])

    def reduced_state(self, rho0: np.ndarray, t) -> np.ndarray:
        """Evolve an initial subsystem density matrix to time t, or to each of an array of times."""
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (self.dim, self.dim):
            raise ValueError(f"state must be {self.dim}x{self.dim}")
        t = np.asarray(t, dtype=float)
        a, b = self._a, self._b
        rho = np.broadcast_to(rho0, t.shape + rho0.shape).copy()
        upper = rho0[a, b] * (self.factors(t) * np.exp(1j * self.thetas * t[..., None]))
        rho[..., a, b] = upper
        rho[..., b, a] = np.conj(upper)
        return rho

    # -- witness -------------------------------------------------------------

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
        return self._series(np.atleast_1d(np.asarray(times, dtype=float)), True)

    def _series(self, times: np.ndarray, value: bool) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`series`; with value=False log det is None and not computed."""
        logdet, dlogdet = self._two_level_series(times, value)
        if self._omegas_ld.size:
            general, dgeneral = self._general_series(times, value)
            if value:
                logdet = (general + logdet).astype(float)
            dlogdet = (dgeneral + dlogdet).astype(float)
        return logdet, dlogdet

    def _two_level_series(self, times: np.ndarray, value: bool):
        """The two-level rows (:meth:`_TwoLevelRows.terms`) in double, each
        time's rows summed by :func:`_accurate_sum`."""
        rows = self._two_level
        logdet = np.zeros(times.shape) if value else None
        dlogdet = np.zeros(times.shape)
        step = max(1, SERIES_BLOCK // max(1, rows.omega.size))
        for i in range(0, times.size, step):
            with np.errstate(divide="ignore", invalid="ignore"):
                sums = _accurate_sum(rows.terms(times[i : i + step], value))
            if value:
                logdet[i : i + step], dlogdet[i : i + step] = sums
            else:
                dlogdet[i : i + step] = sums
        return logdet, dlogdet

    def _general_series(self, times: np.ndarray, value: bool):
        """Every other row of two or more frequencies, summed in extended precision."""
        logdet = np.empty(times.shape, dtype=np.longdouble) if value else None
        dlogdet = np.empty(times.shape, dtype=np.longdouble)
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
                if value:
                    logdet[i : i + step] = (0.5 * np.log(mod2)) @ self._mult2
                dlogdet[i : i + step] = ((c * cd + s * sd) / mod2) @ self._mult2
        return logdet, dlogdet

    def log_det(self, t: float) -> float:
        return float(self.series([t])[0][0])

    def dlog_det(self, t):
        """d/dt log det M: a float at one time, an array on an array of times.

        Computes the derivative alone, equal bitwise to ``series(t)[1]``.
        """
        d = self._series(np.atleast_1d(np.asarray(t, dtype=float)), False)[1]
        return float(d[0]) if np.ndim(t) == 0 else d


# ---------------------------------------------------------------------------
# Bloch parametrization

@functools.lru_cache(maxsize=None)
def _bloch_layout(dim: int) -> Tuple[np.ndarray, ...]:
    """Read-only (a, b) of the coherences a < b, l = 1..dim-1 and sqrt(2/(l(l+1)))."""
    a, b = np.triu_indices(dim, k=1)
    l = np.arange(1, dim)
    layout = (a, b, l, np.sqrt(2.0 / (l * (l + 1))))
    for x in layout:
        x.flags.writeable = False
    return layout


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Flatten a density matrix, or each of a stack (..., D, D), into real coordinates.

    Layout: (Re rho_ij, Im rho_ij) for each pair i < j in row-major order,
    then D-1 weighted diagonal differences, then the trace. The last entry
    is 1 for a density matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[-1]
    a, b, l, scale = _bloch_layout(dim)
    out = np.empty(rho.shape[:-2] + (dim * dim,))
    base = dim * (dim - 1)
    upper = rho[..., a, b]
    out[..., 0:base:2] = upper.real
    out[..., 1:base:2] = upper.imag
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    partial = np.cumsum(diag, axis=-1)[..., :-1]  # sum of the first l diagonal entries
    out[..., base : dim * dim - 1] = scale * (partial - l * diag[..., 1:])
    out[..., dim * dim - 1] = diag.sum(axis=-1)
    return out


def bloch_to_density(coords: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bloch_vector` (defined for any real coordinates, or a stack (..., D^2))."""
    coords = np.asarray(coords, dtype=float)
    dim = int(round(np.sqrt(coords.shape[-1])))
    if dim * dim != coords.shape[-1]:
        raise ValueError("coordinate vector length must be a perfect square")
    a, b, l, scale = _bloch_layout(dim)
    rho = np.zeros(coords.shape[:-1] + (dim, dim), dtype=complex)
    base = dim * (dim - 1)
    upper = coords[..., 0:base:2] + 1j * coords[..., 1:base:2]
    rho[..., a, b] = upper
    rho[..., b, a] = np.conj(upper)
    trace = coords[..., dim * dim - 1 :]
    # with S_l the sum of the first l diagonal entries, c_l = S_l - l d_l,
    # so S_l / l = trace / dim + sum_{m >= l} c_m / (m (m + 1)) and
    # d_l = S_(l+1) / (l + 1) - c_l / (l + 1)
    c = coords[..., base : dim * dim - 1] / scale
    tail = np.cumsum((c / (l * (l + 1)))[..., ::-1], axis=-1)[..., ::-1]
    mean = np.concatenate([tail, np.zeros_like(trace)], axis=-1) + trace / dim
    diag = np.concatenate([mean[..., :1], mean[..., 1:] - c / (l + 1)], axis=-1)
    rho[..., np.arange(dim), np.arange(dim)] = diag
    return rho


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


def _grid_episodes(ev: WitnessEvaluator, times, log_det, dlogdet) -> List[Tuple[float, float]]:
    """Episodes from the signs of the derivative on the grid, boundaries refined.

    Grid intervals where positivity changes alternate between episode
    starts and ends; an episode open at either end of the grid keeps it.
    Two boundaries in one grid interval are not seen. Each boundary is the
    sign change in its interval, found by :func:`dirichlet.itp_newton` from
    the grid values at both ends.
    """
    positive = np.isfinite(log_det) & np.isfinite(dlogdet) & (dlogdet > 0.0)
    k = np.flatnonzero(positive[1:] != positive[:-1]) + 1
    edges = dirichlet.itp_newton(ev.dlog_det, times[k - 1], times[k], dlogdet[k - 1], dlogdet[k])
    edges = edges.tolist()
    if positive[0]:
        edges.insert(0, float(times[0]))
    if positive[-1]:
        edges.append(float(times[-1]))
    return list(zip(edges[::2], edges[1::2]))


def detect_episodes(
    spec: EnsembleSpec,
    env: EnvPopulations,
    t_start: float,
    t_stop: float,
    points: int,
) -> WitnessSeries:
    """Witness series with non-Markovian episodes on [t_start, t_stop].

    Where every coupled site has uniform populations (the maximally mixed
    environment, and Gibbs at beta = 0) the episodes are certified: the
    zeros of A are known in closed form and each bracket between two of them
    holds one episode end, found to 1e-9 relative tolerance; the list is
    complete and does not depend on `points`. Elsewhere episode boundaries
    are the sign changes of the log-derivative between grid points, refined
    by false position within ITP to the same tolerance, all brackets
    together; episodes narrower than the grid can be missed. Grid points
    where det is an exact zero are excluded from episodes.
    """
    if not t_stop > t_start:
        raise ValueError("need t_stop > t_start")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    ev = WitnessEvaluator(spec, env)
    times = np.linspace(t_start, t_stop, points)
    log_det, dlogdet = ev.series(times)
    if ev._dirichlet is None:
        episodes = _grid_episodes(ev, times, log_det, dlogdet)
    else:
        episodes = dirichlet.episodes(ev.dlog_det, *ev._dirichlet, spec.twice_spin + 1,
                                      t_start, t_stop, dlogdet[0], dlogdet[-1])

    # the episodes are disjoint and ascending: a time lies in the last one
    # starting before it, if that one has not ended
    starts, ends = np.array(episodes + [(np.inf, np.inf)]).T
    last = np.searchsorted(starts, times, side="left") - 1
    in_episode = (last >= 0) & (times < ends[last]) & np.isfinite(log_det)

    return WitnessSeries(
        times=times,
        log_det=log_det,
        det=_det_from_log(log_det),
        dlogdet_dt=dlogdet,
        episodes=episodes,
        in_episode=in_episode,
    )
