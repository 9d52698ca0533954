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
without one drops out. Each (class, block) pair is one row, built once and
read by `factors`, `reduced_state` and the witness alike; the rows of all
classes are evaluated at once, and a class's A is the product of its rows.
For the mixed spin-1/2 environment a row is cos(nu_j t), which gives the
cosine products of the closed forms.

Populations never move: the dynamics is purely dephasing. The Bloch-vector
evolution matrix is block diagonal, one 2x2 rotation-dilation block per
coherence, so its determinant is the product of |A|^2 over unordered
configuration pairs, each class counted with its multiplicity. The
determinant is kept in log space throughout; the closed-form exponents grow
like 2^(2p) and would underflow any float.

The witness needs log|A| to stay accurate near zeros of A, where a double
precision frequency sum loses all relative accuracy to cancellation, and
near |A| = 1, where log|A|^2 is tiny. Everything runs in double, with
error-free transformations in place of wider floats. Every row is
normalized by its weight total and written over its distinct rates: its
frequencies and their differences are formed from integer configurations
times nu as compensated dot products (Dot2), and each phase t r is carried
exactly as a Dekker product, which keeps the factors of two-level rows to
a few eps relative also next to zeros of A. A row whose
frequencies are exactly equal (a point mass of basis and beta = infinity
environments, a block on which nu vanishes) is a pure phase, |A| = 1, read
by `factors` alone. The witness rows of a time are summed by an error-free
extraction. A row of at most PAIRWISE_MAX = 16 populated
configurations (the two-level rows of spin-1/2 product environments, and
every nearest-neighbour Gibbs block up to spin 3/2) takes the pairwise form
1 - |A|^2 = 4 sum_{k<l} w_k w_l sin^2((omega_k - omega_l) t / 2), whose
terms share one sign; a wider row (a flat Gibbs block on random couplings)
takes c and s from accurate sums.

Episodes are certified where every coupled site has uniform populations
(the maximally mixed environment, and Gibbs at beta = 0): A is then a
product of Dirichlet kernels, its zeros are known in closed form, and each
opens one episode whose end is the one root of the derivative before the
next zero (see :mod:`spindeph.dirichlet`). Elsewhere episode boundaries are
the sign changes of the derivative between grid points. Both routes refine
their brackets with the one ITP root finder of :mod:`spindeph.dirichlet`,
all brackets together, one evaluation per round at every open bracket; each
bracket keeps its own stopping rule.

One helper, `_time_blocks`, cuts every time grid of the package into
blocks: `factors` and `series` here, the stacks of reduced states in
:mod:`spindeph.entanglement` and of traced phases in :mod:`spindeph.oracle`.
No time's values depend on its block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Tuple

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
# time x row x rate entries per block of `factors` and `series`; rows of a
# product environment hold few rates, so the time x row temporaries are
# about as large as a block: 2^12 ran as fast as 2^13 with half the peak
SERIES_BLOCK = 2**12
# but a block holds at least this many times while they fit in this many
# blocks' entries (see _time_blocks): with 1,664 rates per time (seed-5
# Gibbs, wide rows) 999 times took 172, 117, 95, 83, 149 and 156 ms at 2, 4,
# 8, 16, 32 and 64 times per block, numpy's per-call cost dominating the
# small blocks
SERIES_MIN_TIMES = 16
# rows of at most this many populated configurations take the pairwise form,
# wider ones the wide form (see _Rows). On 13 rows of distinct random
# frequencies over 1000 times, pairwise took 0.8, 2.0, 5.1, 8.4 and 7.0 times
# as long as wide at 4, 8, 16, 32 and 64 frequencies; but on a spin-1
# nearest-neighbour Gibbs ring (9 configurations, few distinct rates) it keeps
# log det within 2.5 ulp of mpmath where the wide form gave 7.8
PAIRWISE_MAX = 16


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
            # NaN passes both tests below
            if not np.all(np.isfinite(w)):
                raise ValueError("population weights must be finite")
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


def _row_classes(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, each row's class and each class's count.

    What ``np.unique(rows, axis=0, return_inverse=True, return_counts=True)``
    returns for rows without NaN or -0, from one lexsort (first column
    most significant) and a mask of the rows that differ from the previous one.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse, np.bincount(inverse)


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo, exact, each part of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _ordered_sum(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum over an axis in index order, x[0] + x[1] + ..., whatever the other axes.

    numpy sums a C-contiguous array in index order along an axis while a
    later axis holds more than one entry, but pairwise where every later
    axis has length one; there add.accumulate, sequential by definition,
    takes over, at the cost of one array of the summed entries.
    """
    if math.prod(x.shape[axis:][1:]) > 1:
        return x.sum(axis=axis)
    return np.add.accumulate(x, axis=axis).take(-1, axis=axis)


def _accurate_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over an axis (the last by default) of n terms with about one rounding.

    Rump, Ogita and Oishi's extraction (2008): with sigma a power of two
    above (n + 2) max|x|, q = (sigma + x) - sigma is exact and lies on the
    grid of sigma's ulp, so sum q is exact in any order and x - q is exact
    and tiny. The error is half an ulp of the sum plus a term of order
    n^2 eps^2 max|x|, whatever the order of the terms and the other axes;
    the tiny residuals are summed in index order (:func:`_ordered_sum`), so
    the result does not depend on the other axes either. A non-finite term
    makes the sum non-finite as a plain sum would.
    """
    top = np.max(np.abs(x), axis=axis, keepdims=True, initial=0.0)
    sigma = np.ldexp(1.0, np.frexp(top)[1] + (x.shape[axis] + 2).bit_length())
    q = (sigma + x) - sigma
    high = q.sum(axis=axis)
    return high + np.where(np.isfinite(high), _ordered_sum(x - q, axis), 0.0)


def _time_blocks(size: int, entries: int) -> Iterator[slice]:
    """The slices of a grid of `size` times at `entries` entries per time.

    The one rule that cuts every time grid and sizes every matrix stack:
    SERIES_BLOCK entries per block, but SERIES_MIN_TIMES times where that
    keeps a block within SERIES_MIN_TIMES x SERIES_BLOCK entries, and at
    least one time.
    """
    entries = max(1, entries)
    step = max(1, SERIES_BLOCK // entries,
                  min(SERIES_MIN_TIMES, SERIES_MIN_TIMES * SERIES_BLOCK // entries))
    for start in range(0, size, step):
        yield slice(start, start + step)


def _dot2(u: np.ndarray, nu: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """sum_j u[j] nu[j] over the first axis as an unevaluated sum hi + lo, in about twice double.

    Ogita, Rump and Oishi's Dot2 (2005), with Knuth's TwoSum: the running
    sums are one add.accumulate and the errors are summed in index order.
    u holds small integers (twice spin values and their differences), so
    each u nu splits exactly into p + e with Veltkamp halves of nu alone.
    """
    nu_hi, nu_lo = _split(nu)
    p = u * nu
    e = (u * nu_hi - p) + u * nu_lo
    running = np.add.accumulate(p)
    before, after = running[:-1], running[1:]
    z = after - before
    e[1:] += (before - (after - z)) + (p[1:] - z)
    hi, lo = running[-1], _ordered_sum(e)
    s = hi + lo
    return s, lo - (s - hi)


class _Rows(NamedTuple):
    """Rows of one evaluator with the same number of distinct rates.

    A row is A = sum_k w_k e^{i omega_k t} / S with S = sum_k w_k, so that
    |A| <= 1 and A(0) = 1 although float weights sum to 1 +- ulp. It is
    written over its distinct rates r_j >= 0, each carried as
    rate + rate_lo: Re A = sum_j wc_j cos(r_j t), Im A = sum_j ws_j sin(r_j t).
    `factors` reads every row (:meth:`factor`), `series` those of two or
    more distinct frequencies (:meth:`terms`). A pairwise row also holds the
    half differences |omega_k - omega_l| / 2 among its rates, and with them

        1 - |A|^2 = sum_j sq_j sin^2(r_j t)
        d|A|^2/dt = sum_j sc_j sin(r_j t) cos(r_j t)

    where sq and sc sum 4 w_k w_l / S^2 and -8 w_k w_l r / S^2 over the
    pairs k < l. A wide row holds Re A' = sum_j dc_j sin(r_j t) and
    Im A' = sum_j ds_j cos(r_j t). Arrays are (rates, rows, 1), mult is
    (rows, 1); ws and ds are None where every row is symmetric (ws = 0).
    """

    rate: np.ndarray
    rate_lo: np.ndarray
    rate_hi: np.ndarray  # Veltkamp halves of rate
    rate_tail: np.ndarray
    wc: np.ndarray
    ws: np.ndarray
    mult: np.ndarray  # the class's multiplicity
    place: np.ndarray  # each row's index in the evaluator's (class, block) layout
    sq: np.ndarray = None  # pairwise rows
    sc: np.ndarray = None
    dc: np.ndarray = None  # wide rows
    ds: np.ndarray = None

    def phases(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """cos(r_j t) and sin(r_j t) at times t, each of shape (rates, rows, times).

        Each phase r t is carried as the exact sum hi + lo of Dekker's
        product (plus t rate_lo), and cos = cos hi - sin hi lo, sin = sin hi
        + cos hi lo to double precision, so the rounding of t r does not
        reach A or log|A| near the zeros of A.
        """
        hi = t * self.rate
        t_hi, t_lo = _split(t)
        r_hi, r_lo = self.rate_hi, self.rate_tail
        lo = ((t_hi * r_hi - hi) + t_hi * r_lo + t_lo * r_hi + t_lo * r_lo) + t * self.rate_lo
        cos_hi, sin_hi = np.cos(hi), np.sin(hi)
        return cos_hi - sin_hi * lo, sin_hi + cos_hi * lo

    def factor(self, t: np.ndarray) -> np.ndarray:
        """A of each row at times t, complex, shape (rows, times).

        Sums over the rates in index order (:func:`_ordered_sum`), divided
        by sum_j wc_j in the same order, which is Re A at t = 0: A(0) = 1
        exactly, and no time's sums depend on the other times.
        """
        cos, sin = self.phases(t)
        total = _ordered_sum(self.wc)
        out = _ordered_sum(self.wc * cos) / total + 0j
        if self.ws is not None:
            out.imag = _ordered_sum(self.ws * sin) / total
        return out

    def terms(self, t: np.ndarray, value: bool = True) -> np.ndarray:
        """mult x (log|A|^2, d/dt log|A|^2) at times t, shape (2, rows, times), in double.

        The phases are :meth:`phases`. log|A|^2 is log1p(-x), x = 1 - |A|^2,
        where |A|^2 > 1/2 and log(c^2 + s^2) elsewhere. A pairwise row's x
        is a sum of terms of one sign. A wide row's x is v (2 - v) - s^2
        with v = 1 - c = sum_j wc_j (1 - cos(r_j t)), again of one sign,
        and its c, s and derivative sums are taken by :func:`_accurate_sum`.
        With value=False only the derivative, shape (rows, times).
        """
        cos, sin = self.phases(t)
        if self.sq is not None:
            c = _ordered_sum(self.wc * cos)
            mod2 = c * c
            if self.ws is not None:
                s = _ordered_sum(self.ws * sin)
                mod2 = mod2 + s * s
            derivative = _ordered_sum((self.sc * sin) * cos) / mod2
            x = _ordered_sum(self.sq * (sin * sin)) if value else None
        else:
            parts = [self.wc * cos, self.dc * sin]
            if self.ws is not None:
                parts += [self.ws * sin, self.ds * cos]
            c, dc, *s_ds = _accurate_sum(np.stack(parts, axis=1), axis=0)
            mod2 = c * c
            slope = c * dc
            if value:
                # v = 1 - c from 1 - cos without cancellation
                v = _ordered_sum(self.wc * np.where(cos > 0.0, sin * sin / (1.0 + cos), 1.0 - cos))
                x = v * (2.0 - v)
            if s_ds:
                s, ds = s_ds
                mod2 = mod2 + s * s
                x = x - s * s if value else None
                slope = slope + s * ds
            derivative = 2.0 * slope / mod2
        if not value:
            return derivative * self.mult
        out = np.empty((2,) + derivative.shape)
        out[0] = np.where(mod2 > 0.5, np.log1p(-x), np.log(mod2))
        out[1] = derivative
        out *= self.mult
        return out


def _witness_rows(weights: np.ndarray, configs: np.ndarray, nu: np.ndarray, mult: np.ndarray,
                  place: np.ndarray, wide: bool) -> Tuple[List[_Rows], _Rows]:
    """The rows of one form, grouped by their number of distinct rates.

    Row (c, b), class-major, has the frequencies configs[:, b] . nu[:, c, b]
    (site-major, by :func:`_dot2`) with the weights weights[b] (0 pads), and
    the multiplicity and place mult and place. Returns the rows of two or
    more distinct frequencies by their number of rates, for `series`, and
    all rows in one group over their frequencies' rates, for `factors`.
    """
    classes, blocks = nu.shape[1:]
    width, rows = weights.shape[1], classes * blocks
    block = np.arange(rows) % blocks
    # candidate rates: the frequencies, and for pairwise rows the pairs' half
    # differences, each an integer vector times nu; each block's once
    vectors, valid = configs, weights > 0.0
    if not wide:
        k, l = _bloch_layout(width)[:2]  # the pairs k < l
        vectors = np.concatenate([configs, configs[:, :, l] - configs[:, :, k]], axis=2)
        valid = np.concatenate([valid, valid[:, k] & valid[:, l]], axis=1)
        ww = (4.0 * weights[:, k] * weights[:, l])[block]
    total, weights, valid = weights.sum(axis=1)[block], weights[block], valid[block]
    hi, lo = (x.reshape(rows, -1) for x in _dot2(vectors[:, None], nu[..., None]))
    same = (hi[:, :width] == hi[:, :1]) & (lo[:, :width] == lo[:, :1])
    phase = np.all(same | ~valid[:, :width], axis=1)
    parts = np.empty(hi.shape + (2,))  # rate and rate_lo of each candidate
    parts[..., 0], parts[..., 1] = np.abs(hi), np.where(hi < 0.0, -1.0, 1.0) * lo
    if not wide:
        valid[:, width:] &= hi[:, width:] != 0.0  # equal frequencies add nothing
        parts[:, width:] *= 0.5

    # sort each row's candidates by rate, then rate_lo, padding last, and
    # number the distinct ones: slot j of row r is r + j * rows
    key = np.where(valid, parts.view(complex)[..., 0], np.inf)
    row = np.arange(rows)[:, None]
    order = key.argsort(axis=1) + row * valid.shape[1]
    ordered, new = key.ravel()[order], valid.ravel()[order]
    new[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
    count = new.sum(axis=1)
    n_rates = int(count.max(initial=0))
    size = rows * n_rates
    slot = np.empty(valid.shape, dtype=np.intp)
    slot.ravel()[order] = (new.cumsum(axis=1) - 1) * rows + row

    # the table, one (n_rates, rows) array per field; one bincount sums w and
    # sign(omega) w over each rate's frequencies into wc, ws and, for pairwise
    # rows, 4 w_k w_l and -4 w_k w_l |omega_k - omega_l| over its pairs into sq, sc
    fields = ("rate", "rate_lo", "rate_hi", "rate_tail", "wc", "ws")
    fields += ("dc", "ds") if wide else ("sq", "sc")
    table = np.empty((len(fields), n_rates, rows))
    rate, rate_lo, rate_hi, rate_tail, wc, ws = table[:6]
    last = table[6:]  # dc, ds or sq, sc
    summed = table[4:6] if wide else table[4:]  # wc, ws (and sq, sc)
    scattered = np.zeros(size, dtype=complex)  # (rate, rate_lo): one 1-D scatter, not two
    scattered[slot[valid]] = key[valid]
    rate[...], rate_lo[...] = (x.reshape(n_rates, rows) for x in (scattered.real, scattered.imag))
    rate_hi[...], rate_tail[...] = _split(rate)
    sums = np.empty((2,) + valid.shape)  # the frequencies' and pairs' two sums
    sums[:, :, :width] = weights, np.sign(hi[:, :width]) * weights
    bins = slot.copy()  # a pair's sums go to bins of their own, after wc and ws
    if not wide:
        sums[:, :, width:] = ww, -(ww * np.abs(hi[:, width:]))
        bins[:, width:] += 2 * size
    index = bins[valid]
    summed[...] = np.bincount(np.concatenate([index, index + size]), sums[:, valid].ravel(),
                              minlength=summed.size).reshape(summed.shape)
    wc /= total
    ws /= total
    if wide:
        last[0], last[1] = -rate * wc, rate * ws
    else:
        last /= total * total

    def rows_of(table, members, n):  # views of the table where every row is a member
        members = np.s_[:] if members is None or members.all() else members
        group = dict(zip(fields, table[:, :n, members, None]))
        if not np.any(group["ws"]):  # a zero frequency adds nothing to Im A
            group.update(ws=None, ds=None)
        return _Rows(mult=mult[members, None], place=place[members], **group)

    counts = sorted(set(count[~phase].tolist()))
    witness = [rows_of(table, ~phase & (count == n), n) for n in counts]
    # `factors` reads the first six fields over the frequencies' rates, packed first
    keep = wc > 0.0
    packed = np.zeros((6,) + keep.shape)
    packed[:, (keep.cumsum(axis=0) - 1)[keep], keep.nonzero()[1]] = table[:6, keep]
    return witness, rows_of(packed, None, int(keep.sum(axis=0).max()))


class WitnessEvaluator:
    """Dephasing rows, one per (nu class, environment block), built once.

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
        classes, self._pair_class, counts = _row_classes(nu + 0.0)
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
                # sorted sums: a configuration and its flip sum the same
                # terms in opposite orders, and must get the same weight
                drop = [k for k in range(len(block.sites)) if k not in keep]
                w = w.reshape((levels,) * len(block.sites)).transpose(keep + drop)
                w = np.sort(w.reshape(levels ** len(keep), -1), axis=1).sum(axis=1)
            uniform = uniform and bool(np.all(w == w[0]))
            populated = w > 0.0
            sites = [block.sites[k] for k in keep]
            u = config_matrix(len(keep), spec.twice_spin)[populated]
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

        # uniform marginals make each class's A a product of Dirichlet kernels
        # D_n(|nu_j| t), one per coupled site: the distinct nonzero |nu_j|
        # with their summed multiplicities certify the episodes
        self._dirichlet = None
        if uniform:
            rates, inverse = np.unique(np.abs(classes[:, coupled]), return_inverse=True)
            mults = np.bincount(inverse.ravel(), np.repeat(counts.astype(float), np.count_nonzero(coupled)))
            self._dirichlet = (rates[rates > 0.0], mults[rates > 0.0])

        # the rows, class by class; a row of at most PAIRWISE_MAX populated
        # configurations takes the pairwise form, a wider one the wide form.
        # `series` takes the rows of two or more distinct frequencies, each
        # with its class's multiplicity, in one pass; `factors` takes them all
        place = np.arange(len(classes) * len(blocks)).reshape(len(classes), len(blocks))
        self._rows, self._factor_rows = [], []
        for wide in (False, True):
            members = [b for b, (_, _, w) in enumerate(blocks) if (w.size > PAIRWISE_MAX) == wide]
            if members:  # the form's blocks, padded with zero weights, site-major
                width = max(blocks[b][2].size for b in members)
                weights = np.zeros((len(members), width))
                configs = np.zeros((max(len(blocks[b][0]) for b in members), len(members), width))
                nus = np.zeros((len(configs), len(classes), len(members)))
                for m, (sites, u, w) in enumerate(blocks[b] for b in members):
                    weights[m, : w.size], configs[: len(sites), m, : w.size] = w, u.T
                    nus[: len(sites), :, m] = classes[:, sites].T
                mult = np.repeat(counts.astype(float), len(members))
                witness, every = _witness_rows(weights, configs, nus, mult,
                                               place[:, members].ravel(), wide)
                self._rows += witness
                self._factor_rows.append(every)
        self._entries = sum(rows.rate.size for rows in self._rows)

    @property
    def pair_index(self) -> List[Tuple[int, int]]:
        return list(zip(self._a.tolist(), self._b.tolist()))

    @property
    def real_factors(self) -> bool:
        """True when every row is symmetric in omega (ws = 0), so that every A is real."""
        return all(rows.ws is None for rows in self._factor_rows)

    # -- double precision factors (matrix-element accuracy) ----------------

    def factors(self, t) -> np.ndarray:
        """A_{ab}(t) for every pair a < b, complex double, shape t.shape + (pairs,).

        Read from the rows that `series` reads, pure phases included, with
        the same phases (:meth:`_Rows.factor`): exactly 1 at t = 0, and
        within a few eps relative on two-level rows also next to zeros of A.
        A class multiplies its rows; flipped pairs take the conjugate. Times
        go in blocks (:func:`_time_blocks`); a time's factors do not depend
        on the other times.
        """
        times = np.asarray(t, dtype=float)
        flat = times.reshape(-1)
        out = np.empty((flat.size, self._pair_class.size), dtype=complex)
        for block in _time_blocks(flat.size, sum(rows.rate.size for rows in self._factor_rows)):
            t_block = flat[block]
            layout = np.empty((t_block.size, self._n_classes * self._rows_per_class), dtype=complex)
            for rows in self._factor_rows:
                layout[:, rows.place] = rows.factor(t_block).T
            layout = layout.reshape(t_block.size, self._n_classes, self._rows_per_class)
            out[block] = layout.prod(axis=-1)[:, self._pair_class]
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
        product of its rows. A is normalized by the row's weight total,
        which makes both values exactly 0 at t = 0 and changes nothing when
        the weights sum to 1 exactly. All rows go in one pass (:class:`_Rows`).
        Times go in blocks (:func:`_time_blocks`); a time's values do not
        depend on the other times. At exact zeros of any factor log det is
        -inf and the derivative NaN.
        """
        return self._series(np.atleast_1d(np.asarray(times, dtype=float)), True)

    def _series(self, times: np.ndarray, value: bool) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`series`; with value=False log det is None and not computed."""
        logdet = np.zeros(times.shape) if value else None
        dlogdet = np.zeros(times.shape)
        for block in _time_blocks(times.size if self._rows else 0, self._entries):
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = [rows.terms(times[block], value) for rows in self._rows]
                sums = _accurate_sum(np.concatenate(terms, axis=-2) if len(terms) > 1 else terms[0],
                                     axis=-2)
            if value:
                logdet[block], dlogdet[block] = sums
            else:
                dlogdet[block] = sums
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
    sign change in its interval, found by :func:`dirichlet.itp` from
    the grid values at both ends.
    """
    positive = np.isfinite(log_det) & np.isfinite(dlogdet) & (dlogdet > 0.0)
    k = np.flatnonzero(positive[1:] != positive[:-1]) + 1
    edges = dirichlet.itp(ev.dlog_det, times[k - 1], times[k], dlogdet[k - 1], dlogdet[k])
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
