"""Exact reduced dynamics of the subsystem and the volume witness.

A subsystem coherence between basis configurations s and s' evolves as

    rho_{s,s'}(t) = exp(i t [E_S(s') - E_S(s)]) * A_{s,s'}(t) * rho_{s,s'}(0)

where the dephasing factor A_{s,s'}(t) = sum_sigma a_sigma exp(i omega t) is
a finite weighted sum of environment phases (twice-values s, sigma), with
frequencies omega(sigma) = sigma . nu and nu = 1/2 (s - s') J_cross. A pair
enters only through nu, and populations are real, so A(-nu) = conj A(nu):
pairs fall into nu classes, the sign folded so that the first nonzero entry
of nu is positive. The classes and their multiplicities are counted over
the (4S + 1)^p differences s - s', not formed from the pairs, which only
`factors` and `reduced_state` lay out.

The environment populations are independent sites (the mixed and basis
states) or one block of all sites (a Gibbs state at beta > 0, explicit
populations), so A = prod_blocks A_block, each a sum over the configurations
of its block alone. Only sites with a nonzero J_cross column enter: nu is formed
over them and the environment gives its marginal on them as one array, a row
per site or one for the flat block, so no cost grows with the uncoupled sites
and no Python loop runs over sites. Each (class, block) is one row, built
once and read by `factors`, `reduced_state` and the witness alike; the rows
of all classes are evaluated at once, and a class's A is the product of its
rows. For the mixed spin-1/2 environment a row is cos(nu_j t), which gives
the cosine products of the closed forms.

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
next zero (see :mod:`spindeph.dirichlet`). Those roots are refined on the
closed form of the derivative over the kernels' merged rates
(`_dirichlet_dlog_det`), not on the rows: the root finder reads only its
sign, while `series` keeps the rows for a log det accurate to a few eps also
next to zeros of A. Elsewhere episode boundaries are the sign changes of
the derivative between grid points, refined on the rows (`dlog_det`). Both
routes refine their brackets with the one ITP root finder of
:mod:`spindeph.dirichlet`, all brackets together, one evaluation per round
at every open bracket; each bracket keeps its own stopping rule.

One helper, `_time_blocks`, cuts every time grid of the package into
blocks: `factors`, `series` and the closed-form derivative here, the
stacks of reduced states in :mod:`spindeph.entanglement` and of traced
phases in :mod:`spindeph.oracle`. No time's values depend on its block.
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
    _count,
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


class EnvPopulations:
    """Diagonal of the initial environment state in the computational basis.

    One of two forms. ``EnvPopulations(n_sites, twice_spin, weights)`` is
    one block of all sites, w over all configurations in lexicographic
    order (Gibbs, ground-state and explicit populations). :meth:`product`
    holds independent sites, one row each, and
    :func:`spindeph.thermal.maximally_mixed` one row for all sites. The
    reduced dynamics reads only the marginal on the coupled sites
    (:meth:`marginal`). All arrays are read-only.
    """

    def __init__(self, n_sites: int, twice_spin: int, weights):
        w = np.array(weights, dtype=float)
        size = (twice_spin + 1) ** n_sites
        if w.shape != (size,):
            raise ValueError(f"need {size} weights, got shape {w.shape}")
        self.n_sites, self.twice_spin, self._rows = int(n_sites), int(twice_spin), None
        self._weights = _checked_populations(w, np.zeros(1, dtype=np.intp))

    @classmethod
    def product(cls, twice_spin: int, marginals) -> "EnvPopulations":
        """Independent sites: site i has the populations ``marginals[i]``."""
        rows = np.array(marginals, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != twice_spin + 1:
            raise ValueError(f"need {twice_spin + 1} weights per site, got {rows.shape}")
        starts = np.arange(0, rows.size, rows.shape[1])
        return cls._of_rows(twice_spin, _checked_populations(rows.reshape(-1), starts).reshape(rows.shape))

    @classmethod
    def _of_rows(cls, twice_spin: int, rows: np.ndarray) -> "EnvPopulations":
        """Independent sites with the checked, read-only populations ``rows[i]`` of site i."""
        env = cls.__new__(cls)
        env.n_sites, env.twice_spin = len(rows), int(twice_spin)
        env._rows, env._weights = rows, None
        return env

    def marginal(self, sites) -> np.ndarray:
        """The populations of some sites, given ascending, reading none of the
        others, as one array of shape (blocks, levels^m): independent sites
        give one row per site (m = 1), a flat block one row of the joint
        populations of all m = len(sites) of them (no row for no site)."""
        if self._rows is not None:
            return self._rows[sites]
        sites, w = [int(i) for i in sites], self._weights
        if not sites:
            return np.empty((0, 1))
        if len(sites) < self.n_sites:
            # sorted sums: a configuration and its flip sum the same terms
            # in opposite orders, and must get the same weight
            levels = self.twice_spin + 1
            drop = sorted(set(range(self.n_sites)) - set(sites))
            w = w.reshape((levels,) * self.n_sites).transpose(sites + drop)
            w = np.sort(w.reshape(levels ** len(sites), -1), axis=1).sum(axis=1)
        return w[None]

    @property
    def weights(self) -> np.ndarray:
        """Populations of all (2S+1)^n_sites configurations, lexicographic, built on
        first read; raises ResourceCapError past DEFAULT_ENUM_CAP configurations."""
        if self._weights is None:
            total = (self.twice_spin + 1) ** self.n_sites
            if total > DEFAULT_ENUM_CAP:
                raise ResourceCapError(f"flat populations need {_count(total)} configurations, "
                                       f"cap is {DEFAULT_ENUM_CAP}; {PRODUCT_ENV_HINT}")
            flat = functools.reduce(np.kron, self._rows, np.ones(1))
            flat.flags.writeable = False
            self._weights = flat
        return self._weights


def _checked_populations(w: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """w, read-only, once checked to hold populations: finite, nonnegative,
    and summing to 1 from each of ``starts`` to the next."""
    # NaN passes both tests below
    if not np.all(np.isfinite(w)):
        raise ValueError("population weights must be finite")
    if np.any(w < 0.0):
        raise ValueError("populations must be nonnegative")
    sums = np.add.reduceat(w, starts)
    off = np.abs(sums - 1.0) > 1e-12
    if np.any(off):
        raise ValueError(f"populations must sum to 1, got {float(sums[off][0])!r}")
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=None)
def _pairs(dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only (a, b) of the pairs a < b of dim configurations, in lexicographic order."""
    pairs = np.triu_indices(dim, k=1)
    for x in pairs:
        x.flags.writeable = False
    return pairs


def _row_classes(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, each row's class and each class's count.

    What ``np.unique(rows, axis=0, return_inverse=True, return_counts=True)``
    returns for rows without NaN or -0, from one lexsort (first column
    most significant) and a mask of the rows that differ from the previous one.
    """
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
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
                  place: np.ndarray, symmetric: np.ndarray, wide: bool) -> Tuple[List[_Rows], _Rows]:
    """The rows of one form, grouped by their number of distinct rates.

    Row (c, b), class-major, has the frequencies configs[:, b] . nu[:, c, b]
    (site-major, by :func:`_dot2`) with the weights weights[b] (0 pads), and
    the multiplicity and place mult and place. Where symmetric[b], weights[b]
    is that of a flip-symmetric marginal, each frequency paired with its
    negative at the same weight, so the rows' ws are 0 exactly; summed, the
    +w and -w of a rate would leave an ulp. Returns the rows of two or
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
        k, l = _pairs(width)
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
    ws[:, symmetric[block]] = 0.0
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


def _nu_classes(spec: EnsembleSpec, coupled: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(classes, their pair counts, each difference's class, whether its nu was flipped).

    A pair a < b enters only through s_a - s_b, whose first nonzero entry is
    positive: the first half of the lexicographic table of the (4S + 1)^p
    differences, each made by prod_i (2S + 1 - |d_i|/2) pairs at twice-values
    d. Classes are the distinct nu, sign folded, in lexicographic order.
    """
    total = (2 * spec.twice_spin + 1) ** spec.n_system
    if total > DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"{spec.n_system} system sites make {_count(total)} configuration "
                               f"differences, cap is {DEFAULT_ENUM_CAP}")
    diff = config_matrix(spec.n_system, 2 * spec.twice_spin)[: total // 2]
    cross = spec.cross_couplings[:, coupled]
    if coupled.size == 1 < spec.n_env:
        # numpy multiplies by one column with BLAS gemv, by more with gemm,
        # which rounds otherwise: keep the gemm of all N - p columns
        cross = np.pad(cross, ((0, 0), (0, 1)))
    nu = 0.5 * (diff.astype(float) @ cross)[:, : coupled.size]
    # sign folded (+ 0.0 turns -0.0 into 0.0 before rows are compared)
    lead = nu[np.arange(len(nu)), (nu != 0.0).argmax(axis=1)] if coupled.size else np.zeros(len(nu))
    flip = lead < 0.0
    nu[flip] *= -1.0
    classes, inverse, _ = _row_classes(nu + 0.0)
    pairs = (spec.twice_spin + 1 - np.abs(diff) // 2).prod(axis=1)
    return classes, np.bincount(inverse, pairs), inverse, flip


class WitnessEvaluator:
    """Dephasing rows, one per (nu class, environment block), built once.

    Pairs a < b are in lexicographic order, the Bloch coordinate layout,
    built by the first `factors` or `reduced_state` call.
    Exposes log det M, its time derivative, and full reduced states.
    Instances are safe to share: only that layout is set after construction.
    """

    def __init__(self, spec: EnsembleSpec, env: EnvPopulations):
        if env.n_sites != spec.n_env or env.twice_spin != spec.twice_spin:
            raise ValueError("environment populations do not match the ensemble")
        self.spec, self.env, self.dim = spec, env, spec.dim_system
        self._a = None  # the pair layout (_pair_layout)
        coupled = (spec.cross_couplings != 0.0).any(axis=0).nonzero()[0]  # the others change no factor
        classes, counts, self._difference_class, self._difference_flip = _nu_classes(spec, coupled)

        # one row per (class, block of the marginal on the coupled sites), a
        # class's A the product of its rows': sigma . nu over the block's
        # populated configurations (taken first, in order), weighted by them
        w = env.marginal(coupled)
        m = coupled.size if len(w) == 1 else 1  # sites per block
        sites = np.arange(coupled.size).reshape(len(w), m)
        count = (w > 0.0).sum(axis=1)
        order = (w == 0.0).argsort(axis=1, kind="stable")
        # a point mass is a pure phase: all of them make one row, the last,
        # so that opposite phases cancel exactly, as in one configuration
        point = count == 1
        place = np.arange(len(classes) * (len(w) - point.sum() + point.any())).reshape(len(classes), -1)
        # a marginal equal to its flip (index k -> len - 1 - k) makes its rows
        # real; one site's rows are real already, two terms a rate
        symmetric = (w == w[:, ::-1]).all(axis=1) & (m > 1)

        # uniform marginals make each class's A a product of Dirichlet kernels
        # D_n(|nu_j| t), one per coupled site: the distinct nonzero |nu_j|
        # with their summed multiplicities certify the episodes
        self._dirichlet = None
        if (w == w[:, :1]).all():
            rates, inverse = np.unique(np.abs(classes), return_inverse=True)
            mults = np.bincount(inverse.ravel(), counts.repeat(coupled.size))
            self._dirichlet = (rates[rates > 0.0], mults[rates > 0.0])

        # a row of at most PAIRWISE_MAX populated configurations takes the
        # pairwise form, a wider one the wide form; the point masses make one
        # row of all their sites. `series` reads the rows of two or more
        # distinct frequencies in one pass, `factors` reads them all
        wide = count > PAIRWISE_MAX
        self._rows, self._factor_rows, self._place_shape = [], [], place.shape
        for form in (~point & ~wide, wide, point):
            members = form.nonzero()[0]
            if not members.size:
                continue
            take = order[members, : count[members].max()]
            weights, block_sites = w[members[:, None], take], sites[members]
            columns, sym = place[:, (~point).cumsum()[members] - 1], symmetric[members]
            if form is point:  # a flat block is one block, independent sites are not symmetric
                weights, block_sites = weights.prod(axis=0, keepdims=True), block_sites.reshape(1, -1)
                columns, sym = place[:, -1:], sym[:1]
            configs = config_matrix(m, spec.twice_spin)[take].reshape(weights.shape + (-1,)).transpose(2, 0, 1)
            nu = classes[:, block_sites].transpose(2, 0, 1)  # u and nu of each row's sites, site-major
            witness, every = _witness_rows(weights, np.ascontiguousarray(configs, dtype=float),
                                           np.ascontiguousarray(nu), counts.repeat(len(weights)),
                                           columns.ravel(), sym, form is wide)
            self._rows += witness
            self._factor_rows.append(every)
        self._entries = sum(rows.rate.size for rows in self._rows)

    def _pair_layout(self) -> None:
        """The pairs a < b, their energy differences thetas, classes and flips, built on
        first use and set in one update, which a sharing thread sees whole; the pair cap is met here."""
        if self._a is not None:
            return
        p, tw, dim = self.spec.n_system, self.spec.twice_spin, self.dim
        pairs = dim * (dim - 1) // 2
        if pairs > DEFAULT_ENUM_CAP:
            raise ResourceCapError(f"{_count(dim)} system configurations make {_count(pairs)} "
                                   f"configuration pairs, cap is {DEFAULT_ENUM_CAP}")
        a, b = _pairs(dim)
        # s_a - s_b is row center + f(a) - f(b) of the difference table, f
        # the levels of a configuration read as digits in base 4S + 1
        f = ((tw - config_matrix(p, tw)) // 2) @ (2 * tw + 1) ** np.arange(p - 1, -1, -1)
        row, energies = self._difference_class.size + f[a] - f[b], system_energies(self.spec)
        self.__dict__.update(_a=a, _b=b, thetas=energies[b] - energies[a],
                             _pair_class=self._difference_class[row], _flip=self._difference_flip[row])

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
        self._pair_layout()
        times = np.asarray(t, dtype=float)
        flat = times.reshape(-1)
        out = np.empty((flat.size, self._pair_class.size), dtype=complex)
        for block in _time_blocks(flat.size, sum(rows.rate.size for rows in self._factor_rows)):
            t_block = flat[block]
            layout = np.empty((t_block.size,) + self._place_shape, dtype=complex)
            for rows in self._factor_rows:
                layout.reshape(t_block.size, -1)[:, rows.place] = rows.factor(t_block).T
            out[block] = layout.prod(axis=-1)[:, self._pair_class]
        out = np.where(self._flip, out.conj(), out)
        return out.reshape(times.shape + out.shape[-1:])

    def reduced_state(self, rho0: np.ndarray, t) -> np.ndarray:
        """Evolve an initial subsystem density matrix to time t, or to each of an array of times."""
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (self.dim, self.dim):
            raise ValueError(f"state must be {self.dim}x{self.dim}")
        t = np.asarray(t, dtype=float)
        self._pair_layout()
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


def _dirichlet_dlog_det(rates: np.ndarray, mult: np.ndarray, levels: int, times: np.ndarray) -> np.ndarray:
    """d/dt log det M at an array of times, where A is a product of Dirichlet kernels.

    2 sum_r mult_r rate_r (log D_n)'(rate_r t) over the merged rates of
    ``WitnessEvaluator._dirichlet`` (:func:`dirichlet.log_derivative`), summed
    in index order (:func:`_ordered_sum`) in blocks of times
    (:func:`_time_blocks`, rates x floor(n/2) entries a time): a time's value
    depends neither on the other times nor on BLAS.
    """
    weight = (2.0 * mult * rates)[:, None]
    out = np.empty(times.shape)
    for block in _time_blocks(times.size, rates.size * (levels // 2)):
        with np.errstate(divide="ignore", invalid="ignore"):  # exact zeros of A
            out[block] = _ordered_sum(weight * dirichlet.log_derivative(rates[:, None] * times[block], levels))
    return out


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
        levels = spec.twice_spin + 1
        episodes = dirichlet.episodes(functools.partial(_dirichlet_dlog_det, *ev._dirichlet, levels),
                                      *ev._dirichlet, levels, t_start, t_stop, dlogdet[0], dlogdet[-1])

    # the episodes are disjoint and ascending: a time lies in the last one
    # starting before it, if that one has not ended
    starts, ends = np.array(episodes + [(np.inf, np.inf)]).T
    last = np.searchsorted(starts, times, side="left") - 1
    in_episode = (last >= 0) & (times < ends[last]) & np.isfinite(log_det)

    det = np.where(log_det > DET_UNDERFLOW_LOG, np.exp(log_det), 0.0)
    return WitnessSeries(times, log_det, det, dlogdet, episodes, in_episode)
