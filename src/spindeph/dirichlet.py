"""Episode boundaries: certified when A is a product of Dirichlet kernels.

With uniform populations on every coupled environment site (the maximally
mixed environment, and Gibbs at beta = 0) each site contributes to a pair's
dephasing factor the Dirichlet kernel

    D_n(x) = sin(n x) / (n sin x),   n = 2S + 1,   x = nu_j t,

so log det is a sum over distinct rates nu = |nu_j| of
mult(nu) log D_n(nu t)^2, with mult the number of (pair, site) entries of
that rate. Since |sin n x| <= n |sin x|,

    (log|D_n|)'' = csc^2 x - n^2 csc^2(n x) <= 0,

and between two consecutive zeros of A the derivative of log det falls
strictly from +inf to -inf. Each zero t = k pi / (n nu), k not a multiple of
n, opens one episode, which ends at the one root of the derivative before
the next zero. The episode list is then exact, whatever the time grid.
The roots of all brackets are found together by ITP on the pole-free
derivative times the distances to both zeros.

:func:`itp` also refines the episode boundaries of the grid route, sign
changes of the derivative between grid points.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

# relative width of a refined bracket; zeros of A closer than it merge
_REL_TOL = 1e-9
# zeros of A per block, each bracketing one root
ZERO_BLOCK = 2**10


def zeros(nu, mult, levels: int, t_start: float, t_stop: float):
    """Zeros of A from before t_start to past t_stop, ascending, in blocks.

    Near a zero z of one kernel d log det/dt ~ 2 mult / (t - z), its
    residue. A zero closer than _REL_TOL relative to the next one merges into
    it, residues summed. Yields (zeros, residues) with about ZERO_BLOCK
    zeros per block, each block led by the last zero of the one before; the
    first block holds two zeros per rate before t_start, the last two past
    t_stop.
    """
    step = np.pi / (levels * nu)
    first = np.floor(t_start / step) - 2.0
    end = np.ceil(t_stop / step) + 3.0
    expected = np.sum((t_stop - t_start) / step) * (levels - 1) / levels
    edges = np.linspace(t_start, t_stop, 1 + math.ceil(expected / ZERO_BLOCK))
    z, residues = np.empty(0), np.empty(0)
    for i in range(edges.size - 1):
        lo = first if i == 0 else np.ceil(edges[i] / step)
        hi = end if i == edges.size - 2 else np.ceil(edges[i + 1] / step)
        count = (hi - lo).astype(int)
        rate = np.repeat(np.arange(nu.size), count)
        k = np.repeat(lo, count) + (np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count))
        keep = np.remainder(k, levels) != 0.0
        rate = rate[keep]
        z = np.concatenate([z[-1:], k[keep] * step[rate]])
        r = np.concatenate([residues[-1:], 2.0 * mult[rate]])
        order = np.argsort(z, kind="stable")
        z, r = z[order], r[order]
        last = np.ones(z.size, dtype=bool)
        last[:-1] = z[1:] - z[:-1] > _REL_TOL * np.maximum(1.0, np.abs(z[1:]))
        z, residues = z[last], np.bincount(np.cumsum(last) - last, r)
        yield z, residues


def itp(fun, lo, hi, g_lo, g_hi, poles: bool = False) -> np.ndarray:
    """A root of fun in each bracket (lo, hi) of the arrays, all brackets together.

    ITP (Oliveira and Takahashi, ACM TOMS 47(1), 2021; kappa1 = 0.2 / width,
    kappa2 = 2, n0 = 1) to a final bracket of _REL_TOL relative width: a
    bracket takes at most one round more than bisection would. ITP truncates
    and projects the false position estimate on g; the truncation moves at
    least a quarter of the tolerance, so that a converged estimate also
    closes the far side. Each round calls fun once on all brackets still
    open; a bracket's result does not depend on the others.

    g_lo and g_hi, of opposite signs, are g at the ends. By default g = fun;
    a non-finite value marks a singular point, across which fun changes
    sign, and the bracket narrows from above. With poles=True fun falls from
    +inf to -inf between poles at lo and hi, and g = fun (t - lo) (hi - t) /
    (hi - lo) is pole-free, its end values the residues there; an exact zero
    of A (NaN) belongs to the nearer pole.
    """
    width = hi - lo
    left, right = lo.copy(), hi.copy()
    g_left, g_right = g_lo.copy(), g_hi.copy()
    sign = np.where(g_lo > 0.0, 1.0, -1.0)  # sign * fun falls across the root
    eps = 0.5 * _REL_TOL * np.maximum(1.0, np.minimum(np.abs(lo), np.abs(hi)))
    open_ = np.flatnonzero(width > 2.0 * eps)
    budget = np.ceil(np.log2(width[open_] / (2.0 * eps[open_]))) + 1.0
    rounds = 0
    while open_.size:
        a, b, e = left[open_], right[open_], eps[open_]
        g_a, g_b = g_left[open_], g_right[open_]
        mid = 0.5 * (a + b)
        with np.errstate(divide="ignore", invalid="ignore"):
            est = (b * g_a - a * g_b) / (g_a - g_b)
        sigma = np.sign(mid - est)
        delta = np.maximum(0.2 * (b - a) ** 2 / width[open_], 0.5 * e)
        est = np.where(delta <= np.abs(mid - est), est + sigma * delta, mid)
        radius = e * 2.0 ** (budget - rounds) - 0.5 * (b - a)
        t = np.where(np.abs(est - mid) <= radius, est, mid - sigma * radius)
        f = fun(t)
        if poles:
            f = np.where(np.isnan(f), np.where(t < mid, np.inf, -np.inf), f)
            with np.errstate(invalid="ignore"):
                g = f * (t - lo[open_]) * (hi[open_] - t) / width[open_]
        else:
            g = f
            f = np.where(np.isfinite(f), sign[open_] * f, -np.inf)
        up, down, root = f > 0.0, f < 0.0, f == 0.0
        left[open_[up]], g_left[open_[up]] = t[up], g[up]
        right[open_[down]], g_right[open_[down]] = t[down], g[down]
        left[open_[root]] = right[open_[root]] = t[root]
        rounds += 1
        still = right[open_] - left[open_] > 2.0 * eps[open_]
        open_, budget = open_[still], budget[still]
    return 0.5 * (left + right)


def episodes(dlog_det, nu, mult, levels: int, t_start: float, t_stop: float,
             d_start: float, d_stop: float) -> List[Tuple[float, float]]:
    """Every episode in [t_start, t_stop], ascending.

    dlog_det evaluates d log det/dt on an array of times; d_start and
    d_stop are its values at the window ends, which tell whether the root
    of a bracket across an end lies inside the window.
    """
    found = []
    for z, residues in zeros(nu, mult, levels, t_start, t_stop):
        lo, hi, r_lo, r_hi = z[:-1], z[1:], residues[:-1], residues[1:]
        # a bracket across t_start has its root inside only if d_start > 0
        meet = (hi > t_start) & (lo < t_stop) & ((lo >= t_start) | ~(d_start <= 0.0))
        lo, hi, r_lo, r_hi = lo[meet], hi[meet], r_lo[meet], r_hi[meet]
        # a bracket across t_stop has its root past it if d_stop > 0
        solve = ~((hi > t_stop) & (d_stop > 0.0))
        end = np.full(lo.shape, t_stop, dtype=float)
        end[solve] = itp(dlog_det, lo[solve], hi[solve], r_lo[solve], -r_hi[solve], poles=True)
        start, end = np.maximum(lo, t_start), np.minimum(end, t_stop)
        inside = start < end
        found += zip(start[inside].tolist(), end[inside].tolist())
    return found
