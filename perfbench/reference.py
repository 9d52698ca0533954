"""Reference values the benchmark checks the program's outputs against.

Everything here is computed from the physical inputs with plain numpy and
math, independently of the engine: cosine products for product
environments, direct double-precision sums over environment
configurations, dense eigensolves with numpy.linalg, and big-integer
exponents for the closed forms. Unless a check says otherwise, deviations
are |program - reference| / max(1, |reference|).
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An output the program reported as successful is wrong."""


def rel_dev(value, ref) -> float:
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if value.size == 0:
        return 0.0
    return float(np.max(np.abs(value - ref) / np.maximum(1.0, np.abs(ref))))


def require(dev: float, tol: float, what: str) -> float:
    if not dev <= tol:
        raise CheckError(f"{what}: deviation {dev:.3e} exceeds {tol:.1e}")
    return dev


def read_csv(path) -> dict:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# format: spindeph-csv"):
        raise CheckError(f"{path}: missing format line")
    header = lines[1].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    if not rows:
        raise CheckError(f"{path}: no rows")
    data = np.array(rows, dtype=float)
    return {name: data[:, k] for k, name in enumerate(header)}


# ---------------------------------------------------------------------------
# spin-1/2 configurations and energies (twice-values, double-sum convention)


def configs(n_sites: int) -> np.ndarray:
    """All spin-1/2 twice-value configurations, lexicographic, +1 first."""
    return np.array(list(itertools.product((1.0, -1.0), repeat=n_sites))).reshape(-1, n_sites)


def ring_couplings(n: int, j: float) -> np.ndarray:
    out = np.zeros((n, n))
    for i in range(n):
        out[i, (i + 1) % n] = out[(i + 1) % n, i] = j
    return out


def ring_from_config(cfg: dict):
    """(couplings, fields, n_system) of a nearest-neighbour-ring config."""
    ens = cfg["ensemble"]
    if ens["model"]["type"] != "nn_ring_1d" or ens.get("twice_spin", 1) != 1:
        raise ValueError("reference expects a spin-1/2 nn_ring_1d ensemble")
    n = int(ens["n_total"])
    fields = np.broadcast_to(np.asarray(ens.get("fields", 0.0), dtype=float), (n,))
    return ring_couplings(n, float(ens["model"]["J"])), fields, int(ens["n_system"])


def energies(v: np.ndarray, j: np.ndarray, h: np.ndarray) -> np.ndarray:
    """E = -sum_ij J_ij s_i s_j + sum_i h_i s_i with s = v / 2, per row of v."""
    s = 0.5 * v
    return -np.einsum("ci,ij,cj->c", s, j, s) + s @ h


def global_energies(j: np.ndarray, h: np.ndarray, p: int) -> np.ndarray:
    """Energies on the (system config, environment config) grid."""
    n = j.shape[0]
    vs, ve = configs(p), configs(n - p)
    full = np.concatenate(
        [np.repeat(vs, len(ve), axis=0), np.tile(ve, (len(vs), 1))], axis=1
    )
    return energies(full, j, h).reshape(len(vs), len(ve))


def pair_differences(p: int) -> np.ndarray:
    """s - s' for every unordered pair of system configurations."""
    vs = configs(p)
    a, b = np.triu_indices(len(vs), k=1)
    return vs[a] - vs[b]


def env_populations(j: np.ndarray, h: np.ndarray, p: int, beta) -> np.ndarray:
    """Gibbs populations of the environment block; beta may be inf."""
    e = energies(configs(j.shape[0] - p), j[p:, p:], h[p:])
    e_min = e.min()
    if beta == math.inf:
        w = (e <= e_min + 1e-12 * abs(e_min)).astype(float)
    else:
        w = np.exp(-beta * (e - e_min))
    return w / w.sum()


# ---------------------------------------------------------------------------
# witness references


def cosine_product_terms(j_cross: np.ndarray) -> np.ndarray:
    """nu_j = (s - s') . J_cross for every pair and site, zeros dropped.

    For a maximally mixed spin-1/2 environment A_{s,s'}(t) is the product
    of cos(nu_j t / 2) over environment sites.
    """
    nu = (pair_differences(j_cross.shape[0]) @ j_cross).reshape(-1)
    return nu[nu != 0.0]


def cosine_product_witness(nu: np.ndarray, t: np.ndarray):
    """(log det, d/dt log det, min |cos|) from the cosine product."""
    x = 0.5 * np.multiply.outer(t, nu)
    cos = np.cos(x)
    with np.errstate(divide="ignore"):
        log_det = 2.0 * np.log(np.abs(cos)).sum(axis=1)
    dlog_det = -(nu * np.tan(x)).sum(axis=1)
    return log_det, dlog_det, np.abs(cos).min(axis=1)


def grid_boundaries(nu: np.ndarray, stop: float, points: int) -> int:
    """Sign changes of d/dt log det between neighbours of linspace(0, stop, points).

    detect_episodes refines each of them by bisection.
    """
    t = np.linspace(0.0, stop, points)
    positive = -(nu * np.tan(0.5 * np.multiply.outer(t, nu))).sum(axis=1) > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def window_for_boundaries(j_cross: np.ndarray, count: int, points: int) -> float:
    """A window end T whose grid shows `count` boundaries, or one or two more.

    Found by bisection on T to a relative width of 1e-6. The number of
    bisections detect_episodes runs, and with it the cost of the witness
    command, then barely changes from one random coupling matrix to the next.
    """
    nu = cosine_product_terms(j_cross)
    lo, hi = 0.0, 1.0
    while grid_boundaries(nu, hi, points) < count:
        lo, hi = hi, 2.0 * hi
        if hi > 1e3:
            raise ValueError("couplings give too few episode boundaries")
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if grid_boundaries(nu, mid, points) < count:
            lo = mid
        else:
            hi = mid
    return hi


def direct_sum_witness(j_cross: np.ndarray, weights: np.ndarray, t: np.ndarray):
    """(log det, d/dt log det, min |A|) by direct sums over environment configs."""
    keep = weights > 0.0
    u = configs(j_cross.shape[1])[keep]
    w = weights[keep]
    omegas = 0.5 * (pair_differences(j_cross.shape[0]) @ j_cross) @ u.T  # pairs x configs
    log_det = np.empty(t.size)
    dlog_det = np.empty(t.size)
    min_abs = np.empty(t.size)
    for k, tk in enumerate(t):
        phase = np.exp(1j * omegas * tk)
        a = phase @ w
        da = (1j * omegas * phase) @ w
        mod2 = (a * a.conj()).real
        log_det[k] = np.log(mod2).sum()
        dlog_det[k] = (2.0 * (a.conj() * da).real / mod2).sum()
        min_abs[k] = np.sqrt(mod2.min())
    return log_det, dlog_det, min_abs


def infinite_range_log_det(n: int, p: int, jt: float) -> float:
    """Exact closed form sum_q 2(n-p) C(2p, p-q) log|cos(jt q / n)|.

    The exponents are exact integers; each term is formed in the log domain,
    so exponents far beyond the double range still give a finite result.
    """
    terms = []
    for q in range(1, p + 1):
        x = jt * q / n
        log_cos = math.log1p(-2.0 * math.sin(0.5 * x) ** 2)
        if log_cos == 0.0:
            continue
        mult = 2 * (n - p) * math.comb(2 * p, p - q)
        terms.append(-math.exp(math.log(mult) + math.log(-log_cos)))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# negativity references


def negativity_of(rho: np.ndarray, d_a: int, d_b: int):
    """(negativity, min eigenvalue, trace norm) of the partial transpose on A."""
    pt = rho.reshape(d_a, d_b, d_a, d_b).transpose(2, 1, 0, 3).reshape(d_a * d_b, -1)
    eigs = np.linalg.eigvalsh(pt)
    tnorm = float(np.abs(eigs).sum())
    return (tnorm - 1.0) / 2.0, float(eigs[0]), tnorm


def schmidt_negativity(psi: np.ndarray, d_a: int, d_b: int):
    lam = np.linalg.svd(psi.reshape(d_a, d_b), compute_uv=False)
    tnorm = float(lam.sum() ** 2)
    return (tnorm - 1.0) / 2.0, -float(lam[0] * lam[1]), tnorm


def state_matrix(doc: dict, dim: int) -> np.ndarray:
    kind = doc["kind"]
    if kind == "uniform_superposition":
        return np.full((dim, dim), 1.0 / dim, dtype=complex)
    if kind == "maximally_mixed":
        return np.eye(dim, dtype=complex) / dim
    if kind == "bell" and dim == 4:
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        return np.outer(psi, psi).astype(complex)
    raise ValueError(f"no reference for state kind {kind!r}")


def compare_negativity(csv: dict, rows, refs, what: str, tol: float = 1e-9) -> float:
    ref = np.array(refs)
    dev = max(
        rel_dev(csv["negativity"][rows], np.maximum(ref[:, 0], 0.0)),
        rel_dev(csv["min_eigenvalue"][rows], ref[:, 1]),
        rel_dev(csv["trace_norm"][rows], ref[:, 2]),
    )
    return require(dev, tol, what)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
