"""Analytic witness expressions and thermodynamic-limit asymptotics.

Every formula here assumes a spin-1/2 ensemble with the environment in the
maximally mixed state, and each holds for one coupling model and geometry
(stated per function); the general engine covers everything else, the
power-law ring included, whose witness has no closed form beyond the
engine's own cosine sum. The formulas share no code with the engine, so
they serve as independent references for it. Exponents are exact big
integers (they reach 2^(2p) and beyond), multiplied into log|cos| only at
the last step, so nothing underflows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np


def _int_times_log(exponent: int, logcos: np.ndarray) -> np.ndarray:
    # exact integer exponent; float(exponent) overflows past 2^1024 although
    # the product with a small log|cos| may not, so exponents wider than 1000
    # bits are scaled by 2^-shift first (the shift drops only bits far below
    # double precision; for shift == 0 this is float(exponent) * logcos)
    shift = max(exponent.bit_length() - 1000, 0)
    return np.ldexp(float(exponent >> shift) * logcos, shift)


def _logabs_cos(x) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.cos(x)))


def log_det_nn_1d(p: int, j: float, t) -> Union[float, np.ndarray]:
    """log det for a contiguous block of p spins on a nearest-neighbor ring.

    Equals 2^(2p) log|cos(J t)|: only the two boundary couplings enter, so
    the result is independent of the ring size. Valid when the block has two
    distinct environment neighbors (n_total >= p + 2); it is even in j and
    -inf at odd multiples of pi/(2J).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    t = np.asarray(t, dtype=float)
    out = _int_times_log(1 << (2 * p), _logabs_cos(j * t))
    return float(out) if out.ndim == 0 else out


def log_det_infinite_range(n_total: int, p: int, j: float, t) -> Union[float, np.ndarray]:
    """log det for p of n_total all-to-all coupled spins (entries j/n_total).

    Sum over (j', k) in {0..p}^2 of (n-p) C(p,k) C(p,j') log|cos(J t (j'-k)/n)|,
    with exact integer exponents. Periodic in t with period 2 pi n / J.
    """
    if not 1 <= p < n_total:
        raise ValueError("need 1 <= p < n_total")
    t = np.asarray(t, dtype=float)
    logcos = _logabs_cos(j * t[..., None] * np.arange(1, p + 1) / n_total)
    out = np.zeros(t.shape)
    # pairs with |j' - k| = q, counted once per orientation; the k-sum
    # sum_k C(p,k) C(p,k-q) collapses to C(2p, p-q), and
    # C(2p, p-q-1) = C(2p, p-q) (p-q) / (p+q+1) exactly
    exponent = chu_vandermonde_exponent(p, 1)
    for q in range(1, p + 1):
        out = out + _int_times_log(2 * (n_total - p) * exponent, logcos[..., q - 1])
        exponent = exponent * (p - q) // (p + q + 1)
    return float(out) if out.ndim == 0 else out


def chu_vandermonde_exponent(r_n: int, q: int) -> int:
    """C(2 r_n, r_n - q), the collapsed exponent sum_k C(r_n,k) C(r_n,k-q)."""
    if not 0 <= q <= r_n:
        raise ValueError("need 0 <= q <= r_n")
    return math.comb(2 * r_n, r_n - q)


def log_det_infinite_fraction_asymptotic(
    n_total: int, r: Union[Fraction, float], j: float, t
) -> Union[float, np.ndarray]:
    """Small-Jt approximation of the infinite-range witness at fixed fraction.

    log det ~ -(1-r)/n (J t)^2 sum_q C(2 r n, r n - q) q^2. The Taylor step
    behind it needs J t q / n small; a practical validity heuristic is
    J t r < 0.2. The combinatorial sum is exact integer arithmetic.
    """
    r = Fraction(r).limit_denominator(10**9) if not isinstance(r, Fraction) else r
    r_n_frac = r * n_total
    if r_n_frac.denominator != 1:
        raise ValueError(f"r * n_total must be an integer, got {r_n_frac}")
    r_n = int(r_n_frac)
    if not 0 < r_n < n_total:
        raise ValueError("need 0 < r < 1")
    s = sum(chu_vandermonde_exponent(r_n, q) * q * q for q in range(1, r_n + 1))
    t = np.asarray(t, dtype=float)
    out = -float(1 - r) * (j * t) ** 2 / n_total * float(s)
    return float(out) if out.ndim == 0 else out


def log_det_2d_nn(q_side: int, j: float, t) -> Union[float, np.ndarray]:
    """log det for a q x q corner block on a periodic square lattice.

    Equals q 2^(2 q^2 + 1) log|cos(J t)|; only boundary couplings of the
    block contribute. Valid when each of the 4q boundary couplings reaches a
    distinct environment site, that is for a lattice side of at least q + 2.
    """
    if q_side < 1:
        raise ValueError("q_side must be >= 1")
    t = np.asarray(t, dtype=float)
    exponent = q_side << (2 * q_side * q_side + 1)
    out = _int_times_log(exponent, _logabs_cos(j * t))
    return float(out) if out.ndim == 0 else out
