"""Single-spin specialization: closed-form amplitude, rate, and measures.

For one spin-1/2 coupled to a maximally mixed environment the whole
dynamics is carried by one real amplitude

    A(t) = prod_j cos(J_j t)

multiplying the coherence (J_j are the couplings of the spin to each
environment site). The witness determinant is A(t)^2, the canonical master
equation is pure dephasing with rate Gamma_z = -A'/(2A), and the trace
distance between two evolved states has the closed form used below. All
three non-Markovianity criteria reduce to the sign of A A', so their
boolean flags agree wherever A does not vanish; the flags are still
computed from their own defining formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SINGULAR_AMPLITUDE = 1e-300  # |A| below this counts as a zero crossing


@dataclass(frozen=True)
class QubitState:
    """Two-level density matrix as populations plus one coherence."""

    rho11: float
    rho12: complex

    def __post_init__(self):
        if not -1e-12 <= self.rho11 <= 1.0 + 1e-12:
            raise ValueError("rho11 must lie in [0, 1]")
        if abs(self.rho12) ** 2 > self.rho11 * (1.0 - self.rho11) + 1e-12:
            raise ValueError("coherence violates positivity")

    @property
    def rho22(self) -> float:
        return 1.0 - self.rho11

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.rho11, self.rho12], [np.conj(self.rho12), self.rho22]], dtype=complex
        )


def amplitude(j_row, t):
    """A(t) = prod_j cos(J_j t); A(0) = 1, |A| <= 1."""
    j_row = np.asarray(j_row, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.cos(np.multiply.outer(t, j_row)).prod(axis=-1)
    return float(out) if out.ndim == 0 else out


def amplitude_derivative(j_row, t):
    """A'(t) by the product rule, finite at zeros of individual factors."""
    j_row = np.asarray(j_row, dtype=float)
    t = np.asarray(t, dtype=float)
    phases = np.multiply.outer(t, j_row)
    cos = np.cos(phases)
    sin = np.sin(phases)
    out = np.zeros(t.shape)
    for k in range(j_row.size):
        others = np.prod(np.delete(cos, k, axis=-1), axis=-1)
        out = out - j_row[k] * np.take(sin, k, axis=-1) * others
    return float(out) if out.ndim == 0 else out


def dephasing_rate(j_row, t):
    """Canonical dephasing rate Gamma_z(t) = -A'(t) / (2 A(t)).

    Negative values signal non-Markovianity (broken divisibility). Zeros of
    A are poles of the rate; they come out as +-inf, not exceptions.
    """
    a = np.asarray(amplitude(j_row, t))
    da = np.asarray(amplitude_derivative(j_row, t))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -da / (2.0 * a)
    return float(out) if out.ndim == 0 else out


def blp_trace_distance(a_state: QubitState, b_state: QubitState, j_row, t):
    """Distance sqrt((rho11a - rho11b)^2 + A(t)^2 |rho12a - rho12b|^2).

    This is half the trace norm of the difference of the evolved states.
    Its growth (information back-flow) marks non-Markovianity; the optimal
    initial pair rho11a = rho11b, rho12a = -rho12b = 1/2 gives |A(t)|.
    """
    a = np.asarray(amplitude(j_row, t))
    dpop = a_state.rho11 - b_state.rho11
    dcoh = abs(a_state.rho12 - b_state.rho12)
    out = np.sqrt(dpop * dpop + a * a * dcoh * dcoh)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MeasuresReport:
    """Per-grid-point comparison of the three non-Markovianity criteria."""

    times: np.ndarray
    amplitude: np.ndarray
    amplitude_derivative: np.ndarray
    gamma_z: np.ndarray
    distance_optimal: np.ndarray
    flag_geometric: np.ndarray
    flag_rhp: np.ndarray
    flag_blp: np.ndarray
    singular: np.ndarray

    def agreement(self) -> bool:
        """True when all three flags coincide at every non-singular point."""
        ok = ~self.singular
        return bool(
            np.array_equal(self.flag_geometric[ok], self.flag_rhp[ok])
            and np.array_equal(self.flag_geometric[ok], self.flag_blp[ok])
        )


def measures_agreement_report(j_row, times) -> MeasuresReport:
    """Evaluate geometric, RHP and BLP non-Markovianity flags on a grid.

    geometric: A A' > 0 (growing state-space volume)
    RHP:       Gamma_z < 0 (negative canonical rate)
    BLP:       d/dt of the optimal-pair trace distance > 0

    Each flag is computed from its own formula; points where A vanishes are
    masked as singular instead of flagged.
    """
    times = np.asarray(times, dtype=float)
    a = np.asarray(amplitude(j_row, times))
    da = np.asarray(amplitude_derivative(j_row, times))
    singular = np.abs(a) < SINGULAR_AMPLITUDE
    gamma = dephasing_rate(j_row, times)
    d_opt = np.abs(a)
    # derivative of sqrt(A^2 |drho|^2) at the optimal pair (|drho| = 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_opt_rate = a * da / d_opt
    flag_geo = (a * da) > 0.0
    flag_rhp = gamma < 0.0
    flag_blp = d_opt_rate > 0.0
    return MeasuresReport(
        times=times,
        amplitude=a,
        amplitude_derivative=da,
        gamma_z=gamma,
        distance_optimal=d_opt,
        flag_geometric=flag_geo & ~singular,
        flag_rhp=flag_rhp & ~singular,
        flag_blp=flag_blp & ~singular,
        singular=singular,
    )
