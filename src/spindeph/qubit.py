"""Single-spin specialization: rate, trace distance and the three measures.

For one spin-1/2 the whole dynamics is carried by the dephasing factor A(t)
of its one coherence, which the engine's :class:`WitnessEvaluator` reads
from its rows (`factors`), together with d = d/dt log|A|^2 (`dlog_det`; the
witness determinant is |A|^2). For a maximally mixed environment
A(t) = prod_j cos(J_j t), J_j the couplings of the spin to each environment
site; A is real when every row is symmetric in frequency, and complex
for, say, a Gibbs environment in a field. The canonical master equation is
pure dephasing with rate gamma_z = -d/4 (-A'/(2A) for a real A), and the
trace distance between two evolved states has the closed form used below.
All three non-Markovianity criteria reduce to the sign of d, so their
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


def dephasing_rate(dlog_det):
    """Canonical dephasing rate gamma_z = -(d/dt log|A|^2) / 4 from d/dt log|A|^2.

    For a real A this is -A'/(2A). Negative values signal non-Markovianity
    (broken divisibility). Zeros of A are poles of the rate.
    """
    out = -0.25 * np.asarray(dlog_det, dtype=float)
    return float(out) if out.ndim == 0 else out


def blp_trace_distance(a_state: QubitState, b_state: QubitState, a):
    """Distance sqrt((rho11a - rho11b)^2 + |A|^2 |rho12a - rho12b|^2) at amplitude A.

    This is half the trace norm of the difference of the evolved states.
    Its growth (information back-flow) marks non-Markovianity; the optimal
    initial pair rho11a = rho11b, rho12a = -rho12b = 1/2 gives |A(t)|.
    """
    mod = np.abs(np.asarray(a))
    dpop = a_state.rho11 - b_state.rho11
    dcoh = abs(a_state.rho12 - b_state.rho12)
    out = np.sqrt(dpop * dpop + mod * mod * dcoh * dcoh)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MeasuresReport:
    """Per-grid-point comparison of the three non-Markovianity criteria."""

    times: np.ndarray
    amplitude: np.ndarray  # real where the evaluator's factors are real, else complex
    dlog_det: np.ndarray  # d/dt log|A|^2
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


def measures_agreement_report(evaluator, times) -> MeasuresReport:
    """Evaluate geometric, RHP and BLP non-Markovianity flags on a grid.

    `evaluator` is the :class:`~spindeph.engine.WitnessEvaluator` of one
    spin-1/2; A is its one factor and d = d/dt log|A|^2 its `dlog_det`.

    geometric: Re(conj(A) A') = |A|^2 d / 2 > 0 (growing state-space volume)
    RHP:       gamma_z = -d / 4 < 0 (negative canonical rate)
    BLP:       d|A|/dt = |A| d / 2 > 0 (growing optimal-pair trace distance)

    Each flag is computed from its own formula, with |A| scaled by an exact
    power of two to its frexp mantissa in [1/2, 1), which keeps the sign and
    cannot underflow however small |A| is; points where A vanishes are
    masked as singular instead of flagged.
    """
    if evaluator.dim != 2:
        raise ValueError("the measures are defined for a single spin-1/2")
    times = np.asarray(times, dtype=float)
    a = evaluator.factors(times)[:, 0]
    if evaluator.real_factors:
        a = a.real
    d = evaluator.dlog_det(times)
    d_opt = np.abs(a)
    singular = d_opt < SINGULAR_AMPLITUDE
    gamma = dephasing_rate(d)
    mantissa = np.frexp(d_opt)[0]
    with np.errstate(invalid="ignore"):
        flag_geo = mantissa * mantissa * d / 2.0 > 0.0
        flag_blp = mantissa * d / 2.0 > 0.0
    flag_rhp = gamma < 0.0
    return MeasuresReport(
        times=times,
        amplitude=a,
        dlog_det=d,
        gamma_z=gamma,
        distance_optimal=d_opt,
        flag_geometric=flag_geo & ~singular,
        flag_rhp=flag_rhp & ~singular,
        flag_blp=flag_blp & ~singular,
        singular=singular,
    )
