"""Initial environment populations: mixed, basis, Gibbs, ground state.

The environment enters the reduced dynamics only through its initial
populations in the computational basis. The maximally mixed and basis
states are products of single-site populations, as is the Gibbs state at
beta = 0; a Gibbs state at beta > 0 (and its ground-state limit) is one
population vector over enumerated configurations. For a ring
ensemble the environment sub-block of the coupling matrix is an open chain
(the two ring bonds at the system boundary belong to the interaction), and
its Gibbs weights use the stored double-sum convention: a coupling entry K
between environment neighbors contributes bond energy 2K.

k_B = 1 throughout; beta is in inverse energy units of the coupling scale.
"""

from __future__ import annotations

import numpy as np

from .engine import EnvPopulations
from .model import EnsembleSpec, SpinConfig, env_energies


def maximally_mixed(n_env: int, twice_spin: int) -> EnvPopulations:
    """Uniform populations: every site 1/(2S+1) on each level, one row held for all sites."""
    row = np.full(twice_spin + 1, 1.0 / (twice_spin + 1))
    return EnvPopulations._of_rows(twice_spin, np.broadcast_to(row, (n_env, row.size)))


def basis_state(sigma0: SpinConfig, twice_spin: int) -> EnvPopulations:
    """All population on one computational basis configuration: one one-hot row per site.

    With such an environment every dephasing factor is a pure phase and the
    witness determinant stays exactly 1: the dynamics is Markovian.
    """
    return EnvPopulations.product(twice_spin, np.eye(twice_spin + 1)[sigma0.validate(twice_spin)])


def thermal_populations(spec: EnsembleSpec, beta: float) -> EnvPopulations:
    """Populations exp(-beta H_E(sigma)) / Z over all environment configs.

    Weights are computed with the max-shift trick so large beta cannot
    overflow. At beta = 0 the state is the maximally mixed product, with no
    enumeration.
    """
    if not np.isfinite(beta) or beta < 0.0:
        raise ValueError("beta must be finite and >= 0 (use ground_state_populations for T=0)")
    if beta == 0.0:
        # every configuration weighs exp(0): the maximally mixed product
        return maximally_mixed(spec.n_env, spec.twice_spin)
    energies = env_energies(spec)
    w = np.exp(-beta * (energies - energies.min()))
    return EnvPopulations(n_sites=spec.n_env, twice_spin=spec.twice_spin, weights=w / w.sum())


def ground_state_populations(spec: EnsembleSpec) -> EnvPopulations:
    """Uniform mixture over the degenerate ground manifold of H_E.

    This is the beta -> infinity limit of the Gibbs family: when the ground
    configuration is unique it is a basis state, otherwise the limit is the
    maximally mixed state on the ground set (configurations within
    1e-12 |E_min| of the minimum).
    """
    energies = env_energies(spec)
    e_min = energies.min()
    ground = energies <= e_min + 1e-12 * abs(e_min)
    w = np.zeros(energies.size)
    w[ground] = 1.0 / ground.sum()
    return EnvPopulations(n_sites=spec.n_env, twice_spin=spec.twice_spin, weights=w)
