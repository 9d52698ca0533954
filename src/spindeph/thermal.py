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

import math
from dataclasses import dataclass

import numpy as np

from .engine import EnvPopulations
from .model import (
    DEFAULT_ENUM_CAP,
    EnsembleSpec,
    SpinConfig,
    config_count,
    config_index,
    env_energies,
)


def maximally_mixed(n_env: int, twice_spin: int) -> EnvPopulations:
    """Uniform populations: every site 1/(2S+1) on each level, one block per site."""
    levels = twice_spin + 1
    return EnvPopulations.product(twice_spin, [np.full(levels, 1.0 / levels)] * n_env)


def basis_state(sigma0: SpinConfig, twice_spin: int) -> EnvPopulations:
    """All population on one computational basis configuration, one block per site.

    With such an environment every dephasing factor is a pure phase and the
    witness determinant stays exactly 1: the dynamics is Markovian.
    """
    sigma0.validate(twice_spin)
    one_hot = np.eye(twice_spin + 1)
    return EnvPopulations.product(
        twice_spin, [one_hot[config_index(SpinConfig((v,)), twice_spin)] for v in sigma0.twice_values]
    )


@dataclass(frozen=True)
class ThermalPopulations:
    """Gibbs populations of the environment plus partition data."""

    populations: EnvPopulations
    partition: float
    log_partition: float


def thermal_populations(
    spec: EnsembleSpec, beta: float, cap: int = DEFAULT_ENUM_CAP
) -> ThermalPopulations:
    """Populations exp(-beta H_E(sigma)) / Z over all environment configs.

    Weights are computed with the max-shift trick so large beta cannot
    overflow; the partition function is returned both directly and as a log.
    At beta = 0 the state is the maximally mixed product, with no
    enumeration.
    """
    if not np.isfinite(beta) or beta < 0.0:
        raise ValueError("beta must be finite and >= 0 (use ground_state_populations for T=0)")
    if beta == 0.0:
        # every configuration weighs exp(0): the maximally mixed product
        log_z = math.log(config_count(spec.n_env, spec.twice_spin))
        pops = maximally_mixed(spec.n_env, spec.twice_spin)
    else:
        energies = env_energies(spec, cap=cap)
        w = np.exp(-beta * (energies - energies.min()))
        norm = w.sum()
        log_z = math.log(norm) - beta * energies.min()
        pops = EnvPopulations(n_sites=spec.n_env, twice_spin=spec.twice_spin, weights=w / norm)
    return ThermalPopulations(
        populations=pops, partition=math.exp(log_z) if log_z < 709 else math.inf,
        log_partition=log_z,
    )


def ground_state_populations(spec: EnsembleSpec, cap: int = DEFAULT_ENUM_CAP) -> EnvPopulations:
    """Uniform mixture over the degenerate ground manifold of H_E.

    This is the beta -> infinity limit of the Gibbs family: when the ground
    configuration is unique it is a basis state, otherwise the limit is the
    maximally mixed state on the ground set (configurations within
    1e-12 |E_min| of the minimum).
    """
    energies = env_energies(spec, cap=cap)
    e_min = energies.min()
    ground = energies <= e_min + 1e-12 * abs(e_min)
    w = np.zeros(energies.size)
    w[ground] = 1.0 / ground.sum()
    return EnvPopulations(n_sites=spec.n_env, twice_spin=spec.twice_spin, weights=w)
