"""Exact pure-dephasing dynamics of spin subsystems in pairwise-ZZ ensembles.

The package computes the exact reduced dynamics of p spins embedded in an
N-spin ensemble with arbitrary symmetric ZZ couplings and longitudinal
fields, the geometric non-Markovianity witness det M_S(t) with episode
detection, its analytic specializations (nearest-neighbor ring, infinite
range, 2D torus, thermodynamic limits), thermal environments, the
single-spin RHP/BLP comparison, system-environment negativity, and a
brute-force global-unitary oracle for verification. The power-law ring is
an engine model, not a closed form: its witness is the engine's sum.

`import spindeph` loads no submodule: a public name imports its module when
it is first read (PEP 562), so a program pays only for the layers it uses.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "closedforms": (
        "chu_vandermonde_exponent", "log_det_2d_nn", "log_det_infinite_fraction_asymptotic",
        "log_det_infinite_range", "log_det_nn_1d"),
    "engine": (
        "EnvPopulations", "WitnessEvaluator", "WitnessSeries", "bloch_to_density", "bloch_vector",
        "detect_episodes"),
    "entanglement": (
        "GLOBAL_DIM_CAP", "NegativitySeries", "evolve_global", "global_negativity_series",
        "negativity", "negativity_details", "partial_trace_env", "partial_transpose_system",
        "system_negativity_series"),
    "linalg": ("hermitian_eigensystem", "hermitian_eigenvalues", "lu_det", "trace_norm"),
    "model": (
        "DEFAULT_ENUM_CAP", "CouplingModel", "EnsembleSpec", "InfiniteRange",
        "NearestNeighborRing1D", "NearestNeighborTorus2D", "PowerLawRing1D", "ResourceCapError",
        "SpinConfig", "build_coupling", "config_index", "config_matrix", "ensemble_from_dict",
        "ensemble_from_model", "env_energies", "system_energies", "torus_block_ensemble",
        "total_energies"),
    "oracle": ("oracle_reduced_state", "oracle_superoperator", "run_verification"),
    "qubit": (
        "MeasuresReport", "QubitState", "blp_trace_distance", "dephasing_rate",
        "measures_agreement_report"),
    "thermal": ("basis_state", "ground_state_populations", "maximally_mixed", "thermal_populations"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the module of a public name (or a layer module itself) on first read."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
