"""Exact pure-dephasing dynamics of spin subsystems in pairwise-ZZ ensembles.

The package computes the exact reduced dynamics of p spins embedded in an
N-spin ensemble with arbitrary symmetric ZZ couplings and longitudinal
fields, the geometric non-Markovianity witness det M_S(t) with episode
detection, its analytic specializations (nearest-neighbor ring, infinite
range, power law, 2D torus, thermodynamic limits), thermal environments,
the single-spin RHP/BLP comparison, system-environment negativity, and a
brute-force global-unitary oracle for verification.
"""

from .closedforms import (
    chu_vandermonde_exponent,
    log_det_2d_nn,
    log_det_infinite_fraction_asymptotic,
    log_det_infinite_range,
    log_det_nn_1d,
    log_det_power_law,
)
from .engine import (
    EnvPopulations,
    WitnessEvaluator,
    WitnessSeries,
    bloch_to_density,
    bloch_vector,
    detect_episodes,
)
from .entanglement import (
    NegativitySeries,
    evolve_global,
    global_negativity_series,
    negativity,
    negativity_details,
    partial_trace_env,
    partial_transpose_system,
    system_negativity_series,
)
from .linalg import hermitian_eigenvalues, lowest_eigenvalues, lu_det, trace_norm
from .model import (
    DEFAULT_ENUM_CAP,
    CouplingModel,
    EnsembleSpec,
    InfiniteRange,
    NearestNeighborRing1D,
    NearestNeighborTorus2D,
    PowerLawRing1D,
    ResourceCapError,
    SpinConfig,
    build_coupling,
    config_index,
    config_matrix,
    ensemble_from_dict,
    ensemble_from_model,
    env_energies,
    system_energies,
    torus_block_ensemble,
    total_energies,
)
from .oracle import oracle_reduced_state, oracle_superoperator, run_verification
from .qubit import (
    MeasuresReport,
    QubitState,
    amplitude,
    amplitude_derivative,
    blp_trace_distance,
    dephasing_rate,
    measures_agreement_report,
)
from .thermal import (
    ThermalPopulations,
    basis_state,
    ground_state_populations,
    maximally_mixed,
    thermal_populations,
)

__version__ = "0.1.0"
