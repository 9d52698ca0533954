import numpy as np
import pytest

from spindeph import thermal
from spindeph.engine import WitnessEvaluator
from spindeph.model import (
    EnsembleSpec,
    NearestNeighborRing1D,
    SpinConfig,
    ensemble_from_model,
)


def ring(n_total, n_system, fields=0.0, j=1.0):
    return ensemble_from_model(NearestNeighborRing1D(j=j), n_total, n_system, fields=fields)


def test_maximally_mixed():
    for n_env, tw, count in ((1, 1, 2), (3, 1, 8), (1, 2, 3)):
        pops = thermal.maximally_mixed(n_env, tw)
        assert pops.weights.shape == (count,)
        assert np.all(pops.weights == 1.0 / count)


def test_basis_state_one_hot():
    pops = thermal.basis_state(SpinConfig((1, -1)), 1)
    assert np.array_equal(pops.weights, [0.0, 1.0, 0.0, 0.0])


def test_thermal_beta_zero_is_maximally_mixed_bitwise():
    spec = ring(8, 2, fields=0.7)
    hot = thermal.thermal_populations(spec, 0.0)
    mixed = thermal.maximally_mixed(6, 1)
    assert hot.weights.tobytes() == mixed.weights.tobytes()


def test_thermal_two_site_hand_weights():
    # two environment sites with one bond at matrix entry J and no field:
    # the double-sum energies are -+ J/2, so weights go like e^{+-beta J/2}
    j = np.zeros((3, 3))
    j[1, 2] = j[2, 1] = 1.0
    spec = EnsembleSpec(n_total=3, n_system=1, twice_spin=1, couplings=j, fields=np.zeros(3))
    beta = 0.8
    res = thermal.thermal_populations(spec, beta)
    z = 2 * np.exp(beta / 2) + 2 * np.exp(-beta / 2)
    expected = np.array([np.exp(beta / 2), np.exp(-beta / 2),
                         np.exp(-beta / 2), np.exp(beta / 2)]) / z
    assert np.allclose(res.weights, expected, atol=1e-15)


def test_thermal_weights_sum_to_one():
    rng = np.random.default_rng(6)
    spec = ring(9, 2, fields=0.5)
    for beta in (0.0, 0.3, 2.0, 20.0, 200.0):
        pops = thermal.thermal_populations(spec, beta)
        assert pops.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(pops.weights >= 0.0)


def test_thermal_large_beta_approaches_ground():
    spec = ring(8, 2, fields=1.0)
    ground = thermal.ground_state_populations(spec)
    for beta, gap_bound in ((50.0, 1e-8), (100.0, 1e-15)):
        pops = thermal.thermal_populations(spec, beta)
        tv = 0.5 * np.sum(np.abs(pops.weights - ground.weights))
        assert tv < gap_bound
    # monotone approach
    tv_values = [
        0.5 * np.sum(np.abs(thermal.thermal_populations(spec, b).weights
                            - ground.weights))
        for b in (50.0, 75.0, 100.0)
    ]
    assert tv_values[0] > tv_values[1] > tv_values[2]


def test_ground_state_ferromagnetic_degeneracy():
    # open environment chain, no field: all-up and all-down are degenerate
    spec = ring(8, 2, fields=0.0)
    pops = thermal.ground_state_populations(spec)
    nz = np.nonzero(pops.weights)[0]
    assert list(nz) == [0, 2**6 - 1]
    assert np.all(pops.weights[nz] == 0.5)


def test_ground_state_strong_field_unique():
    spec = ring(7, 2, fields=10.0)
    pops = thermal.ground_state_populations(spec)
    nz = np.nonzero(pops.weights)[0]
    # field dominates: unique ground configuration with all spins down,
    # which is the last index in the descending-value ordering
    assert list(nz) == [2**5 - 1]
    assert pops.weights[nz[0]] == 1.0


def test_ground_state_matches_argmin_oracle():
    from spindeph.model import env_energies

    spec = ring(10, 2, fields=1.0)
    energies = env_energies(spec)
    pops = thermal.ground_state_populations(spec)
    k_min = int(np.argmin(energies))
    assert pops.weights[k_min] > 0.0
    assert np.all(energies[pops.weights > 0] <= energies.min() + 1e-10)


def test_basis_state_witness_flat():
    spec = ring(7, 1, fields=0.2)
    pops = thermal.basis_state(SpinConfig((1, 1, -1, 1, -1, -1)), 1)
    ts = np.linspace(0, 7, 120)
    ld, _ = WitnessEvaluator(spec, pops).series(ts)
    assert np.max(np.abs(ld)) < 1e-15


def test_symmetric_basis_states_same_witness():
    # global spin flip with h=0 maps the frequency set to its negative,
    # leaving |A| and hence the witness unchanged
    spec = ring(6, 1, fields=0.0)
    a = thermal.basis_state(SpinConfig((1, -1, 1, 1, -1)), 1)
    b = thermal.basis_state(SpinConfig((-1, 1, -1, -1, 1)), 1)
    ts = np.linspace(0, 5, 80)
    ld_a, _ = WitnessEvaluator(spec, a).series(ts)
    ld_b, _ = WitnessEvaluator(spec, b).series(ts)
    assert np.allclose(ld_a, ld_b, atol=1e-15)


def test_beta_zero_witness_equals_closed_form_n10():
    from spindeph.closedforms import log_det_nn_1d

    spec = ring(10, 2, fields=1.0)
    pops = thermal.thermal_populations(spec, 0.0)
    ts = np.linspace(0, 2 * np.pi, 600)
    ld, _ = WitnessEvaluator(spec, pops).series(ts)
    assert np.max(np.abs(ld - log_det_nn_1d(2, 1.0, ts))) < 1e-12


def test_zero_temperature_interpretations():
    # with h=J the environment ground configuration is unique, so the
    # ground-manifold mixture coincides with a basis state and the witness
    # is flat; with h=0 the manifold is two-fold degenerate and it is not
    spec_h = ring(10, 2, fields=1.0)
    pops_h = thermal.ground_state_populations(spec_h)
    assert np.count_nonzero(pops_h.weights) == 1
    ts = np.linspace(0, 2 * np.pi, 200)
    ld_h, _ = WitnessEvaluator(spec_h, pops_h).series(ts)
    assert np.max(np.abs(ld_h)) < 1e-15

    spec_0 = ring(10, 2, fields=0.0)
    pops_0 = thermal.ground_state_populations(spec_0)
    assert np.count_nonzero(pops_0.weights) == 2
    ld_0, _ = WitnessEvaluator(spec_0, pops_0).series(ts)
    assert np.min(ld_0) < -1e-3


def test_thermal_validation():
    spec = ring(6, 2)
    with pytest.raises(ValueError):
        thermal.thermal_populations(spec, -1.0)
    with pytest.raises(ValueError):
        thermal.thermal_populations(spec, float("inf"))
