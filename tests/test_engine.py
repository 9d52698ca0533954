import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spindeph import model, thermal
from spindeph.engine import (
    EnvPopulations,
    WitnessEvaluator,
    _bisect_sign_changes,
    bloch_evolution_matrix,
    bloch_to_density,
    bloch_vector,
    detect_episodes,
    populations_from_density,
)
from spindeph.model import (
    EnsembleSpec,
    NearestNeighborRing1D,
    ResourceCapError,
    SpinConfig,
    config_count,
    config_index,
    config_matrix,
    ensemble_from_model,
    system_energies,
)


def ring_spec(n_total, n_system, fields=0.0, j=1.0):
    return ensemble_from_model(NearestNeighborRing1D(j=j), n_total, n_system, fields=fields)


def random_spec(rng, n_total, n_system):
    j = rng.uniform(-1, 1, size=(n_total, n_total))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return EnsembleSpec(n_total=n_total, n_system=n_system, twice_spin=1,
                        couplings=j, fields=rng.uniform(-1, 1, size=n_total))


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_populations(rng, spec):
    w = rng.uniform(0.01, 1.0, size=spec.dim_env)
    return EnvPopulations(n_sites=spec.n_env, twice_spin=spec.twice_spin, weights=w / w.sum())


def pair_factor(ev, s, s_prime, ts):
    """A_{s,s'}(t) on a grid, from the evaluator's pair with a < b."""
    a = config_index(SpinConfig(s), ev.spec.twice_spin)
    b = config_index(SpinConfig(s_prime), ev.spec.twice_spin)
    assert a < b
    k = ev.pair_index.index((a, b))
    return np.array([ev.factors(t)[k] for t in ts])


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_equal_pair_is_static():
    # a configuration paired with itself never dephases: populations stay
    # bitwise fixed while every coherence moves
    spec = ring_spec(5, 2)
    ev = WitnessEvaluator(spec, thermal.maximally_mixed(3, 1))
    rho0 = random_density(np.random.default_rng(1), 4)
    for t in (0.3, 1.1, 4.0):
        rho_t = ev.reduced_state(rho0, t)
        assert np.array_equal(np.diag(rho_t), np.diag(rho0))
        assert np.all(np.abs(ev.factors(t) - 1.0) > 1e-3)


def test_spectrum_nn_ring_p1_is_cosine_squared():
    # two neighbors at J each: frequencies (-2J, 0, 2J) with weights (1/4, 1/2, 1/4)
    spec = ring_spec(6, 1, j=1.0)
    ev = WitnessEvaluator(spec, thermal.maximally_mixed(5, 1))
    assert ev.pair_index == [(0, 1)]
    ts = np.linspace(0, 7, 101)
    assert np.allclose(pair_factor(ev, (1,), (-1,), ts), np.cos(ts) ** 2, atol=1e-15)


def interaction_energy(spec, s, sigma):
    """-2 sum_{i<=p} sum_{j>p} J_ij s_i sigma_j, summed term by term."""
    return -2.0 * sum(
        spec.couplings[i, spec.n_system + j] * (s[i] / 2) * (sigma[j] / 2)
        for i in range(spec.n_system)
        for j in range(spec.n_env)
    )


def test_spectrum_brute_force_small():
    # N=3, p=1, explicit couplings and thermal weights: sum the environment
    # terms by hand and compare
    rng = np.random.default_rng(3)
    spec = random_spec(rng, 3, 1)
    env = random_populations(rng, spec)
    ev = WitnessEvaluator(spec, env)
    s, sp_ = (1,), (-1,)
    for t in (0.0, 0.37, 2.1):
        direct = 0.0 + 0.0j
        for k, sigma in enumerate(config_matrix(2, 1)):
            ediff = interaction_energy(spec, sp_, sigma) - interaction_energy(spec, s, sigma)
            direct += env.weights[k] * np.exp(1j * t * ediff)
        assert pair_factor(ev, s, sp_, [t])[0] == pytest.approx(direct, abs=1e-14)


def test_factor_basics_and_conjugate_pair():
    rng = np.random.default_rng(8)
    spec = random_spec(rng, 5, 2)
    ev = WitnessEvaluator(spec, random_populations(rng, spec))
    assert np.array_equal(ev.factors(0.0), np.ones(6, dtype=complex))
    rho0 = random_density(rng, 4)
    for t in np.linspace(0, 9, 40):
        fac = ev.factors(t)
        assert np.all(np.abs(fac) <= 1.0 + 1e-14)
        # the transposed pair evolves with the conjugate factor and phase
        rho_t = ev.reduced_state(rho0, t)
        for k, (a, b) in enumerate(ev.pair_index):
            z = fac[k] * np.exp(1j * ev.thetas[k] * t)
            assert rho_t[a, b] == pytest.approx(rho0[a, b] * z, abs=1e-15)
            assert rho_t[b, a] == np.conj(rho_t[a, b])


def test_factor_nn_interior_pair_product_form():
    # p=2 block on a ring: only the two boundary spins couple out, so
    # A = cos(J t (s_1 - s'_1)) cos(J t (s_2 - s'_2)) for a mixed environment
    spec = ring_spec(6, 2, j=1.0)
    ev = WitnessEvaluator(spec, thermal.maximally_mixed(4, 1))
    ts = np.linspace(0, 5, 60)
    cases = {
        ((1, 1), (-1, 1)): np.cos(ts),
        ((1, 1), (1, -1)): np.cos(ts),
        ((1, 1), (-1, -1)): np.cos(ts) ** 2,
        ((1, -1), (-1, 1)): np.cos(ts) ** 2,
    }
    for (s, sp_), expected in cases.items():
        assert np.max(np.abs(pair_factor(ev, s, sp_, ts) - expected)) < 1e-14


def test_factor_basis_environment_is_pure_phase():
    rng = np.random.default_rng(35)
    spec = random_spec(rng, 5, 1)
    env = thermal.basis_state(SpinConfig((1, -1, -1, 1)), 1)
    ev = WitnessEvaluator(spec, env)
    ts = np.linspace(0, 8, 90)
    assert np.max(np.abs(np.abs(pair_factor(ev, (1,), (-1,), ts)) - 1.0)) < 1e-15


def test_factor_derivative_cosine_spectrum():
    # p=1 on an nn ring with a mixed environment: A = cos^2(J t), so
    # log det = 4 log|cos(J t)| and its derivative is -4 J tan(J t)
    j = 1.7
    ev = WitnessEvaluator(ring_spec(6, 1, j=j), thermal.maximally_mixed(5, 1))
    ts = np.linspace(0, 4, 50)
    ts = ts[np.abs(np.cos(j * ts)) > 1e-2]
    d = ev.series(ts)[1]
    assert np.max(np.abs(d + 4 * j * np.tan(j * ts)) / (1 + np.abs(d))) < 1e-13


def test_factor_derivative_against_finite_difference():
    rng = np.random.default_rng(21)
    spec = random_spec(rng, 6, 1)
    ev = WitnessEvaluator(spec, random_populations(rng, spec))
    h = 1e-5
    for t in (0.3, 1.7, 4.4):
        fd = (ev.log_det(t + h) - ev.log_det(t - h)) / (2 * h)
        assert ev.dlog_det(t) == pytest.approx(fd, abs=1e-8)
    # symmetric spectrum: derivative vanishes at t=0
    mixed = WitnessEvaluator(spec, thermal.maximally_mixed(5, 1))
    assert mixed.dlog_det(0.0) == 0.0


# ---------------------------------------------------------------------------
# the nu-class kernel against a per-pair enumeration


def enumerated_pairs(spec, weights, ts):
    """A_{ab}(t) and dA/dt for every pair a < b, each pair summed over every
    environment configuration (populations ``weights``, lexicographic) from
    its interaction energies; shape (T, pairs)."""
    sys_cfg = config_matrix(spec.n_system, spec.twice_spin)
    env_cfg = config_matrix(spec.n_env, spec.twice_spin)
    energy = np.array([[interaction_energy(spec, s, sigma) for sigma in env_cfg] for s in sys_cfg])
    factors, derivatives = [], []
    for a in range(len(sys_cfg)):
        for b in range(a + 1, len(sys_cfg)):
            delta = energy[b] - energy[a]
            terms = weights * np.exp(1j * np.multiply.outer(ts, delta))
            factors.append(terms.sum(axis=1))
            derivatives.append((1j * delta * terms).sum(axis=1))
    return np.array(factors).T, np.array(derivatives).T


@st.composite
def kernel_cases(draw):
    """Random couplings, spin 1/2 or 1, and one of four kinds of environment."""
    twice_spin = draw(st.sampled_from([1, 2]))
    n_system = draw(st.integers(1, 3 if twice_spin == 1 else 2))
    n_env = draw(st.integers(1, 3))
    n = n_system + n_env
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        j = rng.uniform(-1.0, 1.0, (n, n))  # generic: classes are the values of +-(s - s')
    else:
        j = rng.choice([-1.0, 0.0, 0.5, 1.0], (n, n))  # few values: classes merge
    j = np.triu(j, 1) + np.triu(j, 1).T
    spec = EnsembleSpec(n_total=n, n_system=n_system, twice_spin=twice_spin,
                        couplings=j, fields=rng.uniform(-1.0, 1.0, n))
    kind = draw(st.sampled_from(["mixed", "thermal", "basis", "explicit"]))
    if kind == "mixed":
        env = thermal.maximally_mixed(n_env, twice_spin)
    elif kind == "thermal":
        env = thermal.thermal_populations(spec, float(rng.uniform(0.1, 3.0))).populations
    elif kind == "basis":
        values = twice_spin - 2 * rng.integers(0, twice_spin + 1, n_env)
        env = thermal.basis_state(SpinConfig(tuple(values)), twice_spin)
    else:
        w = rng.uniform(0.0, 1.0, spec.dim_env) * (rng.random(spec.dim_env) < 0.7)
        w[0] += 0.1
        env = EnvPopulations(n_sites=n_env, twice_spin=twice_spin, weights=w / w.sum())
    return spec, env


KERNEL_TIMES = np.linspace(0.0, 4.0, 9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kernel_cases())
def test_kernel_matches_pair_enumeration(case):
    spec, env = case
    ev = WitnessEvaluator(spec, env)
    ref, dref = enumerated_pairs(spec, env.weights, KERNEL_TIMES)
    energies = system_energies(spec)
    a, b = np.array(ev.pair_index).T
    rho0 = random_density(np.random.default_rng(0), ev.dim)
    for k, t in enumerate(KERNEL_TIMES):
        assert np.max(np.abs(ev.factors(t) - ref[k])) <= 1e-13
        rho_t = ev.reduced_state(rho0, t)
        expected = rho0[a, b] * ref[k] * np.exp(1j * t * (energies[b] - energies[a]))
        assert np.max(np.abs(rho_t[a, b] - expected)) <= 1e-13
        assert np.array_equal(rho_t[b, a], np.conj(rho_t[a, b]))
    # log det and its derivative where no factor is near a zero
    away = np.min(np.abs(ref), axis=1) > 1e-3
    log_det, dlog_det = ev.series(KERNEL_TIMES[away])
    mod2 = np.abs(ref[away]) ** 2
    assert log_det == pytest.approx(np.log(mod2).sum(axis=1), rel=1e-10, abs=1e-12)
    ratio = (np.conj(ref[away]) * dref[away]).real / mod2
    assert dlog_det == pytest.approx(2.0 * ratio.sum(axis=1), rel=1e-9, abs=1e-10)


@st.composite
def block_cases(draw):
    """Random couplings and an environment of independent blocks.

    Spin 1/2 or 1; sites split at random into blocks of one to three sites
    with random populations (zeros included), so a block with an uncoupled
    site is a correlated block the kernel marginalizes. J_cross is generic,
    has some zero columns, or vanishes.
    """
    twice_spin = draw(st.sampled_from([1, 2]))
    n_system = draw(st.integers(1, 3 if twice_spin == 1 else 2))
    n_env = draw(st.integers(2, 5 if twice_spin == 1 else 3))
    n = n_system + n_env
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    j = rng.uniform(-1.0, 1.0, (n, n))
    coupling = rng.choice(["generic", "some_uncoupled", "some_uncoupled", "uncoupled"])
    if coupling == "some_uncoupled":
        drop = rng.random(n_env) < 0.5
        drop[rng.integers(n_env)] = False
        j[:n_system, n_system:][:, drop] = 0.0
    elif coupling == "uncoupled":
        j[:n_system, n_system:] = 0.0
    j = np.triu(j, 1) + np.triu(j, 1).T
    spec = EnsembleSpec(n_total=n, n_system=n_system, twice_spin=twice_spin,
                        couplings=j, fields=rng.uniform(-1.0, 1.0, n))
    sites = rng.permutation(n_env).tolist()
    blocks = []
    while sites:
        size = int(rng.integers(1, min(3, len(sites)) + 1))
        w = rng.uniform(0.0, 1.0, (twice_spin + 1) ** size) * (rng.random((twice_spin + 1) ** size) < 0.8)
        w[rng.integers(w.size)] += 0.1
        blocks.append((tuple(sites[:size]), w / w.sum()))
        sites = sites[size:]
    return spec, blocks


def kronecker_weights(n_env, twice_spin, blocks):
    """Flat populations of independent blocks: each configuration's weight is
    the product of its blocks' populations, configuration by configuration."""
    flat = np.ones(config_count(n_env, twice_spin))
    for k, sigma in enumerate(config_matrix(n_env, twice_spin)):
        for sites, w in blocks:
            flat[k] *= w[config_index(SpinConfig(sigma[list(sites)]), twice_spin)]
    return flat


@settings(max_examples=100, deadline=None, derandomize=True)
@given(block_cases())
def test_block_kernel_matches_flat_enumeration(case):
    spec, blocks = case
    env = EnvPopulations(spec.n_env, spec.twice_spin, blocks=blocks)
    flat = kronecker_weights(spec.n_env, spec.twice_spin, blocks)
    # blocks list their sites in random order; the flat vector is lexicographic
    assert np.allclose(env.weights, flat, rtol=1e-15, atol=0.0)
    assert not env.weights.flags.writeable
    ev = WitnessEvaluator(spec, env)
    ref, dref = enumerated_pairs(spec, flat, KERNEL_TIMES)
    energies = system_energies(spec)
    a, b = np.array(ev.pair_index).T
    rho0 = random_density(np.random.default_rng(1), ev.dim)
    for k, t in enumerate(KERNEL_TIMES):
        assert np.max(np.abs(ev.factors(t) - ref[k])) <= 1e-13
        rho_t = ev.reduced_state(rho0, t)
        expected = rho0[a, b] * ref[k] * np.exp(1j * t * (energies[b] - energies[a]))
        assert np.max(np.abs(rho_t[a, b] - expected)) <= 1e-13
    away = np.min(np.abs(ref), axis=1) > 1e-3
    log_det, dlog_det = ev.series(KERNEL_TIMES[away])
    mod2 = np.abs(ref[away]) ** 2
    assert log_det == pytest.approx(np.log(mod2).sum(axis=1), rel=1e-10, abs=1e-12)
    ratio = (np.conj(ref[away]) * dref[away]).real / mod2
    assert dlog_det == pytest.approx(2.0 * ratio.sum(axis=1), rel=1e-9, abs=1e-10)
    if not np.any(spec.cross_couplings):
        # nothing couples out: no dephasing at all
        assert np.all(ev.factors(1.3) == 1.0)
        series = detect_episodes(spec, env, 0.0, 4.0, 9)
        assert series.episodes == []
        assert not np.any(series.log_det) and not np.any(series.dlogdet_dt)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(kernel_cases())
def test_series_value_does_not_depend_on_the_batch(case):
    ev = WitnessEvaluator(*case)
    ts = np.linspace(0.0, 6.0, 25)
    log_det, dlog_det = ev.series(ts)
    single = [ev.series([t]) for t in ts]
    assert log_det.tobytes() == np.concatenate([s[0] for s in single]).tobytes()
    assert dlog_det.tobytes() == np.concatenate([s[1] for s in single]).tobytes()
    assert ev.series(ts[::-1])[1][::-1].tobytes() == dlog_det.tobytes()



@settings(max_examples=40, deadline=None, derandomize=True)
@given(kernel_cases())
def test_series_exact_at_t0(case):
    # A(0) = 1 for every class even when the float weights sum to 1 +- ulp
    log_det, dlog_det = WitnessEvaluator(*case).series([0.0])
    assert log_det[0] == 0.0 and dlog_det[0] == 0.0


@pytest.mark.parametrize("beta", [0.3, 1.0, 3.0])
def test_series_exact_at_t0_thermal_ring10(beta):
    # the shipped thermal preset read 3.2e-15, 2.5e-15, -1.1e-15 here
    doc = json.loads(resources.files("spindeph").joinpath("presets", "thermal_ring10.json").read_text())
    spec = model.ensemble_from_dict(doc["ensemble"])
    env = thermal.thermal_populations(spec, beta).populations
    log_det, dlog_det = WitnessEvaluator(spec, env).series([0.0])
    assert log_det[0] == 0.0 and dlog_det[0] == 0.0

def sequential_bisect(fun, lo, hi, f_lo):
    """One bracket, one scalar call per step: the reference for the batched
    refinement. A non-finite midpoint narrows the bracket from above."""
    want_neg = f_lo > 0.0
    while hi - lo > 1e-9 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        f_mid = fun(mid)
        if not np.isfinite(f_mid) or (f_mid < 0.0) == want_neg:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sequential_episodes(ev, times):
    """Episodes with one sequential bisection per bracket."""
    log_det, dlog_det = ev.series(times)
    positive = np.isfinite(log_det) & np.isfinite(dlog_det) & (dlog_det > 0.0)

    def bisect(lo, hi, f_lo):
        return sequential_bisect(ev.dlog_det, lo, hi, f_lo)

    episodes, start = [], None
    for k in range(len(times)):
        if positive[k] and start is None:
            start = times[0] if k == 0 else bisect(times[k - 1], times[k], dlog_det[k - 1])
        elif not positive[k] and start is not None:
            episodes.append((start, bisect(times[k - 1], times[k], dlog_det[k - 1])))
            start = None
    if start is not None:
        episodes.append((start, times[-1]))
    return episodes


def test_batched_bisection_matches_sequential_bitwise():
    spec = random_spec(np.random.default_rng(0), 8, 3)
    env = thermal.maximally_mixed(5, 1)
    series = detect_episodes(spec, env, 0.0, 5.0, 200)
    reference = sequential_episodes(WitnessEvaluator(spec, env), series.times)
    boundaries = [x for episode in series.episodes for x in episode if 0.0 < x < 5.0]
    assert len(boundaries) >= 40
    assert series.episodes == reference


def test_batched_bisection_non_finite_midpoint():
    # the first midpoint of (0, 1) is singular: both refinements keep the
    # lower half, where cos(7t) changes sign at pi/14
    def fun(t):
        return np.where(t == 0.5, np.nan, np.cos(7.0 * np.asarray(t)))

    lo, hi = np.array([0.0, 0.3]), np.array([1.0, 0.5])
    batched = _bisect_sign_changes(fun, lo, hi, fun(lo))
    reference = [sequential_bisect(lambda t: float(fun(t)), a, b, float(fun(a)))
                 for a, b in zip(lo, hi)]
    assert batched.tolist() == reference
    assert batched[0] == pytest.approx(np.pi / 14, abs=1e-9)


def test_pair_count_over_cap_raises():
    # 8 system configurations fit a cap of 10, their 28 pairs do not
    with pytest.raises(ResourceCapError, match="28 configuration pairs"):
        WitnessEvaluator(ring_spec(6, 3), thermal.maximally_mixed(3, 1), cap=10)


# ---------------------------------------------------------------------------
# reduced state


def test_reduced_state_t0_and_populations():
    rng = np.random.default_rng(2)
    spec = random_spec(rng, 6, 2)
    env = random_populations(rng, spec)
    rho0 = random_density(rng, 4)
    ev = WitnessEvaluator(spec, env)
    assert np.array_equal(ev.reduced_state(rho0, 0.0), rho0)
    for t in (0.9, 3.3):
        rho_t = ev.reduced_state(rho0, t)
        assert np.max(np.abs(np.diag(rho_t) - np.diag(rho0))) <= 1e-14
        assert np.max(np.abs(rho_t - rho_t.conj().T)) == 0.0


def test_reduced_state_p1_closed_form():
    spec = ring_spec(6, 1, fields=[0.8, 0, 0, 0, 0, 0])
    env = thermal.maximally_mixed(5, 1)
    rho0 = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    ev = WitnessEvaluator(spec, env)
    for t in (0.5, 1.9):
        rho_t = ev.reduced_state(rho0, t)
        expected = rho0[0, 1] * np.cos(t) ** 2 * np.exp(-1j * 0.8 * t)
        assert rho_t[0, 1] == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# Bloch parametrization


def test_bloch_vector_qubit_examples():
    assert np.array_equal(bloch_vector(np.eye(2) / 2), [0, 0, 0, 1])
    assert np.array_equal(bloch_vector(np.diag([1.0, 0.0])), [0, 0, 1, 1])


def test_bloch_round_trip_random():
    rng = np.random.default_rng(14)
    for dim in (2, 3, 4, 8):
        rho = random_density(rng, dim)
        back = bloch_to_density(bloch_vector(rho))
        assert np.max(np.abs(back - rho)) < 1e-14


def test_bloch_round_trip_general_hermitian():
    # the coordinate maps are linear and invertible on all Hermitian
    # matrices, not just states; the oracle relies on that extension
    rng = np.random.default_rng(15)
    for dim in (2, 4, 5):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = g + g.conj().T
        back = bloch_to_density(bloch_vector(herm))
        assert np.max(np.abs(back - herm)) < 1e-13


@st.composite
def hermitian_matrices(draw):
    dim = draw(st.integers(2, 8))
    entries = arrays(np.float64, (dim, dim), elements=st.floats(-10, 10))
    g = draw(entries) + 1j * draw(entries)
    return g + g.conj().T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hermitian_matrices())
def test_bloch_round_trip_property(herm):
    back = bloch_to_density(bloch_vector(herm))
    assert np.max(np.abs(back - herm)) <= 1e-13 * (1.0 + np.max(np.abs(herm)))


def test_bloch_evolution_matrix_identity_and_consistency():
    rng = np.random.default_rng(17)
    spec = random_spec(rng, 6, 2)
    env = random_populations(rng, spec)
    assert np.array_equal(bloch_evolution_matrix(spec, env, 0.0), np.eye(16))
    rho0 = random_density(rng, 4)
    for t in (0.4, 2.6):
        m = bloch_evolution_matrix(spec, env, t)
        lhs = m @ bloch_vector(rho0)
        rhs = bloch_vector(WitnessEvaluator(spec, env).reduced_state(rho0, t))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_bloch_map_determinant_matches_witness():
    from spindeph.linalg import lu_det

    rng = np.random.default_rng(44)
    for p in (1, 2, 3, 4):  # D = 2, 4, 8, 16
        spec = random_spec(rng, p + 3, p)
        env = random_populations(rng, spec)
        ev = WitnessEvaluator(spec, env)
        t = float(rng.uniform(0.2, 1.5))
        det = lu_det(bloch_evolution_matrix(spec, env, t))
        ld, _ = ev.series([t])
        assert det == pytest.approx(float(np.exp(ld[0])), rel=1e-10)


def test_torus_interior_sites_do_not_dephase():
    # only the boundary rows/columns of the block couple out, so a pair of
    # configurations differing only at the interior site is frozen
    from spindeph.model import torus_block_ensemble

    spec = torus_block_ensemble(side=4, block_side=3, j=1.0)
    assert np.all(spec.cross_couplings[4] == 0.0)  # block center has no outside neighbor
    # A_{s,s'} depends on the system only through (s - s') on the sites where
    # s and s' differ, so the block center and one edge site (block site 1,
    # one outside neighbor) with the true environment keep their factors;
    # this avoids the 2^9-configuration block
    keep = [4, 1] + list(range(9, 16))
    sub = EnsembleSpec(n_total=9, n_system=2, twice_spin=1,
                       couplings=spec.couplings[np.ix_(keep, keep)], fields=0.0)
    ev = WitnessEvaluator(sub, thermal.maximally_mixed(7, 1))
    ts = np.linspace(0, 6, 50)
    for other in (1, -1):
        assert np.all(pair_factor(ev, (1, other), (-1, other), ts) == 1.0)
    assert np.max(np.abs(pair_factor(ev, (1, 1), (1, -1), ts) - np.cos(ts))) < 1e-14


def test_trivial_map_for_basis_environment():
    # basis-state environment whose effective field on the system cancels,
    # no external field, no intra-system coupling: every phase and factor is
    # exactly 1 and the full map is the identity
    j = np.zeros((4, 4))
    j[0, 1] = j[1, 0] = 0.9
    j[0, 2] = j[2, 0] = 0.9
    spec = EnsembleSpec(n_total=4, n_system=1, twice_spin=1, couplings=j, fields=np.zeros(4))
    env = thermal.basis_state(SpinConfig((1, -1, -1)), 1)  # sites 1, 2 opposite
    for t in (0.7, 3.1):
        m = bloch_evolution_matrix(spec, env, t)
        assert np.max(np.abs(m - np.eye(4))) == 0.0


# ---------------------------------------------------------------------------
# witness


def test_witness_t0():
    spec = ring_spec(6, 1)
    env = thermal.maximally_mixed(5, 1)
    ev = WitnessEvaluator(spec, env)
    assert ev.log_det(0.0) == 0.0
    assert ev.dlog_det(0.0) == 0.0


def test_witness_nn_ring_p1():
    spec = ring_spec(7, 1)
    env = thermal.maximally_mixed(6, 1)
    ts = np.linspace(0, 2 * np.pi, 400)
    ld, _ = WitnessEvaluator(spec, env).series(ts)
    assert np.max(np.abs(ld - 4 * np.log(np.abs(np.cos(ts))))) < 1e-12


def test_witness_basis_state_env_is_markovian():
    spec = ring_spec(6, 2, fields=0.4)
    env = thermal.basis_state(SpinConfig((1, -1, 1, -1)), 1)
    ts = np.linspace(0, 6, 50)
    ld, dld = WitnessEvaluator(spec, env).series(ts)
    assert np.max(np.abs(ld)) < 1e-16
    assert np.max(np.abs(dld)) < 1e-16


def test_witness_derivative_vs_finite_difference_thermal():
    spec = ring_spec(10, 2, fields=1.0)
    env = thermal.thermal_populations(spec, beta=1.0).populations
    ev = WitnessEvaluator(spec, env)
    h = 1e-5
    for t in (0.35, 1.1, 2.4, 5.0):
        ld_p = ev.log_det(t + h)
        ld_m = ev.log_det(t - h)
        assert ev.dlog_det(t) == pytest.approx((ld_p - ld_m) / (2 * h), abs=1e-8)


def test_witness_field_independence_bitwise():
    rng = np.random.default_rng(4)
    base = random_spec(rng, 6, 2)
    env = random_populations(rng, base)
    ts = np.linspace(0, 5, 200)
    ld0, dld0 = WitnessEvaluator(base, env).series(ts)
    for _ in range(5):
        spec2 = EnsembleSpec(
            n_total=6, n_system=2, twice_spin=1,
            couplings=base.couplings, fields=rng.uniform(-3, 3, size=6),
        )
        ld1, dld1 = WitnessEvaluator(spec2, env).series(ts)
        assert ld0.tobytes() == ld1.tobytes()
        assert dld0.tobytes() == dld1.tobytes()


def test_witness_intra_block_coupling_independence_bitwise():
    rng = np.random.default_rng(9)
    base = random_spec(rng, 6, 2)
    env = random_populations(rng, base)
    ts = np.linspace(0, 5, 200)
    ld0, _ = WitnessEvaluator(base, env).series(ts)
    for _ in range(5):
        j = np.array(base.couplings)
        # scramble system-system and environment-environment entries only
        block = rng.uniform(-2, 2, size=(2, 2))
        j[:2, :2] = np.triu(block, 1) + np.triu(block, 1).T
        envblock = rng.uniform(-2, 2, size=(4, 4))
        j[2:, 2:] = np.triu(envblock, 1) + np.triu(envblock, 1).T
        spec2 = EnsembleSpec(n_total=6, n_system=2, twice_spin=1,
                             couplings=j, fields=base.fields)
        ld1, _ = WitnessEvaluator(spec2, env).series(ts)
        assert ld0.tobytes() == ld1.tobytes()


def test_witness_env_coherence_independence_bitwise():
    rng = np.random.default_rng(19)
    spec = random_spec(rng, 5, 1)
    w = rng.uniform(0.05, 1.0, size=spec.dim_env)
    w /= w.sum()
    rho_env = np.diag(w).astype(complex)
    g = rng.normal(size=rho_env.shape) + 1j * rng.normal(size=rho_env.shape)
    coherent = rho_env + 0.05 * (g + g.conj().T)
    np.fill_diagonal(coherent, w)
    ts = np.linspace(0, 4, 100)
    pop_a = populations_from_density(rho_env, spec.n_env, 1)
    pop_b = populations_from_density(coherent, spec.n_env, 1)
    ld_a, _ = WitnessEvaluator(spec, pop_a).series(ts)
    ld_b, _ = WitnessEvaluator(spec, pop_b).series(ts)
    assert ld_a.tobytes() == ld_b.tobytes()


def test_witness_det_range_and_spin_one():
    rng = np.random.default_rng(30)
    spec = EnsembleSpec(
        n_total=3, n_system=1, twice_spin=2,
        couplings=model.build_coupling(NearestNeighborRing1D(j=0.7), 3),
        fields=rng.uniform(-1, 1, 3),
    )
    env = thermal.maximally_mixed(2, 2)
    ts = np.linspace(0, 8, 300)
    ld, _ = WitnessEvaluator(spec, env).series(ts)
    det = np.exp(ld)
    assert np.all(det <= 1.0 + 1e-12)
    assert np.all(det >= 0.0)


# ---------------------------------------------------------------------------
# episodes


def test_episodes_cos4():
    # det = cos^4(t): episodes are exactly ((2k+1) pi/2, (k+1) pi)
    spec = ring_spec(6, 1)
    env = thermal.maximally_mixed(5, 1)
    series = detect_episodes(spec, env, 0.0, 2 * np.pi, 2000)
    assert len(series.episodes) == 2
    expected = [(np.pi / 2, np.pi), (3 * np.pi / 2, 2 * np.pi)]
    for (a, b), (ea, eb) in zip(series.episodes, expected):
        assert a == pytest.approx(ea, abs=1e-7)
        assert b == pytest.approx(eb, abs=1e-7)
    # interval sanity: disjoint, inside the grid, det positive inside
    assert series.in_episode.any()
    assert not series.in_episode[0]


def test_episodes_none_for_basis_env():
    spec = ring_spec(6, 2)
    env = thermal.basis_state(SpinConfig((1, 1, -1, 1)), 1)
    series = detect_episodes(spec, env, 0.0, 6.0, 500)
    assert series.episodes == []
    assert np.all(series.det == 1.0)


def test_detect_episodes_validation():
    spec = ring_spec(6, 1)
    env = thermal.maximally_mixed(5, 1)
    with pytest.raises(ValueError):
        detect_episodes(spec, env, 1.0, 1.0, 100)
    with pytest.raises(ValueError):
        detect_episodes(spec, env, 0.0, 1.0, 1)


def test_env_populations_validation():
    with pytest.raises(ValueError):
        EnvPopulations(n_sites=2, twice_spin=1, weights=np.array([0.5, 0.5, 0.1, -0.1]))
    with pytest.raises(ValueError):
        EnvPopulations(n_sites=2, twice_spin=1, weights=np.full(4, 0.3))
    half = np.full(2, 0.5)
    for blocks in ([((0,), half)], [((0,), half), ((0,), half)], [((0, 1), half)]):
        with pytest.raises(ValueError):
            EnvPopulations(n_sites=2, twice_spin=1, blocks=blocks)
    with pytest.raises(ValueError):
        EnvPopulations(n_sites=1, twice_spin=1)
