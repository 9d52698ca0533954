import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spindeph import model, thermal
from spindeph.dirichlet import ZERO_BLOCK, itp_newton
from spindeph.dirichlet import zeros as dirichlet_zeros
from spindeph.engine import (
    EnvPopulations,
    WitnessEvaluator,
    _grid_episodes,
    bloch_to_density,
    bloch_vector,
    detect_episodes,
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


def random_spec(rng, n_total, n_system, twice_spin=1):
    j = rng.uniform(-1, 1, size=(n_total, n_total))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return EnsembleSpec(n_total=n_total, n_system=n_system, twice_spin=twice_spin,
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
    # the derivative-only path
    assert ev.dlog_det(ts).tobytes() == dlog_det.tobytes()
    assert [ev.dlog_det(t) for t in ts] == dlog_det.tolist()



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


def assert_boundaries_close(episodes, reference):
    """Same count of episodes, every boundary within 1e-9 relative."""
    assert len(episodes) == len(reference)
    got, want = np.ravel(episodes), np.ravel(reference)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def gibbs_grid_case():
    """A Gibbs state at beta > 0, which takes the grid route, and its grid brackets."""
    spec = random_spec(np.random.default_rng(0), 8, 3)
    env = thermal.thermal_populations(spec, 1.0).populations
    series = detect_episodes(spec, env, 0.0, 15.0, 400)
    d = series.dlogdet_dt
    positive = np.isfinite(series.log_det) & np.isfinite(d) & (d > 0.0)
    k = np.flatnonzero(positive[1:] != positive[:-1]) + 1
    return spec, env, series, (series.times[k - 1], series.times[k], d[k - 1], d[k])


def test_grid_brackets_batched_equal_one_at_a_time_bitwise():
    spec, env, _, (lo, hi, f_lo, f_hi) = gibbs_grid_case()
    ev = WitnessEvaluator(spec, env)
    assert lo.size >= 40
    batched = itp_newton(ev.dlog_det, lo, hi, f_lo, f_hi)
    single = [itp_newton(ev.dlog_det, lo[i : i + 1], hi[i : i + 1], f_lo[i : i + 1], f_hi[i : i + 1])[0]
              for i in range(lo.size)]
    assert batched.tolist() == single


def test_grid_episodes_match_sequential_bisection():
    spec, env, series, _ = gibbs_grid_case()
    reference = sequential_episodes(WitnessEvaluator(spec, env), series.times)
    boundaries = [x for episode in series.episodes for x in episode if 0.0 < x < 15.0]
    assert len(boundaries) >= 40
    assert_boundaries_close(series.episodes, reference)


def counted_dlog_det(monkeypatch):
    """The list of array sizes WitnessEvaluator.dlog_det is called on, one per call."""
    calls = []
    dlog_det = WitnessEvaluator.dlog_det

    def counted(self, t):
        calls.append(np.size(t))
        return dlog_det(self, t)

    monkeypatch.setattr(WitnessEvaluator, "dlog_det", counted)
    return calls


def test_grid_route_rounds(monkeypatch):
    # bisection takes 25 rounds here
    spec, env, _, _ = gibbs_grid_case()
    calls = counted_dlog_det(monkeypatch)
    detect_episodes(spec, env, 0.0, 15.0, 400)
    assert 0 < len(calls) <= 12


def test_grid_refinement_narrows_past_non_finite_values():
    # fun is NaN from 0.4 on, a singular point at 0.4. The falling bracket
    # (0, 1) narrows from above past the NaN values to the root pi/14 of
    # cos(7t); the rising bracket (0.3, 0.5) has no root and closes on 0.4
    def fun(t):
        return np.where(t >= 0.4, np.nan, np.cos(7.0 * np.asarray(t)))

    lo, hi = np.array([0.0, 0.3]), np.array([1.0, 0.5])
    batched = itp_newton(fun, lo, hi, fun(lo), fun(hi))
    single = [itp_newton(fun, lo[i : i + 1], hi[i : i + 1], fun(lo[i : i + 1]), fun(hi[i : i + 1]))[0]
              for i in range(2)]
    assert batched.tolist() == single
    assert batched[0] == pytest.approx(np.pi / 14, abs=1e-9)
    assert batched[1] == pytest.approx(0.4, abs=1e-9)


def test_bisection_with_zeros_of_A_and_a_root_in_one_grid_interval():
    # A = cos(t) cos(1.001 t): the zeros pi/2.002 and pi/2 of A and the root
    # of the derivative between them fall in one grid interval, whose ends
    # read - and +. The grid route sees one rising edge there, refines it
    # to either zero and loses the episode between the first zero and the
    # root; the certified route finds both episodes
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 1.0
    j[0, 2] = j[2, 0] = 1.001
    spec = EnsembleSpec(n_total=3, n_system=1, twice_spin=1, couplings=j, fields=np.zeros(3))
    env = thermal.maximally_mixed(2, 1)
    series = detect_episodes(spec, env, 0.0, 3.0, 40)
    zeros = np.array([np.pi / 2.002, np.pi / 2])
    k = np.searchsorted(series.times, zeros)
    assert k[0] == k[1]
    assert series.dlogdet_dt[k[0] - 1] < 0.0 < series.dlogdet_dt[k[0]]
    ev = WitnessEvaluator(spec, env)
    (start, end), = _grid_episodes(ev, series.times, series.log_det, series.dlogdet_dt)
    assert np.min(np.abs(start - zeros)) <= 1e-9 and end == 3.0

    (a0, b0), (a1, b1) = series.episodes
    assert a0 == pytest.approx(zeros[0], rel=1e-15) and a1 == pytest.approx(zeros[1], rel=1e-15)
    assert a0 < b0 < a1
    assert ev.dlog_det(b0 - 1e-8) > 0.0 > ev.dlog_det(b0 + 1e-8)
    assert b1 == 3.0


def test_pair_count_over_cap_raises():
    # 2^11 system configurations fit the enumeration cap, their pairs do not
    with pytest.raises(ResourceCapError, match="2096128 configuration pairs"):
        WitnessEvaluator(ring_spec(12, 11), thermal.maximally_mixed(1, 1))


def test_flat_populations_cap_names_the_product_environment():
    with pytest.raises(ResourceCapError, match="2097152") as err:
        thermal.maximally_mixed(21, 1).weights
    assert "product environment ('mixed', 'basis', or 'thermal' at beta = 0)" in str(err.value)


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


def test_stacked_factors_and_reduced_states_equal_per_time_bitwise():
    # spin 1/2 and spin 1, a flat and a product environment, and more times
    # than one block of the kernel holds
    rng = np.random.default_rng(21)
    for twice_spin, n_total, n_system in ((1, 6, 2), (1, 5, 3), (2, 4, 2), (2, 3, 1)):
        spec = random_spec(rng, n_total, n_system, twice_spin)
        rho0 = random_density(rng, spec.dim_system)
        times = rng.uniform(0.0, 6.0, size=(2, 150))
        for env in (random_populations(rng, spec),
                    thermal.maximally_mixed(spec.n_env, twice_spin)):
            ev = WitnessEvaluator(spec, env)
            factors = ev.factors(times)
            states = ev.reduced_state(rho0, times)
            assert factors.shape == times.shape + (len(ev.pair_index),)
            assert states.shape == times.shape + rho0.shape
            for idx in np.ndindex(times.shape):
                assert factors[idx].tobytes() == ev.factors(times[idx]).tobytes()
                assert states[idx].tobytes() == ev.reduced_state(rho0, float(times[idx])).tobytes()


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


def test_stacked_bloch_maps_equal_per_matrix_bitwise():
    rng = np.random.default_rng(22)
    for dim in (2, 3, 4, 8, 9):
        g = rng.normal(size=(2, 5, dim, dim)) + 1j * rng.normal(size=(2, 5, dim, dim))
        herm = g + g.conj().swapaxes(-1, -2)
        coords = bloch_vector(herm)
        back = bloch_to_density(coords)
        assert coords.shape == (2, 5, dim * dim) and back.shape == herm.shape
        for idx in np.ndindex(2, 5):
            assert coords[idx].tobytes() == bloch_vector(herm[idx]).tobytes()
            assert back[idx].tobytes() == bloch_to_density(coords[idx]).tobytes()


def test_bloch_layout_built_once_and_read_only():
    from spindeph.engine import _bloch_layout

    layout = _bloch_layout(5)
    assert _bloch_layout(5) is layout
    assert not any(x.flags.writeable for x in layout)
    a, b, l, scale = layout
    assert np.array_equal(np.stack([a, b]), np.stack(np.triu_indices(5, k=1)))
    # one-dimensional coordinates: the trace alone
    assert bloch_to_density([0.7]) == pytest.approx(np.array([[0.7]]))


def test_bloch_map_determinant_matches_witness():
    from spindeph.oracle import oracle_superoperator

    rng = np.random.default_rng(44)
    for p in (1, 2, 3, 4):  # D = 2, 4, 8, 16
        spec = random_spec(rng, p + 3, p)
        env = random_populations(rng, spec)
        ev = WitnessEvaluator(spec, env)
        t = float(rng.uniform(0.2, 1.5))
        _, det = oracle_superoperator(spec, env, t)
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
    # exactly 1 and every state is left exactly as it is
    j = np.zeros((4, 4))
    j[0, 1] = j[1, 0] = 0.9
    j[0, 2] = j[2, 0] = 0.9
    spec = EnsembleSpec(n_total=4, n_system=1, twice_spin=1, couplings=j, fields=np.zeros(4))
    env = thermal.basis_state(SpinConfig((1, -1, -1)), 1)  # sites 1, 2 opposite
    ev = WitnessEvaluator(spec, env)
    rho = random_density(np.random.default_rng(23), 2)
    rho0 = 0.5 * (rho + rho.conj().T)  # Hermitian to the last bit
    for t in (0.7, 3.1):
        assert np.array_equal(ev.reduced_state(rho0, t), rho0)


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
    pop_a = EnvPopulations(spec.n_env, 1, weights=np.diag(rho_env).real)
    pop_b = EnvPopulations(spec.n_env, 1, weights=np.diag(coherent).real)
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


# ---------------------------------------------------------------------------
# certified episodes: every coupled site uniform


def seed5_spec():
    """N = 11, p = 3, normal couplings: 56 zeros of A in the window (0, 3]."""
    j = np.random.default_rng(5).normal(size=(11, 11))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return EnsembleSpec(n_total=11, n_system=3, twice_spin=1, couplings=j, fields=np.zeros(11))


def site_frequencies(spec):
    """Distinct nonzero |nu_j| over pairs a < b and sites j, with their counts."""
    cfg = config_matrix(spec.n_system, spec.twice_spin).astype(float)
    a, b = np.triu_indices(len(cfg), 1)
    nu = np.abs(0.5 * (cfg[a] - cfg[b]) @ spec.cross_couplings).ravel()
    return np.unique(nu[nu > 0.0], return_counts=True)


def test_certified_episodes_seed5_match_mpmath_for_any_grid():
    mpmath = pytest.importorskip("mpmath")
    spec, env = seed5_spec(), thermal.maximally_mixed(8, 1)
    runs = [detect_episodes(spec, env, 0.0, 3.0, points).episodes for points in (200, 2000, 20000)]
    assert runs[0] == runs[1] == runs[2]
    episodes = runs[0]
    assert len(episodes) == 56

    # 40-digit references from the same float nu: A = prod cos(nu t)
    nus, counts = site_frequencies(spec)
    with mpmath.workdps(40):
        rates = [(mpmath.mpf(float(v)), int(c)) for v, c in zip(nus, counts)]
        zeros = sorted(z for v, _ in rates for k in range(int(3.0 * float(v) / np.pi + 2.0))
                       for z in [(2 * k + 1) * mpmath.pi / (2 * v)])

        def dlog_det(t):
            return -2 * sum(c * v * mpmath.tan(v * t) for v, c in rates)

        inside = [z for z in zeros if z < 3]
        assert len(inside) == 56
        for (start, end), zero, following in zip(episodes, inside, zeros[1:]):
            assert abs(start - zero) <= 1e-9 * max(1, zero)
            if end == 3.0:
                assert dlog_det(mpmath.mpf(3)) > 0
                continue
            root = mpmath.findroot(dlog_det, (mpmath.mpf(end) - 1e-9, mpmath.mpf(end) + 1e-9))
            assert zero < root < following
            assert abs(end - root) <= 1e-9 * max(1, root)


@st.composite
def uniform_cases(draw):
    """Random couplings, spin 1/2, 1 or 3/2, uniform populations, any window."""
    twice_spin = draw(st.sampled_from([1, 2, 3]))
    n_system = draw(st.integers(1, 2))
    n_env = draw(st.integers(1, 3))
    n = n_system + n_env
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    j = rng.uniform(-1.5, 1.5, (n, n))
    j = np.triu(j, 1) + np.triu(j, 1).T
    spec = EnsembleSpec(n_total=n, n_system=n_system, twice_spin=twice_spin,
                        couplings=j, fields=np.zeros(n))
    if draw(st.booleans()):
        env = thermal.maximally_mixed(n_env, twice_spin)
    else:  # one flat block
        env = EnvPopulations(n_env, twice_spin, weights=np.full(spec.dim_env, 1.0 / spec.dim_env))
    t_start = draw(st.floats(-3.0, 3.0))
    return spec, env, t_start, t_start + draw(st.floats(0.2, 6.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(uniform_cases())
def test_certified_episodes_rise_and_are_complete(case):
    spec, env, t_start, t_stop = case
    ev = WitnessEvaluator(spec, env)
    episodes = detect_episodes(spec, env, t_start, t_stop, 50).episodes
    for k, (a, b) in enumerate(episodes):
        assert t_start <= a < b <= t_stop
        assert k == 0 or episodes[k - 1][1] <= a
        assert ev.dlog_det(0.5 * (a + b)) > 0.0
    # the grid route on a dense grid finds no episode outside the list: its
    # rising points lie in listed episodes, and its boundaries are listed
    # ones (it may miss an end and the next start in one grid interval)
    times = np.linspace(t_start, t_stop, 4001)
    log_det, dlog_det = ev.series(times)
    starts, ends = np.array(episodes + [(np.inf, np.inf)]).T
    rising = times[np.isfinite(log_det) & (dlog_det > 0.0)]
    last = np.searchsorted(starts, rising + 2e-9 * np.maximum(1.0, np.abs(rising))) - 1
    assert np.all(rising <= ends[last] + 2e-9 * np.maximum(1.0, np.abs(rising)))
    edges = np.concatenate([starts, ends])
    for edge in np.ravel(_grid_episodes(ev, times, log_det, dlog_det)):
        assert np.min(np.abs(edges - edge)) <= 2e-9 * max(1.0, abs(edge))


def test_certified_windows_start_and_end_inside_episodes():
    # det = cos^4(t): episodes ((2k+1) pi/2, (k+1) pi)
    spec, env = ring_spec(6, 1), thermal.maximally_mixed(5, 1)
    (a0, b0), (a1, b1) = detect_episodes(spec, env, 2.0, 5.5, 7).episodes
    assert a0 == 2.0 and b0 == pytest.approx(np.pi, rel=1e-9)
    assert a1 == pytest.approx(1.5 * np.pi, rel=1e-15) and b1 == 5.5
    assert detect_episodes(spec, env, 2.0, 3.0, 5).episodes == [(2.0, 3.0)]
    (a, b), = detect_episodes(spec, env, 2, 4, 5).episodes  # an integer window
    assert a == 2.0 and b == pytest.approx(np.pi, rel=1e-9)
    assert detect_episodes(spec, env, 3.2, 4.5, 5).episodes == []
    # just past an episode end the derivative is negative: no episode, although
    # the end's estimate may lie up to the tolerance past the true root
    assert detect_episodes(spec, env, np.pi + 1e-11, 4.0, 5).episodes == []
    # a window opening on a zero of A opens an episode there
    (a, b), = detect_episodes(spec, env, 0.5 * np.pi, 3.5, 5).episodes
    assert a == 0.5 * np.pi and b == pytest.approx(np.pi, rel=1e-9)


def test_certified_root_solve_rounds_and_evaluations(monkeypatch):
    spec, env = seed5_spec(), thermal.maximally_mixed(8, 1)
    calls = counted_dlog_det(monkeypatch)
    detect_episodes(spec, env, 0.0, 3.0, 200)
    # the grid route on this grid took 1,306 evaluations by bisection
    assert len(calls) <= 12
    assert sum(calls) <= 435


def test_zero_blocks_stay_bounded_on_long_windows():
    nu, mult = np.array([0.3, 1.0, np.sqrt(2.0)]), np.ones(3)
    blocks = list(dirichlet_zeros(nu, mult, 2, 0.0, 1e4))
    assert len(blocks) >= 8
    assert max(zeros.size for zeros, _ in blocks) <= ZERO_BLOCK + 8
    # each block is led by the last zero of the one before; together they
    # hold every zero (2k+1) pi / (2 nu) once
    for (before, _), (after, _) in zip(blocks, blocks[1:]):
        assert after[0] == before[-1]
    zeros = np.concatenate([blocks[0][0]] + [z[1:] for z, _ in blocks[1:]])
    expected = np.sort(np.concatenate([(2 * np.arange(-3, int(1e4 * v / np.pi) + 3) + 1) * np.pi / (2 * v)
                                       for v in nu]))
    inside = (expected > 0.0) & (expected < 1e4)
    assert np.all(np.diff(zeros) > 0.0)
    assert np.allclose(zeros[(zeros > 0.0) & (zeros < 1e4)], expected[inside], rtol=1e-14, atol=0.0)
    assert np.all(np.concatenate([r for _, r in blocks]) == 2.0)


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


def test_nu_classes_as_numpy_unique():
    # the evaluator groups pairs into nu classes as np.unique(axis=0) would
    # (a test-local reference): same classes, order, pair classes and counts
    from spindeph.engine import _row_classes

    rng = np.random.default_rng(31)
    zero = EnsembleSpec(n_total=6, n_system=3, twice_spin=1, couplings=np.zeros((6, 6)), fields=0.2)
    specs = [random_spec(rng, 7, 3), random_spec(rng, 5, 2, twice_spin=2), ring_spec(14, 5),
             ring_spec(9, 3), zero]
    for spec in specs:
        cfg = config_matrix(spec.n_system, spec.twice_spin).astype(float)
        a, b = np.triu_indices(len(cfg), k=1)
        nu = 0.5 * ((cfg[a] - cfg[b]) @ spec.cross_couplings)
        lead = nu[np.arange(len(nu)), np.argmax(nu != 0.0, axis=1)]
        nu[lead < 0.0] *= -1.0
        classes, inverse, counts = np.unique(nu + 0.0, axis=0, return_inverse=True,
                                             return_counts=True)
        mine = _row_classes(nu + 0.0)
        assert np.array_equal(mine[0], classes)
        assert np.array_equal(mine[1], inverse.ravel())
        assert np.array_equal(mine[2], counts)
        ev = WitnessEvaluator(spec, thermal.maximally_mixed(spec.n_env, spec.twice_spin))
        assert np.array_equal(ev._pair_class, inverse.ravel())
