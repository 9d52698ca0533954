from unittest import mock

import numpy as np
import pytest

from spindeph import engine, entanglement, oracle, thermal
from spindeph.engine import EnvPopulations, WitnessEvaluator, bloch_to_density, bloch_vector
from spindeph.entanglement import evolve_global, partial_trace_env
from spindeph.linalg import lu_det
from spindeph.model import EnsembleSpec, ensemble_from_model, NearestNeighborRing1D, total_energies

# (twice_spin, n_total, n_system) of random spin-1/2 and spin-1 ensembles
CASES = ((1, 5, 2), (1, 7, 3), (1, 6, 1), (2, 4, 2), (2, 3, 1))


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


def test_oracle_reduced_state_t0():
    rng = np.random.default_rng(1)
    spec = random_spec(rng, 5, 2)
    rho_s = random_density(rng, 4)
    rho_e = random_density(rng, 8)
    out = oracle.oracle_reduced_state(spec, rho_s, rho_e, 0.0)
    assert np.max(np.abs(out - rho_s)) < 1e-13


def test_engine_equals_oracle_diag_env():
    rng = np.random.default_rng(2)
    for _ in range(8):
        spec = random_spec(rng, int(rng.integers(3, 8)), 1)
        rho_s = random_density(rng, spec.dim_system)
        w = rng.dirichlet(np.ones(spec.dim_env))
        env = EnvPopulations(n_sites=spec.n_env, twice_spin=1, weights=w)
        ev = WitnessEvaluator(spec, env)
        for t in rng.uniform(0, 6, size=4):
            a = ev.reduced_state(rho_s, t)
            b = oracle.oracle_reduced_state(spec, rho_s, np.diag(w).astype(complex), t)
            assert np.max(np.abs(a - b)) < 1e-12


def test_engine_equals_oracle_spin_one():
    rng = np.random.default_rng(9)
    j = rng.uniform(-1, 1, size=(3, 3))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    spec = EnsembleSpec(n_total=3, n_system=1, twice_spin=2,
                        couplings=j, fields=rng.uniform(-1, 1, size=3))
    rho_s = random_density(rng, 3)
    w = rng.dirichlet(np.ones(9))
    env = EnvPopulations(n_sites=2, twice_spin=2, weights=w)
    ev = WitnessEvaluator(spec, env)
    for t in (0.4, 1.8, 3.3):
        a = ev.reduced_state(rho_s, t)
        b = oracle.oracle_reduced_state(spec, rho_s, np.diag(w).astype(complex), t)
        assert np.max(np.abs(a - b)) < 1e-12


def test_oracle_state_ignores_env_coherences():
    rng = np.random.default_rng(3)
    spec = random_spec(rng, 6, 2)
    rho_s = random_density(rng, 4)
    w = rng.dirichlet(np.ones(spec.dim_env))
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho_e = np.diag(w) + 0.02 * (g + g.conj().T)
    np.fill_diagonal(rho_e, w)
    for t in (0.7, 2.1):
        a = oracle.oracle_reduced_state(spec, rho_s, rho_e, t)
        b = oracle.oracle_reduced_state(spec, rho_s, np.diag(w).astype(complex), t)
        assert np.max(np.abs(a - b)) < 1e-12


def test_contracted_reduced_state_equals_dense_evolution():
    # a coherent environment: the dense path carries its off-diagonals
    # through the evolution, the contraction never reads them
    rng = np.random.default_rng(11)
    for twice_spin, n_total, n_system in CASES:
        spec = random_spec(rng, n_total, n_system, twice_spin)
        dims = (spec.dim_system, spec.dim_env)
        rho_s = random_density(rng, spec.dim_system)
        rho_e = random_density(rng, spec.dim_env)
        times = rng.uniform(0.0, 6.0, size=6)
        grid = oracle.oracle_reduced_state(spec, rho_s, rho_e, times)
        assert grid.shape == (times.size,) + rho_s.shape
        for t, state in zip(times, grid):
            dense = partial_trace_env(evolve_global(spec, rho_s, rho_e, t), dims)
            assert np.max(np.abs(state - dense)) <= 1e-13


def test_grid_call_equals_per_time_calls_bitwise(monkeypatch):
    # a small block budget, 64 entries and no minimum of times, splits the
    # grid into many stacks of times
    monkeypatch.setattr(engine, "SERIES_BLOCK", 64)
    monkeypatch.setattr(engine, "SERIES_MIN_TIMES", 1)
    rng = np.random.default_rng(12)
    for twice_spin, n_total, n_system in CASES:
        spec = random_spec(rng, n_total, n_system, twice_spin)
        rho_s = random_density(rng, spec.dim_system)
        rho_e = random_density(rng, spec.dim_env)
        times = rng.uniform(0.0, 6.0, size=9)
        with mock.patch.object(oracle, "_time_blocks", wraps=oracle._time_blocks) as cut:
            grid = oracle.oracle_reduced_state(spec, rho_s, rho_e, times)
        (call,) = cut.call_args_list
        entries = spec.dim_system * spec.dim_env
        assert call.args == (times.size, entries)
        assert len(list(oracle._time_blocks(*call.args))) == -(-times.size // max(1, 64 // entries)) > 1
        for t, state in zip(times, grid):
            single = oracle.oracle_reduced_state(spec, rho_s, rho_e, float(t))
            assert single.shape == rho_s.shape
            assert single.tobytes() == state.tobytes()


def dense_superoperator(spec, env, t):
    """Bloch evolution matrix, one dense global evolution per basis operator."""
    dim = spec.dim_system
    rho_e = np.diag(env.weights).astype(complex)
    columns = []
    for k in range(dim * dim):
        coords = np.zeros(dim * dim)
        coords[k] = 1.0
        rho_t = evolve_global(spec, bloch_to_density(coords), rho_e, t)
        columns.append(bloch_vector(partial_trace_env(rho_t, (dim, spec.dim_env))))
    return np.stack(columns, axis=1)


def test_superoperator_equals_column_by_column_dense_reconstruction():
    rng = np.random.default_rng(13)
    for twice_spin, n_total, n_system in CASES:
        spec = random_spec(rng, n_total, n_system, twice_spin)
        w = rng.dirichlet(np.ones(spec.dim_env))
        env = EnvPopulations(n_sites=spec.n_env, twice_spin=twice_spin, weights=w)
        for t in rng.uniform(0.0, 6.0, size=2):
            mat, det = oracle.oracle_superoperator(spec, env, float(t))
            reference = dense_superoperator(spec, env, float(t))
            assert np.max(np.abs(mat - reference)) <= 1e-13
            assert det == pytest.approx(lu_det(reference), abs=1e-12)


def test_superoperator_identity_at_t0():
    rng = np.random.default_rng(4)
    spec = random_spec(rng, 5, 2)
    w = rng.dirichlet(np.ones(spec.dim_env))
    env = EnvPopulations(n_sites=spec.n_env, twice_spin=1, weights=w)
    mat, det = oracle.oracle_superoperator(spec, env, 0.0)
    assert np.max(np.abs(mat - np.eye(16))) < 1e-13
    assert det == pytest.approx(1.0, abs=1e-12)


def test_superoperator_nn_ring_det():
    spec = ensemble_from_model(NearestNeighborRing1D(j=1.0), 6, 1)
    env = thermal.maximally_mixed(5, 1)
    for t in (0.3, 0.9, 2.5):
        _, det = oracle.oracle_superoperator(spec, env, t)
        assert det == pytest.approx(np.cos(t) ** 4, abs=1e-10)


def test_superoperator_block_structure_and_dual_path():
    rng = np.random.default_rng(5)
    for _ in range(5):
        spec = random_spec(rng, int(rng.integers(4, 8)), 2)
        w = rng.dirichlet(np.ones(spec.dim_env))
        env = EnvPopulations(n_sites=spec.n_env, twice_spin=1, weights=w)
        ev = WitnessEvaluator(spec, env)
        t = float(rng.uniform(0.2, 2.0))
        mat, det = oracle.oracle_superoperator(spec, env, t)
        ld, _ = ev.series([t])
        if ld[0] > np.log(1e-6):
            assert det == pytest.approx(float(np.exp(ld[0])), rel=1e-10)
        mask = np.ones_like(mat, dtype=bool)
        npairs = len(ev.pair_index)
        for k in range(npairs):
            mask[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = False
        mask[2 * npairs :, 2 * npairs :] = False
        assert np.max(np.abs(mat[mask])) < 1e-12


def test_superoperator_columns_reproduce_states():
    # the linear extension must agree with direct evolution on actual states
    rng = np.random.default_rng(6)
    spec = random_spec(rng, 5, 2)
    w = rng.dirichlet(np.ones(spec.dim_env))
    env = EnvPopulations(n_sites=spec.n_env, twice_spin=1, weights=w)
    rho_s = random_density(rng, 4)
    t = 1.7
    mat, _ = oracle.oracle_superoperator(spec, env, t)
    direct = bloch_vector(oracle.oracle_reduced_state(spec, rho_s, np.diag(w).astype(complex), t))
    assert np.max(np.abs(mat @ bloch_vector(rho_s) - direct)) < 1e-12


def test_run_verification_passes():
    report = oracle.run_verification(seed=7, n_specs=6, time_points=5)
    assert report["passed"]
    assert report["checks"]["reduced_state_max_abs_dev"]["value"] < 1e-12


def test_run_verification_evolves_globally_once_per_ensemble(monkeypatch):
    # only the coherence probe builds a global matrix
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    real = entanglement.evolve_global
    monkeypatch.setattr(entanglement, "evolve_global", counting)
    report = oracle.run_verification(seed=7, n_specs=6, time_points=5)
    assert report["passed"]
    assert len(calls) == 6


def scaled_interaction(factor):
    """Oracle energies E_S + E_E + factor * E_SE: a wrong Hamiltonian for factor != 1."""
    from spindeph.model import config_matrix, env_energies, system_energies

    def table(spec):
        es = system_energies(spec)
        ee = env_energies(spec)
        vs = config_matrix(spec.n_system, spec.twice_spin).astype(float)
        ve = config_matrix(spec.n_env, spec.twice_spin).astype(float)
        cross = -2.0 * 0.25 * (vs @ spec.cross_couplings @ ve.T)
        out = (es[:, None] + ee[None, :] + factor * cross).reshape(-1)
        assert np.allclose(es[:, None] + ee[None, :] + cross, total_energies(spec).reshape(cross.shape))
        return out

    return table


def fault_checks(factor):
    report = oracle.run_verification(seed=7, n_specs=3, time_points=4,
                                     energy_override=scaled_interaction(factor))
    assert not report["passed"]
    return {name: check["value"] / check["tolerance"] for name, check in report["checks"].items()}


def test_run_verification_catches_interaction_sign_flip():
    # fault injection: oracle energies with the interaction sign flipped
    ratio = fault_checks(-1.0)
    assert ratio["reduced_state_max_abs_dev"] > 1e6
    assert ratio["env_coherence_independence_max_abs_dev"] > 1e6
    # the flip turns every A into its conjugate and leaves |A|, so det M
    # cannot see it: the determinant check agrees to rounding
    assert ratio["superoperator_det_max_rel_dev"] < 1e-3


def test_run_verification_catches_scaled_interaction():
    # a doubled interaction changes |A|: every oracle path fails, the
    # superoperator determinant and the dense coherence probe included
    ratio = fault_checks(2.0)
    for name in ("reduced_state_max_abs_dev", "env_coherence_independence_max_abs_dev",
                 "superoperator_det_max_rel_dev"):
        assert ratio[name] > 1e6, name


@pytest.mark.parametrize("block", [None, 256])
def test_run_verification_stacks_change_no_value(monkeypatch, block):
    # the stacked determinants and the lowest-eigenvalue path against
    # per-matrix reference paths: the same report but for the time taken;
    # a small block budget, `block` entries, cuts the traced phases into
    # several stacks and folds the stacks inside the loop
    from spindeph import linalg

    if block is not None:
        monkeypatch.setattr(engine, "SERIES_BLOCK", block // engine.SERIES_MIN_TIMES)
    runs = ((3, 12), (7, 6))
    with mock.patch.object(oracle, "_time_blocks", wraps=oracle._time_blocks) as cut, \
            mock.patch.object(oracle, "lu_det", wraps=oracle.lu_det) as dets:
        stacked = [oracle.run_verification(seed=seed, n_specs=n) for seed, n in runs]
    if block is not None:
        slices = [len(list(oracle._time_blocks(*call.args))) for call in cut.call_args_list]
        assert len(slices) == 18 and max(slices) > 1
        # one fold per system dimension at the end of each run, and more inside it
        assert dets.call_count > 6
    monkeypatch.setattr(oracle, "lu_det", lambda a: np.array([linalg.lu_det(m) for m in a]))
    monkeypatch.setattr(oracle, "hermitian_eigenvalues",
                        lambda a: np.array([linalg.hermitian_eigenvalues(m) for m in a]))
    single = [oracle.run_verification(seed=seed, n_specs=n) for seed, n in runs]
    for a, b in zip(stacked, single):
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert repr(a) == repr(b)


def one_at_a_time_det_time(ev, rng):
    """The determinant-time search one draw and one series call at a time."""
    for _ in range(40):
        t = float(rng.uniform(0.05, 3.0))
        log_det, _ = ev.series([t])
        if log_det[0] > np.log(1e-6):
            return t, float(log_det[0])
    return None


def reports_without_time(runs):
    reports = [oracle.run_verification(seed=seed, n_specs=n) for seed, n in runs]
    for report in reports:
        report.pop("elapsed_seconds")
    return [repr(report) for report in reports]


def test_chunked_det_search_takes_the_one_at_a_time_draws(monkeypatch):
    runs = ((2024, 50), (7, 50), (1, 50))
    chunked = reports_without_time(runs)
    monkeypatch.setattr(oracle, "_det_time", one_at_a_time_det_time)
    assert reports_without_time(runs) == chunked


def test_det_search_with_no_good_draw_advances_all_draws(monkeypatch):
    # log det reads -inf on every ensemble of odd size: the search must go
    # through all 40 draws, in chunks of 8, 16 and the 16 left, and
    # leave the generator where 40 single draws leave it
    chunks = []  # per failing ensemble, the sizes of its series calls

    class Failing(WitnessEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            if self.spec.n_total % 2:
                chunks.append([])

        def series(self, times):
            log_det, dlog_det = super().series(times)
            if self.spec.n_total % 2:
                chunks[-1].append(len(log_det))
                log_det = np.full_like(log_det, -np.inf)
            return log_det, dlog_det

    monkeypatch.setattr(oracle, "WitnessEvaluator", Failing)
    runs = ((2024, 50), (7, 50))
    chunked = reports_without_time(runs)
    assert len(chunks) > 10 and all(sizes == [8, 16, 16] for sizes in chunks)
    monkeypatch.setattr(oracle, "_det_time", one_at_a_time_det_time)
    assert reports_without_time(runs) == chunked


@pytest.mark.parametrize("dim", range(2, 9))
def test_bloch_tables_per_dimension(dim):
    basis = oracle._bloch_basis(dim)
    assert oracle._bloch_basis(dim) is basis
    for k in range(dim * dim):
        coords = np.zeros(dim * dim)
        coords[k] = 1.0
        assert basis[k].tobytes() == bloch_to_density(coords).tobytes()
    mask = oracle._off_block_mask(dim)
    expected = np.ones((dim * dim, dim * dim), dtype=bool)
    pairs = dim * (dim - 1) // 2
    for k in range(pairs):
        expected[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = False
    expected[2 * pairs :, 2 * pairs :] = False
    assert np.array_equal(mask, expected)
    for table in (basis, mask):
        assert not table.flags.writeable


def test_superoperator_bitwise_as_built_per_call():
    rng = np.random.default_rng(21)
    for twice_spin, n_total, n_system in CASES:
        spec = random_spec(rng, n_total, n_system, twice_spin)
        w = rng.dirichlet(np.ones(spec.dim_env))
        env = EnvPopulations(n_sites=spec.n_env, twice_spin=twice_spin, weights=w)
        t = float(rng.uniform(0.0, 6.0))
        dim = spec.dim_system
        traced = oracle._traced_phases(total_energies(spec), dim, env.weights, t)
        expected = bloch_vector(bloch_to_density(np.eye(dim * dim)) * traced).T
        mat, det = oracle.oracle_superoperator(spec, env, t)
        assert mat.tobytes() == expected.tobytes()
        assert det == lu_det(expected)
