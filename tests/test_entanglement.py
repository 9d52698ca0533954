import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindeph import entanglement as ent
from spindeph import thermal
from spindeph.engine import EnvPopulations, WitnessEvaluator
from spindeph.linalg import hermitian_eigenvalues
from spindeph.model import (
    EnsembleSpec,
    NearestNeighborRing1D,
    ResourceCapError,
    ensemble_from_model,
)


def ring(n_total, n_system, fields=0.0):
    return ensemble_from_model(NearestNeighborRing1D(j=1.0), n_total, n_system, fields=fields)


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


BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def test_evolve_global_t0_and_diagonal_stationary():
    rng = np.random.default_rng(1)
    spec = random_spec(rng, 4, 2)
    rho_s = random_density(rng, 4)
    rho_e = random_density(rng, 4)
    assert np.array_equal(ent.evolve_global(spec, rho_s, rho_e, 0.0), np.kron(rho_s, rho_e))
    diag_s = np.diag(np.diag(rho_s))
    diag_e = np.diag(np.diag(rho_e))
    out = ent.evolve_global(spec, diag_s, diag_e, 2.7)
    # stationary up to |e^{-iEt}|^2 = 1 +- eps roundoff on the diagonal
    assert np.max(np.abs(out - np.kron(diag_s, diag_e))) < 1e-15


def test_evolve_global_preserves_spectrum():
    rng = np.random.default_rng(2)
    spec = random_spec(rng, 5, 2)
    rho_s = random_density(rng, 4)
    rho_e = random_density(rng, 8)
    before = hermitian_eigenvalues(np.kron(rho_s, rho_e))
    after = hermitian_eigenvalues(ent.evolve_global(spec, rho_s, rho_e, 1.9))
    assert np.max(np.abs(before - after)) < 1e-10


def test_evolve_global_cap():
    # 2^11 global configurations, over the dense cap of 1024
    spec = ring(11, 2)
    with pytest.raises(ResourceCapError, match="2048"):
        ent.evolve_global(spec, np.eye(4) / 4, np.eye(512) / 512, 0.5)


def test_partial_trace():
    rng = np.random.default_rng(3)
    a = random_density(rng, 3)
    b = random_density(rng, 4)
    out = ent.partial_trace_env(np.kron(a, b), (3, 4))
    assert np.max(np.abs(out - a)) < 1e-14
    big = random_density(rng, 12)
    assert np.trace(ent.partial_trace_env(big, (3, 4))) == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(ent.partial_trace_env(np.eye(12) / 12, (3, 4)) - np.eye(3) / 3)) < 1e-15


def test_partial_transpose():
    rng = np.random.default_rng(4)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    prod = np.kron(a, b)
    pt = ent.partial_transpose_system(prod, (2, 3))
    assert np.max(np.abs(pt - np.kron(a.T, b))) < 1e-15
    # involution
    big = random_density(rng, 6)
    twice = ent.partial_transpose_system(ent.partial_transpose_system(big, (2, 3)), (2, 3))
    assert np.array_equal(twice, big)
    # hermiticity preserved
    pt2 = ent.partial_transpose_system(big, (2, 3))
    assert np.max(np.abs(pt2 - pt2.conj().T)) < 1e-15


def test_negativity_bell():
    assert ent.negativity(BELL, (2, 2)) == pytest.approx(0.5, abs=1e-10)
    # bell tensor anything keeps the -1/2 minimal PT eigenvalue scaled
    rng = np.random.default_rng(5)
    extra = random_density(rng, 2)
    full = np.kron(BELL, extra)
    vals = hermitian_eigenvalues(ent.partial_transpose_system(full, (2, 4)))
    assert vals[0] == pytest.approx(-0.5 * hermitian_eigenvalues(extra)[-1], abs=1e-10)


def test_negativity_pure_schmidt_vs_dense():
    rng = np.random.default_rng(6)
    for d_s, d_e in ((2, 4), (4, 4), (4, 16)):
        psi = rng.normal(size=d_s * d_e) + 1j * rng.normal(size=d_s * d_e)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        fast = ent.negativity(rho, (d_s, d_e))
        eigs = hermitian_eigenvalues(ent.partial_transpose_system(rho, (d_s, d_e)))
        dense = (np.sum(np.abs(eigs)) - 1) / 2
        assert fast == pytest.approx(dense, abs=1e-12)


def random_hermitian(rng, dim):
    """Hermitian, unit Frobenius norm, in general neither PSD nor diagonal."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g + g.conj().T
    return h / np.linalg.norm(h)


def random_pure(rng, dim):
    """Rank-one projector on a vector with random moduli and random phases."""
    psi = rng.uniform(0.2, 1.0, dim) * np.exp(2j * np.pi * rng.random(dim))
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def dense_reference(spec, rho_s, rho_e, t):
    """(negativity, min eigenvalue, trace norm, Schmidt weights) from the global matrix."""
    dims = (spec.dim_system, spec.dim_env)
    rho = ent.evolve_global(spec, rho_s, rho_e, t)
    eigs = np.linalg.eigvalsh(ent.partial_transpose_system(rho, dims))
    tnorm = float(np.abs(eigs).sum())
    # for a pure global state the reduced state of the smaller side has the
    # squared Schmidt coefficients as its eigenvalues
    r = rho.reshape(dims * 2)
    reduced = np.einsum("ikjk->ij", r) if dims[0] <= dims[1] else np.einsum("kikj->ij", r)
    weights = np.linalg.eigvalsh(reduced)
    return (tnorm - 1.0) / 2.0, float(eigs[0]), tnorm, weights


def _assert_matches_dense_reference(spec, rho_s, rho_e, out, times):
    for k, t in enumerate(times):
        neg, min_eig, tnorm, _ = dense_reference(spec, rho_s, rho_e, t)
        assert abs(out.negativity[k] - neg) <= 1e-12
        assert abs(out.min_eigenvalue[k] - min_eig) <= 1e-12
        assert abs(out.trace_norm[k] - tnorm) <= 1e-12


def test_negativity_block_path_vs_dense():
    # a diagonal rho_E leaves blocks w_k D_k rho_S D_k^H: the factor spectra
    # path, for a non-PSD rho_S and weights of both signs
    rng = np.random.default_rng(7)
    spec = random_spec(rng, 5, 2)
    rho_s = random_hermitian(rng, spec.dim_system)
    rho_e = np.diag(rng.normal(size=spec.dim_env)).astype(complex)
    ts = np.array([0.0, 0.7, 2.9])
    out = ent.global_negativity_series(spec, rho_s, rho_e, ts)
    assert out.path == "factor_spectra"
    _assert_matches_dense_reference(spec, rho_s, rho_e, out, ts)


def test_diagonal_environment_stays_separable():
    rng = np.random.default_rng(8)
    for _ in range(6):
        n_total = int(rng.integers(4, 8))
        n_system = int(rng.integers(1, 4))
        spec = random_spec(rng, n_total, n_system)
        rho_s = random_density(rng, spec.dim_system)
        w = rng.dirichlet(np.ones(spec.dim_env))
        rho_e = np.diag(w).astype(complex)
        out = ent.global_negativity_series(spec, rho_s, rho_e, rng.uniform(0, 6, size=3))
        assert out.path == "factor_spectra"
        assert np.all(out.negativity < 1e-10)
        # and the dense path agrees that nothing entangles
        g = ent.evolve_global(spec, rho_s, rho_e, 1.3)
        assert ent.negativity(g, (spec.dim_system, spec.dim_env)) < 1e-10


@st.composite
def product_states(draw):
    """Random couplings and fields, spin 1/2 or 1, and initial factors of one
    of six kinds, each with the path it must take."""
    twice_spin = draw(st.sampled_from([1, 2]))
    n_total = draw(st.integers(2, 5 if twice_spin == 1 else 3))
    n_system = draw(st.integers(1, n_total - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    j = rng.uniform(-1.0, 1.0, (n_total, n_total))
    j = np.triu(j, 1) + np.triu(j, 1).T
    spec = EnsembleSpec(n_total=n_total, n_system=n_system, twice_spin=twice_spin,
                        couplings=j, fields=rng.uniform(-1.0, 1.0, n_total))
    d_s, d_e = spec.dim_system, spec.dim_env
    kind = draw(st.sampled_from(
        ["pure_pure", "diag_system", "diag_env", "diag_pure", "pure_diag", "mixed_pure"]))
    if kind == "pure_pure":
        factors, path = (random_pure(rng, d_s), random_pure(rng, d_e)), "schmidt"
    elif kind == "diag_system":
        factors, path = (np.diag(rng.normal(size=d_s)), random_hermitian(rng, d_e)), "factor_spectra"
    elif kind == "diag_env":
        factors, path = (random_hermitian(rng, d_s), np.diag(rng.normal(size=d_e))), "factor_spectra"
    elif kind == "diag_pure":
        factors, path = (np.diag(rng.normal(size=d_s)), random_pure(rng, d_e)), "factor_spectra"
    elif kind == "pure_diag":
        factors, path = (random_pure(rng, d_s), np.diag(rng.normal(size=d_e))), "factor_spectra"
    else:
        factors, path = (random_density(rng, d_s), random_pure(rng, d_e)), "dense"
    times = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
    return spec, factors, path, np.array(times)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(product_states())
def test_global_negativity_series_matches_dense_reference(case):
    spec, (rho_s, rho_e), path, times = case
    out = ent.global_negativity_series(spec, rho_s, rho_e, times)
    assert out.path == path
    for k, t in enumerate(times):
        neg, min_eig, tnorm, weights = dense_reference(spec, rho_s, rho_e, t)
        tol = 1e-12
        if path == "schmidt" and weights.min() < 1e-4:
            # near a product state: Schmidt coefficients below 1e-7 of the
            # largest are dropped, each costing up to 2e-7 of the trace norm
            tol = 2e-7 * min(spec.dim_system, spec.dim_env)
        assert abs(out.negativity[k] - neg) <= tol
        assert abs(out.min_eigenvalue[k] - min_eig) <= tol
        assert abs(out.trace_norm[k] - tnorm) <= tol


_SITE_STATES = {
    "pure": random_pure,
    "diagonal": lambda rng, dim: np.diag(rng.dirichlet(np.ones(dim))).astype(complex),
    "general": random_density,
}


@st.composite
def site_product_states(draw, twice_spin, system_kind, env_kind):
    """Random couplings and fields, a random system matrix of the given kind
    and an environment given as one random state of the given kind per site."""
    n_total = draw(st.integers(2, 7 if twice_spin == 1 else 4))
    n_system = draw(st.integers(1, n_total - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    j = rng.uniform(-1.0, 1.0, (n_total, n_total))
    j = np.triu(j, 1) + np.triu(j, 1).T
    spec = EnsembleSpec(n_total=n_total, n_system=n_system, twice_spin=twice_spin,
                        couplings=j, fields=rng.uniform(-1.0, 1.0, n_total))
    rho_s = _SITE_STATES[system_kind](rng, spec.dim_system)
    sites = np.array([_SITE_STATES[env_kind](rng, twice_spin + 1) for _ in range(spec.n_env)])
    times = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3))
    return spec, rho_s, sites, np.array(times)


@pytest.mark.parametrize("twice_spin", [1, 2])
@pytest.mark.parametrize("system_kind, env_kind, path", [
    ("pure", "pure", "schmidt"),
    ("pure", "diagonal", "factor_spectra"),
    ("pure", "general", "dense"),
    ("general", "pure", "dense"),
    ("general", "diagonal", "factor_spectra"),
])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_site_product_environment_matches_its_dense_matrix(data, twice_spin, system_kind, env_kind, path):
    spec, rho_s, sites, times = data.draw(site_product_states(twice_spin, system_kind, env_kind))
    dense = functools.reduce(np.kron, sites)
    assert ent.global_negativity_path(rho_s, sites) == ent.global_negativity_path(rho_s, dense) == path
    structured = ent.global_negativity_series(spec, rho_s, sites, times)
    full = ent.global_negativity_series(spec, rho_s, dense, times)
    assert structured.path == full.path == path
    for k, t in enumerate(times):
        neg, min_eig, tnorm, weights = dense_reference(spec, rho_s, dense, t)
        tol = 1e-12
        if path == "schmidt" and weights.min() < 1e-4:
            tol = 2e-7 * min(spec.dim_system, spec.dim_env)  # dropped Schmidt coefficients
        for out in (structured, full):
            assert abs(out.negativity[k] - neg) <= tol
            assert abs(out.min_eigenvalue[k] - min_eig) <= tol
            assert abs(out.trace_norm[k] - tnorm) <= tol
        assert np.max(np.abs(np.array(structured[1:])[:, k] - np.array(full[1:])[:, k])) <= tol


def _counting_eigenvalues(monkeypatch):
    """Route numpy's Hermitian eigensolvers, with and without eigenvectors,
    through a counter; returns the call list. Every eigensolver call of
    entanglement reaches one of them once, through linalg or directly."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        def counted(a, solver=getattr(np.linalg, name)):
            calls.append(np.shape(a))
            return solver(a)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_factors_beyond_rounding_of_rank_one_take_the_eigensolver(monkeypatch):
    # a second eigenvalue of 1e-11 passes the Schmidt path's 1e-10 purity
    # test, and -psi psi^H has the shape of a rank-one factor but a
    # negative trace: neither may be read as {0, ..., 0, tr rho}
    rng = np.random.default_rng(21)
    spec = random_spec(rng, 6, 2)
    d_s, d_e = spec.dim_system, spec.dim_env
    phi = random_pure(rng, d_e)
    psi = np.linalg.eigh(phi)[1][:, 0]  # orthogonal to phi's vector
    near = phi + 1e-11 * np.outer(psi, psi.conj())
    times = np.array([0.0, 0.9, 2.4])
    diagonal = np.diag(rng.normal(size=d_s)).astype(complex)
    cases = [(diagonal, near), (diagonal, -phi),
             (-random_pure(rng, d_s), np.diag(rng.normal(size=d_e)))]
    calls = _counting_eigenvalues(monkeypatch)
    for rho_s, rho_e in cases:
        del calls[:]
        out = ent.global_negativity_series(spec, rho_s, rho_e, times)
        assert out.path == "factor_spectra" and len(calls) == 1
        _assert_matches_dense_reference(spec, rho_s, rho_e, out, times)


def test_diagonal_and_rank_one_factors_need_no_eigensolver(monkeypatch):
    rng = np.random.default_rng(22)
    spec = random_spec(rng, 7, 3)
    d_s, d_e = spec.dim_system, spec.dim_env
    times = np.array([0.0, 1.1, 3.7])
    rho_s = np.diag(rng.dirichlet(np.ones(d_s))).astype(complex)
    rho_e = random_pure(rng, d_e)
    expected = ent.global_negativity_series(spec, rho_s, rho_e, times)

    def refuse(a):
        raise AssertionError("eigensolver called")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", refuse)
        out = ent.global_negativity_series(spec, rho_s, rho_e, times)
    assert out.path == "factor_spectra"
    assert all(a.tobytes() == b.tobytes() for a, b in zip(out[1:], expected[1:]))
    assert np.all(out.min_eigenvalue == 0.0)
    _assert_matches_dense_reference(spec, rho_s, rho_e, out, times)
    # a general factor takes one eigensolver call for the whole grid
    calls = _counting_eigenvalues(monkeypatch)
    general = random_density(rng, d_e)
    out = ent.global_negativity_series(spec, rho_s, general, times)
    assert out.path == "factor_spectra" and calls == [(d_e, d_e)]
    _assert_matches_dense_reference(spec, rho_s, general, out, times)


def test_schmidt_path_takes_the_smaller_side(monkeypatch):
    # d_E = 4 < d_S = 16: the environment's reduced state is the Gram
    # matrix, so every eigenvalue stack is (..., d_E, d_E)
    rng = np.random.default_rng(23)
    spec = random_spec(rng, 6, 4)
    d_s, d_e = spec.dim_system, spec.dim_env
    rho_s, rho_e = random_pure(rng, d_s), random_pure(rng, d_e)
    times = np.linspace(0.0, 4.0, 9)
    calls = _counting_eigenvalues(monkeypatch)
    out = ent.global_negativity_series(spec, rho_s, rho_e, times)
    assert out.path == "schmidt" and calls
    assert all(shape[-2:] == (d_e, d_e) for shape in calls)
    assert sum(np.prod(shape[:-2]) for shape in calls) == times.size
    _assert_matches_dense_reference(spec, rho_s, rho_e, out, times)


def test_near_pure_factor_on_schmidt_path_is_read_as_its_reconstruction():
    # a second eigenvalue of 1e-11 on the smaller side passes the Schmidt
    # path's 1e-10 purity test; it must not reach the reduced state, where
    # its square root would read as a Schmidt coefficient of 3e-6 at t = 0
    rng = np.random.default_rng(24)
    times = np.array([0.0, 0.7, 2.3])
    for n_system in (2, 4):  # the system side is the smaller one, then the environment
        spec = random_spec(rng, 6, n_system)
        small = min(spec.dim_system, spec.dim_env)
        phi = random_pure(rng, small)
        psi = np.linalg.eigh(phi)[1][:, 0]  # orthogonal to phi's vector
        near = phi + 1e-11 * np.outer(psi, psi.conj())
        other = random_pure(rng, max(spec.dim_system, spec.dim_env))
        rho_s, rho_e = (near, other) if spec.dim_system == small else (other, near)
        out = ent.global_negativity_series(spec, rho_s, rho_e, times)
        assert out.path == "schmidt"
        for k, t in enumerate(times):
            neg, min_eig, tnorm, _ = dense_reference(spec, rho_s, rho_e, t)
            assert abs(out.negativity[k] - neg) <= 1e-10
            assert abs(out.min_eigenvalue[k] - min_eig) <= 1e-10
            assert abs(out.trace_norm[k] - tnorm) <= 1e-10
        assert abs(out.negativity[0]) <= 1e-11  # a product state


def test_schmidt_path_smaller_side_is_held_to_the_pair_cap():
    # 2^11 configurations on each side, given as one-site pure states: the
    # engine pairs up the smaller side's configurations and refuses 2048
    rng = np.random.default_rng(25)
    spec = random_spec(rng, 22, 11)
    sites = np.stack([random_pure(rng, 2) for _ in range(11)])
    assert ent.global_negativity_path(sites, sites) == "schmidt"
    with pytest.raises(ResourceCapError, match="2048 system configurations"):
        ent.global_negativity_series(spec, sites, sites, [0.0, 1.0])


def test_rayleigh_eigenvalues_keep_the_small_ones_to_the_entries_rounding():
    # near-rank-one Hermitian matrices, as near a product time: against the
    # exact eigenvalues of the double matrices, the refined ones err by
    # about eps |lambda| plus a fraction of eps ||g||, where the
    # eigensolver's noise is a few eps ||g|| on every eigenvalue
    import mpmath

    rng = np.random.default_rng(26)
    eps = np.finfo(float).eps
    for d in (2, 5, 8):
        stack = []
        for k in range(4):
            q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            lam = np.sort(10.0 ** rng.uniform(-15, -1, d))
            lam[-1] = 1.0
            lam[: k % 3] = 0.0
            g = (q * lam) @ q.conj().T
            stack.append(0.5 * (g + g.conj().T))
        refined = ent._rayleigh_eigenvalues(np.array(stack))
        for g, got in zip(stack, refined):
            with mpmath.workdps(40):
                m = mpmath.matrix([[mpmath.mpc(x.real, x.imag) for x in row] for row in g])
                exact = np.sort([float(mpmath.re(x)) for x in mpmath.eighe(m, eigvals_only=True)])
            assert np.all(np.abs(got - exact) <= eps * (4.0 * np.abs(exact) + 0.25))


def test_global_negativity_series_bounded_blocks_and_errors(monkeypatch):
    spec = ring(6, 2)
    psi_s = random_pure(np.random.default_rng(11), spec.dim_system)
    psi_e = random_pure(np.random.default_rng(12), spec.dim_env)
    ts = np.linspace(0.0, 3.0, 7)
    whole = ent.global_negativity_series(spec, psi_s, psi_e, ts)
    # blocks of one time give the same values as one block of all times
    monkeypatch.setattr(ent, "SCHMIDT_BLOCK", 1)
    one_by_one = ent.global_negativity_series(spec, psi_s, psi_e, ts)
    for a, b in zip(whole[1:], one_by_one[1:]):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError):
        ent.global_negativity_series(spec, psi_s + np.triu(np.ones((4, 4)), 1), psi_e, ts)
    with pytest.raises(ValueError):
        ent.global_negativity_series(spec, psi_s, psi_e[:4, :4], ts)


def test_coherent_environment_generates_entanglement():
    spec = ring(6, 2, fields=0.0)
    d_s, d_e = spec.dim_system, spec.dim_env
    psi = np.full(d_s, d_s**-0.5, dtype=complex)
    rho_s = np.outer(psi, psi)
    chi = np.full(d_e, d_e**-0.5, dtype=complex)
    rho_e = np.outer(chi, chi)
    vals = [ent.negativity(ent.evolve_global(spec, rho_s, rho_e, t), (d_s, d_e))
            for t in np.linspace(0.2, 3.0, 8)]
    assert max(vals) > 1e-3


def test_witness_blind_to_entanglement_generation():
    # same populations, coherences on/off: negativity changes, witness does not
    rng = np.random.default_rng(9)
    spec = ring(6, 2, fields=0.0)
    d_s, d_e = spec.dim_system, spec.dim_env
    psi = np.full(d_s, d_s**-0.5, dtype=complex)
    rho_s = np.outer(psi, psi)
    chi = np.full(d_e, d_e**-0.5, dtype=complex)
    rho_e_coherent = np.outer(chi, chi)
    rho_e_diag = np.diag(np.diag(rho_e_coherent))

    pops_a = EnvPopulations(spec.n_env, 1, weights=np.diag(rho_e_coherent).real)
    pops_b = EnvPopulations(spec.n_env, 1, weights=np.diag(rho_e_diag).real)
    ts = np.linspace(0, 5, 120)
    ld_a, _ = WitnessEvaluator(spec, pops_a).series(ts)
    ld_b, _ = WitnessEvaluator(spec, pops_b).series(ts)
    assert ld_a.tobytes() == ld_b.tobytes()

    t_probe = 1.1
    n_coh = ent.negativity(ent.evolve_global(spec, rho_s, rho_e_coherent, t_probe), (d_s, d_e))
    n_diag = ent.negativity(ent.evolve_global(spec, rho_s, rho_e_diag, t_probe), (d_s, d_e))
    assert n_coh > 1e-3
    assert n_diag < 1e-10


def test_system_internal_negativity_bell_start():
    spec = ring(6, 2, fields=0.0)
    env = thermal.maximally_mixed(4, 1)
    series = ent.system_negativity_series(spec, BELL, env, [0.0])
    assert series.path == "reduced-state"
    assert series.negativity[0] == pytest.approx(0.5, abs=1e-10)


def test_system_internal_negativity_size_independent():
    plus = np.full(2, 2**-0.5)
    psi = np.kron(plus, plus)
    rho0 = np.outer(psi, psi).astype(complex)
    ts = np.linspace(0, 2 * np.pi, 60)
    curves = []
    for n_total in (4, 6):
        spec = ring(n_total, 2, fields=0.0)
        env = thermal.maximally_mixed(n_total - 2, 1)
        curves.append(np.maximum(ent.system_negativity_series(spec, rho0, env, ts).negativity, 0.0))
    assert np.max(np.abs(curves[0] - curves[1])) < 1e-12


def test_system_negativity_series_matches_one_state_at_a_time(monkeypatch):
    # the stacked path (Hermiticity check, Schmidt shortcut for the pure
    # states, one partial-transpose solve for the mixed ones) gives the
    # bits of one negativity_details call per state, in blocks of any size
    rng = np.random.default_rng(12)
    spec = ring(6, 3, fields=0.3)
    env = thermal.maximally_mixed(3, 1)
    ts = np.linspace(0.0, 4.0, 23)
    ev = WitnessEvaluator(spec, env)
    plus = np.outer(np.full(8, 8**-0.5), np.full(8, 8**-0.5)).astype(complex)
    for rho0 in (plus, random_density(rng, 8)):
        for cut in (1, 2):
            dims = (2**cut, 2 ** (3 - cut))
            single = np.array([ent.negativity_details(ev.reduced_state(rho0, t), dims) for t in ts])
            for block in (ent.SCHMIDT_BLOCK, 64 * 5):
                monkeypatch.setattr(ent, "SCHMIDT_BLOCK", block)
                series = ent.system_negativity_series(spec, rho0, env, ts, cut_sites=cut)
                stacked = np.column_stack([series.negativity, series.min_eigenvalue, series.trace_norm])
                assert np.array_equal(stacked, single)
    # pure states (t = 0 of a pure start) and mixed ones in one stack
    states = np.array([ev.reduced_state(plus, t) for t in ts] + [random_density(rng, 8)])
    both = ent.negativity_details(states, (2, 4))
    assert np.array_equal(np.column_stack(both),
                          np.array([ent.negativity_details(r, (2, 4)) for r in states]))
    with pytest.raises(ValueError):
        ent.negativity_details(np.stack([states[0], np.triu(states[1])]), (2, 4))


def test_negativity_env_label_permutation_invariant():
    # permuting environment site labels permutes basis indices; for the
    # symmetric all-to-all model the outcome is unchanged
    from spindeph.model import InfiniteRange

    rng = np.random.default_rng(10)
    spec = ensemble_from_model(InfiniteRange(j=1.0), 5, 2)
    d_s, d_e = spec.dim_system, spec.dim_env
    rho_s = random_density(rng, d_s)
    chi = rng.normal(size=d_e) + 1j * rng.normal(size=d_e)
    chi /= np.linalg.norm(chi)
    rho_e = np.outer(chi, chi.conj())

    # swap environment sites 1 and 2 (of 3): permutation on 3-bit indices
    perm = np.arange(d_e)
    swapped = ((perm >> 2) & 1) * 4 + (perm & 1) * 2 + ((perm >> 1) & 1)
    rho_e_perm = rho_e[np.ix_(swapped, swapped)]
    t = 1.3
    n_a = ent.negativity(ent.evolve_global(spec, rho_s, rho_e, t), (d_s, d_e))
    n_b = ent.negativity(ent.evolve_global(spec, rho_s, rho_e_perm, t), (d_s, d_e))
    assert n_a == pytest.approx(n_b, abs=1e-11)
