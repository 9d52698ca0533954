import numpy as np
import pytest

from spindeph import linalg


def random_hermitian(rng, n, complex_=True):
    if complex_:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    else:
        g = rng.normal(size=(n, n)).astype(complex)
    return g + g.conj().T


def test_identity_and_pauli():
    assert np.array_equal(linalg.hermitian_eigenvalues(np.eye(4)), np.ones(4))
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    vals = linalg.hermitian_eigenvalues(pauli_x)
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-15)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


EPS = np.finfo(float).eps


def test_tridiagonalization_is_similarity():
    # the real tridiagonal keeps the trace, the Frobenius norm and the
    # spectrum of the complex Hermitian input
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5, 9, 40):
        a = random_hermitian(rng, n)
        d, e = linalg.householder_tridiagonalize(a)
        tri = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        norm = np.linalg.norm(a, 2)
        assert abs(d.sum() - np.trace(a).real) <= n * EPS * norm
        assert abs(np.linalg.norm(tri) - np.linalg.norm(a)) <= n * EPS * np.linalg.norm(a)
        assert np.max(np.abs(np.linalg.eigvalsh(tri) - np.linalg.eigvalsh(a))) <= n * EPS * norm


def test_eigenvalues_against_numpy():
    rng = np.random.default_rng(2)
    for n in (2, 3, 8, 33, 64):
        a = random_hermitian(rng, n, complex_=bool(n % 2))
        mine = linalg.hermitian_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        assert np.max(np.abs(mine - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_eigenvalue_error_within_n_eps_norm():
    # accuracy contract: every eigenvalue within n eps ||A||_2 of numpy's
    # eigvalsh (a test-only reference), for full, graded and low-rank inputs
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
    graded = np.diag(10.0 ** -np.arange(64.0)) @ random_hermitian(rng, 64)
    cases = [random_hermitian(rng, 64), random_hermitian(rng, 200, complex_=False),
             0.5 * (graded + graded.conj().T), psi @ psi.conj().T]
    for a in cases:
        n = a.shape[0]
        err = np.max(np.abs(linalg.hermitian_eigenvalues(a) - np.linalg.eigvalsh(a)))
        assert err <= n * EPS * np.linalg.norm(a, 2)


def test_degenerate_and_rank_deficient():
    rng = np.random.default_rng(4)
    # highly degenerate spectrum with a big null space
    psi = rng.normal(size=40)
    psi /= np.linalg.norm(psi)
    a = np.outer(psi, psi)
    vals = linalg.hermitian_eigenvalues(a)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(vals[:-1])) < 1e-12


def test_trace_norm():
    a = np.diag([1.0, -2.0, 0.5])
    assert linalg.trace_norm(a) == pytest.approx(3.5, abs=1e-14)


def test_lu_det():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 12, 30):
        a = rng.normal(size=(n, n))
        assert linalg.lu_det(a) == pytest.approx(np.linalg.det(a), rel=1e-10)
    assert linalg.lu_det(np.zeros((3, 3))) == 0.0
    # permutation sign
    perm = np.eye(4)[[1, 0, 2, 3]]
    assert linalg.lu_det(perm) == pytest.approx(-1.0, abs=0)
