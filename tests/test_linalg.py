import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # one bad member fails the stack, whatever the scale of the others
    stack = np.stack([1e6 * np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError):
        linalg.hermitian_eigenvalues(stack)


def test_zero_pivot_sign():
    # a diagonal entry of -0 met at the Sturm point x = +0 would give a -0
    # pivot, which counts as positive but divides like a negative one
    vals = linalg.hermitian_eigenvalues(np.array([[-0.0, 1.0], [1.0, 0.0]]))
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-15)
    vals = linalg.tridiagonal_eigen(np.array([[-0.0, -0.0, -0.0]]), np.array([[1.0, 1.0]]))
    assert np.sort(vals[0]) == pytest.approx([-np.sqrt(2.0), 0.0, np.sqrt(2.0)], abs=1e-15)


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


def _stack_cases(rng, n, members=3):
    """Stacks of n x n Hermitian matrices, one stack per kind of input."""
    def herm(*shape):
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return g + np.swapaxes(g.conj(), -1, -2)

    psi = rng.normal(size=(members, n, 1)) + 1j * rng.normal(size=(members, n, 1))
    grade = 10.0 ** -np.arange(float(n))
    graded = grade[:, None] * herm(members, n, n) * grade[None, :]
    # repeated eigenvalues: unitary conjugates of -1, 1/2, 2, -1, ... and
    # of a multiple of the identity
    q, _ = np.linalg.qr(herm(members, n, n))
    spectrum = np.tile([-1.0, 0.5, 2.0], n)[:n]
    repeated = (q * spectrum) @ np.swapaxes(q.conj(), -1, -2)
    identity = (q * -1.0) @ np.swapaxes(q.conj(), -1, -2)
    sparse = herm(members, n, n) * (rng.random(size=(members, n, n)) < 0.3)
    sparse = sparse + np.swapaxes(sparse.conj(), -1, -2)
    return {
        "random": herm(members, n, n),
        "rank_one": psi @ np.swapaxes(psi.conj(), -1, -2),
        "graded": graded,
        "repeated": 0.5 * (repeated + np.swapaxes(repeated.conj(), -1, -2)),
        "identity": 0.5 * (identity + np.swapaxes(identity.conj(), -1, -2)),
        "zero": np.zeros((members, n, n), dtype=complex),
        "diagonal": np.apply_along_axis(np.diag, -1, rng.normal(size=(members, n))),
        "sparse": sparse,
    }


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 200])
def test_stack_members_within_n_eps_norm(n):
    # accuracy contract for every member of a stack, against numpy's
    # eigvalsh (a test-only reference): n eps ||A||_2, plus the reference's
    # own error, a few eps ||A||_2, which dominates at small n (an
    # implicit-shift QL solver was 7.5 eps off at n = 3 on unitary
    # conjugates of -1)
    rng = np.random.default_rng(n)
    for kind, stack in _stack_cases(rng, n, members=2 if n > 100 else 4).items():
        vals = linalg.hermitian_eigenvalues(stack)
        assert vals.shape == stack.shape[:-1], kind
        for a, mine in zip(stack, vals):
            err = np.max(np.abs(mine - np.linalg.eigvalsh(a)))
            assert err <= (n + 8) * EPS * np.linalg.norm(a, 2), (kind, err)


def test_stack_shape_and_order():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    a = g + np.swapaxes(g.conj(), -1, -2)
    vals = linalg.hermitian_eigenvalues(a)
    assert vals.shape == (2, 3, 4)
    assert np.all(np.diff(vals, axis=-1) >= 0.0)
    d, e = linalg.householder_tridiagonalize(a)
    assert d.shape == (2, 3, 4) and e.shape == (2, 3, 3)


@st.composite
def hermitian_stacks(draw):
    """A stack of matrices of one size, each of its own kind and scale."""
    n = draw(st.integers(1, 9))
    members = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(members):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        kind = draw(st.sampled_from(["random", "sparse", "rank_one", "diagonal_dominant"]))
        if kind == "sparse":
            g *= rng.random(size=(n, n)) < 0.4
        elif kind == "rank_one":
            g = np.outer(g[:, 0], np.ones(n))
        elif kind == "diagonal_dominant":
            g = np.diag(rng.normal(size=n) * 100.0) + 1e-3 * g
        scale = 10.0 ** draw(st.integers(-6, 6))
        stack.append(scale * (g + g.conj().T))
    return np.array(stack)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(hermitian_stacks())
def test_stack_eigenvalues_bitwise_as_alone(stack):
    # each matrix gives the same bits alone, in a stack and in the
    # reversed stack: nothing of one member reaches another
    together = linalg.hermitian_eigenvalues(stack)
    reversed_ = linalg.hermitian_eigenvalues(stack[::-1])[::-1]
    for a, mine, rev in zip(stack, together, reversed_):
        alone = linalg.hermitian_eigenvalues(a)
        assert np.array_equal(_bits(alone), _bits(mine))
        assert np.array_equal(_bits(alone), _bits(rev))
