import math

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


def lowest_eigenvalues(a):
    """The lowest eigenvalue of each matrix, as the oracle's positivity check takes it."""
    return linalg.hermitian_eigenvalues(a)[..., 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
@pytest.mark.parametrize("solver", [linalg.hermitian_eigenvalues, lowest_eigenvalues])
def test_rejects_non_finite_entries(bad, where, solver):
    # NaN passes a tolerance test (defect > tol is False), so it is checked apart
    a = np.diag([2.0, 1.0]).astype(complex)
    a[where] = bad
    a[where[::-1]] = np.conj(bad)
    with pytest.raises(ValueError, match="non-finite"):
        solver(a)
    stack = np.stack([np.eye(2, dtype=complex), a, np.eye(2, dtype=complex)])
    with pytest.raises(ValueError, match="non-finite"):
        solver(stack)
    assert np.array_equal(solver(stack[[0, 2]]), solver(np.eye(2)[None].repeat(2, axis=0)))


def test_zero_pivot_sign():
    # a diagonal entry of -0 is an entry like any other
    vals = linalg.hermitian_eigenvalues(np.array([[-0.0, 1.0], [1.0, 0.0]]))
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-15)


EPS = np.finfo(float).eps
MPMATH_MAX_N = 24  # 30-digit mpmath.eighe takes about 0.13 s at n = 24


def _mpmath_error(a, vals):
    """Largest |vals - eigenvalues of a|, against 30-digit mpmath.eighe.

    The reference is the exact Hermitian part (A + A^H)/2 of the input.
    """
    import mpmath

    with mpmath.workdps(30):
        m = mpmath.matrix(a.tolist())
        ref = sorted(mpmath.eighe((m + m.H) / 2, eigvals_only=True))
        return float(max(abs(mpmath.mpf(float(v)) - r) for v, r in zip(vals, ref)))


def _assert_trace_and_frobenius(a, vals):
    """Checks that need no eigensolver, for n past MPMATH_MAX_N.

    sum l = tr A within n eps ||A||_2, and sum l^2 = ||A||_F^2 within
    n eps ||A||_2 ||A||_F: a backward error E moves them by tr E and about
    2 Re tr(A E). The sums are taken exactly rounded (math.fsum).
    """
    n = a.shape[-1]
    norm = np.linalg.norm(a, 2)
    frobenius2 = math.fsum((a.real**2 + a.imag**2).ravel())
    trace_err = abs(math.fsum(vals) - math.fsum(a.diagonal().real))
    assert trace_err <= n * EPS * norm, trace_err / (EPS * norm)
    square_err = abs(math.fsum(vals**2) - frobenius2)
    assert square_err <= n * EPS * norm * math.sqrt(frobenius2), square_err / (EPS * norm)


def test_eigenvalues_against_mpmath():
    rng = np.random.default_rng(2)
    for n in (2, 3, 8, 33, 64):
        a = random_hermitian(rng, n, complex_=bool(n % 2))
        mine = linalg.hermitian_eigenvalues(a)
        if n <= MPMATH_MAX_N:
            assert _mpmath_error(a, mine) < 1e-11 * max(1.0, np.max(np.abs(mine)))
        else:
            _assert_trace_and_frobenius(a, mine)


def _contract_cases(rng, n):
    """Full complex, full real, graded and rank-three n x n Hermitian inputs."""
    psi = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    graded = np.diag(10.0 ** -np.arange(float(n))) @ random_hermitian(rng, n)
    return [random_hermitian(rng, n), random_hermitian(rng, n, complex_=False),
            0.5 * (graded + graded.conj().T), psi @ psi.conj().T]


def test_eigenvalue_error_within_n_eps_norm():
    # accuracy contract: every eigenvalue within n eps ||A||_2 of 30-digit
    # mpmath for full, graded and low-rank inputs; past MPMATH_MAX_N the
    # trace and the Frobenius norm, each within n eps
    rng = np.random.default_rng(3)
    for a in _contract_cases(rng, MPMATH_MAX_N):
        err = _mpmath_error(a, linalg.hermitian_eigenvalues(a))
        assert err <= MPMATH_MAX_N * EPS * np.linalg.norm(a, 2), err
    for n in (64, 200):
        for a in _contract_cases(rng, n):
            _assert_trace_and_frobenius(a, linalg.hermitian_eigenvalues(a))


def test_degenerate_and_rank_deficient():
    rng = np.random.default_rng(4)
    # highly degenerate spectrum with a big null space
    psi = rng.normal(size=40)
    psi /= np.linalg.norm(psi)
    a = np.outer(psi, psi)
    vals = linalg.hermitian_eigenvalues(a)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(vals[:-1])) < 1e-12


def test_two_by_two_blocks_against_mpmath():
    # each eigenvalue within 10 eps ||A||_2 of the 40-digit roots, also at
    # scales 1e+-150 and where the coupling squared underflows
    import mpmath

    cases = [
        ([1.0, 1.0], 0.5),  # equal diagonals
        ([2.0, -1.0], 0.0),  # no coupling: two 1 x 1 blocks
        ([1.0, 1e-16], 1e-8),  # graded
        ([1e-8, 1.0], 3e-5j),
        ([3.0, -7.0], 2.0 - 1.0j),
    ]
    cases += [([a * s, c * s], f * s) for (a, c), f in cases for s in (1e150, 1e-150)]
    cases += [([0.25, 0.25], 1e-13), ([-1.0, -1.0 + 2.0**-52], 1e-300), ([2.5e-151, 2.5e-151], 1e-163)]
    stack = np.array([[[a, f], [np.conj(f), c]] for (a, c), f in cases])
    vals = linalg.hermitian_eigenvalues(stack)
    with mpmath.workdps(40):
        for a, mine in zip(stack, vals):
            p, q, f = mpmath.mpf(a[0, 0].real), mpmath.mpf(a[1, 1].real), mpmath.mpc(a[1, 0])
            radius = mpmath.sqrt(((p - q) / 2) ** 2 + abs(f) ** 2)
            ref = [(p + q) / 2 - radius, (p + q) / 2 + radius]
            norm = max(abs(r) for r in ref)
            err = max(abs(mpmath.mpf(float(m)) - r) for m, r in zip(mine, ref))
            assert err <= 10 * EPS * norm, (a, err / norm)


def _assert_det_accurate(a, det):
    """det against the determinant of a from 30-digit mpmath.

    LU's backward error moves the determinant of these inputs by about
    n^2 eps relative, and numpy forms it as exp(sum of log|u_ii|), whose
    rounding adds about n eps |log|det||. A determinant below the double
    range may read 0.0. A matrix with a zero column must give exactly 0.0.
    """
    import mpmath

    if not np.all(np.any(a != 0.0, axis=0)):
        assert _bits(det) == _bits(0.0)
        return
    n = len(a)
    with mpmath.workdps(30):
        ref = mpmath.det(mpmath.matrix(a.tolist()))
        bound = n * (n + abs(mpmath.log(abs(ref)))) * EPS * abs(ref)
        assert abs(mpmath.mpf(det) - ref) <= bound + np.finfo(float).smallest_subnormal, (det, ref)


def test_lu_det():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 12, 30):
        a = rng.normal(size=(n, n))
        det = linalg.lu_det(a)
        assert isinstance(det, float)
        _assert_det_accurate(a, det)
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
    # two diagonal blocks, as they stand and with rows and columns
    # interleaved; the fancy indexing leaves that stack Fortran-ordered
    half = n // 2
    split = np.zeros((members, n, n), dtype=complex)
    split[:, :half, :half] = herm(members, half, half)
    split[:, half:, half:] = 3.0 * herm(members, n - half, n - half)
    interleave = np.argsort(np.arange(n) % 2, kind="stable")
    cases = {
        "random": herm(members, n, n),
        "rank_one": psi @ np.swapaxes(psi.conj(), -1, -2),
        "graded": graded,
        "repeated": 0.5 * (repeated + np.swapaxes(repeated.conj(), -1, -2)),
        "identity": 0.5 * (identity + np.swapaxes(identity.conj(), -1, -2)),
        "zero": np.zeros((members, n, n), dtype=complex),
        "diagonal": np.apply_along_axis(np.diag, -1, rng.normal(size=(members, n))),
        "sparse": sparse,
        "split": split,
        "split_interleaved": split[:, interleave][:, :, interleave],
    }
    # low-rank members between full-rank ones
    low = rng.normal(size=(members, n, 3)) + 1j * rng.normal(size=(members, n, 3))
    full = np.arange(members)[:, None, None] % 2 == 1
    cases["rank_one_mixed"] = np.where(full, cases["random"], cases["rank_one"])
    cases["low_rank_mixed"] = np.where(full, herm(members, n, n), low @ np.swapaxes(low.conj(), -1, -2))
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 200])
def test_stack_members_within_n_eps_norm(n):
    # accuracy contract for every member of a stack: (n + 8) eps ||A||_2
    # of 30-digit mpmath, where the 8 covers the few eps of LAPACK at small
    # n; past MPMATH_MAX_N the trace and the Frobenius norm, each within n eps
    rng = np.random.default_rng(n)
    for kind, stack in _stack_cases(rng, n, members=2 if n > 100 else 4).items():
        vals = linalg.hermitian_eigenvalues(stack)
        assert vals.shape == stack.shape[:-1], kind
        for a, mine in zip(stack, vals):
            if n <= MPMATH_MAX_N:
                err = _mpmath_error(a, mine)
                assert err <= (n + 8) * EPS * np.linalg.norm(a, 2), (kind, err)
            else:
                _assert_trace_and_frobenius(a, mine)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 200])
def test_stack_members_lowest_eigenvalue_and_det_bitwise_as_alone(n):
    # the eigenvalues (the lowest among them, which the oracle reads) and
    # lu_det of each member are what it gets alone, bitwise
    rng = np.random.default_rng(100 + n)
    for kind, stack in _stack_cases(rng, n, members=2 if n > 100 else 4).items():
        vals = linalg.hermitian_eigenvalues(stack)
        dets = linalg.lu_det(stack.real)
        assert vals.shape[:-1] == dets.shape == stack.shape[:1], kind
        for a, mine, det in zip(stack, vals, dets):
            assert np.array_equal(_bits(linalg.hermitian_eigenvalues(a)), _bits(mine)), kind
            alone = linalg.lu_det(a.real)
            assert isinstance(alone, float), kind
            assert np.array_equal(_bits(alone), _bits(det)), kind


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_lu_det_stack_against_mpmath(n):
    # each member of a stack with ties between pivot candidates, a zero
    # pivot column and scales 1e-8 to 1e7
    rng = np.random.default_rng(200 + n)
    stack = rng.normal(size=(6, n, n)) * 10.0 ** rng.integers(-8, 8, size=(6, 1, 1))
    stack[1] = np.round(stack[1])  # ties between pivot candidates
    stack[2, :, n // 2] = 0.0
    for a, det in zip(stack, linalg.lu_det(stack)):
        _assert_det_accurate(a, det)


def test_lu_det_stack_with_singular_member_and_permutations():
    rng = np.random.default_rng(8)
    regular = rng.normal(size=(5, 5))
    singular = rng.normal(size=(5, 5))
    singular[:, 2] = 0.0  # a zero pivot column at step 2
    odd, even = np.eye(5)[[1, 0, 2, 3, 4]], np.eye(5)[[1, 2, 0, 3, 4]]
    stack = np.stack([regular, singular, odd, even, regular[::-1]])
    dets = linalg.lu_det(stack)
    assert dets.shape == (5,)
    assert _bits(dets[1]) == _bits(0.0)
    assert dets[2] == -1.0 and dets[3] == 1.0
    assert dets[4] == pytest.approx(linalg.lu_det(regular), rel=1e-13)  # two row swaps
    for a, det in zip(stack, dets):
        assert _bits(linalg.lu_det(a)) == _bits(det)
    assert linalg.lu_det(stack.reshape(5, 1, 5, 5)).shape == (5, 1)
    with pytest.raises(ValueError):
        linalg.lu_det(np.ones((2, 3)))


def test_stack_shape_and_order():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    a = g + np.swapaxes(g.conj(), -1, -2)
    vals = linalg.hermitian_eigenvalues(a)
    assert vals.shape == (2, 3, 4)
    assert np.all(np.diff(vals, axis=-1) >= 0.0)


@st.composite
def hermitian_stacks(draw):
    """A stack of matrices of one size, each of its own kind and scale."""
    n = draw(st.integers(1, 9))
    members = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(members):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        kind = draw(st.sampled_from(["random", "sparse", "rank_one", "low_rank", "diagonal_dominant"]))
        if kind == "sparse":
            g *= rng.random(size=(n, n)) < 0.4
        elif kind == "rank_one":
            g = np.outer(g[:, 0], np.ones(n))
        elif kind == "low_rank":
            g = g[:, :2] @ g[:, :2].conj().T
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


def test_eigenvalues_do_not_depend_on_memory_layout():
    # a Fortran-ordered matrix or stack gives the bits of its C-ordered copy
    rng = np.random.default_rng(9)
    for shape in ((12, 12), (3, 12, 12)):
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a = g + np.swapaxes(g.conj(), -1, -2)
        f = np.asfortranarray(a)
        assert np.array_equal(_bits(linalg.hermitian_eigenvalues(f)),
                              _bits(linalg.hermitian_eigenvalues(a)))
