"""Dense Hermitian eigensolver and LU determinant, self-contained.

The eigensolver reduces a complex Hermitian matrix to real symmetric
tridiagonal form by Householder reflections (with a diagonal phase
transform absorbing complex off-diagonals), then runs the implicit-shift QL
iteration on the tridiagonal. Only eigenvalues are computed: no caller
needs eigenvectors.

Accuracy contract: every eigenvalue is within a small multiple of n times
machine epsilon times ||A|| of the exact one (the reduction is a sequence
of unitary similarities, backward stable). Intended for the dense matrices
this package produces (dimension up to ~1000); no attempt at blocking.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_MAX_QL_ITER = 50


def _hermiticity_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T)))


def householder_tridiagonalize(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce Hermitian a to a real symmetric tridiagonal with the same spectrum.

    Returns (d, e): the diagonal and the moduli of the n-1 subdiagonal
    entries (a diagonal unitary moves the phases of the complex subdiagonal
    off without changing the eigenvalues).
    """
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    e_complex = np.zeros(max(n - 1, 0), dtype=complex)

    for k in range(n - 2):
        x = a[k + 1 :, k]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        phase = x[0] / abs(x[0]) if x[0] != 0.0 else 1.0
        alpha = -phase * norm_x
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        # P = I - 2 v v^H from both sides of the trailing block, as one
        # rank-2 update (Golub & Van Loan, Matrix Computations, sec. 8.3)
        sub = a[k + 1 :, k + 1 :]
        u = sub @ v
        w = u - np.vdot(v, u) * v
        vw = np.stack([v, w], axis=1)
        sub -= 2.0 * (vw @ vw[:, ::-1].conj().T)
        e_complex[k] = alpha
    if n > 1:
        e_complex[n - 2] = a[n - 1, n - 2]
    return np.diag(a).real.copy(), np.abs(e_complex)


def tridiagonal_eigen(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Implicit-shift QL iteration on a real symmetric tridiagonal matrix.

    d holds the diagonal and e the n-1 off-diagonal entries. Eigenvalues
    are returned unsorted.
    """
    d = np.asarray(d, dtype=float).copy()
    n = d.size
    if n == 0:
        return d
    e = np.concatenate([np.asarray(e, dtype=float), [0.0]])
    eps = np.finfo(float).eps
    # absolute deflation floor: dropping |e| <= eps*norm is backward stable,
    # and a purely relative test never fires inside noise-level null spaces
    norm = float(np.max(np.abs(d))) + (float(np.max(np.abs(e))) if n > 1 else 0.0)
    floor = eps * norm

    for l in range(n):
        for iteration in range(_MAX_QL_ITER + 1):
            if iteration == _MAX_QL_ITER:
                raise RuntimeError("QL iteration failed to converge")
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= max(eps * dd, floor):
                    break
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = np.hypot(g, 1.0)
            sign_r = r if g >= 0 else -r
            g = d[m] - d[l] + e[l] / (g + sign_r)
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = np.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def hermitian_eigenvalues(a: np.ndarray, hermiticity_tol: float = 1e-10) -> np.ndarray:
    """Sorted eigenvalues of a Hermitian matrix."""
    a = np.asarray(a)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if _hermiticity_defect(a) > hermiticity_tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.sort(tridiagonal_eigen(*householder_tridiagonalize(a)))


def trace_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(hermitian_eigenvalues(a))))


def lu_det(a: np.ndarray) -> float:
    """Determinant of a real square matrix via LU with partial pivoting."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    sign = 1.0
    for k in range(n - 1):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0.0:
            return 0.0
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            sign = -sign
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(factors, a[k, k + 1 :])
        a[k + 1 :, k] = 0.0
    return sign * float(np.prod(np.diag(a)))
