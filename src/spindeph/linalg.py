"""Dense Hermitian eigenvalues and LU determinant.

``hermitian_eigenvalues`` takes one matrix or a stack (..., n, n): ``_checked``
rejects a non-finite or non-Hermitian matrix, then one call of numpy's
``eigvalsh`` (LAPACK ``?heevd``, which reads the lower triangle) returns the
ascending eigenvalues, each within a small multiple of n eps ||A||_2 of
the exact ones. numpy copies every matrix of a stack into its own buffer
before LAPACK sees it, so a matrix's eigenvalues are bitwise the same
alone, inside any stack and in any memory layout (tested); from about
n = 192 on, the last bits depend on the BLAS thread count. ``_checked`` is also the Hermiticity test of the
negativity inputs and of the CLI's matrix states. The LU determinant also
takes one matrix or a stack.
"""

from __future__ import annotations

import numpy as np

_HERMITICITY_TOL = 1e-10  # |a - a^H|, relative to the largest entry (at least 1)


def _checked(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """a as an array, after checking that every matrix of it is finite and Hermitian.

    ``what`` names the input in the ValueError raised otherwise.
    """
    a = np.asarray(a)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1), initial=0.0))
    # max propagates NaN and inf, which the Hermiticity test below lets pass
    if not np.all(np.isfinite(scale)):
        raise ValueError(f"{what} has a non-finite entry")
    # a^H - a in one temporary (conjugate copies even a real input), in C
    # order: a transposed one made this check 2.3x slower at n = 512
    skew = np.conjugate(np.swapaxes(a, -1, -2), order="C")
    skew -= a
    if np.any(np.max(np.abs(skew), axis=(-2, -1), initial=0.0) > _HERMITICITY_TOL * scale):
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return a


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., n) of a Hermitian matrix or a stack (..., n, n)."""
    return np.linalg.eigvalsh(_checked(a))


def hermitian_eigensystem(a: np.ndarray):
    """`hermitian_eigenvalues` and the eigenvectors, columns of (..., n, n), from ``eigh``."""
    return np.linalg.eigh(_checked(a))


def trace_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(hermitian_eigenvalues(a))))


def lu_det(a: np.ndarray):
    """Determinant of a real square matrix, or of each of a stack (..., n, n).

    LU with partial pivoting. A single matrix gives a float, a stack an
    array of shape a.shape[:-2]. Each member takes its own pivots and the
    same arithmetic as alone, elementwise, so its determinant is bitwise
    what it gets alone; a member whose pivot column is zero gives exactly
    0.0, whatever its remaining elimination does, and reaches no other.
    """
    a = np.array(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    shape, n = a.shape[:-2], a.shape[-1]
    a = a.reshape((-1, n, n))
    members = np.arange(len(a))
    sign = np.ones(len(a))
    singular = np.zeros(len(a), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1):
            piv = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
            singular |= a[members, piv, k] == 0.0
            # rows k and piv swap; columns before k are never read again
            row = a[members, piv, k:]
            a[members, piv, k:] = a[:, k, k:]
            a[:, k, k:] = row
            sign[piv != k] *= -1.0
            factors = a[:, k + 1 :, k] / a[:, k, k, None]
            a[:, k + 1 :, k + 1 :] -= factors[:, :, None] * a[:, k, None, k + 1 :]
    det = np.where(singular, 0.0, sign * np.prod(np.diagonal(a, axis1=1, axis2=2), axis=-1))
    return float(det[0]) if not shape else det.reshape(shape)
