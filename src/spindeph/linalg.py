"""Dense Hermitian eigenvalues and LU determinants, both from numpy's LAPACK.

``hermitian_eigenvalues`` takes one matrix or a stack (..., n, n): ``_checked``
rejects a non-finite or non-Hermitian matrix, then one call of numpy's
``eigvalsh`` (LAPACK ``?heevd``, which reads the lower triangle) returns the
ascending eigenvalues, each within a small multiple of n eps ||A||_2 of
the exact ones. ``lu_det`` takes one real matrix or a stack and makes one
call of numpy's ``det`` (LAPACK ``?getrf``). numpy copies every matrix of a
stack into its own buffer before LAPACK sees it, so a matrix's eigenvalues
and determinant are bitwise the same alone and inside any stack, and its
eigenvalues in any memory layout (tested). From about n = 192 on, the last
bits of both depend on the BLAS thread count (on a 2-core host: bitwise
equal under one and two OpenBLAS threads up to n = 160 for the eigenvalues
and n = 128 for the determinant, not at 192). ``_checked`` is also the
Hermiticity test of the negativity inputs and of the CLI's matrix states.
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


def lu_det(a: np.ndarray):
    """Determinant of a real square matrix, or of each of a stack (..., n, n).

    One call of numpy's ``det`` (LAPACK ``?getrf``, LU with partial
    pivoting), which forms the pivots' product as exp(sum log|u_ii|): about
    n eps |log|det|| of relative error on top of LU's. A single matrix gives
    a float, a stack an array of shape a.shape[:-2]; each member is bitwise
    what it gets alone, and a member whose pivot column is zero gives exactly
    0.0.
    """
    det = np.linalg.det(np.asarray(a, dtype=float))
    return float(det) if np.ndim(det) == 0 else det
