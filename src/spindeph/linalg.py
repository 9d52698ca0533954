"""Dense Hermitian eigenvalues and LU determinant, self-contained.

The eigensolver takes one matrix or a stack (..., n, n). Householder
reflections reduce each matrix to a real symmetric tridiagonal; the
tridiagonals are split into unreduced blocks, and the eigenvalues of all
blocks are found together by Sturm-count multisection (Barth, Martin &
Wilkinson 1967; LAPACK dstebz). Only eigenvalues are computed.

Accuracy contract: every eigenvalue is within a small multiple of
n eps ||A||_2 of the exact one (the tests hold each member of a stack to
(n + 8) eps ||A||_2 of numpy's eigvalsh, itself a few eps ||A||_2 off).
Every step acts on one matrix at a time or elementwise, so a matrix's
eigenvalues are bitwise the same alone and inside any stack.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_SECTIONS = 8  # subintervals per multisection step: 7 Sturm counts, 3 bits
_STURM_BUFFER = 2**15  # pivots held between two counts of their signs
_HERMITICITY_TOL = 1e-10  # |a - a^H|, relative to the largest entry (at least 1)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^H y for each row of two stacks of vectors (..., m)."""
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]


def householder_tridiagonalize(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce Hermitian matrices (..., n, n) to real symmetric tridiagonals.

    Returns (d, e): the diagonals (..., n) and the moduli of the n-1
    subdiagonal entries (..., n-1) (a diagonal unitary moves their phases
    off). A step is skipped when no matrix of the stack has a column to
    reflect.
    """
    a = np.asarray(a)
    shape, n = a.shape[:-2], a.shape[-1]
    block = np.array(a.reshape((int(np.prod(shape)), n, n)), dtype=complex)
    d = np.zeros((len(block), n))
    e = np.zeros((len(block), max(n - 1, 0)))
    # a column x with |x| <= eps (max|d| + max e) over the entries reduced so
    # far is under the floor at which tridiagonal_eigen splits, whatever
    # comes after: it is not reflected, which drops x where the split would
    # drop e = |x| (for a low-rank input, every column past its rank)
    d_max, e_max = np.zeros(len(block)), np.zeros(len(block))
    # block is the trailing part still to reduce, kept contiguous: an update
    # written into a strided view of the full matrix is several times slower
    for k in range(n - 2):
        d[:, k] = block[:, 0, 0].real
        x, sub = block[:, 1:, 0], block[:, 1:, 1:]
        e[:, k] = norm = np.sqrt(_dot(x, x).real)
        np.maximum(d_max, np.abs(d[:, k]), out=d_max)
        np.maximum(e_max, norm, out=e_max)
        live = norm > _EPS * (d_max + e_max)
        if not live.any():
            block = sub
            continue
        if not live.all():
            x, norm = x * live[:, None], norm * live
        # reflect x onto -phase(x_0) |x| e_1 (the phase of x_0 = 0 is 1) by
        # P = I - 2 v v^H from both sides, as one rank-2 update (Golub & Van
        # Loan, Matrix Computations, sec. 8.3): with u = sub v and
        # w = u - (v^H u) v it is 2 (v w^H + w v^H) = left @ [w, 2v]^H,
        # left = [2v, w]; every factor of 2 is exact, and v = 0 where x = 0
        x0 = x[:, 0]
        r0 = np.abs(x0)
        zero = r0 == 0.0
        left = np.empty(x.shape + (2,), dtype=complex)
        v2, w = left[:, :, 0], left[:, :, 1]
        v2[...] = x
        v2[:, 0] += (x0 + zero) / (r0 + zero) * norm
        half = 0.5 * np.sqrt(_dot(v2, v2).real)
        v2 /= (half + (half == 0.0))[:, None]
        np.matmul(sub, v2[:, :, None], out=w[:, :, None])
        w -= 0.25 * _dot(v2, w)[:, None] * v2
        w *= 0.5
        block = left @ left[:, :, ::-1].conj().swapaxes(1, 2)
        np.subtract(sub, block, out=block)
    d[:, max(n - 2, 0) :] = np.diagonal(block, axis1=1, axis2=2).real
    if n > 1:
        e[:, n - 2] = np.abs(block[:, 1, 0])
    return d.reshape(shape + (n,)), e.reshape(shape + (max(n - 1, 0),))


def _sturm_counts(diag: np.ndarray, off2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Eigenvalues below x of each padded block, by the signs of the pivots.

    diag and off2 (rows, blocks, 1, 1) hold the diagonals and the squared
    couplings of row i to row i+1, x (blocks, ...) the points. The pivots
    q_i = d_i - x - e_{i-1}^2 / q_{i-1} go to a buffer of bounded size.
    """
    rows = diag.shape[0]
    chunk = max(2, min(rows, _STURM_BUFFER // max(1, x.size)))
    q = np.empty((chunk,) + x.shape)
    ratio = np.empty(x.shape)
    count = 0
    for i in range(rows):
        np.subtract(diag[i], x, out=q[i % chunk])
        if i:
            np.divide(off2[i - 1], q[(i - 1) % chunk], out=ratio)
            q[i % chunk] -= ratio
        if i % chunk == chunk - 1 or i == rows - 1:
            count = count + np.add.reduce(q[: i % chunk + 1] < 0.0, axis=0)
    return count


def tridiagonal_eigen(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Unsorted eigenvalues (..., n) of real symmetric tridiagonals.

    d (..., n) holds the diagonals and e (..., n-1) the off-diagonals. Each
    tridiagonal is split into unreduced blocks where |e_i| <= eps
    max(|d_i| + |d_i+1|, ||T||). A 1x1 block is its diagonal entry; the
    k-th eigenvalue of a larger block is bracketed by the block's widened
    Gershgorin interval, which each multisection step divides by _SECTIONS,
    for the steps that bring it below eps ||T||. Those steps depend on the
    block's own matrix only, so no bracket depends on another one.

    The Sturm pivots use IEEE infinities instead of a pivot floor (Kahan):
    a zero pivot is +0, the next one is -inf and counts as negative. The
    pivot guard is that no pivot is -0, which a diagonal entry of -0 met
    at the point x = +0 would give: adding +0.0 to the diagonal turns -0
    into +0 and changes nothing else.
    """
    d = np.asarray(d, dtype=float) + 0.0
    shape, n = d.shape, d.shape[-1]
    d = d.reshape((int(np.prod(shape[:-1])), n))
    e = np.abs(np.asarray(e, dtype=float)).reshape((len(d), max(n - 1, 0)))
    out = d.copy()
    if n < 2:
        return out.reshape(shape)
    # the deflation test, with an absolute floor (a purely relative one
    # never fires in noise-level null spaces); a coupling whose square
    # underflows splits too
    norm = np.max(np.abs(d), axis=1) + np.max(e, axis=1)
    split = (e <= _EPS * np.maximum(np.abs(d[:, :-1]) + np.abs(d[:, 1:]), norm[:, None])) | (
        e * e == 0.0
    )
    # blocks in the flat layout, one tridiagonal after the other: a block
    # starts on the first row of a matrix and after every split
    first = np.ones(d.shape, dtype=bool)
    first[:, 1:] = split
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, d.size))
    starts, sizes = starts[sizes > 1], sizes[sizes > 1]
    if not starts.size:
        return out.reshape(shape)

    # rows x blocks, padded past a block's end with d = +inf and coupling 0,
    # whose pivots are never negative (the coupling out of a block is 0)
    width = int(sizes.max())
    rows = np.arange(width)[:, None]
    inside = rows < sizes
    index = np.where(inside, starts + rows, 0)
    diag = np.where(inside, d.ravel()[index], np.inf)
    coupling = np.append(np.where(split, 0.0, e), np.zeros((len(d), 1)), axis=1).ravel()
    coupling = np.where(inside, coupling[index], 0.0)
    # widened Gershgorin interval [low, low + width0] of each block
    radius = coupling.copy()
    radius[1:] += coupling[:-1]
    low = np.min(np.where(inside, diag - radius, np.inf), axis=0)
    high = np.max(np.where(inside, diag + radius, -np.inf), axis=0)
    pad = 2.1 * _EPS * np.maximum(np.abs(low), np.abs(high)) * sizes + _TINY
    low -= pad
    width0 = high - low + pad
    tol = _EPS * norm[starts // n] + _TINY
    steps = np.ceil(np.log(np.maximum(width0 / tol, 1.0)) / np.log(_SECTIONS)).astype(int)

    # one bracket [lo, lo + h] per (block, eigenvalue index k); padding
    # brackets take no step
    k = np.arange(width)
    real = k < sizes[:, None]
    steps = np.where(real, steps[:, None], 0)
    lo = np.repeat(low[:, None], width, axis=1)
    h = np.repeat(width0[:, None], width, axis=1)
    diag, off2 = diag[:, :, None, None], (coupling * coupling)[:, :, None, None]
    frac = np.arange(1, _SECTIONS) / _SECTIONS
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(int(steps.max())):
            live = steps > step
            points = lo[:, :, None] + h[:, :, None] * frac
            # j points lie below the k-th eigenvalue: it is in the j-th
            # subinterval, [points[j - 1], points[j]]
            j = np.add.reduce(_sturm_counts(diag, off2, points) <= k[:, None], axis=-1)
            lo = np.where(live, lo + h * (j / _SECTIONS), lo)
            h = np.where(live, h / _SECTIONS, h)
    out.ravel()[(starts[:, None] + k)[real]] = (lo + 0.5 * h + 0.0)[real]
    return out.reshape(shape)


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., n) of a Hermitian matrix or a stack (..., n, n)."""
    a = np.asarray(a)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1), initial=0.0))
    defect = np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2)), axis=(-2, -1), initial=0.0)
    if np.any(defect > _HERMITICITY_TOL * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.sort(tridiagonal_eigen(*householder_tridiagonalize(a)), axis=-1)


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
