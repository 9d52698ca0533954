"""Dense Hermitian eigenvalues and LU determinant, self-contained.

The eigensolver takes one matrix or a stack (..., n, n). Householder
reflections reduce each matrix to a real symmetric tridiagonal; the
tridiagonals are split into unreduced blocks, and the eigenvalues of all
blocks are found together by Sturm-count multisection (Barth, Martin &
Wilkinson 1967; LAPACK dstebz). Only eigenvalues are computed;
``lowest_eigenvalues`` refines only the lowest one of each block. The LU
determinant also takes one matrix or a stack.

Accuracy contract: every eigenvalue is within a small multiple of
n eps ||A||_2 of the exact one (the tests hold each member of a stack to
(n + 8) eps ||A||_2 of numpy's eigvalsh, itself a few eps ||A||_2 off).
Every step acts on one matrix at a time or elementwise, on a C-ordered
copy, so a matrix's eigenvalues are bitwise the same alone and inside any
stack, whatever the memory layout of the input.
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
    # a C-ordered copy: the BLAS products round differently on other layouts
    block = np.array(a.reshape((int(np.prod(shape)), n, n)), dtype=complex, order="C")
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


def _block_eigenvalues(d: np.ndarray, e: np.ndarray, count=None):
    """Split tridiagonals d (m, n), e (m, n-1) into blocks; refine their eigenvalues.

    Returns (first, starts, sizes, mid): ``first`` (m, n) marks the first
    row of every block, ``starts`` and ``sizes`` give the flat index of the
    first row and the size of every block of two or more rows, and
    ``mid[b, k]`` is the k-th eigenvalue of block b for k < count (every
    k < the largest block size when count is None; past a block's size,
    padding). See :func:`tridiagonal_eigen`.
    """
    m, n = d.shape
    # the deflation test, with an absolute floor (a purely relative one
    # never fires in noise-level null spaces); a coupling whose square
    # underflows splits too
    norm = np.max(np.abs(d), axis=1, initial=0.0) + np.max(e, axis=1, initial=0.0)
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
        return first, starts, sizes, np.empty((0, count or 0))

    # rows x blocks, padded past a block's end with d = +inf and coupling 0,
    # whose pivots are never negative (the coupling out of a block is 0)
    width = int(sizes.max())
    rows = np.arange(width)[:, None]
    inside = rows < sizes
    index = np.where(inside, starts + rows, 0)
    diag = np.where(inside, d.ravel()[index], np.inf)
    coupling = np.append(np.where(split, 0.0, e), np.zeros((m, 1)), axis=1).ravel()
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
    # brackets take no step. A bracket's steps read only its own block and
    # its own k, so refining fewer k changes none of them
    k = np.arange(width if count is None else count)
    steps = np.where(k < sizes[:, None], steps[:, None], 0)
    lo = np.repeat(low[:, None], len(k), axis=1)
    h = np.repeat(width0[:, None], len(k), axis=1)
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
    return first, starts, sizes, lo + 0.5 * h + 0.0


def _flat_tridiagonals(d: np.ndarray, e: np.ndarray):
    """(shape of d, d as (m, n), |e| as (m, n-1)), with -0 turned into +0 in d."""
    d = np.asarray(d, dtype=float) + 0.0
    shape, n = d.shape, d.shape[-1]
    d = d.reshape((int(np.prod(shape[:-1])), n))
    e = np.abs(np.asarray(e, dtype=float)).reshape((len(d), max(n - 1, 0)))
    return shape, d, e


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
    shape, d, e = _flat_tridiagonals(d, e)
    out = d.copy()
    _, starts, sizes, mid = _block_eigenvalues(d, e)
    k = np.arange(mid.shape[-1])
    real = k < sizes[:, None]
    out.ravel()[(starts[:, None] + k)[real]] = mid[real]
    return out.reshape(shape)


def _checked(a: np.ndarray) -> np.ndarray:
    """a as an array, after checking that every matrix of it is finite and Hermitian."""
    a = np.asarray(a)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1), initial=0.0))
    # max propagates NaN and inf, which the Hermiticity test below lets pass
    if not np.all(np.isfinite(scale)):
        raise ValueError("matrix has a non-finite entry")
    defect = np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2)), axis=(-2, -1), initial=0.0)
    if np.any(defect > _HERMITICITY_TOL * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., n) of a Hermitian matrix or a stack (..., n, n)."""
    return np.sort(tridiagonal_eigen(*householder_tridiagonalize(_checked(a))), axis=-1)


def lowest_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue (...) of a Hermitian matrix or of each of a stack (..., n, n).

    Equal bitwise to ``hermitian_eigenvalues(a)[..., 0]``: a tridiagonal's
    lowest eigenvalue is the least of its blocks' lowest ones, so only the
    k = 0 bracket of each block of two or more rows is refined, by the same
    steps as when all are.
    """
    shape, d, e = _flat_tridiagonals(*householder_tridiagonalize(_checked(a)))
    first, starts, _, mid = _block_eigenvalues(d, e, 1)
    # a row that does not start a block holds one of its block's upper
    # eigenvalues: NaN there, which fmin skips as the sort puts NaN last
    low = np.where(first, d, np.nan)
    low.ravel()[starts] = mid[:, 0]
    return np.fmin.reduce(low, axis=-1).reshape(shape[:-1])


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
