"""Dense Hermitian eigenvalues and LU determinant, self-contained.

The eigensolver takes one matrix or a stack (..., n, n). Householder
reflections reduce each matrix to a real symmetric tridiagonal, and stop
once every remaining column of every matrix is provably under the split
floor (a low-rank input stops after about its rank). The tridiagonals are
split into unreduced blocks: a 1 x 1 block is its diagonal entry, a 2 x 2
block takes its closed-form roots, and the eigenvalues of all larger
blocks are found together by Sturm-count multisection (Barth, Martin &
Wilkinson 1967; LAPACK dstebz), whose pivot pass forms d - x for a chunk
of rows at once. Only eigenvalues are computed; ``lowest_eigenvalues``
refines only the lowest one of each block. The LU determinant also takes
one matrix or a stack.

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
_SUBNORMAL = np.finfo(float).smallest_subnormal
_SECTIONS = 8  # subintervals per multisection step: 7 Sturm counts, 3 bits
_STURM_BUFFER = 2**15  # pivots held between two counts of their signs
_HERMITICITY_TOL = 1e-10  # |a - a^H|, relative to the largest entry (at least 1)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^H y for each row of two stacks of vectors (..., m)."""
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]


def _tail_bounds(block: np.ndarray) -> np.ndarray:
    """Bounds (m, r - 2) on the column norms _dot gives for block (m, r, r).

    Entry j bounds the norms of the parts below the diagonal of columns
    j, ..., r - 3. Each sum of squares is raised by 2 r smallest subnormals,
    more than underflow in its 2 r products and sums can take off, in any
    order; the rest of the rounding is relative, far inside the caller's
    margin of 2.
    """
    r = block.shape[-1]
    squares = np.tril(block.real**2 + block.imag**2, -1).sum(axis=1)[:, : r - 2]
    bound = np.sqrt(squares + 2 * r * _SUBNORMAL)
    return np.maximum.accumulate(bound[:, ::-1], axis=1)[:, ::-1]


def householder_tridiagonalize(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce Hermitian matrices (..., n, n) to real symmetric tridiagonals.

    Returns (d, e): the diagonals (..., n) and the moduli of the n-1
    subdiagonal entries (..., n-1) (a diagonal unitary moves their phases
    off). A column whose norm is under the floor at which
    :func:`tridiagonal_eigen` splits is not reflected, and its e is the 0
    that split leaves. Once every matrix of the stack has all its remaining
    columns under half that floor, the reduction returns: the steps left
    would reflect nothing (for a low-rank input, every step past its rank).
    """
    a = np.asarray(a)
    shape, n = a.shape[:-2], a.shape[-1]
    # a C-ordered copy: the BLAS products round differently on other layouts
    block = np.array(a.reshape((int(np.prod(shape)), n, n)), dtype=complex, order="C")
    d = np.zeros((len(block), n))
    e = np.zeros((len(block), max(n - 1, 0)))
    # a column x with |x| <= eps (max|d| + max e) over the entries reduced so
    # far is under the floor at which tridiagonal_eigen splits, whatever
    # comes after: it is not reflected, and its e is the 0 the split would
    # leave (for a low-rank input, every column past its rank)
    d_max, e_max = np.zeros(len(block)), np.zeros(len(block))
    # block is the trailing part still to reduce, kept contiguous: an update
    # written into a strided view of the full matrix is several times slower.
    # While no column is reflected, block keeps its entries, and tail bounds
    # the norms of its columns from step `start` on. With a margin of 2 for
    # the rounding of _dot, a matrix whose columns pass is reflected by no
    # later step, so it gets the same bits whether the stack returns or not
    tail, start = None, 0
    for k in range(n - 2):
        if tail is not None and np.all(2.0 * tail[:, k - start] <= _EPS * (d_max + e_max)):
            break
        d[:, k] = block[:, 0, 0].real
        x, sub = block[:, 1:, 0], block[:, 1:, 1:]
        norm = np.sqrt(_dot(x, x).real)
        np.maximum(d_max, np.abs(d[:, k]), out=d_max)
        np.maximum(e_max, norm, out=e_max)
        live = norm > _EPS * (d_max + e_max)
        if not live.any():
            if tail is None:
                tail, start = _tail_bounds(sub), k + 1
            block = sub
            continue
        tail = None
        if not live.all():
            x, norm = x * live[:, None], norm * live
        e[:, k] = norm
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
    rest = block.shape[-1]
    d[:, n - rest :] = np.diagonal(block, axis1=1, axis2=2).real
    if rest > 1:
        e[:, n - 2] = np.abs(block[:, -1, -2])
    return d.reshape(shape + (n,)), e.reshape(shape + (max(n - 1, 0),))


def _sturm_counts(diag: np.ndarray, off2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Eigenvalues below x of each padded block, by the signs of the pivots.

    diag and off2 (rows, blocks, 1, 1) hold the diagonals and the squared
    couplings of row i to row i+1, x (blocks, ...) the points. The pivots
    q_i = d_i - x - e_{i-1}^2 / q_{i-1} go to a buffer of bounded size,
    which takes d_i - x for a whole chunk of rows at once.
    """
    rows = diag.shape[0]
    chunk = max(2, min(rows, _STURM_BUFFER // max(1, x.size)))
    q = np.empty((chunk,) + x.shape)
    ratio = np.empty(x.shape)
    count = 0
    for top in range(0, rows, chunk):
        part = q[: min(chunk, rows - top)]
        if top:
            # the last pivot of the chunk before, which part overwrites
            np.divide(off2[top - 1], q[-1], out=ratio)
        np.subtract(diag[top : top + len(part)], x, out=part)
        for i in range(len(part)):
            if i:
                np.divide(off2[top + i - 1], part[i - 1], out=ratio)
            if top + i:
                part[i] -= ratio
        count = count + np.add.reduce(part < 0.0, axis=0)
    return count


def _block_eigenvalues(d: np.ndarray, e: np.ndarray, count=None):
    """Split tridiagonals d (m, n), e (m, n-1) into blocks; find their eigenvalues.

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
    mid = np.empty((starts.size, int(sizes.max()) if count is None else count))
    d = d.ravel()
    coupling = np.append(np.where(split, 0.0, e), np.zeros((m, 1)), axis=1).ravel()

    # a 2 x 2 block [[a, f], [f, c]] has the roots (a + c)/2 -+ hypot((a - c)/2, f),
    # with a and c halved first so that neither sum overflows
    pair = sizes == 2
    a, c = 0.5 * d[starts[pair]], 0.5 * d[starts[pair] + 1]
    radius = np.hypot(a - c, coupling[starts[pair]])
    mid[pair, 0] = a + c - radius
    if mid.shape[-1] > 1:
        mid[pair, 1] = a + c + radius
    if pair.all():
        return first, starts, sizes, mid

    # the larger blocks as rows x blocks, padded past a block's end with
    # d = +inf and coupling 0, whose pivots are never negative (the coupling
    # out of a block is 0)
    big = ~pair
    width = int(sizes[big].max())
    rows = np.arange(width)[:, None]
    inside = rows < sizes[big]
    index = np.where(inside, starts[big] + rows, 0)
    diag = np.where(inside, d[index], np.inf)
    coupling = np.where(inside, coupling[index], 0.0)
    # widened Gershgorin interval [low, low + width0] of each block
    radius = coupling.copy()
    radius[1:] += coupling[:-1]
    low = np.min(np.where(inside, diag - radius, np.inf), axis=0)
    high = np.max(np.where(inside, diag + radius, -np.inf), axis=0)
    pad = 2.1 * _EPS * np.maximum(np.abs(low), np.abs(high)) * sizes[big] + _TINY
    low -= pad
    width0 = high - low + pad
    tol = _EPS * norm[starts[big] // n] + _TINY
    steps = np.ceil(np.log(np.maximum(width0 / tol, 1.0)) / np.log(_SECTIONS)).astype(int)

    # one bracket [lo, lo + h] per (block, eigenvalue index k); padding
    # brackets take no step. A bracket's steps read only its own block and
    # its own k, so refining fewer k changes none of them
    k = np.arange(min(width, mid.shape[-1]))
    steps = np.where(k < sizes[big, None], steps[:, None], 0)
    lo = np.repeat(low[:, None], len(k), axis=1)
    h = np.repeat(width0[:, None], len(k), axis=1)
    diag, off2 = diag[:, :, None, None], (coupling * coupling)[:, :, None, None]
    frac = np.arange(1, _SECTIONS) / _SECTIONS
    every = int(steps.min())  # the steps every bracket takes need no mask
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(int(steps.max())):
            points = lo[:, :, None] + h[:, :, None] * frac
            # j points lie below the k-th eigenvalue: it is in the j-th
            # subinterval, [points[j - 1], points[j]]
            j = np.add.reduce(_sturm_counts(diag, off2, points) <= k[:, None], axis=-1)
            if step < every:
                lo = lo + h * (j / _SECTIONS)
                h = h / _SECTIONS
            else:
                live = steps > step
                lo = np.where(live, lo + h * (j / _SECTIONS), lo)
                h = np.where(live, h / _SECTIONS, h)
    mid[big, : len(k)] = lo + 0.5 * h + 0.0
    return first, starts, sizes, mid


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
    max(|d_i| + |d_i+1|, ||T||). A 1x1 block is its diagonal entry, a 2x2
    block [[a, f], [f, c]] has the roots (a + c)/2 -+ hypot((a - c)/2, f);
    the k-th eigenvalue of a larger block is bracketed by the block's
    widened Gershgorin interval, which each multisection step divides by
    _SECTIONS, for the steps that bring it below eps ||T||. Those steps
    depend on the block's own matrix only, so no bracket depends on another
    one. A step's Sturm counts form d_i - x for a chunk of rows in one
    operation, then run the pivot recursion row by row.

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
