"""Small dense linear-algebra kernel shared by every other module.

All routines work on plain float64 numpy arrays (complex data travels in
the realified 2n x 2n block form, see :func:`realify`). Eigenvalues and
the polar factor come from LAPACK through ``numpy.linalg``; the symmetric
eigensolver fixes the eigenvector signs, so repeated calls on equal input
are bitwise identical. Fiber bases need no eigensolve, nor smallest
singular values an SVD: see ``projector_basis`` and ``min_singular_value``.

``sym_eigh``, ``projector_basis``, ``min_singular_value``,
``polar_two_metric`` and ``complex_structure_conjugator`` take one matrix
or a stack of matrices on leading axes; each matrix of a stack is factored
on its own, so every result is bitwise the per-matrix result.
Matrix-vector products on stacks are ``np.matvec``, and :func:`norms` is
the Euclidean norm of each vector of a stack, both bitwise equal to
``m @ v`` and ``np.linalg.norm(v)`` per vector. There is no stacked small
matrix product: the 2 x 2 families and fields that transport evaluates
write their entries in closed form (``manifolds``, ``bundles``).

Every seeded draw of the package comes from :class:`stream`, a
counter-based generator written in numpy alone: SplitMix64 words, doubles
from their top 53 bits and normals by Box-Muller. So no run imports
numpy's random package, whose first import costs more than a small
scenario.
"""

import numpy as np

from .errors import NotComplexStructure, Singular

__all__ = [
    "sym_eigh",
    "projector_basis",
    "polar_two_metric",
    "complex_structure_conjugator",
    "min_singular_value",
    "realify",
    "norms",
    "worst",
    "stream",
]


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _swap(a):
    return np.swapaxes(a, -1, -2)


def sym_eigh(s):
    """Eigendecomposition of a symmetric matrix (LAPACK ``syevd``).

    Returns (w, v) with eigenvalues ascending and each eigenvector's first
    nonzero component (the first entry above 1e-12 times the column's
    largest magnitude) made positive.
    """
    s = _as_square(s)
    w, v = np.linalg.eigh(0.5 * (s + _swap(s)))
    mag = np.abs(v)
    first = np.argmax(mag > 1e-12 * np.max(mag, axis=-2, keepdims=True), axis=-2)
    # a zero column has no nonzero entry: argmax gives row 0, which is 0
    lead = np.take_along_axis(v, first[..., None, :], axis=-2)
    return w, np.where(lead < 0.0, -v, v)


def projector_basis(q, rank):
    """Orthonormal basis of the image of a rank-``rank`` orthogonal
    projector, from ``rank`` steps of pivoted Cholesky (Higham, *Accuracy
    and Stability of Numerical Algorithms*, section 10.3) on its symmetric
    part: each step takes the largest diagonal entry k of the residual R,
    the column l = R[:, k] / sqrt(R_kk) and R <- R - l l^T. A projector of
    rank r with Q = L L^T, L of shape (N, r), has L^T L = I, so the columns
    are orthonormal, and each has a positive pivot entry.

    Returns (basis, ok) for one matrix or a stack: ok is False where a
    pivot is at or below 0.5/N (rank too low) or the trace left after
    ``rank`` steps is 0.5 or more (rank too high). Each matrix is
    factored on its own, so a stack is bitwise its per-matrix results.
    """
    s = _as_square(q)
    shape, n = s.shape, s.shape[-1]
    s = s.reshape(-1, n, n)
    s = 0.5 * (s + _swap(s))
    floor = 0.5 / n
    rows = np.arange(len(s))
    basis = np.empty((len(s), n, rank))
    ok = np.ones(len(s), dtype=bool)
    for j in range(rank):
        k = np.argmax(s.diagonal(axis1=1, axis2=2), axis=1)
        col = s[rows, :, k]
        pivot = col[rows, k]
        ok &= pivot > floor
        col /= np.sqrt(np.maximum(pivot, floor))[:, None]
        basis[:, :, j] = col
        s -= col[:, :, None] * col[:, None, :]
    ok &= np.trace(s, axis1=1, axis2=2) < 0.5
    return basis.reshape(shape[:-1] + (rank,)), ok.reshape(shape[:-2])


def _row_sum(x):
    # x[0] + x[1] + ... in order, where numpy's sum may group them otherwise
    return sum(x[1:], x[0])


JACOBI_SWEEPS = 30


def min_singular_value(f):
    """Smallest singular value of a matrix (a wide one is transposed) or of
    each matrix of a stack, by one-sided Jacobi (Demmel & Veselic, SIAM J.
    Matrix Anal. Appl. 13, 1992): a column pair is rotated where |gamma| >
    m eps sqrt(alpha beta) (m rows), its squared norms alpha, beta are then
    recomputed (alpha - t gamma can go negative), and elsewhere c = 1, s =
    0, so a stack is bitwise its per-matrix calls. Raises ValueError on
    non-finite entries, LinAlgError after JACOBI_SWEEPS sweeps."""
    f = np.asarray(f, dtype=float)
    if f.ndim < 2 or 0 in f.shape[-2:]:
        raise ValueError(f"expected a nonempty matrix or stack, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("matrix has non-finite entries")
    f = _swap(f) if f.shape[-2] < f.shape[-1] else f
    shape, (m, n) = f.shape[:-2], f.shape[-2:]
    # exact scaling to a largest entry in [0.5, 1): no square over/underflows
    _, scale = np.frexp(np.max(np.abs(f), axis=(-2, -1)))
    f = np.ldexp(f, -scale[..., None, None])
    # column k of every matrix is cols[k], shaped (m, stack size)
    cols = list(f.reshape(-1, m, n).transpose(2, 1, 0).copy())
    sq = [_row_sum(c ** 2) for c in cols]
    tol = m * np.finfo(float).eps
    # a column this short is roundoff of the others: its direction is noise
    floor = np.max(sq, axis=0) * np.finfo(float).eps ** 2
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                a, b = cols[i], cols[j]
                gamma = _row_sum(a * b)
                rot = np.abs(gamma) > tol * np.sqrt(sq[i] * sq[j])
                rot &= np.minimum(sq[i], sq[j]) > floor
                if not rot.any():
                    continue
                rotated = True
                # t = tan of the smaller angle that zeroes gamma
                d, g2 = sq[j] - sq[i], gamma + gamma
                t = np.divide(g2, d + np.copysign(np.hypot(d, g2), d),
                              out=np.zeros_like(d), where=rot)
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                cols[i], cols[j] = c * a - s * b, s * a + c * b
                sq[i], sq[j] = _row_sum(cols[i] ** 2), _row_sum(cols[j] ** 2)
        if not rotated:
            return np.ldexp(np.sqrt(np.min(sq, axis=0)).reshape(shape), scale)
    raise np.linalg.LinAlgError(f"Jacobi sweeps did not converge in {JACOBI_SWEEPS}")


def norms(v):
    """Euclidean norm of a vector, or of each vector of a stack."""
    return np.sqrt(np.vecdot(v, v))


def polar_two_metric(f):
    """Polar factorization F = Xi @ Psi of a square matrix or of each
    matrix of a stack, from one SVD U Sigma V^T (Higham 1986): the
    orthogonal Psi = U V^T and the symmetric positive definite Xi = U Sigma
    U^T. Refused where a singular value is at or below 1e-10."""
    u, sigma, vt = np.linalg.svd(_as_square(f, "F"))
    low = sigma[..., -1]
    if np.any(low <= 1e-10):
        raise Singular(f"min singular value {np.min(low):.3e} <= 1e-10")
    return u @ vt, (u * sigma[..., None, :]) @ _swap(u)


def _complex_adapted_basis(j, tol):
    """Columns (b1, J b1, b2, J b2, ...) orthonormal for the J-invariant
    inner product <u,w> + <Ju,Jw>, for each J of a stack (m, n, n). Each J
    takes, of the candidates e_0, e_1, ..., the ones whose Gram-Schmidt
    remainder against its own accepted b's is longer than tol."""
    m, n = j.shape[:2]
    gram = np.eye(n) + _swap(j) @ j

    def dot(rows, u, w):
        # u @ gram @ w of each row, as (1, n) @ (n, n) @ (n, 1) products
        return ((u[:, None] @ gram[rows]) @ w[..., None])[:, 0, 0]

    def sweep(rows, c, b):
        # c minus its components along b (rows of the stack)
        return c - (dot(rows, b, c) / dot(rows, b, b))[:, None] * b

    basis = np.zeros((m, n // 2, n))
    count = np.zeros(m, dtype=np.int64)
    for cand_idx in range(n):
        rows = np.flatnonzero(2 * count < n)
        if not rows.size:
            break
        c = np.zeros((len(rows), n))
        c[:, cand_idx] = 1.0
        for t in range(n // 2):
            pos = np.flatnonzero(count[rows] > t)
            sel = rows[pos]
            b = basis[sel, t]
            c[pos] = sweep(sel, c[pos], b)
            c[pos] = sweep(sel, c[pos], (j[sel] @ b[..., None])[..., 0])
        nrm = np.sqrt(dot(rows, c, c))
        ok = nrm > tol
        basis[rows[ok], count[rows[ok]]] = c[ok] / nrm[ok, None]
        count[rows[ok]] += 1
    if np.any(2 * count != n):
        raise NotComplexStructure("failed to build a complex-adapted basis")
    out = np.empty((m, n, n))
    out[..., 0::2] = _swap(basis)
    out[..., 1::2] = _swap((j[:, None] @ basis[..., None])[..., 0])
    return out


def complex_structure_conjugator(j, k):
    """Invertible psi with psi^{-1} J psi = K, for two complex structures
    J, K on R^{2r} (any two are conjugate), or the stack of the psi's for
    two equal-shape stacks, each bitwise its one-matrix result. A stack is
    refused if any one of its matrices is."""
    j = _as_square(j, "J")
    k = _as_square(k, "K")
    n = j.shape[-1]
    if n % 2 != 0 or j.shape != k.shape:
        raise NotComplexStructure("need matching even-dimensional matrices")
    shape = j.shape
    j, k = j.reshape(-1, n, n), k.reshape(-1, n, n)
    for name, s in (("J", j), ("K", k)):
        defect = np.max(np.abs(s @ s + np.eye(n)), axis=(-2, -1))
        if np.any(defect > 1e-8):
            raise NotComplexStructure(f"{name}^2 + I defect "
                                      f"{defect[defect > 1e-8][0]:.3e} exceeds 1e-8")
    bj = _complex_adapted_basis(j, 1e-8)
    bk = _complex_adapted_basis(k, 1e-8)
    # psi maps the K-adapted basis onto the J-adapted one, pairwise; then
    # psi^{-1} J psi agrees with K on a basis, hence everywhere.
    return (bj @ np.linalg.inv(bk)).reshape(shape)


# -- realification helpers ---------------------------------------------------
#
# Convention: z in C^n maps to (Re z, Im z) in R^{2n}; a complex-linear map
# A maps to [[Re A, -Im A], [Im A, Re A]].


def _blocks(a, b, c, d):
    # [[a, b], [c, d]] on the last two axes of four equal-shape stacks,
    # written into the result (no intermediate arrays, unlike np.block)
    n, m = a.shape[-2:]
    out = np.empty(a.shape[:-2] + (2 * n, 2 * m), dtype=np.result_type(a, b, c, d))
    out[..., :n, :m] = a
    out[..., :n, m:] = b
    out[..., n:, :m] = c
    out[..., n:, m:] = d
    return out


def realify(a):
    """Realified form of a complex matrix, or of a stack of them on the
    leading axes."""
    a = np.asarray(a, dtype=complex)
    re, im = a.real, a.imag
    return _blocks(re, -im, im, re)


def standard_complex_structure(n):
    """Realified multiplication by i on C^n."""
    z = np.zeros((n, n))
    eye = np.eye(n)
    return _blocks(z, -eye, eye, z)


# -- residual accumulation ---------------------------------------------------


def worst(*residuals):
    """max() in which a NaN wins, so a residual that could not be measured
    fails its verdict (the builtin max drops a NaN after the first item)."""
    for r in residuals:
        if r != r:
            return r
    return max(residuals)


# -- seeded draws ------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix(z):
    # SplitMix64's finaliser on a uint64 array; array products wrap mod 2^64
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


class stream:
    """The seeded stream (seed, tag) of two non-negative integers, each
    taken mod 2^64: word k is SplitMix64's mixer (Steele, Lea and Flood,
    OOPSLA 2014) applied to key + k gamma, where key = mix(mix(seed) xor
    tag), and every draw continues from the word where the last one ended.
    It has the four methods of numpy's ``Generator`` that the package
    calls, so a Generator may stand in for it. Doubles in [0, 1) are the
    top 53 bits of a word; normals come from pairs of them by Box-Muller
    (1958), with log1p(-u) so that u = 0 stays finite."""

    def __init__(self, seed, tag):
        if seed < 0 or tag < 0:
            raise ValueError(f"seed and tag must be >= 0, got {seed}, {tag}")
        key = _mix(np.array([seed % 2 ** 64], dtype=np.uint64))
        self._key = _mix(key ^ np.uint64(tag % 2 ** 64))
        self._next = 0

    def _doubles(self, count):
        k = np.arange(self._next, self._next + count, dtype=np.uint64)
        self._next += count
        return (_mix(k * _GAMMA + self._key) >> 11) * 2.0 ** -53

    def uniform(self, low, high, size):
        u = self._doubles(int(np.prod(size)))
        return (low + (high - low) * u).reshape(size)

    def normal(self, size):
        """Standard normals, normal i from doubles 2i and 2i + 1 by
        Box-Muller's cosine branch: each draw of n normals reads 2n words,
        so a block is bitwise the draws of its rows one after another."""
        u = self._doubles(2 * int(np.prod(size)))
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        return (r * np.cos(2.0 * np.pi * u[1::2])).reshape(size)

    def integers(self, low, high, size):
        """Integers in [low, high): low + floor(u (high - low)); as u < 1,
        the product rounds below high - low while that is below 2^53."""
        u = self._doubles(int(np.prod(size)))
        return (low + (u * (high - low)).astype(np.int64)).reshape(size)

    def choice(self, a, size):
        return np.asarray(a)[self.integers(0, len(a), size)]
