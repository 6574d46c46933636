"""Small dense linear-algebra kernel shared by every other module.

All routines work on plain float64 numpy arrays (complex data travels in
the realified 2n x 2n block form, see :func:`realify`). Eigenvalues and
singular values come from LAPACK through ``numpy.linalg``; the symmetric
eigensolver fixes the eigenvector signs, so repeated calls on equal input
are bitwise identical. Fiber bases need no eigensolve: ``projector_basis``
factors the projector by pivoted Cholesky.

``sym_eigh``, ``projector_basis``, ``sym_sqrt``, ``singular_values``,
``polar_two_metric`` and ``complex_structure_conjugator`` take one matrix
or a stack of matrices on leading axes; each matrix of a stack is factored
on its own, so every result is bitwise the per-matrix result.
Matrix-vector products on stacks are ``np.matvec``, and :func:`norms` is
the Euclidean norm of each vector of a stack, both bitwise equal to
``m @ v`` and ``np.linalg.norm(v)`` per vector.
"""

import numpy as np

from .config import DEFAULT_TOLERANCES as TOL
from .errors import NotComplexStructure, NotSPD, Singular

__all__ = [
    "sym_eigh",
    "projector_basis",
    "sym_sqrt",
    "polar_two_metric",
    "complex_structure_conjugator",
    "singular_values",
    "realify",
    "norms",
    "small_matmul",
    "worst",
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


def singular_values(f):
    """Singular values (ascending) of a rectangular matrix or a stack."""
    f = np.asarray(f, dtype=float)
    if f.ndim < 2:
        raise ValueError("expected a matrix or a stack of matrices")
    return np.linalg.svd(f, compute_uv=False)[..., ::-1]


def norms(v):
    """Euclidean norm of a vector, or of each vector of a stack."""
    return np.sqrt(np.vecdot(v, v))


def small_matmul(a, b):
    """``a @ b`` for broadcast stacks of small matrices, as the sum over the
    inner index j = 0..N-1 of broadcast elementwise products. On stacks of
    2x2 complex matrices numpy's ``@`` costs about 1.3 us per matrix; this
    costs a few ufunc calls per product. Each entry is computed alone, so a
    stacked call is bitwise equal to its per-matrix calls (to ``@`` it
    agrees to rounding only)."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def sym_sqrt(s):
    """Symmetric positive-definite square root R with R @ R = S."""
    s = _as_square(s)
    defect = np.max(np.abs(s - _swap(s)))
    if defect > 1e-10:
        raise NotSPD(f"symmetry defect {defect:.3e} exceeds 1e-10")
    w, v = sym_eigh(s)
    low = np.min(w[..., 0])
    if low <= TOL.spd_eig:
        raise NotSPD(f"eigenvalue {low:.3e} below SPD floor {TOL.spd_eig:.0e}")
    return (v * np.sqrt(w)[..., None, :]) @ _swap(v)


def _inv_spd(s):
    w, v = sym_eigh(_as_square(s))
    low = np.min(w[..., 0])
    if low <= TOL.spd_eig:
        raise NotSPD(f"eigenvalue {low:.3e} below SPD floor")
    return (v / w[..., None, :]) @ _swap(v)


def polar_two_metric(f, g_u, g_w):
    """Two-metric polar factorization F = Xi @ Psi.

    Psi is a (G_U, G_W)-isometry and Xi is G_W-self-adjoint positive
    definite; both factors are unique. With S = sqrt(G), both come from
    the SVD U Sigma V^T of A = S_W F S_U^{-1}: Psi = S_W^{-1} U V^T S_U and
    Xi = S_W^{-1} U Sigma U^T S_W. Working on A directly (Higham 1986)
    keeps the condition number of F instead of squaring it. F, G_U and G_W
    may each be a stack; the factors then broadcast over it.
    """
    f = _as_square(f, "F")
    g_u = _as_square(g_u, "G_U")
    g_w = _as_square(g_w, "G_W")
    low = singular_values(f)[..., 0]
    if np.any(low <= 1e-10):
        raise Singular(f"min singular value {np.min(low):.3e} <= 1e-10")
    s_u = sym_sqrt(g_u)
    s_w = sym_sqrt(g_w)
    s_w_inv = _inv_spd(s_w)
    u, sigma, vt = np.linalg.svd(s_w @ f @ _inv_spd(s_u))
    psi = s_w_inv @ u @ vt @ s_u
    xi = s_w_inv @ (u * sigma[..., None, :]) @ _swap(u) @ s_w
    return psi, xi


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
