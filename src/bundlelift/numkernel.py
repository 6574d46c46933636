"""Small dense linear-algebra kernel shared by every other module.

All routines work on plain float64 numpy arrays (complex data travels in
the realified 2n x 2n block form, see :func:`realify`). Eigenvalues and
singular values come from LAPACK through ``numpy.linalg``; the symmetric
eigensolver fixes the eigenvector signs, so repeated calls on equal input
are bitwise identical.

``sym_eigh``, ``sym_sqrt``, ``singular_values`` and ``polar_two_metric``
take one matrix or a stack of matrices on leading axes; LAPACK factors
each matrix of a stack on its own, so every result is bitwise the
per-matrix result. Matrix-vector products on stacks are
``np.matvec``, and :func:`norms` is the Euclidean norm of each vector of a
stack, both bitwise equal to ``m @ v`` and ``np.linalg.norm(v)`` per
vector.
"""

import numpy as np

from .config import DEFAULT_TOLERANCES as TOL
from .errors import NotComplexStructure, NotSPD, Singular

__all__ = [
    "sym_eigh",
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
    inner product <u,w> + <Ju,Jw>."""
    n = j.shape[0]
    gram = np.eye(n) + j.T @ j

    def dot(u, w):
        return float(u @ gram @ w)

    basis = []
    for cand_idx in range(n):
        if 2 * len(basis) == n:
            break
        c = np.zeros(n)
        c[cand_idx] = 1.0
        for b in basis:
            c = c - dot(b, c) / dot(b, b) * b
            jb = j @ b
            c = c - dot(jb, c) / dot(jb, jb) * jb
        nrm = np.sqrt(dot(c, c))
        if nrm > tol:
            basis.append(c / nrm)
    if 2 * len(basis) != n:
        raise NotComplexStructure("failed to build a complex-adapted basis")
    cols = []
    for b in basis:
        cols.append(b)
        cols.append(j @ b)
    return np.column_stack(cols)


def complex_structure_conjugator(j, k):
    """Invertible psi with psi^{-1} J psi = K, for two complex structures
    J, K on R^{2r} (any two are conjugate)."""
    j = _as_square(j, "J")
    k = _as_square(k, "K")
    n = j.shape[0]
    if n % 2 != 0 or j.shape != k.shape:
        raise NotComplexStructure("need matching even-dimensional matrices")
    dj = np.max(np.abs(j @ j + np.eye(n)))
    dk = np.max(np.abs(k @ k + np.eye(n)))
    if dj > 1e-8:
        raise NotComplexStructure(f"J^2 + I defect {dj:.3e} exceeds 1e-8")
    if dk > 1e-8:
        raise NotComplexStructure(f"K^2 + I defect {dk:.3e} exceeds 1e-8")
    bj = _complex_adapted_basis(j, 1e-8)
    bk = _complex_adapted_basis(k, 1e-8)
    # psi maps the K-adapted basis onto the J-adapted one, pairwise; then
    # psi^{-1} J psi agrees with K on a basis, hence everywhere.
    return bj @ np.linalg.inv(bk)


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
