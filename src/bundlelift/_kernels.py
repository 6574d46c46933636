"""Hot numeric kernels, in numpy: RK4 transport (step increments built in
batched products, then one short loop over the steps), plaquette phases
and solid angles. The symmetric eigensolver is LAPACK's, behind
:func:`bundlelift.numkernel.sym_eigh`.
"""

import numpy as np


# ---------------------------------------------------------------------------
# RK4 integration of the linear transport ODE  X'(t) = Qp(t) X(t)
# with re-projection X <- Qnode X after every step.
#
# qp holds the derivative matrix at the 2*steps+1 stage times
# (t_0, t_0+h/2, t_1, ...); qnode holds the projector at the steps+1 nodes
# and x0 the state at t_0. For a linear ODE one RK4 step is the matrix
# polynomial X <- (I + D) X in the stage matrices a0, a1, a2 of the step:
#   K2 = a1 + (h/2) a1 a0,  K3 = a1 + (h/2) a1 K2,  K4 = a2 + h a2 K3,
#   D  = (h/6) (a0 + 2 K2 + 2 K3 + K4).
# The increments D of all steps are built first, in batched products over
# the whole window, so the loop keeps two products and a sum per step. The
# identity is not folded into D: a step matrix Qnode (I + D) rounds the
# state to the size of I, and the roundoff floor of a long run rises about
# 60x, while x + D x keeps the small increment apart from the state.
# The method is one-step: a run split at a node, the second call started
# from the first call's result, is bitwise the same as the whole run.


def rk4_transport(qp, qnode, x0, h):
    a0, a1, a2 = qp[:-2:2], qp[1::2], qp[2::2]
    # in place: the temporaries are d, k and one product, each w matrices
    # per track for a window of w steps
    k = a1 @ a0
    k *= 0.5 * h
    k += a1
    d = a0 + 2.0 * k
    k = a1 @ k
    k *= 0.5 * h
    k += a1
    d += 2.0 * k
    k = a2 @ k
    k *= h
    k += a2
    d += k
    d *= h / 6.0
    x = x0
    for i in range(qnode.shape[0] - 1):
        x = qnode[i + 1] @ (x + d[i] @ x)
    return x


# ---------------------------------------------------------------------------
# Bargmann-phase plaquette sums: arg tr(Q_a Q_b Q_c) per oriented triangle.


def plaquette_phases(qv, tris):
    qa = qv[tris[:, 0]]
    qb = qv[tris[:, 1]]
    qc = qv[tris[:, 2]]
    tr = np.einsum("kij,kjl,kli->k", qa, qb, qc)
    mags = np.abs(tr)
    min_abs = float(mags.min()) if mags.size else 1e300
    return np.angle(tr), min_abs


# ---------------------------------------------------------------------------
# Signed solid angles of spherical triangles (Van Oosterom-Strackee).


def solid_angles(pts, tris):
    a = pts[tris[:, 0]]
    b = pts[tris[:, 1]]
    c = pts[tris[:, 2]]
    num = np.einsum("ki,ki->k", a, np.cross(b, c))
    den = (
        1.0
        + np.einsum("ki,ki->k", a, b)
        + np.einsum("ki,ki->k", b, c)
        + np.einsum("ki,ki->k", c, a)
    )
    return 2.0 * np.arctan2(num, den)
