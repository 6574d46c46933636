"""Hot numeric kernels, in numpy: RK4 transport steps, plaquette phases
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
# and x0 the state at t_0. The method is one-step: a run split at a node,
# the second call started from the first call's result, is bitwise the
# same as the whole run.


def rk4_transport(qp, qnode, x0, h):
    steps = qnode.shape[0] - 1
    x = x0.copy()
    for i in range(steps):
        a0 = qp[2 * i]
        a1 = qp[2 * i + 1]
        a2 = qp[2 * i + 2]
        k1 = a0 @ x
        k2 = a1 @ (x + (0.5 * h) * k1)
        k3 = a1 @ (x + (0.5 * h) * k2)
        k4 = a2 @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = qnode[i + 1] @ x
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
