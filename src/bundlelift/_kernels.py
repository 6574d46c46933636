"""Hot numeric kernels, in numpy: RK4 transport (step increments built in
batched products over blocks of steps, then one short loop over the steps
of the window's segments side by side), plaquette phases from unit
sections per subdivision group of four triangles and of the triangle it
splits, and solid angles (data
gathered with ``np.take``, faster than fancy indexing).
The symmetric eigensolver is LAPACK's, behind
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
# blocks of consecutive steps, so the loop keeps two products and a sum per
# step. The identity is not folded into D: a step matrix Qnode (I + D)
# rounds the state to the size of I, and the roundoff floor of a long run
# rises about 60x, while x + D x keeps the small increment apart from the
# state.
# A window of ``segments`` equal segments runs them side by side: x0 and the
# result hold one state per segment on a leading axis (none for one
# segment), each bitwise the segment walked alone. The method is one-step:
# a segment split at a node, the second call started from the first call's
# result, is bitwise the same as the whole segment.
# The stage times of a step of 2h are nodes of the h grid, so the walk at
# 2h of Richardson's error estimate is rk4_transport(qp[::2], qnode[::2],
# x0, 2h); for RK4 the two walks differ by 15 times the error of the finer
# one (Hairer, Norsett and Wanner, Solving ODEs I, section II.4).

# Bytes of one matrix stack of an increment block (one matrix per track and
# step): the temporaries of the batched products are a few blocks, so next
# to the stage arrays the kernel holds D (one matrix per track and step)
# and little else. Each D is computed from its own step's stage matrices,
# so the block size does not change a bit of the result.
INCREMENT_BLOCK_BYTES = 2 ** 16


def rk4_transport(qp, qnode, x0, h, segments=1):
    steps = qnode.shape[0] - 1
    d = np.empty((steps,) + qp.shape[1:], dtype=qp.dtype)
    block = max(1, INCREMENT_BLOCK_BYTES // max(1, qnode[0].nbytes))
    for s in range(0, steps, block):
        e = min(s + block, steps)
        a0 = qp[2 * s:2 * e:2]
        a1 = qp[2 * s + 1:2 * e:2]
        a2 = qp[2 * s + 2:2 * e + 1:2]
        # in place: the temporaries are k and one product, each one block
        k = a1 @ a0
        k *= 0.5 * h
        k += a1
        de = d[s:e]
        np.add(a0, 2.0 * k, out=de)
        k = a1 @ k
        k *= 0.5 * h
        k += a1
        de += 2.0 * k
        k = a2 @ k
        k *= h
        k += a2
        de += k
        de *= h / 6.0
    # (step in segment, segment) on the leading axes
    split = (segments, steps // segments) + d.shape[1:]
    d = d.reshape(split).swapaxes(0, 1)
    qn = qnode[1:].reshape(split).swapaxes(0, 1)
    x = x0
    for i in range(len(d)):
        x = qn[i] @ (x + d[i] @ x)
    return x.reshape(x0.shape)


# ---------------------------------------------------------------------------
# Bargmann-phase plaquette sums: arg tr(Q_a Q_b Q_c) per oriented triangle,
# for rank-1 Q = w w* that of <a|b><b|c><c|a>, w = Q[:, k] / sqrt(Q_kk) with
# k = argmax Re diag Q (Fukui, Hatsugai and Suzuki, J. Phys. Soc. Jpn. 74,
# 1674, 2005); a zero or non-finite Q gives a NaN w and min |tr| quietly.
# w is (m, V). Each vertex of a subdivision group of manifolds.icosphere is
# gathered once into the role stack; a role is conjugated one (G,) slice at
# a time where an overlap reads it, and no other copy of the stack is made.
# <v|u> is not always bitwise conj(<u|v>). Group g splits triangle g of the
# level before, [a, b, c] in that order, so the same call gives that level's
# phases, from the same section bits and in the same overlap order.


@np.errstate(invalid="ignore", divide="ignore")
def unit_sections(qv):
    rows = np.arange(qv.shape[0])
    diag = qv.diagonal(axis1=1, axis2=2).real
    k = np.argmax(diag, axis=1)
    w = qv[rows, :, k]
    w /= np.sqrt(diag[rows, k])[:, None]
    return w.T


def plaquette_phases(w, tris):
    a, ab, ca, b, bc, c = range(6)  # a group's vertices on axis 1 of u
    # its four triangles, then the triangle it splits
    triangles = ((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca), (a, b, c))
    u = np.take(w, tris.reshape(-1, 12)[:, [0, 1, 2, 3, 4, 6]].T, axis=1)

    def o(i, j):
        s = u[0, i].conj()
        s *= u[0, j]
        for n in range(1, len(u)):
            s += u[n, i].conj() * u[n, j]
        return s
    phases = np.empty((len(triangles), u.shape[2]))
    min_abs = np.empty(len(triangles))
    for k, (p, q, r) in enumerate(triangles):
        tr = o(p, q)
        tr *= o(q, r)
        tr *= o(r, p)
        np.arctan2(tr.imag, tr.real, out=phases[k])
        min_abs[k] = np.abs(tr).min(initial=1e300)
    # np.min keeps a NaN that the builtin min would drop
    return ((phases[:4].T.reshape(-1), float(np.min(min_abs[:4]))),
            (phases[4], float(min_abs[4])))


# ---------------------------------------------------------------------------
# Signed solid angles of spherical triangles (Van Oosterom-Strackee).


def solid_angles(pts, tris):
    a, b, c = (np.take(pts, t, axis=0) for t in tris.T)
    num = np.einsum("ki,ki->k", a, np.cross(b, c))
    den = (
        1.0
        + np.einsum("ki,ki->k", a, b)
        + np.einsum("ki,ki->k", b, c)
        + np.einsum("ki,ki->k", c, a)
    )
    return 2.0 * np.arctan2(num, den)
