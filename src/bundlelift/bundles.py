"""Vector bundles presented as fiber-projector fields, parallel transport
for the projection connection, and loop holonomy.

Every bundle fixes an ambient fiber space R^N and a smooth field of
orthogonal projectors Q(x); the fiber over x is the image of Q(x) and the
metric is the restricted Euclidean product. A bundle is given by one
field: a complex bundle by its Hermitian projector P(x) alone, which
``BundleModel`` realifies to Q = realify(P) (C^m as R^{2m}, J the realified
multiplication by i restricted to the fiber). A sum of two complex bundles
is realified as a whole, with real coordinates (Re z1, Re z2, Im z1, Im z2);
a mixed sum keeps its summands' real blocks.

The field and its differential take one point or a stack of points on a
leading axis (see ``manifolds``) and are each written once in broadcasting
numpy; the 2 x 2 fields of the torus line bundles write their entries in
closed form.

Fiber vectors are plain ambient arrays. ``joint_transport_operators`` is
the one transport, and ``transport_operator`` its one-pair case: it
returns the transport map as an ambient matrix, integrating
chi'(t) = Q'(t) chi(t) with classical RK4 and re-projecting after every
step. Q' is the bundle's exact projector differential along the path
velocity; a bundle without a projector differential is refused.
The ODE is linear, so the kernel builds the RK4 increment D of every step
of a window in batched products of the stage matrices and then loops
chi <- Qnode (chi + D chi). The identity is kept out of D: folded in, it
would round chi to the size of I and raise the roundoff floor of long
runs. The ODE being linear, the operator is also the product of the
transports over the gcd(steps, ``TRANSPORT_SEGMENTS``) equal segments of
the grid, each walked from the projector at its first node.

A ``Path`` is one track or a stack of P tracks: evaluated on a vector of T
times it returns shape (T, ...) or (T, P, ...). ``joint_transport_operators``
takes a list of (bundle, path) pairs whose bundles share the ambient fiber
dimension N, and walks the RK4 time grid in windows of consecutive steps
that never cross a segment boundary.
Per window and pair it evaluates the path and its velocity once, on the
window's stage times, whose even entries are the node times, and calls
each field once on the flattened times x tracks stack; the tracks of
all pairs go side by side on the axis after time, into one RK4 kernel
call, which runs the window's whole segments side by side or continues a
segment from the previous window's state. A window holds as many steps as
fit in ``TRANSPORT_CHUNK_BYTES`` of stage arrays for all tracks, so memory
stays bounded at any step count; more tracks than fit one step are
transported in groups that each fit. One track is the case P = 1.
Each pair gets one (N, N) operator, or (P, N, N) for a stack, bitwise the
operator of that pair transported alone; the innermost open
``transport_errors()`` block gets each track's Richardson error estimate,
from a walk at twice the step on the node entries of the same arrays.
``holonomy_signs`` likewise takes (line bundle, loop) pairs, each loop one
loop or a stack of loops, and gives each pair its orientation sign.

Nothing is cached per point: ``fiber_basis`` is one stacked pivoted
Cholesky of the projector, deterministic in the point; an eigensolve runs
only to name the measured rank of a projector it refuses.
"""

import contextlib
import contextvars
import itertools
import math

import numpy as np

from . import _kernels
from .config import DEFAULT_TRANSPORT_STEPS
from .errors import Ambiguous, BadParams
from .manifolds import (ComplexProjective, GrassmannReal, Product, Sphere,
                        Torus, map_points)
from .numkernel import (norms, projector_basis, realify,
                        standard_complex_structure, sym_eigh)

__all__ = [
    "BundleModel",
    "transport_errors",
    "Path",
    "homotopy_path",
    "tautological_real",
    "tautological_complex",
    "pullback",
    "torus_line",
    "tangent_sphere",
    "trivial",
    "direct_sum",
    "joint_transport_operators",
    "transport_operator",
    "holonomy_signs",
]


class BundleModel:
    """A vector bundle as one projector field on a fixed ambient fiber space.

    ``projector(x)`` and the optional ``projector_differential(x, xdot)``
    give the real (N, N) projector Q(x) and its derivative along xdot or, on
    a complex bundle, the Hermitian (N/2, N/2) projector P(x) and its
    derivative, which ``fiber_projector`` and ``projector_differential``
    realify. Each accepts one base point or a stack of points on a leading
    axis (a pair of stacks over a product base) and then returns the stack
    of matrices, equal to the per-point results.
    """

    def __init__(self, key, base, ambient_fiber_dim, real_rank, projector,
                 projector_differential=None, complex_fibers=False):
        self.key = key
        self.base = base
        self.ambient_fiber_dim = ambient_fiber_dim
        self.real_rank = real_rank
        self._projector = projector
        self._projector_differential = projector_differential
        self.has_complex_structure = complex_fibers
        if complex_fibers:
            self._j_std = standard_complex_structure(ambient_fiber_dim // 2)

    def __repr__(self):
        return f"<BundleModel {self.key}>"

    def __eq__(self, other):
        return isinstance(other, BundleModel) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @property
    def has_projector_differential(self):
        return self._projector_differential is not None

    def _require_complex(self):
        if not self.has_complex_structure:
            raise BadParams(f"bundle {self.key} has no complex structure")

    def fiber_projector(self, x):
        q = self._projector(x)
        return realify(q) if self.has_complex_structure else q

    def projector_differential(self, x, xdot):
        dq = self._projector_differential(x, xdot)
        return realify(dq) if self.has_complex_structure else dq

    def complex_fiber_projector(self, x):
        self._require_complex()
        return self._projector(x)

    def complex_structure(self, x):
        """J(x): realified multiplication by i restricted to the fiber;
        satisfies J Q = Q J and J^2 = -Q. Accepts a stack of points."""
        self._require_complex()
        q = self.fiber_projector(x)
        return q @ self._j_std @ q

    def fiber_basis(self, x):
        """Orthonormal basis of the fiber over x as columns of an (N, r)
        matrix, or a stack of them: the columns of the pivoted Cholesky
        factor of Q(x) (``projector_basis``), in pivot order, each with a
        positive pivot entry. Deterministic, so equal points give equal
        bases, but not continuous in x: where the largest diagonal entries
        of the residual tie, the pivot and with it the basis can switch."""
        q = self.fiber_projector(x)
        basis, ok = projector_basis(q, self.real_rank)
        if not np.all(ok):
            # name the rank that the eigenvalues measure at a refused point
            ranks = np.sum(sym_eigh(q[~ok])[0] > 0.5, axis=-1)
            wrong = ranks[ranks != self.real_rank]
            raise BadParams(
                f"projector rank {int(wrong[0])} != bundle rank {self.real_rank}"
                if wrong.size else
                f"projector is not an orthogonal projector of rank {self.real_rank}")
        return basis

    def random_fiber_vector(self, x, rng):
        """A unit vector in the fiber over x, or one over each point of a
        stack, from one block of Gaussians of rng (see unit_fiber_vectors)."""
        shape = self.base.stack_shape(x) + (self.ambient_fiber_dim,)
        return self.unit_fiber_vectors(x, rng.normal(size=shape), rng)

    def unit_fiber_vectors(self, x, g, rng):
        """The ambient vectors g projected onto the fibers over x and
        normalised; g may carry leading axes in front of x's stack axes, as
        for Lift.action. A vector the projector nearly kills is redrawn from
        one further block of rng per round, at most 8 rounds."""
        q = np.broadcast_to(self.fiber_projector(x), g.shape + g.shape[-1:])
        v = np.matvec(q, g)
        for _ in range(8):
            faint = norms(v) <= 1e-6
            if not np.any(faint):
                break
            v[faint] = np.matvec(q[faint], rng.normal(
                size=(np.count_nonzero(faint), g.shape[-1])))
        nrm = norms(v)
        if np.any(nrm <= 1e-6):
            raise BadParams("could not sample a fiber vector (degenerate projector?)")
        return v / nrm[..., None]

    def membership_residual(self, x, v):
        """|Q(x) v - v|, or one residual per point of a stack."""
        return norms(np.matvec(self.fiber_projector(x), v) - v)


# ---------------------------------------------------------------------------
# Concrete constructors


def _outer(a, b):
    """np.outer of the last axes, over any leading stack axes."""
    return a[..., :, None] * b[..., None, :]


def _sym_outer(a, b):
    # outer(a, b) + outer(b, a), bitwise: b_i a_j is a_j b_i exactly
    s = _outer(a, b)
    return s + np.swapaxes(s, -1, -2)


def _block_diag(a, b):
    """Block-diagonal [[a, 0], [0, b]] of two stacks of square matrices."""
    n1, n2 = a.shape[-1], b.shape[-1]
    out = np.zeros(a.shape[:-2] + (n1 + n2, n1 + n2),
                   dtype=np.result_type(a, b))
    out[..., :n1, :n1] = a
    out[..., n1:, n1:] = b
    return out


def tautological_real(k, n):
    """gamma^k(R^n) over the Grassmannian of k-planes: the fiber over a
    projector point P is the image of P, so Q(P) = P."""
    base = GrassmannReal(k, n)
    return BundleModel(
        key=("tautological_real", k, n),
        base=base,
        ambient_fiber_dim=n,
        real_rank=k,
        projector=lambda p: np.asarray(p, dtype=float),
        projector_differential=lambda p, pdot: np.asarray(pdot, dtype=float),
    )


def tautological_complex(n):
    """gamma^1(C^{n+1}) over CP^n, realified."""
    base = ComplexProjective(n)
    return BundleModel(
        key=("tautological_complex", n),
        base=base,
        ambient_fiber_dim=2 * (n + 1),
        real_rank=2,
        projector=lambda p: np.asarray(p, dtype=complex),
        projector_differential=lambda p, pdot: np.asarray(pdot, dtype=complex),
        complex_fibers=True,
    )


def pullback(f, w):
    """Pullback bundle f^* W with fibers Q(x) = Q_W(f(x)), and the projector
    differential Q_W'(f(x))[df_x xdot] when f has a differential and W a
    projector differential. Its fields take stacks when ``f.forward`` does."""
    if f.target != w.base:
        raise BadParams(f"map target {f.target} does not match bundle base {w.base}")
    pdiff = None
    if f.differential is not None and w.has_projector_differential:
        pdiff = lambda x, xdot: w._projector_differential(
            f.forward(x), f.differential(x, xdot))
    return BundleModel(
        key=("pullback", f.name, w.key),
        base=f.source,
        ambient_fiber_dim=w.ambient_fiber_dim,
        real_rank=w.real_rank,
        projector=lambda x: w._projector(f.forward(x)),
        projector_differential=pdiff,
        complex_fibers=w.has_complex_structure,
    )


def _check_bits(b):
    """b as an int64 array, rejected unless it is a nonzero 0/1 vector
    (tested before the cast: a bit of 0.5 or NaN is refused, not cut)."""
    b = np.asarray(b)
    if b.ndim != 1 or not ((b == 0) | (b == 1)).all() or not b.any():
        raise BadParams("b must be a nonzero 0/1 vector")
    return b.astype(np.int64)


def torus_line(b):
    """The real line bundle L_b over the torus, embedded in a trivial R^2:
    Q(x) = u u^T with u(x) = (cos(pi b.x), sin(pi b.x)).

    Changing x by an integer vector m flips u by (-1)^{b.m}, so Q is
    well defined on the torus. Q and its differential are written entry by
    entry in the double angle 2 pi b.x: Q = (I + [[cos, sin], [sin, -cos]])
    / 2 and Q' = pi b.xdot [[-sin, cos], [cos, sin]]. The torus lifts read
    the section u itself, as ``unit_section``.
    """
    b = _check_bits(b)
    n = b.shape[0]
    bf = b.astype(float)

    def u_of(x):
        phase = np.pi * (np.asarray(x, dtype=float) @ bf)
        u = np.empty(np.shape(phase) + (2,))
        u[..., 0] = np.cos(phase)
        u[..., 1] = np.sin(phase)
        return u

    def double_angle(x):
        phase = (2.0 * np.pi) * (np.asarray(x, dtype=float) @ bf)
        return np.cos(phase), np.sin(phase)

    def q_of(x):
        c, s = double_angle(x)
        q = np.empty(c.shape + (2, 2))
        q[..., 0, 0] = 0.5 * (1.0 + c)
        q[..., 0, 1] = q[..., 1, 0] = 0.5 * s
        q[..., 1, 1] = 0.5 * (1.0 - c)
        return q

    def q_diff(x, xdot):
        c, s = double_angle(x)
        rate = np.pi * (np.asarray(xdot, dtype=float) @ bf)
        dq = np.empty(c.shape + (2, 2))
        dq[..., 0, 0] = -rate * s
        dq[..., 0, 1] = dq[..., 1, 0] = rate * c
        dq[..., 1, 1] = rate * s
        return dq

    model = BundleModel(
        key=("torus_line", tuple(int(v) for v in b)),
        base=Torus(n),
        ambient_fiber_dim=2,
        real_rank=1,
        projector=q_of,
        projector_differential=q_diff,
    )
    model.unit_section = u_of
    return model


def tangent_sphere(n):
    """TS^n embedded in R^{n+1}: Q(x) = I - x x^T."""
    eye = np.eye(n + 1)
    return BundleModel(
        key=("tangent_sphere", n),
        base=Sphere(n),
        ambient_fiber_dim=n + 1,
        real_rank=n,
        projector=lambda x: eye - _outer(x, x),
        projector_differential=lambda x, xdot: -_sym_outer(xdot, x),
    )


def trivial(model, rank, complex_fibers=False):
    """The product bundle with constant fiber R^rank (or C^rank realified)."""
    n = 2 * rank if complex_fibers else rank
    eye = np.eye(rank, dtype=complex if complex_fibers else float)

    def constant(m):
        return lambda x, *_: np.zeros(model.stack_shape(x) + m.shape, m.dtype) + m

    return BundleModel(
        key=("trivial_complex" if complex_fibers else "trivial", model, rank),
        base=model,
        ambient_fiber_dim=n,
        real_rank=n,
        projector=constant(eye),
        projector_differential=constant(np.zeros_like(eye)),
        complex_fibers=complex_fibers,
    )


def direct_sum(v1, v2):
    """External direct sum over the product base: the fiber over (x1, x2)
    is fiber_1(x1) + fiber_2(x2), block diagonal: in C^{N/2} for two complex
    bundles, in R^N for any other pair."""
    complex_fibers = v1.has_complex_structure and v2.has_complex_structure

    def field(v, x):
        return v._projector(x) if complex_fibers else v.fiber_projector(x)

    return BundleModel(
        key=("direct_sum", v1.key, v2.key),
        base=Product(v1.base, v2.base),
        ambient_fiber_dim=v1.ambient_fiber_dim + v2.ambient_fiber_dim,
        real_rank=v1.real_rank + v2.real_rank,
        projector=lambda p: _block_diag(field(v1, p[0]), field(v2, p[1])),
        complex_fibers=complex_fibers,
    )


# ---------------------------------------------------------------------------
# Parallel transport


class Path:
    """Curve [0,1] -> base, or a stack of P curves (tracks), with its exact
    velocity.

    ``fn(t)`` takes one time or a 1-d array of T times; for an array it
    returns the points at those times, shape (T, ...) for one track and
    (T, P, ...) for a stack of tracks. ``velocity(t, xt)`` returns the
    velocities at the same times, stacked the same way, given the points
    xt = fn(t) already evaluated. ``joint_transport_operators`` calls them
    on consecutive windows of its time grid, every track in each call.
    """

    def __init__(self, fn, velocity):
        self.fn = fn
        self.velocity = velocity

    def __call__(self, t):
        return self.fn(t)


def homotopy_path(homotopy, x):
    """The track t -> family(t, x) of a point under a homotopy, or the stack
    of tracks of a stack of points, evaluated on time vectors by the
    homotopy's family and velocity."""
    return Path(lambda t: homotopy.family(t, x),
                lambda t, xt: homotopy.velocity(t, x, xt))


def _stage_arrays(bundle, path, ts, tracks):
    """Projector derivatives at the RK4 stage times ts and the projectors at
    the node times ts[::2], laid out (time, track, N, N), each from one
    field call on the stack of points of the selected tracks (a slice of
    the flattened track axis; the path itself is evaluated on all of its
    tracks) at those times (time axis first). The path is evaluated once,
    on ts."""

    def field(fn, *args):
        # times x selected tracks as one flat stack for the call
        shape = bundle.base.stack_shape(args[0])

        def flat(a):
            a = a.reshape((shape[0], -1) + a.shape[len(shape):])[:, tracks]
            return a.reshape((-1,) + a.shape[2:])

        out = fn(*[map_points(flat, a) for a in args])
        return out.reshape((shape[0], -1) + out.shape[1:])

    xt = path(ts)
    qp = field(bundle.projector_differential, xt, path.velocity(ts, xt))
    qnode = field(bundle.fiber_projector, map_points(lambda a: a[::2], xt))
    return qp, qnode


def _place(window, part, start, tracks):
    """The window array with one pair's stage array copied into its track
    slice from ``start``, allocated at the first pair. A part that holds
    every track is the window itself, uncopied."""
    if part.shape[1] == tracks:
        return part
    if window is None:
        window = np.empty((part.shape[0], tracks) + part.shape[2:])
    window[:, start:start + part.shape[1]] = part
    return window


# Bytes of window stage arrays (qp and qnode together) one RK4 kernel call
# may take: the tracks of all (bundle, path) pairs of a
# ``joint_transport_operators`` call share this one budget. They are split
# into groups of as many tracks as fit one step (five N x N matrices per
# track), and each group walks the time grid in windows of as many steps
# as fit, rounded down to whole segments of the walk at 2h; a window
# shorter than that ends at its segment's end at the latest. Each pair's
# stage arrays are copied into its track slice of the window, one pair at
# a time, so one pair's arrays come on top of the budget (none for a
# single pair, whose arrays are the window), as do the kernel's step
# increments D (w matrices per track for a window of w steps, and w / 2
# at 2h), its few increment blocks and, for a window that starts on an
# odd node, a copy of its node matrices.
TRANSPORT_CHUNK_BYTES = 2 ** 20

# The grid is cut into gcd(steps, TRANSPORT_SEGMENTS) segments: a number
# of steps alone, so no operator depends on windows, groups or pairs.
TRANSPORT_SEGMENTS = 32


def _pair_name(k, m):
    # the prefix that names the failing pair of a several-pair call
    return f"pair {k} of {m}: " if m > 1 else ""


def _chain(total, segments):
    # the transport so far, followed by those of the segments just walked
    for t in segments:
        total = t if total is None else t @ total
    return total


_ERRORS = contextvars.ContextVar("transport_errors")


@contextlib.contextmanager
def transport_errors():
    """``with transport_errors() as errors:`` collects in ``errors`` the
    estimates of every transport made in the block. Only the innermost
    open block collects; outside every block the estimates are dropped."""
    token = _ERRORS.set([])
    try:
        yield _ERRORS.get()
    finally:
        _ERRORS.reset(token)


def joint_transport_operators(pairs, steps=DEFAULT_TRANSPORT_STEPS):
    """``transport_operator`` of every (bundle, path) pair of a list, each
    pair's result in that pair's own shape and bitwise equal to the pair
    transported alone. The bundles must share ``ambient_fiber_dim``: the
    tracks of all pairs go side by side into each window, and each window
    makes one RK4 kernel call at step h.

    Each track is also walked at 2h on the node data of the same windows,
    and its Richardson estimate max |X_h - X_2h| / 15 over the operator
    entries goes to the innermost open ``transport_errors()`` block: one
    array per pair, in its track shape, bitwise that of the pair alone.
    The walk at 2h pairs the steps of each segment, or of two odd
    segments; over an odd number of steps it takes the last step at h and
    leaves out its error."""
    if not isinstance(steps, (int, np.integer)):
        raise BadParams(f"transport steps must be an integer, not {steps!r}")
    if steps < 16:
        raise BadParams("transport needs at least 16 steps")
    if not pairs:
        raise BadParams("no (bundle, path) pairs to transport")
    n = pairs[0][0].ambient_fiber_dim
    for k, (bundle, _) in enumerate(pairs):
        if bundle.ambient_fiber_dim != n:
            raise BadParams(
                f"{_pair_name(k, len(pairs))}ambient fiber dimension "
                f"{bundle.ambient_fiber_dim} != {n} of pair 0")
        if not bundle.has_projector_differential:
            raise BadParams(f"{_pair_name(k, len(pairs))}bundle {bundle.key} "
                            "has no projector differential to transport by")
    shapes = [bundle.base.stack_shape(path(0.0)) for bundle, path in pairs]
    ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
    starts = [0] + ends[:-1]
    tracks = ends[-1]
    matrix_bytes = n * n * 8
    group = max(1, TRANSPORT_CHUNK_BYTES // (5 * matrix_bytes))
    seg = steps // math.gcd(steps, TRANSPORT_SEGMENTS)
    # the segments of the walk at 2h: an even number of steps, or all steps
    pair_seg = 2 * seg if seg % 2 and steps % 2 == 0 else seg
    h = 1.0 / steps
    ts = (0.5 * h) * np.arange(2 * steps + 1)
    # with no track at all there is no group, and each pair gets its empty
    # operator
    out = np.empty((tracks, n, n))
    err = np.empty(tracks)
    for g in range(0, tracks, group):
        e = min(g + group, tracks)
        # a window of w steps holds 2w+1 stage and w+1 node matrices per track
        window = max(1, (TRANSPORT_CHUNK_BYTES // ((e - g) * matrix_bytes) - 2) // 3)
        window = window - window % pair_seg if window >= pair_seg else window
        # each walk's state and product, and the node data of the last even
        # node of a window that ends on an odd one, where a step of 2h starts
        x = total = y = y_total = lead = None
        i = 0
        while i < steps:
            # whole segments, or a part of one segment
            j = min(i + window, steps if window >= pair_seg else i - i % seg + seg)
            qp = qnode = None
            for (bundle, path), start, end in zip(pairs, starts, ends):
                lo, hi = max(start, g), min(end, e)
                if lo >= hi:
                    continue
                part_qp, part_qnode = _stage_arrays(
                    bundle, path, ts[2 * i:2 * j + 1], slice(lo - start, hi - start))
                qp = _place(qp, part_qp, lo - g, e - g)
                qnode = _place(qnode, part_qnode, lo - g, e - g)
            # a segment starts from the projector at its first node
            x = _kernels.rk4_transport(qp, qnode, qnode[:-1:seg] if x is None else x,
                                       h, segments=max(1, (j - i) // seg))
            if j % seg == 0:
                total = _chain(total, x)
                x = None
            # the walk at 2h over the nodes c..d, the even ones at or before i, j
            nodes = (qp[::2], qnode)
            if i % 2:
                nodes = [np.concatenate(both) for both in zip(lead, nodes)]
            c, d = i - i % 2, j - j % 2
            if j % 2:
                lead = [a[d - c:d - c + 1].copy() for a in nodes]
            if d > c:
                qpn, qn = (a[:d - c + 1] for a in nodes)
                y = _kernels.rk4_transport(
                    qpn, qn[::2], qn[:-1:pair_seg] if y is None else y, 2.0 * h,
                    segments=max(1, (d - c) // pair_seg))
            if j == steps and steps % 2:
                y = _kernels.rk4_transport(qp[-3:], qnode[-2:], y, h)
            if j == steps or (d > c and d % pair_seg == 0):
                y_total = _chain(y_total, y)
                y = None
            i = j
        out[g:e] = total
        err[g:e] = np.max(np.abs(total - y_total), axis=(-2, -1)) / 15.0
    spans = list(zip(shapes, starts, ends))
    # outside every transport_errors() block, to a list that is dropped
    _ERRORS.get([]).extend(err[a:b].reshape(shape) for shape, a, b in spans)
    return [out[a:b].reshape(shape + (n, n)) for shape, a, b in spans]


def transport_operator(bundle, path, steps=DEFAULT_TRANSPORT_STEPS):
    """The full transport map fiber(path(0)) -> fiber(path(1)) as an
    ambient matrix (the orthogonal complement of the fiber is killed); for
    a stack of P tracks, the (P, N, N) stack of the per-track maps, each
    bitwise equal to the map of its track alone."""
    return joint_transport_operators([(bundle, path)], steps)[0]


def holonomy_signs(pairs, steps=DEFAULT_TRANSPORT_STEPS):
    """Orientation sign picked up by each real line bundle of a list of
    (line bundle, loop) pairs around its closed loop (an int array of one
    sign per loop for a stack of loops), from one
    ``joint_transport_operators`` call. An open loop, a NaN gap or an
    ambiguous sign names the failing pair."""
    m = len(pairs)
    v0s = []
    for k, (line_bundle, loop) in enumerate(pairs):
        if line_bundle.real_rank != 1:
            raise BadParams(f"{_pair_name(k, m)}holonomy_signs needs a real line "
                            "bundle (rank 1)")
        start = loop(0.0)
        gap = np.max(line_bundle.base.distance(start, loop(1.0)))
        # negated, so that a NaN gap (a loop that could not be evaluated) fails
        if not gap <= 1e-10:
            raise BadParams(f"{_pair_name(k, m)}loop is not closed (gap {gap:.3e})")
        v0s.append(line_bundle.fiber_basis(start)[..., 0])
    ops = joint_transport_operators(pairs, steps)
    signs = []
    for k, (v0, op) in enumerate(zip(v0s, ops)):
        out = np.matvec(op, v0)
        inner = np.vecdot(out / norms(out)[..., None], v0)
        # a NaN transport has no sign: every |inner| must clear 0.9
        if not np.all(np.abs(inner) > 0.9):
            raise Ambiguous(
                f"{_pair_name(k, m)}|<chi(1), v0>| = {np.min(np.abs(inner)):.3f} "
                "<= 0.9; increase steps")
        sign = np.where(inner > 0, 1, -1)
        signs.append(int(sign) if sign.ndim == 0 else sign)
    return signs

