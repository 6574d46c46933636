"""Concrete manifold models, named diffeomorphisms, homotopies and sphere
map degrees.

Point representations by model:

* ``Sphere(n)`` -- unit vector in R^{n+1}
* ``Torus(n)`` -- coordinates reduced to [0,1)^n
* ``GrassmannReal(k,n)`` -- symmetric rank-k projector matrix (n x n)
* ``ComplexProjective(n)`` -- Hermitian rank-1 projector ((n+1) x (n+1),
  complex). Homogeneous coordinate vectors are a convenience view.
* ``Product(left, right)`` -- tuple of factor points

A stack of points carries leading axes in front of the point axes; a
stack of ``Product`` points is the pair of the factors' stacks. Bundle
fields, every registered ``Diffeo`` (and ``identity_diffeo``,
``product_diffeo``, ``then``, ``inverted``), homotopy families and
``cp1_power_map``, the chart ``sphere_to_cp1`` / ``cp1_to_sphere`` and
``sphere_power_map`` accept stacks and return the stack of the per-point
results, bitwise equal to them. ``degree`` hands its map the stack of all
mesh vertices in one call, so the map must take a stack. A homotopy family
on a time vector and a stack of points returns times first: shape
(T, P, ...). Each model draws a stack with ``random_points(rng, count)``:
one block of normals or uniforms from one stream, mapped onto the model on
the whole stack; one point is row 0 of a one-point draw. ``distance`` of
two stacks is the array of the per-point distances.
"""

import functools
import math

import numpy as np

from . import _kernels
from .errors import BadParams, BadPlane, NonConvergent, UnknownName
from .numkernel import norms, stream

__all__ = [
    "ManifoldModel",
    "Sphere",
    "Torus",
    "GrassmannReal",
    "ComplexProjective",
    "Product",
    "SmoothMap",
    "Diffeo",
    "Homotopy",
    "map_points",
    "named_diffeo",
    "torus_autos",
    "product_diffeo",
    "identity_diffeo",
    "rotation_homotopy",
    "cp1_plane_rotation_homotopy",
    "sphere_to_cp1",
    "cp1_to_sphere",
    "cp1_power_map",
    "sphere_power_map",
    "icosphere",
    "degree",
    "random_orthogonal",
    "random_unimodular",
]


# ---------------------------------------------------------------------------
# Models


class ManifoldModel:
    """An immutable value: a model is built from its ``fields``, positionally
    or by name, and two models are equal (and hash alike) when they are of
    one class with equal fields."""
    fields = ()  # the constructor's arguments, in order
    point_ndim = 1  # array axes of one point

    def __init__(self, *args, **kwargs):
        values = dict(zip(self.fields, args), **kwargs)
        if (len(args) + len(kwargs) != len(self.fields)
                or set(values) != set(self.fields)):
            raise TypeError(f"{type(self).__name__} takes the fields {self.fields}")
        # past the refusing __setattr__; _key is what equality and hash read
        vars(self).update(values, _key=tuple(values[f] for f in self.fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} "
                             "is immutable")

    def stack_shape(self, point):
        """Leading shape of a stack of points; () for one point."""
        return np.shape(point)[:np.ndim(point) - self.point_ndim]

    def distance(self, a, b):
        """Distance of two points (a float), or the array of the per-point
        distances of two stacks, each bitwise the one-point value."""
        return _flat_norms(np.asarray(a) - np.asarray(b), self.point_ndim)


class Sphere(ManifoldModel):
    fields = ("n",)

    def random_points(self, rng, count):
        v = rng.normal(size=(count, self.n + 1))
        # sqrt(vecdot) is bitwise the per-vector np.linalg.norm
        return v / np.sqrt(np.vecdot(v, v))[:, None]


class Torus(ManifoldModel):
    fields = ("n",)

    def distance(self, a, b):
        d = np.mod(np.asarray(a) - np.asarray(b) + 0.5, 1.0) - 0.5
        return _flat_norms(d, self.point_ndim)

    def random_points(self, rng, count):
        return rng.uniform(0.0, 1.0, size=(count, self.n))


def _flat_norms(d, point_ndim):
    """Bitwise np.linalg.norm of each point of a stack of differences (a
    float for one point): the dot product of the flattened point, and for
    complex points the real and imaginary dots added, as norm does
    (complex vecdot differs from it in the last bit)."""
    k = d.ndim - point_ndim
    d = d.reshape(d.shape[:k] + (math.prod(d.shape[k:]),))
    if np.iscomplexobj(d):
        n = np.sqrt(np.vecdot(d.real, d.real) + np.vecdot(d.imag, d.imag))
    else:
        n = norms(d)
    return float(n) if n.ndim == 0 else n


class GrassmannReal(ManifoldModel):
    fields = ("k", "n")
    point_ndim = 2

    def __init__(self, k, n):
        if not 0 < k < n:
            raise BadParams(f"need 0 < k < n, got k={k}, n={n}")
        super().__init__(k, n)

    def random_points(self, rng, count):
        q, _ = np.linalg.qr(rng.normal(size=(count, self.n, self.k)))
        return q @ np.swapaxes(q, -1, -2)


class ComplexProjective(ManifoldModel):
    fields = ("n",)
    point_ndim = 2

    def random_points(self, rng, count):
        # the real and then the imaginary parts of each point
        g = rng.normal(size=(count, 2, self.n + 1))
        z = g[:, 0] + 1j * g[:, 1]
        # bitwise the per-vector np.linalg.norm, as in sphere_to_cp1
        z = z / np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]
        return z[:, :, None] * z.conj()[:, None, :]


class Product(ManifoldModel):
    fields = ("left", "right")  # two models

    def stack_shape(self, point):
        return self.left.stack_shape(point[0])

    def distance(self, a, b):
        d = np.maximum(self.left.distance(a[0], b[0]),
                       self.right.distance(a[1], b[1]))
        return float(d) if np.ndim(d) == 0 else d

    def random_points(self, rng, count):
        # the left block, then the right one
        return (self.left.random_points(rng, count),
                self.right.random_points(rng, count))


def map_points(fn, points):
    """fn applied to the array of a point or a stack of points, factor by
    factor for product points."""
    if isinstance(points, tuple):
        return tuple(map_points(fn, p) for p in points)
    return fn(points)


# ---------------------------------------------------------------------------
# Maps, diffeomorphisms, homotopies


class SmoothMap:
    """A smooth map between models, given by an explicit point formula and,
    if something differentiates or transports along it, by its exact
    differential ``differential(x, xdot)`` = df_x xdot in point coordinates,
    linear in xdot, which takes stacks as ``forward`` does."""

    def __init__(self, name, forward, source, target, differential=None):
        self.name = name
        self.forward = forward
        self.source = source
        self.target = target
        self.differential = differential

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class Diffeo(SmoothMap):
    """Invertible smooth self-map with an exact inverse formula.

    ``forward`` and ``inverse`` of every diffeomorphism built here take one
    point or a stack of points and return the matching stack.
    """

    def __init__(self, name, forward, inverse, source, target=None,
                 differential=None):
        super().__init__(name, forward, source, target or source, differential)
        self.inverse = inverse

    def inverted(self):
        return Diffeo(f"{self.name}^-1", self.inverse, self.forward,
                      self.target, self.source)

    def then(self, other):
        """Composite other . self (apply self first), with the chain rule
        differential when both maps have one."""
        d1, d2 = self.differential, other.differential
        differential = (None if d1 is None or d2 is None else
                        lambda x, xdot: d2(self.forward(x), d1(x, xdot)))
        return Diffeo(
            f"{other.name}.{self.name}",
            lambda x: other.forward(self.forward(x)),
            lambda x: self.inverse(other.inverse(x)),
            self.source,
            other.target,
            differential,
        )


class Homotopy:
    """One-parameter family family(t, x) with family(0, .) = id.

    ``t`` is one time or a 1-d array of times; for an array the family
    returns the stack of the points at those times. ``velocity(t, x, xt)``
    returns the exact time derivative of the family at (t, x) in point
    coordinates, stacked the same way, given the points xt = family(t, x)
    already evaluated, so that the family is evaluated once per set of
    times.
    """

    def __init__(self, name, family, endpoint, source, velocity):
        self.name = name
        self.family = family
        self.endpoint = endpoint
        self.source = source
        self.velocity = velocity


def _linear_diffeo(name, forward, inverse, model):
    # a linear map is its own differential: df_x xdot = forward(xdot)
    return Diffeo(name, forward, inverse, model,
                  differential=lambda x, xdot: forward(xdot))


def identity_diffeo(model):
    """The identity of a model; it returns a copy of its point, factor by
    factor for product points."""
    copy = functools.partial(map_points, np.array)
    return _linear_diffeo("identity", copy, copy, model)


def product_diffeo(model, left, right, name=None):
    """Componentwise diffeomorphism of a product model."""
    if not isinstance(model, Product):
        raise BadParams("product_diffeo needs a Product model")
    return Diffeo(
        name or f"{left.name}x{right.name}",
        lambda p: (left.forward(p[0]), right.forward(p[1])),
        lambda p: (left.inverse(p[0]), right.inverse(p[1])),
        model,
    )


def _check_orthogonal(a, n):
    a = np.asarray(a, dtype=float)
    if a.shape != (n, n):
        raise BadParams(f"expected a {n}x{n} matrix, got {a.shape}")
    defect = np.max(np.abs(a @ a.T - np.eye(n)))
    # negated, so that a matrix that cannot be measured (NaN) is refused
    if not defect <= 1e-10:
        raise BadParams(f"matrix is not orthogonal (defect {defect:.3e})")
    return a


def _refuse(bad, problem):
    """Raise BadParams if a flag is set: bad is one flag for one matrix, or
    one flag per matrix of a stack, and the message then names the first
    flagged matrix. problem(i) describes it, given its index i (() for one
    matrix)."""
    if np.count_nonzero(bad):
        i = np.unravel_index(np.argmax(bad), np.shape(bad))
        where = f"matrix {i[0]} of the stack" if i else "matrix"
        raise BadParams(f"{where} {problem(i)}")


def integer_inverse(a):
    """Exact inverse of an integer matrix with |det| = 1, or the stack of
    the inverses of a stack of such matrices (shape (m, n, n)). Every test
    runs once on the whole stack, and a refusal names the first bad
    matrix."""
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.integer):
        # name the matrix that holds a non-integer (or NaN) entry
        if np.issubdtype(a.dtype, np.number):
            _refuse(~(a == np.rint(a)).all(axis=(-2, -1)),
                    lambda i: "is not an integer matrix")
        raise BadParams("expected an integer matrix")
    af = a.astype(float)
    # + 0.0 writes a rounded -0 as 0
    det = np.rint(np.linalg.det(af)) + 0.0
    _refuse(abs(det) != 1, lambda i: f"is not unimodular (det {det[i]:.0f})")
    inv = np.rint(np.linalg.inv(af)).astype(np.int64)
    _refuse((a @ inv != np.eye(a.shape[-1], dtype=np.int64)).any(axis=(-2, -1)),
            lambda i: "failed its integer inverse reconstruction")
    return inv


def _build_sphere_rotation(model, params):
    a = _check_orthogonal(params["matrix"], model.n + 1)
    return _linear_diffeo("sphere_rotation", lambda x: np.matvec(a, x),
                          lambda x: np.matvec(a.T, x), model)


def _build_sphere_reflection(model, params):
    axis = int(params.get("axis", 1))
    if not 0 <= axis <= model.n:
        raise BadParams(f"axis {axis} out of range for S^{model.n}")
    d = np.ones(model.n + 1)
    d[axis] = -1.0

    def refl(x):
        return d * x

    return _linear_diffeo(f"sphere_reflection[{axis}]", refl, refl, model)


def _build_grassmann_action(model, params):
    a = _check_orthogonal(params["matrix"], model.n)
    return Diffeo("grassmann_action", lambda p: a @ p @ a.T,
                  lambda p: a.T @ p @ a, model)


def _build_grassmann_involution(model, params):
    if model.n != 2 * model.k:
        raise BadParams("orthocomplement involution needs n = 2k")
    eye = np.eye(model.n)

    def inv(p):
        return eye - p

    return Diffeo("grassmann_involution", inv, inv, model)


def _build_cpn_conjugation(model, params):
    def conj(p):
        return np.conj(p)

    return Diffeo("cpn_conjugation", conj, conj, model)


def _build_cp1_antipodal(model, params):
    if model.n != 1:
        raise BadParams("antipodal map is registered for CP^1 only")
    # [w0, w1] -> [-conj(w1), conj(w0)]; on projectors: conjugate then
    # rotate by the standard symplectic matrix.
    j = np.array([[0.0, -1.0], [1.0, 0.0]])

    def anti(p):
        return j @ np.conj(p) @ j.T

    return Diffeo("cp1_antipodal", anti, anti, model)


def _torus_auto(model, af, ainvf):
    # x -> Ax mod 1, from A and its exact inverse as floats; the maps of a
    # stack (m, n, n) take points with an axis for the matrices
    diffeo = Diffeo("torus_auto", lambda x: np.mod(np.matvec(af, x), 1.0),
                    lambda x: np.mod(np.matvec(ainvf, x), 1.0), model)
    diffeo.matrix = af
    return diffeo


def torus_autos(model, a):
    """x -> Ax mod 1 for an n x n integer matrix A with |det| = 1, or the
    list of these maps for a stack of them: an array (m, n, n) or a
    sequence of n x n matrices. One integer_inverse call and one round trip
    check the whole stack, and a refusal names its first bad matrix. Each
    map keeps its A, as floats, in ``matrix``."""
    n = model.n
    stacked = (any(np.ndim(m) >= 2 for m in a) if isinstance(a, (list, tuple))
               else np.ndim(a) == 3)
    if stacked:
        shapes = [np.shape(m) for m in a]
        _refuse(np.array([s != (n, n) for s in shapes], dtype=bool),
                lambda i: f"has shape {shapes[i[0]]}, not {n}x{n}")
    elif np.shape(a) != (n, n):
        raise BadParams(f"expected {n}x{n}, got {np.shape(a)}")
    a = np.reshape(a, (-1, n, n) if stacked else (n, n))
    # validates integrality and |det| = 1 before any cast
    ainvf = integer_inverse(a).astype(float)
    af = a.astype(float)
    diffeo = _torus_auto(model, af, ainvf)
    _check_round_trip(model, "torus_auto", diffeo, stacked)
    if not stacked:
        return diffeo
    return [_torus_auto(model, *pair) for pair in zip(af, ainvf)]


_DIFFEO_REGISTRY = {
    (Sphere, "sphere_rotation"): _build_sphere_rotation,
    (Sphere, "sphere_reflection"): _build_sphere_reflection,
    (GrassmannReal, "grassmann_action"): _build_grassmann_action,
    (GrassmannReal, "grassmann_involution"): _build_grassmann_involution,
    (ComplexProjective, "cpn_conjugation"): _build_cpn_conjugation,
    (ComplexProjective, "cp1_antipodal"): _build_cp1_antipodal,
}


def named_diffeo(model, name, **params):
    """Look up a registered diffeomorphism family on the given model.

    Known names: sphere_rotation, sphere_reflection (spheres);
    grassmann_action, grassmann_involution (real Grassmannians);
    cpn_conjugation, cp1_antipodal (complex projective). Torus
    automorphisms come from ``torus_autos``.
    """
    builder = _DIFFEO_REGISTRY.get((type(model), name))
    if builder is None:
        raise UnknownName(f"no diffeomorphism named {name!r} on {model}")
    diffeo = builder(model, params)
    _check_round_trip(model, name, diffeo)
    return diffeo


def _check_round_trip(model, name, diffeo, stacked=False):
    # one round trip on three seeded points, negated so that a NaN refuses
    # the map; the maps of a stack take the points with an axis for them
    x = _round_trip_points(model)
    x = x[:, None] if stacked else x
    bad = ~(np.max(model.distance(diffeo.inverse(diffeo.forward(x)), x),
                   axis=0) <= 1e-8)
    if np.any(bad):
        where = f" (matrix {np.argmax(bad)} of the stack)" if stacked else ""
        raise BadParams(f"{name}: inverse round-trip check failed{where}")


@functools.lru_cache(maxsize=32)
def _round_trip_points(model):
    # the three points of named_diffeo's round trip depend on the model
    # alone: one draw per model, cached and shared, so read-only
    x = model.random_points(stream(3, 0), 3)
    map_points(lambda a: a.setflags(write=False), x)
    return x


# ---------------------------------------------------------------------------
# Homotopies


def rotation_homotopy(model, plane, angle):
    """Family of rotations by t*angle in a coordinate plane (i, j) of the
    ambient space of a sphere, the identity at t=0: x_i' = c x_i - s x_j and
    x_j' = s x_i + c x_j, every other coordinate copied."""
    if not isinstance(model, Sphere):
        raise BadPlane("rotation_homotopy is defined on spheres")
    i, j = plane
    dim = model.n + 1
    if i == j or not (0 <= i < dim and 0 <= j < dim):
        raise BadPlane(f"invalid plane {plane} for ambient dimension {dim}")

    def rotate(alpha, x):
        # x turned by alpha, which broadcasts against the stack axes of x
        x = np.asarray(x, dtype=float)
        c, s = np.cos(alpha), np.sin(alpha)
        xi, xj = x[..., i], x[..., j]
        yi = c * xi - s * xj
        out = np.broadcast_to(x, yi.shape + (dim,)).copy()
        out[..., i] = yi
        out[..., j] = s * xi + c * xj
        return out

    endpoint = _linear_diffeo("sphere_rotation", lambda x: rotate(angle, x),
                              lambda x: rotate(-angle, x), model)

    def family(t, x):
        return rotate(np.reshape(np.multiply(t, angle),
                                 np.shape(t) + (1,) * (np.ndim(x) - 1)), x)

    def velocity(t, x, xt):
        v = np.zeros(np.shape(xt))
        v[..., i] = -angle * xt[..., j]
        v[..., j] = angle * xt[..., i]
        return v

    return Homotopy(f"rotation[{i},{j};{angle:g}]", family, endpoint, model,
                    velocity=velocity)


def cp1_plane_rotation_homotopy(model, angle):
    """Rotation of CP^1 covering the sphere rotation about the x2-axis:
    P(t) = R P R^T with R the real rotation by t * angle / 2, and velocity
    (angle / 2) [J, P(t)] with J = [[0, -1], [1, 0]], both written entry by
    entry on the real and imaginary parts.

    The endpoint at angle pi is the Moebius map z -> -1/z, which composed
    with conjugation gives the antipodal map.
    """
    if not isinstance(model, ComplexProjective) or model.n != 1:
        raise BadParams("cp1_plane_rotation_homotopy is defined on CP^1")

    def turn(alpha, p):
        # R(alpha / 2) p R(alpha / 2)^T, real and imaginary part at once
        # (last axis): (d, m) = (p00 - p11, p01 + p10) / 2 turns by alpha to
        # (x, y), and with a = (p00 + p11) / 2, k = (p01 - p10) / 2 the image
        # is [[a + x, k + y], [y - k, a - x]]
        c, s = np.cos(alpha)[..., None], np.sin(alpha)[..., None]
        f = 0.5 * np.stack([np.real(p), np.imag(p)], axis=-1)
        a, d = f[..., 0, 0, :] + f[..., 1, 1, :], f[..., 0, 0, :] - f[..., 1, 1, :]
        m, k = f[..., 0, 1, :] + f[..., 1, 0, :], f[..., 0, 1, :] - f[..., 1, 0, :]
        x, y = c * d - s * m, s * d + c * m
        out = np.stack([a + x, k + y, y - k, a - x], axis=-2)
        return out.reshape(x.shape[:-1] + (2, 2, 2)).view(complex)[..., 0]

    name = f"cp1_plane_rotation[{angle:g}]"
    endpoint = _linear_diffeo(name, lambda p: turn(angle, p),
                              lambda p: turn(-angle, p), model)

    def family(t, p):
        return turn(np.reshape(np.multiply(t, angle),
                               np.shape(t) + (1,) * (np.ndim(p) - 2)), p)

    def velocity(t, p, pt):
        # (angle / 2) [J, P] = (angle / 2) [[-(p01 + p10), p00 - p11],
        #                                   [p00 - p11, p01 + p10]]
        m = 0.5 * angle * (pt[..., 0, 1] + pt[..., 1, 0])
        d = 0.5 * angle * (pt[..., 0, 0] - pt[..., 1, 1])
        return np.stack([-m, d, d, m], axis=-1).reshape(np.shape(pt))

    return Homotopy(name, family, endpoint, model, velocity=velocity)


# ---------------------------------------------------------------------------
# The sphere <-> CP^1 identification and the power maps f_n


def sphere_to_cp1(x):
    """Inverse stereographic identification; north pole (0,0,1) -> [1,0].
    Accepts a stack of points."""
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    north = x3 >= 0.0
    w = np.stack([np.where(north, 1.0 + x3, x1 + 1j * x2),
                  np.where(north, x1 - 1j * x2, 1.0 - x3)], axis=-1)
    # bitwise the per-point np.linalg.norm(w), unlike norm(w, axis=-1)
    nrm = np.sqrt(np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))
    w = w / nrm[..., None]
    return w[..., :, None] * w.conj()[..., None, :]


def cp1_to_sphere(p):
    """The inverse chart; accepts a stack of projectors."""
    p = np.asarray(p)
    return np.stack([2.0 * p[..., 0, 1].real, 2.0 * p[..., 0, 1].imag,
                     p[..., 0, 0].real - p[..., 1, 1].real], axis=-1)


def cp1_power_map(n):
    """The degree-n self map [w0, w1] -> [w0^n, w1^n] of CP^1.

    On the projector p = w w^* it is the closed form
    [[p00^n, p01^n], [p10^n, p11^n]] / (p00^n + p11^n), which is v v^* for
    v = (w0^n, w1^n) / |v|. The denominator is at least 2^(1-n), because
    p00 + p11 = 1. The diagonal is read as real and the lower corner as the
    conjugate of the upper one, so the image is exactly Hermitian. Accepts
    a stack of projectors.
    """
    if n < 1:
        raise BadParams("power must be >= 1")
    model = ComplexProjective(1)

    def power(z, k):
        # z ** k by k - 1 products, ones for k = 0: numpy's complex power
        # is several times slower at k = 0, 1 and 3 (it squares at k = 2)
        out = np.ones_like(z) if k == 0 else z
        for _ in range(k - 1):
            out = out * z
        return out

    def fwd(p):
        p = np.asarray(p)
        d0 = p[..., 0, 0].real ** n
        d1 = p[..., 1, 1].real ** n
        norm = d0 + d1
        off = power(p[..., 0, 1], n) / norm
        out = np.empty(p.shape, dtype=complex)
        out[..., 0, 0] = d0 / norm
        out[..., 0, 1] = off
        out[..., 1, 0] = np.conj(off)
        out[..., 1, 1] = d1 / norm
        return out

    def differential(p, pdot):
        # (e - fwd(p) dnorm) / norm, e_ij = d(p_ij^n) = n p_ij^(n-1) pdot_ij
        # and dnorm its real trace, with fwd's entries d_k / norm and p01^n
        # times 1 / norm (as numpy divides a complex number by a real one)
        p = np.asarray(p, dtype=complex)
        e = n * power(p, n - 1) * pdot
        d0, d1 = p[..., 0, 0].real ** n, p[..., 1, 1].real ** n
        norm = d0 + d1
        inv = 1.0 / norm
        dnorm = e[..., 0, 0].real + e[..., 1, 1].real
        off = power(p[..., 0, 1], n) * inv * dnorm
        e.real[..., 0, 0] -= d0 / norm * dnorm
        e.real[..., 1, 1] -= d1 / norm * dnorm
        e[..., 0, 1] -= off
        e[..., 1, 0] -= np.conj(off)
        e *= inv[..., None, None]
        return e

    return SmoothMap(f"cp1_power[{n}]", fwd, model, model, differential)


def sphere_power_map(n):
    """cp1_power_map conjugated onto S^2 through the stereographic chart."""
    f = cp1_power_map(n)
    model = Sphere(2)

    def fwd(x):
        return cp1_to_sphere(f.forward(sphere_to_cp1(x)))

    return SmoothMap(f"sphere_power[{n}]", fwd, model, model)


# ---------------------------------------------------------------------------
# Icosphere meshes and mapping degree


@functools.lru_cache(maxsize=None)
def icosphere(level):
    """Subdivided icosahedron: (vertices (nv,3), triangles (nt,3)).

    Level L appends the edge midpoints of the cached level L-1, pushed out
    to the sphere, to its vertices, and splits each face [a, b, c] in order
    into [a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]. Triangles are
    oriented outward (positive triple product); vertex and triangle order
    are deterministic.
    """
    if level < 0:
        raise BadParams("subdivision level must be >= 0")
    if level == 0:
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        raw = [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ]
        verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in raw]
        faces = [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ]
        faces = [
            f if np.linalg.det(np.stack([verts[f[0]], verts[f[1]], verts[f[2]]])) > 0
            else (f[0], f[2], f[1])
            for f in faces
        ]
    else:
        coarse, tris = icosphere(level - 1)
        # the edges ab, bc, ca of every triangle in face order; a midpoint
        # takes the next vertex index at the first edge that reaches it
        edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        # one integer per edge, sorted as the pairs (a, b) are, since b < nv
        key = edges[:, 0] * len(coarse) + edges[:, 1]
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        pairs = edges[first[order]]
        index = np.empty_like(order)
        index[order] = np.arange(len(coarse), len(coarse) + len(order))
        ab, bc, ca = index[inverse].reshape(-1, 3).T
        a, b, c = tris.T
        m = coarse[pairs[:, 0]] + coarse[pairs[:, 1]]
        # sqrt(vecdot) is bitwise the per-vector np.linalg.norm
        verts = np.concatenate([coarse, m / np.sqrt(np.vecdot(m, m))[:, None]])
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    verts_arr = np.array(verts)
    faces_arr = np.array(faces, dtype=np.int64)
    # cached and shared: guard against accidental mutation
    verts_arr.setflags(write=False)
    faces_arr.setflags(write=False)
    return verts_arr, faces_arr


def _degree_raw(f, level):
    verts, tris = icosphere(level)
    fwd = f.forward if isinstance(f, SmoothMap) else f
    img = np.asarray(fwd(verts), dtype=float)
    img = img / np.linalg.norm(img, axis=1, keepdims=True)
    angles = _kernels.solid_angles(img, np.ascontiguousarray(tris))
    return float(np.sum(angles)) / (4.0 * math.pi)


def degree(f, mesh_level):
    """Degree of a smooth self-map of S^2 via the pulled-back area form.

    ``f`` (a ``SmoothMap`` or a callable) takes the stack of all mesh
    vertices at once and returns the stack of their images. Sums signed
    solid angles of image triangles over an icosphere mesh; the identity
    has degree +1. Retries one level finer before declaring
    non-convergence; a non-finite sum is non-convergence too.
    """
    if mesh_level < 3:
        raise BadParams("mesh_level must be >= 3")
    raws = []
    for level in (mesh_level, mesh_level + 1):
        raw = _degree_raw(f, level)
        if not math.isfinite(raw):
            raise NonConvergent(f"degree estimate is {raw} at level {level}")
        if abs(raw - round(raw)) <= 0.1:
            return int(round(raw))
        raws.append(raw)
    raise NonConvergent(
        f"degree estimate not near an integer at levels {mesh_level} "
        f"({raws[0]:.4f}) and {mesh_level + 1} ({raws[1]:.4f})"
    )


# ---------------------------------------------------------------------------
# Seeded parameter generators


def random_orthogonal(n, seed):
    """An n x n orthogonal matrix, the Q factor (signs fixed by R's
    diagonal) of one block of normals from stream(seed, 0)."""
    rng = stream(seed, 0)
    a = rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def random_unimodular(n, rng, count):
    """count integer matrices (count, n, n), each a product of 1 to 8
    elementary integer matrices, so |det| = 1 holds exactly in integer
    arithmetic. Every draw is one block from rng: the op counts, the kinds
    (row addition or swap), the rows i (uniform) and j = (i + U{1..n-1})
    mod n, and the coefficients in {-2, -1, 1, 2} of the additions. Round k
    then applies op k to every matrix that has more than k ops: row i +=
    coeff * row j, or rows i and j swapped. For n = 1, identities."""
    a = np.zeros((count, n, n), dtype=np.int64) + np.eye(n, dtype=np.int64)
    if n == 1:
        return a
    n_ops = rng.integers(1, 9, size=count)
    kind = rng.integers(0, 2, size=(8, count))
    i = rng.integers(0, n, size=(8, count))
    j = (i + rng.integers(1, n, size=(8, count))) % n
    coeff = rng.choice(np.array([-2, -1, 1, 2]), size=(8, count))
    rows = np.arange(count)
    for k in range(8):
        live = k < n_ops
        add = (live & (kind[k] == 0))[:, None]
        swap = (live & (kind[k] == 1))[:, None]
        ri, rj = a[rows, i[k]], a[rows, j[k]]
        a[rows, i[k]] = np.where(swap, rj, ri + add * coeff[k][:, None] * rj)
        a[rows, j[k]] = np.where(swap, ri, rj)
    return a
