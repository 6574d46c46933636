"""Helpers shared by several test modules, for what the package itself
does not need."""

import numpy as np

from bundlelift import _kernels, manifolds as mf
from bundlelift.bundles import (BundleModel, _stage_arrays, holonomy_signs,
                                pullback, tautological_complex, trivial)
from bundlelift.config import DEFAULT_TRANSPORT_STEPS
from bundlelift.errors import BadParams, CriterionFails
from bundlelift.lifts import Lift, torus_line_lifts
from bundlelift.numkernel import sym_eigh, worst


def random_point(model, seed):
    """Deterministic membership-valid point: row 0 of the one-point draw
    model.random_points(rng, 1), with rng = default_rng(seed); seed may
    also be a Generator, which default_rng hands back unchanged, to draw
    the point from that stream."""
    rng = np.random.default_rng(seed)
    return mf.map_points(lambda a: a[0], model.random_points(rng, 1))


def stack_points(points):
    """One stack from a sequence of points (a pair of stacks for product
    points)."""
    if isinstance(points[0], tuple):
        return tuple(stack_points(factor) for factor in zip(*points))
    return np.stack(points)


def unimodular(n, seed):
    """One n x n unimodular integer matrix: the one-matrix block of
    random_unimodular from default_rng(seed)."""
    return mf.random_unimodular(n, np.random.default_rng(seed), 1)[0]


def constant_homotopy(model):
    """The homotopy that keeps every point where it is: the identity at
    every time, with the identity as its endpoint and velocity zero."""
    def family(t, x):
        if np.ndim(t) == 0:
            return mf.map_points(np.array, x)
        return stack_points([x] * len(t))

    return mf.Homotopy("constant", family, mf.identity_diffeo(model), model,
                       lambda t, x, xt: mf.map_points(np.zeros_like, xt))


def fd_differential(forward, delta=1e-6):
    """The central difference (forward(x + delta xdot) - forward(x - delta
    xdot)) / (2 delta): the finite-difference oracle of a differential
    df_x xdot, for one point or a stack as forward takes them, and of a
    time derivative when x is a time and xdot is 1."""
    return lambda x, xdot: (forward(x + delta * xdot)
                            - forward(x - delta * xdot)) / (2.0 * delta)


def identity_lift(bundle):
    """The lift of the identity map that leaves every vector where it is."""
    return Lift(bundle, mf.identity_diffeo(bundle.base),
                lambda x, v: v.copy(), "identity")


def passes(report, tol):
    """Whether a check_lift report passes at tolerance tol: base and
    linearity residuals at most tol and the least singular value above
    1e-8; a NaN residual fails. The tests hold formula lifts to 1e-10,
    transport and differential lifts to 1e-5, a composite to the larger
    tier of its parts, an inverse to the larger of its lift's tier and
    1e-8, and a metrized lift to its input's tier."""
    return (report.base_residual <= tol and report.linearity_residual <= tol
            and report.min_singular_value > 1e-8)


def _projector_residual(p, trace_target):
    p = np.asarray(p)
    idem = float(np.max(np.abs(p @ p - p)))
    herm = float(np.max(np.abs(p - p.conj().T)))
    tr = abs(complex(np.trace(p)).real - trace_target) + abs(complex(np.trace(p)).imag)
    return worst(idem, herm, tr)


def membership_residual(model, point):
    """How far one point is from the model: the unit-norm defect on a
    sphere, the distance to [0, 1)^n on a torus, the idempotence,
    symmetry and trace defects of a projector on a Grassmannian or CP^n,
    and the worse factor (NaN if either is) on a product."""
    if isinstance(model, mf.Product):
        a, b = point
        return worst(membership_residual(model.left, a),
                     membership_residual(model.right, b))
    if isinstance(model, mf.Sphere):
        return abs(float(np.linalg.norm(point)) - 1.0)
    if isinstance(model, mf.Torus):
        point = np.asarray(point, dtype=float)
        return float(np.linalg.norm(point - np.mod(point, 1.0)))
    if isinstance(model, mf.GrassmannReal):
        return _projector_residual(point, model.k)
    return _projector_residual(point, 1.0)


def antipodal(model):
    """The antipodal map x -> -x of a sphere, its own differential."""
    return mf._linear_diffeo("antipodal", np.negative, np.negative, model)


def cpn_unitary(model, matrix):
    """The map P -> U P U^* of CP^n; BadParams unless U is an (n+1) x
    (n+1) matrix unitary to 1e-10, a NaN defect included."""
    n = model.n + 1
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (n, n):
        raise BadParams(f"expected a {n}x{n} matrix, got {u.shape}")
    defect = np.max(np.abs(u @ u.conj().T - np.eye(n)))
    if not defect <= 1e-10:
        raise BadParams(f"matrix is not unitary (defect {defect:.3e})")
    uh = u.conj().T
    return mf.Diffeo("cpn_unitary", lambda p: u @ p @ uh, lambda p: uh @ p @ u, model)


# the maps that tests build beside the package's registry, by name
TEST_DIFFEOS = {
    "antipodal": lambda model, params: antipodal(model),
    "cpn_unitary": lambda model, params: cpn_unitary(model, params["matrix"]),
    "torus_auto": lambda model, params: mf.torus_autos(model, params["matrix"]),
}


def diffeo(model, name, **params):
    """``named_diffeo`` of a registered name, or one of TEST_DIFFEOS."""
    if name in TEST_DIFFEOS:
        return TEST_DIFFEOS[name](model, params)
    return mf.named_diffeo(model, name, **params)


def cpn_phase_homotopy(model, angle, slot=0):
    """Rotation of CP^n induced by diag(..., e^{i t angle} at slot, ...)."""
    if not isinstance(model, mf.ComplexProjective):
        raise BadParams("cpn_phase_homotopy is defined on CP^n")
    if not 0 <= slot <= model.n:
        raise BadParams(f"slot {slot} out of range")
    gen = np.zeros((model.n + 1, model.n + 1), dtype=complex)
    gen[slot, slot] = 1j * angle
    return _unitary_family_homotopy(model, gen, f"cpn_phase[{slot};{angle:g}]")


def _unitary_family_homotopy(model, x_gen, name):
    """Homotopy P(t) = U(t) P U(t)^* with U(t) = exp(t X), X anti-Hermitian,
    in complex ``@`` products, with velocity X P(t) - P(t) X: the general
    unitary family that cp1_plane_rotation_homotopy was once built on,
    kept for the phase homotopies and as the oracle of that closed form."""
    x_gen = np.asarray(x_gen, dtype=complex)
    herm = -1j * x_gen
    if not np.max(np.abs(herm - herm.conj().T)) <= 1e-12:
        raise BadParams("generator must be anti-Hermitian")
    w, v = np.linalg.eigh(herm)

    def unitary(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return (v * np.exp(1j * t * w)) @ v.conj().T

    u1 = unitary(1.0)
    endpoint = mf.Diffeo("cpn_unitary", lambda p: u1 @ p @ u1.conj().T,
                         lambda p: u1.conj().T @ p @ u1, model)

    def family(t, p):
        # one U per time, with a singleton axis per stack axis of the points
        u = unitary(t)
        u = u.reshape(np.shape(t) + (1,) * len(model.stack_shape(p)) + x_gen.shape)
        return u @ p @ np.conj(np.swapaxes(u, -1, -2))

    def velocity(t, p, pt):
        return x_gen @ pt - pt @ x_gen

    return mf.Homotopy(name, family, endpoint, model, velocity=velocity)


def cp1_power_differential(n):
    """The differential of cp1_power_map(n) as (e - fwd(p) dnorm) / norm in
    complex array arithmetic, e_ij = n p_ij^(n-1) pdot_ij and dnorm its
    real trace: the formula the package wrote before it wrote the entries
    with real norm and dnorm, kept as their bitwise oracle."""
    fwd = mf.cp1_power_map(n).forward

    def differential(p, pdot):
        p = np.asarray(p)
        e = n * p ** (n - 1) * pdot
        dnorm = (e[..., 0, 0].real + e[..., 1, 1].real)[..., None, None]
        norm = (p[..., 0, 0].real ** n + p[..., 1, 1].real ** n)[..., None, None]
        return (e - fwd(p) * dnorm) / norm

    return differential


def eigh_fiber_basis(bundle, x):
    """The fiber basis as the eigenvectors of the r largest eigenvalues of
    Q(x), with sym_eigh's sign convention: the basis fiber_basis gave
    before it factored the projector, kept as the oracle of its span."""
    v = sym_eigh(bundle.fiber_projector(x))[1]
    return v[..., v.shape[-1] - bundle.real_rank:]


def sym_sqrt(s):
    """Symmetric positive-definite square root R with R @ R = S, from the
    signed eigensolve. Raises ValueError on a symmetry defect above 1e-10
    or an eigenvalue at or below 1e-12."""
    s = np.asarray(s, dtype=float)
    defect = np.max(np.abs(s - np.swapaxes(s, -1, -2)))
    if defect > 1e-10:
        raise ValueError(f"symmetry defect {defect:.3e} exceeds 1e-10")
    w, v = sym_eigh(s)
    if np.min(w[..., 0]) <= 1e-12:
        raise ValueError(f"eigenvalue {np.min(w[..., 0]):.3e} at or below 1e-12")
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def polar_via_sym_sqrt(f):
    """Polar factors (Psi, Xi) of a square F with Xi = sqrt(F F^T) and Psi =
    Xi^{-1} F: the square-root formula of the two-metric polar factor at
    identity metrics, kept as the oracle of the one-SVD factor."""
    m = f @ f.T
    xi = sym_sqrt(0.5 * (m + m.T))
    return np.linalg.solve(xi, f), xi


def complement(w):
    """Orthogonal complement of W inside its ambient trivial bundle."""
    n = w.ambient_fiber_dim
    eye = np.eye(n // 2 if w.has_complex_structure else n)
    pdiff = None
    if w.has_projector_differential:
        pdiff = lambda x, xdot: -w._projector_differential(x, xdot)
    return BundleModel(
        key=("complement", w.key),
        base=w.base,
        ambient_fiber_dim=n,
        real_rank=n - w.real_rank,
        projector=lambda x: eye - w._projector(x),
        projector_differential=pdiff,
        complex_fibers=w.has_complex_structure,
    )


def holonomy_sign(line_bundle, loop, steps=DEFAULT_TRANSPORT_STEPS):
    """Orientation sign picked up by a real line bundle around a closed
    loop; for a stack of loops, the int array of one sign per loop."""
    return holonomy_signs([(line_bundle, loop)], steps)[0]


def sequential_transport(bundle, path, steps):
    """``transport_operator`` as one RK4 walk over the whole time grid from
    the projector at t = 0, as it was before the grid was cut into
    segments: a split at a node does not change a bit of a walk, so this is
    every windowed walk of that design."""
    h = 1.0 / steps
    qp, qnode = _stage_arrays(bundle, path, (0.5 * h) * np.arange(2 * steps + 1),
                              slice(None))
    n = bundle.ambient_fiber_dim
    shape = bundle.base.stack_shape(path(0.0))
    return _kernels.rk4_transport(qp, qnode, qnode[0], h).reshape(shape + (n, n))


def torus_line_lift(a, b):
    """The Lift of one torus automorphism over L_b (torus_line_lifts of one
    matrix), raising its CriterionFails when b^T A != b^T mod 2."""
    lift = torus_line_lifts(a, b)
    if isinstance(lift, CriterionFails):
        raise lift
    return lift


def _spiky(p):
    # one point or a stack, as the field contract requires
    x = mf.cp1_to_sphere(p)
    s = 40.0 * x[..., 0] + 40.03 * x[..., 1]
    z = np.stack([np.ones_like(s), s], axis=-1).astype(complex)
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    return z[..., :, None] * z.conj()[..., None, :]


def spiky_bundle():
    """A line over CP^1 whose section turns far faster than the level-3
    mesh resolves: its Chern estimate aliases across mesh levels."""
    return BundleModel(("spiky",), mf.ComplexProjective(1), 4, 2, _spiky,
                       complex_fibers=True)


def oracle_line_bundles():
    """The complex line bundles the Chern-phase oracles run on, by name:
    over CP^1 and, through the chart, over S^2; the trivial one has 1 x 1
    projectors, the others 2 x 2."""
    cp1 = mf.ComplexProjective(1)
    gamma = tautological_complex(1)
    chart = mf.SmoothMap("chart", mf.sphere_to_cp1, mf.Sphere(2), cp1)
    return {
        "trivial": trivial(cp1, 1, complex_fibers=True),
        "gamma": gamma,
        "f2": pullback(mf.cp1_power_map(2), gamma),
        "f3": pullback(mf.cp1_power_map(3), gamma),
        "conj": pullback(mf.named_diffeo(cp1, "cpn_conjugation"), gamma),
        "sphere_chart": pullback(chart, gamma),
        "spiky": spiky_bundle(),
    }


def _overlap(u, v):
    return sum((u[i].conj() * v[i] for i in range(1, len(u))), u[0].conj() * v[0])


def plaquette_phases_per_triangle(w, tris):
    """The per-triangle plaquette kernel that the subdivision-group kernel
    replaced, kept as its oracle: from the (m, V) unit sections, three
    gathers and three overlaps <a|b><b|c><c|a> per triangle, for any
    triangle list; (phases, min |tr|) as _kernels.plaquette_phases."""
    with np.errstate(invalid="ignore"):
        a, b, c = (np.take(w, t, axis=1) for t in tris.T)
        tr = _overlap(a, b) * _overlap(b, c) * _overlap(c, a)
        return np.angle(tr), float(np.abs(tr).min(initial=1e300))


def _expm_skew(a):
    # e^a of a real skew matrix (or a stack), from one Hermitian eigensolve
    # of i a: i a = V diag(w) V* gives e^a = V diag(e^{-i w}) V*
    w, v = np.linalg.eigh(1j * a)
    return ((v * np.exp(-1j * w)[..., None, :])
            @ np.swapaxes(v.conj(), -1, -2)).real


def exact_group_transport(a, p0):
    """Projector transport T(1) along P(t) = e^{tA} P0 e^{-tA}, t in [0, 1],
    for a real skew A (a sphere rotation, or a realified anti-Hermitian
    generator): T(1) = e^A e^{K - A} P0 with K = [[A, P0], P0], the
    closed form of Kato's adiabatic evolution (J. Phys. Soc. Jpn. 5, 435,
    1950). K - A is skew too. P0 may be a stack."""
    s = a @ p0 - p0 @ a
    return _expm_skew(a) @ _expm_skew(s @ p0 - p0 @ s - a) @ p0
