"""Bundle automorphisms covering base diffeomorphisms: the Lift model,
the universal checker, constructors, polar metrization, frame views and
fiberwise complex corrections.

A Lift is a closure pair (base diffeomorphism, fiberwise action); fiber
matrices are extracted on demand by probing an orthonormal fiber basis.
``check_lift`` measures residuals and decides nothing: each caller holds
them to its own thresholds, as the CLI's checks do.

Lifts take stacks like the fields of ``bundles`` do: ``Lift.action(x, v)``
takes one point and one vector, or a stack of points and the matching
stack of vectors, and v may carry further leading axes of vectors in front
of the point axes. Every lift built here computes all of that in one pass
(an operator lift evaluates its operators once per action call, so a
transport lift runs one stacked transport). ``check_lift`` draws all of its
probes first, as blocks from one stream, applies the lift once to every
vector it needs on the probe stack (one action call, in one
``transport_errors()`` block) and evaluates each other quantity once on
that stack. Nothing is cached between calls.
"""

import functools

import numpy as np

from .bundles import (direct_sum, homotopy_path, pullback, tangent_sphere,
                      tautological_complex, tautological_real, torus_line,
                      transport_errors, transport_operator)
from .config import DEFAULT_SAMPLES, DEFAULT_TRANSPORT_STEPS
from .errors import (BadParams, BundleMismatch, CriterionFails,
                     DegenerateJacobian, NoComplexStructure, NonInjective,
                     NotIsometric, NotOrthonormal, Singular)
from .manifolds import (Diffeo, Sphere, cp1_plane_rotation_homotopy,
                        cp1_power_map, identity_diffeo, map_points,
                        named_diffeo, product_diffeo, torus_autos)
from .numkernel import (complex_structure_conjugator, min_singular_value,
                        norms, polar_two_metric, stream, worst)

__all__ = [
    "Lift",
    "LiftReport",
    "FiberFrame",
    "check_lift",
    "compose",
    "invert",
    "lift_from_homotopy",
    "metrize",
    "differential_lift",
    "ambient_projection_lift",
    "grassmann_orthogonal_lift",
    "cpn_conjugation_lift",
    "pullback_conjugation_lift",
    "torus_line_lifts",
    "s1xs2_generator_lift",
    "frame_lift_view",
    "fiberwise_complex_correction",
]


class Lift:
    """A lift of a base diffeomorphism to a bundle automorphism. Every
    transport its action makes, however deep, reports its error estimates
    to the innermost open ``bundles.transport_errors()`` block."""

    def __init__(self, bundle, base_map, action, provenance):
        self.bundle = bundle
        self.base_map = base_map
        self._action = action
        self.provenance = provenance

    def __repr__(self):
        return f"<Lift {self.provenance} over {self.bundle.key}>"

    def action(self, x, v):
        """Apply the fiber map at x to an ambient fiber vector, or at each
        point of a stack to the matching vector of a stack.

        v may carry extra leading axes in front of x's stack axes (shape
        (..., P, N) for P points), and the map at each point applies to
        every vector over it. Write actions so that they broadcast:
        ``np.matvec(m, v)``, not ``m @ v``, which reads a leading axis of
        v as matrix columns."""
        return self._action(x, np.asarray(v, dtype=float))

    def _images(self, x, basis):
        # the images of the basis columns, as the columns of a matrix
        return np.moveaxis(self.action(x, np.moveaxis(basis, -1, 0)), 0, -1)

    def fiber_matrix(self, x):
        """Ambient matrix of the fiber map at x (zero on the complement),
        or the stack of them."""
        basis = self.bundle.fiber_basis(x)
        return self._images(x, basis) @ np.swapaxes(basis, -1, -2)

    def fiber_matrix_between(self, x, b_in, b_out):
        """r x r matrix of the fiber map against explicit orthonormal
        bases of the source and target fibers (stacks for a stack of
        points)."""
        return np.swapaxes(b_out, -1, -2) @ self._images(x, b_in)

    def fiber_matrix_in_bases(self, x):
        """r x r matrix in the deterministic orthonormal fiber bases at x and
        phi(x). The bases follow the pivots of ``fiber_basis`` and turn
        when a pivot switches, so use this for basis-invariant quantities
        (Gram defects, singular values); pass explicit bases otherwise."""
        return self.fiber_matrix_between(
            x, self.bundle.fiber_basis(x),
            self.bundle.fiber_basis(self.base_map.forward(x)))


class LiftReport:
    """The residuals of ``check_lift``: floats, None where a residual does
    not apply (the complex ones on a real bundle, the transport error of a
    lift that does not transport)."""

    def __init__(self, base_residual, linearity_residual, min_singular_value,
                 isometry_residual, complex_linearity_residual,
                 anti_linearity_residual, transport_error, samples):
        self.base_residual = base_residual
        self.linearity_residual = linearity_residual
        self.min_singular_value = min_singular_value
        self.isometry_residual = isometry_residual
        self.complex_linearity_residual = complex_linearity_residual
        self.anti_linearity_residual = anti_linearity_residual
        self.transport_error = transport_error
        self.samples = samples


def _draw_probes(bundle, samples, seed):
    """The check_lift probes (x, v, u, alpha, beta), stacked: x, the
    (samples, 2, N) Gaussians behind v and u, and (alpha, beta) are three
    blocks from stream(seed, 1). v and u are projected and normalised on
    the whole stack; a vector the projector nearly kills is redrawn from
    stream(seed, 2) (see unit_fiber_vectors). Each purpose has its own
    nonzero tag: stream(seed, 0) is the one random_orthogonal(n, seed)
    draws."""
    rng = stream(seed, 1)
    xs = bundle.base.random_points(rng, samples)
    gauss = rng.normal(size=(samples, 2, bundle.ambient_fiber_dim))
    alpha, beta = rng.normal(size=(samples, 2)).T
    v, u = bundle.unit_fiber_vectors(xs, np.swapaxes(gauss, 0, 1),
                                     stream(seed, 2))
    return xs, v, u, alpha, beta


def _worst_of(residuals):
    return float(worst(0.0, *np.ravel(residuals)))


def check_lift(lift, samples=DEFAULT_SAMPLES, seed=0):
    """Evaluate lift residuals on seeded random (x, v) probes.

    Residuals: base compatibility (membership of the image in the fiber
    over phi(x)), fiberwise linearity, invertibility (min singular value
    of the extracted fiber matrix), isometry, and, when the bundle is
    complex, commutation and anti-commutation defects against J on unit
    probes, and the largest transport error estimate (None for a lift
    that transports nothing). The report holds residuals and no verdict; a
    residual that could not be measured reads NaN, which a caller's check
    must fail. Every quantity is evaluated once on the stack of all probes.
    """
    if samples < 1:
        raise BadParams("samples must be >= 1")
    bundle = lift.bundle
    has_j = bundle.has_complex_structure

    x, v, u, alpha, beta = _draw_probes(bundle, samples, seed)
    y = lift.base_map.forward(x)
    # every vector the checks need, on a leading axis: one action call
    vecs = [v, u, alpha[:, None] * u + beta[:, None] * v]
    if has_j:
        vecs.append(np.matvec(bundle.complex_structure(x), v))
    n_vecs = len(vecs)
    with transport_errors() as errors:
        images = lift.action(x, np.concatenate(
            [np.stack(vecs), np.moveaxis(bundle.fiber_basis(x), -1, 0)]))
    w, w_u, w_mix = images[:3]
    base_res = _worst_of(bundle.membership_residual(y, w))

    lin = norms(w_mix - alpha[:, None] * w_u - beta[:, None] * w)
    lin_res = _worst_of(lin / (abs(alpha) + abs(beta) + 1.0))

    m = (np.swapaxes(bundle.fiber_basis(y), -1, -2)
         @ np.moveaxis(images[n_vecs:], 0, -1))
    gram = np.swapaxes(m, -1, -2) @ m
    iso_res = _worst_of(np.max(np.abs(gram - np.eye(m.shape[-1])), axis=(1, 2)))
    # min_singular_value refuses a non-finite matrix, which reads NaN
    min_sv = float(np.min(min_singular_value(m))) if np.isfinite(m).all() else np.nan

    c_res = a_res = None
    if has_j:
        w_jv = images[3]
        jw = np.matvec(bundle.complex_structure(y), w)
        c_i = norms(w_jv - jw)
        a_i = norms(w_jv + jw)
        # sanity guard on the checker: both defects cannot vanish when
        # the image has nonzero J-component
        if np.any((c_i < 1e-12) & (a_i < 1e-12) & (norms(jw) > 1e-6)):
            raise AssertionError("complex-linearity checker inconsistency")
        c_res = _worst_of(c_i)
        a_res = _worst_of(a_i)

    return LiftReport(
        base_residual=base_res,
        linearity_residual=lin_res,
        min_singular_value=min_sv,
        isometry_residual=iso_res,
        complex_linearity_residual=c_res,
        anti_linearity_residual=a_res,
        transport_error=(_worst_of(np.concatenate([np.ravel(e) for e in errors]))
                         if errors else None),
        samples=samples,
    )


# ---------------------------------------------------------------------------
# Group operations


def compose(outer, inner):
    """outer . inner (apply inner first); bundles must coincide."""
    if outer.bundle != inner.bundle:
        raise BundleMismatch(
            f"cannot compose lifts over {outer.bundle.key} and {inner.bundle.key}"
        )
    base = inner.base_map.then(outer.base_map)

    def action(x, v):
        return outer.action(inner.base_map.forward(x), inner.action(x, v))

    return Lift(outer.bundle, base, action,
                f"compose({outer.provenance},{inner.provenance})")


def _operator_lift(bundle, base_map, operator_at, provenance):
    """A lift whose fiber map at x is the ambient matrix operator_at(x);
    operator_at takes one point or a stack and is called once per action."""
    return Lift(bundle, base_map,
                lambda x, v: np.matvec(operator_at(x), v), provenance)


def invert(lift):
    """Inverse automorphism; fiber maps are inverted in orthonormal bases."""
    bundle = lift.bundle
    base = lift.base_map.inverted()

    def operator_at(x):
        y = base.forward(x)  # phi^{-1}(x)
        b_y = bundle.fiber_basis(y)
        b_x = bundle.fiber_basis(x)
        # b_x must be the basis at the caller's exact x: phi(y) only
        # reproduces x up to roundoff, and where two pivot candidates
        # tie, the basis at a perturbed point can be rotated
        m = lift.fiber_matrix_between(y, b_y, b_x)
        low = min_singular_value(m)
        if np.any(low <= 1e-8):
            raise Singular(f"fiber map not invertible (sv {np.min(low):.3e})")
        return b_y @ np.linalg.inv(m) @ np.swapaxes(b_x, -1, -2)

    return _operator_lift(bundle, base, operator_at,
                          f"invert({lift.provenance})")


# ---------------------------------------------------------------------------
# Constructors


def lift_from_homotopy(bundle, homotopy, steps=DEFAULT_TRANSPORT_STEPS):
    """Lift of the homotopy endpoint by parallel transport along the
    tracks t -> family(t, x)."""
    if homotopy.source != bundle.base:
        raise BadParams("homotopy lives on a different model than the bundle")

    def operator_at(x):
        return transport_operator(bundle, homotopy_path(homotopy, x), steps=steps)

    return _operator_lift(bundle, homotopy.endpoint, operator_at,
                          f"homotopy({homotopy.name},steps={steps})")


def metrize(lift):
    """Replace each fiber map by the isometric factor of its polar
    decomposition in orthonormal fiber bases; the base map is unchanged and
    isometric lifts are fixed points."""
    bundle = lift.bundle

    def operator_at(x):
        b_in = bundle.fiber_basis(x)
        b_out = bundle.fiber_basis(lift.base_map.forward(x))
        psi, _ = polar_two_metric(lift.fiber_matrix_between(x, b_in, b_out))
        return b_out @ psi @ np.swapaxes(b_in, -1, -2)

    return _operator_lift(bundle, lift.base_map, operator_at,
                          f"metrize({lift.provenance})")


def differential_lift(diffeo):
    """Lift of a sphere diffeomorphism to the tangent bundle by its
    differential, projected to the target tangent fiber: the Jacobian's
    columns are ``diffeo.differential`` of the ambient unit vectors."""
    model = diffeo.source
    if not isinstance(model, Sphere):
        raise BadParams("differential_lift is defined for sphere diffeomorphisms")
    if diffeo.differential is None:
        raise BadParams(f"{diffeo.name} has no differential to lift")
    bundle = tangent_sphere(model.n)
    eye = np.eye(model.n + 1)

    def operator_at(x):
        # differential(x, e_i) for the unit vectors e_i are the Jacobian's columns
        jac = np.swapaxes(diffeo.differential(np.asarray(x)[..., None, :], eye), -1, -2)
        y = diffeo.forward(x)
        b_in = bundle.fiber_basis(x)
        b_out = bundle.fiber_basis(y)
        low = min_singular_value(np.swapaxes(b_out, -1, -2) @ jac @ b_in)
        if np.any(low < 1e-6):
            raise DegenerateJacobian(
                f"Jacobian singular value {np.min(low):.3e} below 1e-6"
            )
        return bundle.fiber_projector(y) @ jac

    return _operator_lift(bundle, diffeo, operator_at,
                          f"differential({diffeo.name})")


def ambient_projection_lift(bundle, diffeo, variant="fiber", seed=1):
    """Lift by projecting fiber vectors onto the fiber over phi(x) inside
    the ambient trivial bundle, when that projection is injective at 25
    seeded probe points.

    ``variant="fiber"`` projects onto the target fiber (image of
    Q(phi(x))). ``variant="orthocomplement"`` projects onto its orthogonal
    complement instead; that image leaves the bundle's fibers, so the
    resulting map fails membership checks -- it is kept for comparison
    only.
    """
    if variant not in ("fiber", "orthocomplement"):
        raise BadParams(f"unknown variant {variant!r}")
    base = bundle.base

    def target_projector(y):
        q = bundle.fiber_projector(y)
        if variant == "fiber":
            return q
        return np.eye(bundle.ambient_fiber_dim) - q

    # the 25 probe points are one block from stream(seed, 3) (check_lift
    # draws from tags 1 and 2); all are checked at once, and a refusal names
    # the first probe that fails
    x = base.random_points(stream(seed, 3), 25)
    cols = target_projector(diffeo.forward(x)) @ bundle.fiber_basis(x)
    sv = min_singular_value(cols)
    if np.any(sv <= 1e-6):
        i = int(np.argmax(sv <= 1e-6))
        raise NonInjective(
            f"projection onto the target not injective at a probe point "
            f"(singular value {sv[i]:.3e})",
            witness_point=map_points(lambda a: a[i], x),
            singular_value=float(sv[i]),
        )

    def action(x, v):
        return np.matvec(target_projector(diffeo.forward(x)), v)

    return Lift(bundle, diffeo, action,
                f"ambient_projection({diffeo.name},{variant})")


def grassmann_orthogonal_lift(a, k):
    """The natural lift (P, v) -> (A P A^T, A v) of the O(n) action on the
    tautological bundle over the Grassmannian."""
    a = np.asarray(a, dtype=float)
    bundle = tautological_real(k, a.shape[0])
    # raises BadParams unless a is orthogonal
    base = named_diffeo(bundle.base, "grassmann_action", matrix=a)
    return Lift(bundle, base, lambda x, v: np.matvec(a, v),
                "grassmann_orthogonal")


def _realified_conjugation(v):
    # (Re w, Im w) -> (Re w, -Im w)
    n = v.shape[-1] // 2
    out = v.copy()
    out[..., n:] = -out[..., n:]
    return out


def cpn_conjugation_lift(n):
    """The anti-linear lift of the conjugation diffeomorphism of CP^n on
    the tautological line bundle: entrywise conjugation upstairs."""
    bundle = tautological_complex(n)
    base = named_diffeo(bundle.base, "cpn_conjugation")
    return Lift(bundle, base, lambda x, v: _realified_conjugation(v),
                "cpn_conjugation")


def pullback_conjugation_lift(n):
    """Lift of the conjugation of CP^1 to the pullback of the tautological
    line bundle along the degree-n power map; the power map commutes with
    conjugation, so entrywise conjugation maps pulled-back fibers to
    pulled-back fibers."""
    if n < 1:
        raise BadParams("power must be >= 1")
    f = cp1_power_map(n)
    bundle = pullback(f, tautological_complex(1))
    base = named_diffeo(bundle.base, "cpn_conjugation")
    return Lift(bundle, base, lambda x, v: _realified_conjugation(v),
                f"pullback_conjugation[{n}]")


def torus_line_lifts(a, b):
    """Lift of the torus automorphism x -> Ax over the line bundle L_b,
    for one matrix or each matrix of a stack (an array (m, n, n) or a
    sequence of n x n matrices).

    The lift exists exactly when b^T A = b^T mod 2; otherwise the fiber
    formula is inconsistent across representatives of the same torus
    point, and the matrix gets a CriterionFails with a sign-mismatch
    witness instead of a Lift, one result per matrix of a stack. One
    bundle L_b, one ``torus_autos`` validation and one mod-2 test of its
    own (never torus_criterion's verdict) serve the whole stack. A matrix
    that is no torus automorphism refuses the stack with BadParams naming
    it."""
    bundle = torus_line(b)
    b = np.array(bundle.key[1])  # the checked bits
    bases = torus_autos(bundle.base, a)
    stacked = isinstance(bases, list)
    bases = bases if stacked else [bases]
    af = np.reshape([base.matrix for base in bases], (-1,) + 2 * b.shape)
    ba = np.mod(b @ af.astype(np.int64), 2)
    out = []
    for base, ba_k, wrong_k in zip(bases, ba, (ba != b).tolist()):
        if not any(wrong_k):
            out.append(Lift(bundle, base, functools.partial(
                _torus_line_action, bundle.unit_section, base.matrix),
                f"torus_line[{b.tolist()}]"))
            continue
        m = np.zeros(b.shape[0], dtype=np.int64)
        m[wrong_k.index(True)] = 1
        out.append(CriterionFails(
            f"b^T A = {ba_k.tolist()} != {b.tolist()} mod 2; "
            f"representatives x=0 and x=m={m.tolist()} give fiber images of "
            f"opposite sign ((-1)^{{b.Am}} = -1 while (-1)^{{b.m}} = +1)",
            witness={"x": np.zeros(b.shape[0]), "m": m}))
    return out if stacked else out[0]


def _torus_line_action(u_of, af, x, v):
    xr = np.mod(np.asarray(x, dtype=float), 1.0)
    return np.vecdot(u_of(xr), v)[..., None] * u_of(np.matvec(af, xr))


def _split_product_lift(bundle, n1, base, lifts, provenance):
    # the lift on each summand of the product bundle (the first n1 ambient
    # coordinates and the rest), None for the identity
    def action(p, v):
        out = np.empty_like(v)
        for x, lift, part in zip(p, lifts, (slice(None, n1), slice(n1, None))):
            w = v[..., part]
            out[..., part] = w if lift is None else lift.action(x, w)
        return out

    return Lift(bundle, base, action, provenance)


def s1xs2_generator_lift(name, n, steps=DEFAULT_TRANSPORT_STEPS):
    """Lifts of the three diffeotopy generators of S^1 x S^2 on the product
    of the real tautological line bundle (S^1 as RP^1) with the degree-n
    pullback bundle over S^2 as CP^1.

    * ``s`` reverses the circle: the O(2) lift diag(1,-1) on the first
      summand, identity on the second.
    * ``r`` rotates the sphere by the circle coordinate: identity on the
      first summand, fiber multiplication by exp(i n theta) on the second.
    * ``a`` is the antipodal map on the sphere factor: conjugation lift
      composed with a transport lift along the half-turn rotation
      connecting it to the conjugation.
    """
    if n < 1:
        raise BadParams("power must be >= 1")
    v1 = tautological_real(1, 2)
    f = cp1_power_map(n)
    v2 = pullback(f, tautological_complex(1))
    bundle = direct_sum(v1, v2)
    model = bundle.base
    ident1 = identity_diffeo(v1.base)
    ident2 = identity_diffeo(v2.base)

    if name == "s":
        refl = np.diag([1.0, -1.0])
        left = grassmann_orthogonal_lift(refl, 1)
        base = product_diffeo(model, left.base_map, ident2, name="s")
        return _split_product_lift(bundle, 2, base, (left, None), "s1xs2_s")

    if name == "r":
        def theta_of(p1):
            # line at angle alpha in R^2 <-> circle coordinate theta = 2 alpha
            return np.arctan2(2.0 * p1[..., 0, 1], p1[..., 0, 0] - p1[..., 1, 1])

        def phase_matrix(phase):
            # diag(exp(i phase), 1), one per point
            u = np.zeros(np.shape(phase) + (2, 2), dtype=complex)
            u[..., 0, 0] = np.exp(1j * phase)
            u[..., 1, 1] = 1.0
            return u

        def rotate(p, sign):
            x1, x2 = p
            u = phase_matrix(sign * theta_of(x1))
            return (x1, u @ x2 @ np.conj(np.swapaxes(u, -1, -2)))

        base = Diffeo("r", lambda p: rotate(p, 1.0), lambda p: rotate(p, -1.0),
                       model)

        def act2(w2, theta):
            z = np.matvec(phase_matrix(n * theta), w2[..., :2] + 1j * w2[..., 2:])
            return np.concatenate([z.real, z.imag], axis=-1)

        def action(p, v):
            x1, _ = p
            out = np.empty_like(v)
            out[..., :2] = v[..., :2]
            out[..., 2:] = act2(v[..., 2:], theta_of(x1))
            return out

        return Lift(bundle, base, action, "s1xs2_r")

    if name == "a":
        conj_lift = pullback_conjugation_lift(n)
        half_turn = cp1_plane_rotation_homotopy(v2.base, np.pi)
        rot_lift = lift_from_homotopy(v2, half_turn, steps=steps)
        right = compose(conj_lift, rot_lift)
        anti = named_diffeo(v2.base, "cp1_antipodal")
        base = product_diffeo(model, ident1, anti, name="a")
        return _split_product_lift(bundle, 2, base, (None, right), "s1xs2_a")

    raise BadParams(f"unknown generator {name!r}; expected one of a, r, s")


# ---------------------------------------------------------------------------
# Frame views and complex corrections


class FiberFrame:
    def __init__(self, base_point, vectors):
        self.base_point = base_point
        self.vectors = vectors  # (N, r) orthonormal columns, or a (P, N, r) stack


def _gram_defect(vecs):
    # worst |V^T V - I| entry over a frame or a stack of frames; NaN wins
    gram = np.swapaxes(vecs, -1, -2) @ vecs
    return float(np.max(np.abs(gram - np.eye(vecs.shape[-1]))))


def frame_lift_view(lift, frame):
    """Image of an orthonormal fiber frame under an isometric lift, or of
    a stack of frames (vectors (P, N, r) over a stack of P base points).

    Equivariant for the right O(r) action on frames; this is the induced
    automorphism of the orthonormal frame bundle, evaluated pointwise. A
    stack is refused if any one of its frames is.
    """
    vecs = np.asarray(frame.vectors, dtype=float)
    defect_in = _gram_defect(vecs)
    if not defect_in <= 1e-8:
        raise NotOrthonormal(f"input frame defect {defect_in:.3e} > 1e-8")
    x = frame.base_point
    out = lift._images(x, vecs)
    defect_out = _gram_defect(out)
    if not defect_out <= 1e-6:
        raise NotIsometric(f"output frame defect {defect_out:.3e} > 1e-6")
    return FiberFrame(lift.base_map.forward(x), out)


def fiberwise_complex_correction(lift, x):
    """The fiberwise witness that an R-linear lift admits a C-linear
    correction at x, or at each point of a stack.

    Computes K = Phi J Phi^{-1} transported to the fiber over x, solves the
    conjugation problem psi^{-1} J psi = K, and certifies that psi composed
    with the fiber map commutes with J. Returns psi as an ambient matrix
    acting on the fiber over x (identity on the complement), or the stack
    of them, each bitwise its one-point result. A stack is refused if any
    one of its points is.
    """
    bundle = lift.bundle
    if not bundle.has_complex_structure:
        raise NoComplexStructure(f"bundle {bundle.key} has no complex structure")
    y = lift.base_map.inverse(x)  # phi^{-1}(x)
    b_y = bundle.fiber_basis(y)
    b_x = bundle.fiber_basis(x)
    m = lift.fiber_matrix_between(y, b_y, b_x)
    low = min_singular_value(m)
    if np.any(low <= 1e-8):
        raise Singular(f"fiber map not invertible at x (sv {np.min(low):.3e})")
    j_y = np.swapaxes(b_y, -1, -2) @ bundle.complex_structure(y) @ b_y
    j_x = np.swapaxes(b_x, -1, -2) @ bundle.complex_structure(x) @ b_x
    k = m @ j_y @ np.linalg.inv(m)
    psi = complex_structure_conjugator(j_x, k)
    conj_defect = np.max(np.abs(np.linalg.inv(psi) @ j_x @ psi - k))
    if conj_defect > 1e-8:
        raise AssertionError(f"conjugator residual {conj_defect:.3e} > 1e-8")
    corrected = psi @ m
    comm_defect = np.max(np.abs(corrected @ j_y - j_x @ corrected))
    if comm_defect > 1e-8:
        raise AssertionError(f"corrected map commutation {comm_defect:.3e} > 1e-8")
    q_x = bundle.fiber_projector(x)
    return (b_x @ psi @ np.swapaxes(b_x, -1, -2)
            + np.eye(bundle.ambient_fiber_dim) - q_x)
