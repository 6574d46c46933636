import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlelift import _kernels, bundles as bd, cli, lifts as lf, manifolds as mf
from bundlelift.errors import (BadParams, BundleMismatch, DegenerateJacobian,
                               NonInjective, NotIsometric, NotOrthonormal)
from bundlelift.numkernel import min_singular_value, stream, worst

from helpers import (antipodal, constant_homotopy, cpn_phase_homotopy,
                     fd_differential, identity_lift, passes, random_point,
                     torus_line_lift)


def _probe(lift, seed=0):
    rng = np.random.default_rng(seed)
    x = random_point(lift.bundle.base, rng)
    v = lift.bundle.random_fiber_vector(x, rng)
    return x, v


def _per_probe_check_lift(lift, samples, seed):
    # the one-probe-at-a-time checker that the stacked check_lift
    # replaced, kept as its oracle: each probe of the drawn blocks on its
    # own, one action call per vector, all in one transport_errors() block
    bundle = lift.bundle
    has_j = bundle.has_complex_structure
    base_res = lin_res = iso_res = 0.0
    min_sv = np.inf
    c_res = 0.0 if has_j else None
    a_res = 0.0 if has_j else None
    xs, vs, us, alphas, betas = _per_probe_draws(bundle, samples, seed)
    with bd.transport_errors() as errors:
        for i in range(samples):
            x = mf.map_points(lambda a: a[i], xs)
            v, u, alpha, beta = vs[i], us[i], alphas[i], betas[i]
            y = lift.base_map.forward(x)
            w = lift.action(x, v)
            base_res = worst(base_res, float(bundle.membership_residual(y, w)))
            w_u = lift.action(x, u)
            w_mix = lift.action(x, alpha * u + beta * v)
            lin = np.linalg.norm(w_mix - alpha * w_u - beta * w)
            lin_res = worst(lin_res, float(lin) / (abs(alpha) + abs(beta) + 1.0))
            b_x = bundle.fiber_basis(x)
            images = np.stack([lift.action(x, b_x[:, i])
                               for i in range(b_x.shape[1])], axis=-1)
            m = bundle.fiber_basis(y).T @ images
            iso_res = worst(iso_res,
                            float(np.max(np.abs(m.T @ m - np.eye(m.shape[0])))))
            sv = min_singular_value(m) if np.all(np.isfinite(m)) else np.nan
            min_sv = float(np.minimum(min_sv, sv))
            if has_j:
                j_x = bundle.complex_structure(x)
                j_y = bundle.complex_structure(y)
                w_jv = lift.action(x, j_x @ v)
                c_res = worst(c_res, float(np.linalg.norm(w_jv - j_y @ w)))
                a_res = worst(a_res, float(np.linalg.norm(w_jv + j_y @ w)))
    transport_res = float(worst(0.0, *errors)) if errors else None
    return lf.LiftReport(base_res, lin_res, min_sv, iso_res, c_res, a_res,
                         transport_res, samples)


def _blocks(bundle, samples, seed):
    # the three blocks of the probe stream: points, the Gaussians behind v
    # and u, and (alpha, beta)
    rng = stream(seed, 1)
    xs = bundle.base.random_points(rng, samples)
    gauss = rng.normal(size=(samples, 2, bundle.ambient_fiber_dim))
    return xs, gauss, rng.normal(size=(samples, 2))


def _per_probe_draws(bundle, samples, seed):
    # the oracle of _draw_probes: each probe of the drawn blocks projected
    # and normalised on its own; a round redraws the faint vectors from the
    # redraw stream, every v before every u, in probe order
    xs, gauss, coeffs = _blocks(bundle, samples, seed)
    redraw = stream(seed, 2)
    points = [mf.map_points(lambda a: a[i], xs) for i in range(samples)]
    vecs = [[bundle.fiber_projector(x) @ g for g in pair]
            for x, pair in zip(points, gauss)]
    for _ in range(8):
        for k in range(2):
            for i, x in enumerate(points):
                if np.linalg.norm(vecs[i][k]) <= 1e-6:
                    vecs[i][k] = bundle.fiber_projector(x) @ redraw.normal(
                        size=bundle.ambient_fiber_dim)
    if any(np.linalg.norm(w) <= 1e-6 for pair in vecs for w in pair):
        raise BadParams("could not sample a fiber vector")
    vs, us = ([w / np.linalg.norm(w) for w in slot] for slot in zip(*vecs))
    return xs, np.stack(vs), np.stack(us), coeffs[:, 0], coeffs[:, 1]


def _faint_bundle(base, scale):
    # the field scale * e0 e0^T at every point: a Gaussian draw g survives
    # the 1e-6 norm floor only if scale |g0| > 1e-6, so some probes are
    # redrawn and some are not
    field = np.zeros((3, 3))
    field[0, 0] = scale
    return bd.BundleModel(
        ("faint", scale), base, 3, 1,
        lambda x: np.broadcast_to(field, base.stack_shape(x) + (3, 3)))


DRAW_BUNDLES = [
    ("tangent_sphere", lambda: bd.tangent_sphere(2)),
    ("tautological_real", lambda: bd.tautological_real(2, 4)),
    ("tautological_complex", lambda: bd.tautological_complex(2)),
    ("torus_line", lambda: bd.torus_line((1, 1))),
    ("product", lambda: lf.s1xs2_generator_lift("a", 1).bundle),
    ("faint_sphere", lambda: _faint_bundle(mf.Sphere(2), 1.5e-6)),
    ("faint_product", lambda: _faint_bundle(
        mf.Product(mf.Torus(1), mf.GrassmannReal(2, 4)), 1.5e-6)),
]


@pytest.mark.parametrize("name,make", DRAW_BUNDLES, ids=[d[0] for d in DRAW_BUNDLES])
def test_stacked_probe_draws_are_bitwise_the_per_probe_draws(name, make):
    bundle = make()
    samples, seed = 24, 3
    stacked = lf._draw_probes(bundle, samples, seed)
    oracle = _per_probe_draws(bundle, samples, seed)

    def raw(p):
        return mf.map_points(lambda a: (a.dtype, a.shape, a.tobytes()), p)

    assert [raw(p) for p in stacked] == [raw(p) for p in oracle]
    if name.startswith("faint"):
        # the redraw branch ran for some probes and not for others
        gauss = _blocks(bundle, samples, seed)[1]
        killed = np.any(1.5e-6 * np.abs(gauss[..., 0]) <= 1e-6, axis=1)
        assert 0 < np.count_nonzero(killed) < samples


def _key(points, i):
    # the bytes of point i of a stack (a pair of them for product points)
    return mf.map_points(lambda a: a[i].tobytes(), points)


def _row(probes, i):
    return [_key(p, i) for p in probes]


@pytest.mark.parametrize("name,make", DRAW_BUNDLES, ids=[d[0] for d in DRAW_BUNDLES])
def test_drawing_the_block_again_reproduces_each_probe(name, make):
    # a probe is re-checked by drawing the blocks again and taking its row
    bundle = make()
    first = lf._draw_probes(bundle, 24, 3)
    for i in (0, 9, 23):
        assert _row(lf._draw_probes(bundle, 24, 3), i) == _row(first, i)


@pytest.mark.parametrize("model", [
    mf.Sphere(2), mf.Torus(2), mf.GrassmannReal(2, 4), mf.ComplexProjective(1),
    mf.Product(mf.GrassmannReal(1, 2), mf.ComplexProjective(1))], ids=str)
def test_probe_points_share_no_row_with_the_seed_stream(model):
    # stream(s, 0) is the one random_orthogonal(n, s) and the scenarios'
    # untagged draws read
    n = 16
    for seed in (0, 42):
        probes = lf._draw_probes(bd.trivial(model, 2), n, seed)[0]
        plain = model.random_points(stream(seed, 0), n)
        rows = {_key(probes, i) for i in range(n)}
        assert not rows & {_key(plain, i) for i in range(n)}


def _metrized_random_lift(seed):
    # the metrize_random scenario's lift
    model = mf.Sphere(2)
    rng = stream(seed, 0)
    a = rng.normal(size=(3, 3)) + 2.5 * np.eye(3)
    s = rng.normal(size=(3, 3))
    vert = lf.Lift(bd.trivial(model, 3), mf.identity_diffeo(model),
                   lambda x, v: np.matvec(a + 0.2 * x[..., 0, None, None] * s, v),
                   "vertical_random")
    return lf.metrize(vert)


ORACLE_LIFTS = [
    # (name, make, samples, seed)
    ("cpn_conjugation", lambda: lf.cpn_conjugation_lift(1), 50, 7),
    ("transport", lambda: lf.lift_from_homotopy(
        bd.tangent_sphere(2),
        mf.rotation_homotopy(mf.Sphere(2), (0, 1), np.pi / 2), steps=256), 6, 3),
    ("s1xs2_a", lambda: lf.s1xs2_generator_lift("a", 2, steps=256), 5, 11),
    ("metrize_random", lambda: _metrized_random_lift(42), 20, 42),
    ("torus_line", lambda: torus_line_lift([[1, 0], [1, 1]], [1, 0]), 20, 5),
    ("s1xs2_r", lambda: lf.s1xs2_generator_lift("r", 2), 20, 9),
]


@pytest.mark.parametrize("name,make,samples,seed", ORACLE_LIFTS,
                         ids=[c[0] for c in ORACLE_LIFTS])
def test_stacked_check_lift_equals_per_probe_oracle(name, make, samples, seed):
    stacked = lf.check_lift(make(), samples=samples, seed=seed)
    oracle = _per_probe_check_lift(make(), samples=samples, seed=seed)
    assert vars(stacked) == vars(oracle)


def test_check_lift_calls_do_not_grow_with_samples(monkeypatch):
    # every vector of every probe goes to one action call, every probe's
    # track to one kernel call at step h and one at 2h for the error
    # estimate, and every field is evaluated once on the probe stack
    counts = {}
    kernel = _kernels.rk4_transport
    projector = bd.BundleModel.fiber_projector
    action = lf.Lift.action

    def counted_action(self, x, v):
        counts["action"] = counts.get("action", 0) + 1
        return action(self, x, v)

    def counted_kernel(qp, qnode, x0, h, **kwargs):
        key = ("rk4_transport", h)
        counts[key] = counts.get(key, 0) + 1
        return kernel(qp, qnode, x0, h, **kwargs)

    def counted_projector(self, x):
        counts["fiber_projector"] = counts.get("fiber_projector", 0) + 1
        return projector(self, x)

    monkeypatch.setattr(_kernels, "rk4_transport", counted_kernel)
    monkeypatch.setattr(bd.BundleModel, "fiber_projector", counted_projector)
    monkeypatch.setattr(lf.Lift, "action", counted_action)
    h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), np.pi / 2)
    per_samples = {}
    for samples in (4, 40):
        counts.clear()
        lift = lf.lift_from_homotopy(bd.tangent_sphere(2), h, steps=64)
        lf.check_lift(lift, samples=samples, seed=1)
        per_samples[samples] = dict(counts)
    assert per_samples[4] == per_samples[40]
    assert per_samples[4][("rk4_transport", 1 / 64)] == 1
    assert per_samples[4][("rk4_transport", 2 / 64)] == 1
    assert per_samples[4]["action"] == 1


class TestCheckLift:
    def test_identity_lift_passes_everything(self):
        for bundle in (bd.tangent_sphere(2), bd.tautological_complex(1)):
            rep = lf.check_lift(identity_lift(bundle), samples=15, seed=0)
            assert passes(rep, 1e-10)
            assert rep.base_residual <= 1e-12
            assert rep.linearity_residual <= 1e-12
            assert rep.isometry_residual <= 1e-12
            assert rep.min_singular_value >= 1 - 1e-12
            if bundle.has_complex_structure:
                assert rep.complex_linearity_residual <= 1e-12

    def test_transport_error_is_reported_for_lifts_that_transport(self):
        # None for a lift that transports nothing, as the complex residuals
        # are for a real bundle; a composite or product lift reports the
        # estimates of the transport inside it
        h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), np.pi / 2)
        transport = lf.lift_from_homotopy(bd.tangent_sphere(2), h, steps=64)
        formula = lf.differential_lift(mf.named_diffeo(mf.Sphere(2),
                                                       "sphere_reflection"))
        for lift, transports in [
                (identity_lift(bd.tangent_sphere(2)), False),
                (formula, False),
                (lf.s1xs2_generator_lift("s", 1, steps=64), False),
                (transport, True),
                (lf.compose(formula, transport), True),
                (lf.compose(transport, formula), True),
                (lf.s1xs2_generator_lift("a", 1, steps=64), True)]:
            rep = lf.check_lift(lift, samples=6, seed=2)
            if transports:
                # 5.97e-9 on the quarter-turn at 64 steps
                assert 1e-11 < rep.transport_error < 1e-6
            else:
                assert rep.transport_error is None

    def test_invert_and_metrize_carry_the_transport_error(self):
        # the operator lifts reach the transport through the fiber
        # matrices they extract, inside check_lift's block
        h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), np.pi / 2)
        transport = lf.lift_from_homotopy(bd.tangent_sphere(2), h, steps=64)
        # 3.07e-9 on 5 probes
        want = lf.check_lift(transport, samples=5).transport_error
        assert 1e-9 < want < 1e-8
        for lift in (lf.invert(transport), lf.metrize(transport)):
            got = lf.check_lift(lift, samples=5).transport_error
            assert want / 2 <= got <= 2 * want

    def test_check_lift_calls_share_no_transport_errors(self):
        # each report holds the estimates of its own action call alone, and
        # an enclosing block receives none of them
        h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), np.pi / 2)
        transport = lf.lift_from_homotopy(bd.tangent_sphere(2), h, steps=64)
        short = lf.lift_from_homotopy(bd.tangent_sphere(2), h, steps=16)
        with bd.transport_errors() as outer:
            first = lf.check_lift(transport, samples=5).transport_error
            coarse = lf.check_lift(short, samples=5).transport_error
            formula = lf.check_lift(identity_lift(bd.tangent_sphere(2)), samples=5)
            again = lf.check_lift(transport, samples=5).transport_error
        assert outer == []
        assert formula.transport_error is None
        assert again == first < coarse

    def test_broken_map_fails_membership(self):
        # keep the vector while moving the base with the involution: the
        # old fiber is orthogonal to the new one, so the defect is ~|v|
        bundle = bd.tautological_real(1, 2)
        phi = mf.named_diffeo(bundle.base, "grassmann_involution")
        broken = lf.Lift(bundle, phi, lambda x, v: v.copy(), "broken")
        rep = lf.check_lift(broken, samples=10, seed=1)
        assert not passes(rep, 1e-10)
        assert rep.base_residual >= 0.9

    def test_nan_residual_fails_its_verdict(self, monkeypatch, capsys):
        # NaN off unit vectors: only the linearity probe alpha*u + beta*v
        # sees it, and a NaN residual must not read as 0: its CLI check
        # fails, and the run exits 1
        bundle = bd.tangent_sphere(2)

        def action(x, v):
            unit = np.abs(np.linalg.norm(v, axis=-1) - 1.0) < 1e-12
            return np.where(unit[..., None], v, np.nan)

        lift = lf.Lift(bundle, mf.identity_diffeo(bundle.base), action,
                       "nan_off_unit")
        rep = lf.check_lift(lift, samples=5, seed=0)
        assert np.isnan(rep.linearity_residual)
        assert not passes(rep, 1e-10)
        assert rep.base_residual <= 1e-10 and rep.isometry_residual <= 1e-10
        checks = []
        cli._report_checks("nan_off_unit", rep, 1e-10, checks)
        assert [c["verdict"] for c in checks] == [True, False, True, True]

        monkeypatch.setitem(cli.SCENARIOS, "gluing_demo",
                            lambda cfg: (checks, None))
        assert cli.main(["scenario", "gluing_demo", "--no-timestamp"]) == 1
        assert '"nonfinite": "nan"' in capsys.readouterr().out

    def test_near_singular_map_fails_invertibility(self):
        # smallest singular value 3e-9, below the 1e-8 floor; through the
        # Gram matrix m^T m it read 1.4e-8 and passed
        rng = np.random.default_rng(5)
        q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = q1 @ np.diag([1.0, 0.7, 3e-9]) @ q2.T
        bundle = bd.trivial(mf.Sphere(2), 3)
        lift = lf.Lift(bundle, mf.identity_diffeo(bundle.base),
                       lambda x, v: np.matvec(m, v), "near_singular")
        rep = lf.check_lift(lift, samples=3, seed=0)
        assert abs(rep.min_singular_value - 3e-9) <= 1e-12
        assert not passes(rep, 1e-10)

    def test_degenerate_projector_raises_as_per_point_sampling(self):
        # every draw is killed by a zero projector: the vectors are redrawn
        # for 8 rounds, and unit_fiber_vectors gives up
        zero = bd.BundleModel(("zero",), mf.Sphere(2), 3, 1,
                              lambda x: np.zeros(np.shape(x)[:-1] + (3, 3)))
        with pytest.raises(BadParams, match="could not sample"):
            lf.check_lift(identity_lift(zero), samples=3)

    def test_samples_floor(self):
        with pytest.raises(BadParams):
            lf.check_lift(identity_lift(bd.tangent_sphere(2)), samples=0)

    def test_report_takes_its_fields_by_position_and_by_name(self):
        names = ("base_residual", "linearity_residual", "min_singular_value",
                 "isometry_residual", "complex_linearity_residual",
                 "anti_linearity_residual", "transport_error", "samples")
        values = (1e-16, 2e-16, 1.0, 3e-16, None, np.nan, 4e-9, 12)
        fields = dict(zip(names, values))
        assert vars(lf.LiftReport(*values)) == fields
        assert vars(lf.LiftReport(**fields)) == fields

    def test_deterministic_given_seed(self):
        lift = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 2), 2)
        r1 = lf.check_lift(lift, samples=12, seed=9)
        r2 = lf.check_lift(lift, samples=12, seed=9)
        assert vars(r1) == vars(r2)

    @pytest.mark.parametrize("make,samples,seed", [
        (lambda: lf.cpn_conjugation_lift(1), 50, 7),
        (lambda: lf.lift_from_homotopy(
            bd.tangent_sphere(2),
            mf.rotation_homotopy(mf.Sphere(2), (0, 1), np.pi / 2), steps=64),
         6, 3),
    ], ids=["cpn_conjugation", "transport"])
    def test_one_forward_per_probe_same_report(self, monkeypatch, make,
                                               samples, seed):
        # the probe's own y = phi(x) picks the target basis
        lift = make()
        forward = lift.base_map.forward
        calls = []

        def counted(x):
            calls.append(1)
            return forward(x)

        monkeypatch.setattr(lift.base_map, "forward", counted)
        r_own_y = lf.check_lift(lift, samples=samples, seed=seed)
        # one call, on the stack of all probes
        assert len(calls) == 1
        # reference: the per-probe oracle, which maps each probe on its own
        assert vars(r_own_y) == vars(_per_probe_check_lift(
            make(), samples=samples, seed=seed))


class TestGroupStructure:
    def setup_method(self):
        self.l1 = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 0), 2)
        self.l2 = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 1), 2)
        self.l3 = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 2), 2)

    def test_compose_base_homomorphism(self):
        comp = lf.compose(self.l1, self.l2)
        for seed in range(100):
            x = random_point(comp.bundle.base, seed)
            direct = self.l1.base_map.forward(self.l2.base_map.forward(x))
            assert comp.bundle.base.distance(comp.base_map.forward(x),
                                             direct) <= 1e-10

    def test_compose_invert_is_identity(self):
        comp = lf.compose(self.l1, lf.invert(self.l1))
        for seed in range(20):
            x, v = _probe(comp, seed)
            assert np.linalg.norm(comp.action(x, v) - v) <= 1e-8
            assert comp.bundle.base.distance(comp.base_map.forward(x), x) <= 1e-8

    def test_invert_refuses_a_nan_fiber_map(self):
        # a NaN fiber matrix has no singular value to compare with 1e-8:
        # the inverse's action is refused, not let through the guard
        bundle = self.l1.bundle
        x = bundle.base.random_points(np.random.default_rng(6), 4)
        v = bundle.unit_fiber_vectors(
            x, np.random.default_rng(7).normal(size=(4, 4)), np.random.default_rng(8))

        y2 = self.l1.base_map.inverse(x[2])

        def action(p, w):
            dead = np.max(np.abs(p - y2), axis=(-2, -1)) <= 1e-9
            return np.where(dead[..., None], np.nan, self.l1.action(p, w))

        inv = lf.invert(lf.Lift(bundle, self.l1.base_map, action, "nan_fiber"))
        inv.action(x[[0, 1, 3]], v[[0, 1, 3]])
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            inv.action(x, v)

    def test_associativity_on_probes(self):
        left = lf.compose(lf.compose(self.l1, self.l2), self.l3)
        right = lf.compose(self.l1, lf.compose(self.l2, self.l3))
        for seed in range(10):
            x, v = _probe(left, seed)
            assert np.linalg.norm(left.action(x, v) - right.action(x, v)) <= 1e-10

    def test_bundle_mismatch(self):
        other = identity_lift(bd.tangent_sphere(2))
        with pytest.raises(BundleMismatch):
            lf.compose(self.l1, other)

    def test_rotation_homotopy_lifts_compose_angles(self):
        bundle = bd.tangent_sphere(2)
        h1 = mf.rotation_homotopy(mf.Sphere(2), (0, 1), 0.4)
        h2 = mf.rotation_homotopy(mf.Sphere(2), (0, 1), 0.9)
        h12 = mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.3)
        comp = lf.compose(lf.lift_from_homotopy(bundle, h1, steps=128),
                          lf.lift_from_homotopy(bundle, h2, steps=128))
        for seed in range(10):
            x = random_point(mf.Sphere(2), seed)
            assert np.linalg.norm(comp.base_map.forward(x)
                                  - h12.endpoint.forward(x)) <= 1e-8


def _plane_rotation(angle, plane):
    r = np.eye(3)
    i, j = plane
    r[i, i] = r[j, j] = np.cos(angle)
    r[i, j], r[j, i] = -np.sin(angle), np.sin(angle)
    return r


_SPHERE = mf.Sphere(2)
_PLANES = [(0, 1), (0, 2), (1, 2)]


def _registered_sphere_lift(seed):
    # the differential of a random registered diffeomorphism of S^2
    kind = seed % 3
    if kind == 0:
        d = mf.named_diffeo(_SPHERE, "sphere_rotation",
                            matrix=mf.random_orthogonal(3, seed))
    elif kind == 1:
        d = mf.named_diffeo(_SPHERE, "sphere_reflection", axis=seed % 3)
    else:
        d = antipodal(_SPHERE)
    return lf.differential_lift(d)


def _registered_lift(family, seed):
    if family == "sphere":
        return _registered_sphere_lift(seed)
    return lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, seed), 2)


def _random_vertical_lift(seed):
    # a random x-dependent, non-isometric linear map on each fiber
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + 2.5 * np.eye(3)
    s = rng.normal(size=(3, 3))
    return lf.Lift(bd.trivial(_SPHERE, 3), mf.identity_diffeo(_SPHERE),
                   lambda x, v: np.matvec(a + 0.2 * x[..., 0, None, None] * s, v),
                   "vertical_random")


def _random_formula_lift(seed):
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        # projection onto the tangent plane at a rotated point: not isometric
        rot = mf.named_diffeo(_SPHERE, "sphere_rotation", matrix=_plane_rotation(
            rng.uniform(-1.0, 1.0), _PLANES[rng.integers(3)]))
        return lf.ambient_projection_lift(bd.tangent_sphere(2), rot)
    if kind == 1:
        return _registered_sphere_lift(int(rng.integers(10 ** 6)))
    return lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, seed), 2)


def _gap(l1, l2, x, v):
    """The largest action and base-map differences of two lifts on probes."""
    act = np.max(np.abs(l1.action(x, v) - l2.action(x, v)))
    # root-sum-square of the per-point distances: the distance of the two
    # stacks read as single points, no weaker than their maximum
    base = np.linalg.norm(
        l1.bundle.base.distance(l1.base_map.forward(x), l2.base_map.forward(x)))
    return max(act, base)


class TestAlgebraProperties:
    """Group laws and metrize idempotence on random lifts, each checked on
    a stack of check_lift probes."""

    @settings(max_examples=25)
    @given(st.sampled_from(["sphere", "grassmann"]),
           st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=3,
                    max_size=3))
    def test_compose_is_associative(self, family, seeds):
        l1, l2, l3 = (_registered_lift(family, s) for s in seeds)
        x, v, _, _, _ = lf._draw_probes(l1.bundle, 8, seeds[0])
        left = lf.compose(lf.compose(l1, l2), l3)
        right = lf.compose(l1, lf.compose(l2, l3))
        assert _gap(left, right, x, v) <= 1e-10

    @settings(max_examples=25)
    @given(st.sampled_from(["sphere", "grassmann"]),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_invert_is_a_two_sided_inverse(self, family, seed):
        lift = _registered_lift(family, seed)
        ident = identity_lift(lift.bundle)
        x, v, _, _, _ = lf._draw_probes(lift.bundle, 8, seed)
        assert _gap(lf.compose(lift, lf.invert(lift)), ident, x, v) <= 1e-8
        assert _gap(lf.compose(lf.invert(lift), lift), ident, x, v) <= 1e-8

    @settings(max_examples=25)
    @given(st.sampled_from(["vertical", "formula"]),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_metrize_is_idempotent(self, kind, seed):
        make = _random_vertical_lift if kind == "vertical" else _random_formula_lift
        once = lf.metrize(make(seed))
        x, v, _, _, _ = lf._draw_probes(once.bundle, 8, seed)
        assert _gap(lf.metrize(once), once, x, v) <= 1e-8


class TestLiftFromHomotopy:
    def test_constant_homotopy_gives_identity(self):
        bundle = bd.tautological_real(2, 4)
        h = constant_homotopy(bundle.base)
        lift = lf.lift_from_homotopy(bundle, h, steps=64)
        x, v = _probe(lift, 3)
        assert np.linalg.norm(lift.action(x, v) - v) <= 1e-12

    def test_tangent_sphere_rotation(self):
        bundle = bd.tangent_sphere(2)
        h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), np.pi / 2)
        lift = lf.lift_from_homotopy(bundle, h, steps=1024)
        rep = lf.check_lift(lift, samples=10, seed=2)
        assert passes(rep, 1e-5)
        assert rep.isometry_residual <= 1e-5

    def test_base_is_endpoint(self):
        bundle = bd.tautological_complex(1)
        h = cpn_phase_homotopy(mf.ComplexProjective(1), 2 * np.pi / 3)
        lift = lf.lift_from_homotopy(bundle, h, steps=256)
        rep = lf.check_lift(lift, samples=8, seed=3)
        assert passes(rep, 1e-5)
        for seed in range(10):
            x = random_point(bundle.base, seed)
            assert bundle.base.distance(lift.base_map.forward(x),
                                        h.endpoint.forward(x)) <= 1e-8

    def test_wrong_base_rejected(self):
        bundle = bd.tangent_sphere(2)
        h = cpn_phase_homotopy(mf.ComplexProjective(1), 0.5)
        with pytest.raises(BadParams):
            lf.lift_from_homotopy(bundle, h, steps=64)


class TestMetrize:
    def test_isometric_lift_is_fixed(self):
        lift = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 5), 2)
        iso = lf.metrize(lift)
        for seed in range(10):
            x, v = _probe(lift, seed)
            assert np.linalg.norm(iso.action(x, v) - lift.action(x, v)) <= 1e-8

    def test_conformal_scaling_removed(self):
        bundle = bd.trivial(mf.Sphere(2), 2)
        th = 0.8
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        lift = lf.Lift(bundle, mf.identity_diffeo(mf.Sphere(2)),
                       lambda x, v: 2.0 * np.matvec(r, v), "conformal")
        iso = lf.metrize(lift)
        x, v = _probe(lift, 7)
        assert np.linalg.norm(iso.action(x, v) - r @ v) <= 1e-10

    def test_random_vertical_becomes_isometric_and_idempotent(self):
        bundle = bd.trivial(mf.Sphere(2), 3)
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        lift = lf.Lift(bundle, mf.identity_diffeo(mf.Sphere(2)),
                       lambda x, v: np.matvec(a, v), "vertical")
        iso = lf.metrize(lift)
        rep = lf.check_lift(iso, samples=10, seed=4)
        assert rep.isometry_residual <= 1e-8
        iso2 = lf.metrize(iso)
        for seed in range(5):
            x, v = _probe(lift, seed)
            assert np.linalg.norm(iso2.action(x, v) - iso.action(x, v)) <= 1e-8


class TestDifferentialLift:
    def test_identity(self):
        lift = lf.differential_lift(mf.identity_diffeo(mf.Sphere(2)))
        x, v = _probe(lift, 1)
        assert np.linalg.norm(lift.action(x, v) - v) <= 1e-8

    def test_linear_rotation_restricts(self):
        r = mf.random_orthogonal(3, 4)
        diffeo = mf.named_diffeo(mf.Sphere(2), "sphere_rotation", matrix=r)
        lift = lf.differential_lift(diffeo)
        rep = lf.check_lift(lift, samples=15, seed=5)
        assert passes(rep, 1e-5)
        assert rep.isometry_residual <= 1e-9
        x, v = _probe(lift, 2)
        assert np.linalg.norm(lift.action(x, v) - r @ v) <= 1e-8

    def test_reflection_pipeline(self):
        sigma = mf.named_diffeo(mf.Sphere(2), "sphere_reflection")
        lift = lf.differential_lift(sigma)
        rep = lf.check_lift(lift, samples=15, seed=6)
        assert passes(rep, 1e-5)
        iso = lf.metrize(lift)
        rep_iso = lf.check_lift(iso, samples=10, seed=7)
        assert rep_iso.isometry_residual <= 1e-8

    def test_rotation_endpoint_and_composite_lift(self):
        # a rotation homotopy's endpoint and a composite of two linear
        # sphere maps carry their differentials, so both lift
        s2 = mf.Sphere(2)
        r = mf.named_diffeo(s2, "sphere_rotation", matrix=mf.random_orthogonal(3, 4))
        for diffeo in (mf.rotation_homotopy(s2, (0, 1), 0.5).endpoint,
                       r.then(mf.named_diffeo(s2, "sphere_reflection"))):
            lift = lf.differential_lift(diffeo)
            assert passes(lf.check_lift(lift, samples=10, seed=5), 1e-8)
            x, v = _probe(lift, 2)
            fd = fd_differential(diffeo.forward)(x, v)
            assert np.linalg.norm(lift.action(x, v) - fd) <= 1e-8

    def test_inverse_has_no_differential_to_lift(self):
        # a Diffeo carries no inverse differential, so its inverse is refused
        r = mf.named_diffeo(mf.Sphere(2), "sphere_rotation",
                            matrix=mf.random_orthogonal(3, 4))
        with pytest.raises(BadParams,
                           match=r"^sphere_rotation\^-1 has no differential to lift$"):
            lf.differential_lift(r.inverted())

    def test_degenerate_jacobian(self):
        # collapsing the third coordinate kills one tangent direction
        def squash(x):
            y = x * np.array([1.0, 1.0, 1e-9])
            return y / np.linalg.norm(y, axis=-1, keepdims=True)

        fake = mf.Diffeo("squash", squash, squash, mf.Sphere(2),
                         differential=fd_differential(squash))
        lift = lf.differential_lift(fake)
        x = np.array([0.6, 0.0, 0.8])
        with pytest.raises(DegenerateJacobian):
            lift.action(x, lift.bundle.random_fiber_vector(
                x, np.random.default_rng(0)))


class TestAmbientProjection:
    def test_identity_diffeo(self):
        bundle = bd.tautological_real(1, 2)
        lift = lf.ambient_projection_lift(bundle, mf.identity_diffeo(bundle.base))
        x, v = _probe(lift, 3)
        assert np.linalg.norm(lift.action(x, v) - v) <= 1e-12

    def test_small_rotation_passes(self):
        bundle = bd.tautological_real(1, 2)
        th = 0.1
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        phi = mf.named_diffeo(bundle.base, "grassmann_action", matrix=rot)
        lift = lf.ambient_projection_lift(bundle, phi)
        rep = lf.check_lift(lift, samples=20, seed=8)
        assert passes(rep, 1e-10)

    def test_involution_non_injective(self):
        bundle = bd.tautological_real(1, 2)
        phi = mf.named_diffeo(bundle.base, "grassmann_involution")
        with pytest.raises(NonInjective) as err:
            lf.ambient_projection_lift(bundle, phi)
        assert err.value.singular_value <= 1e-6

    def test_orthocomplement_variant_leaves_fibers(self):
        bundle = bd.tautological_real(1, 2)
        phi = mf.named_diffeo(bundle.base, "grassmann_involution")
        literal = lf.ambient_projection_lift(bundle, phi,
                                             variant="orthocomplement")
        rep = lf.check_lift(literal, samples=10, seed=9)
        assert not passes(rep, 1e-10)
        assert rep.base_residual >= 0.9


def _per_probe_injectivity(bundle, diffeo, seed):
    # the one-probe-at-a-time injectivity loop that the stacked probes
    # replaced, kept as their oracle on the same block of 25 points:
    # (point, singular value) of the first failing probe, or None
    for x in bundle.base.random_points(stream(seed, 3), 25):
        cols = bundle.fiber_projector(diffeo.forward(x)) @ bundle.fiber_basis(x)
        sv = min_singular_value(cols)
        if sv <= 1e-6:
            return x, float(sv)
    return None


def _half_flip(model):
    # fixes the lines of RP^1 nearer the x-axis and sends the others to
    # their orthocomplement: projection fails at the flipped probes only
    eye = np.eye(2)

    def flip(p):
        p = np.asarray(p)
        return np.where((p[..., 0, 0] < 0.5)[..., None, None], eye - p, p)

    return mf.Diffeo("half_flip", flip, flip, model)


class TestStackedInjectivityProbes:
    # seeds whose first failing probe is not probe 0 (the test asserts it)
    @pytest.mark.parametrize("seed", [1, 5, 14, 34])
    def test_refusal_names_the_first_failing_probe(self, seed):
        bundle = bd.tautological_real(1, 2)
        phi = _half_flip(bundle.base)
        x = bundle.base.random_points(stream(seed, 3), 25)
        flipped = np.nonzero(x[:, 0, 0] < 0.5)[0]
        # some probes fail but not all, and not only the first
        assert 2 <= len(flipped) < 25 and flipped[0] > 0
        oracle_x, oracle_sv = _per_probe_injectivity(bundle, phi, seed)
        with pytest.raises(NonInjective) as err:
            lf.ambient_projection_lift(bundle, phi, seed=seed)
        assert err.value.witness_point.tobytes() == oracle_x.tobytes()
        assert err.value.singular_value == oracle_sv
        assert f"{oracle_sv:.3e}" in str(err.value)

    @pytest.mark.parametrize("make", [
        lambda b: mf.named_diffeo(b.base, "grassmann_action",
                                  matrix=mf.random_orthogonal(2, 4)),
        lambda b: mf.identity_diffeo(b.base),
    ])
    def test_accepted_where_every_probe_passes(self, make):
        bundle = bd.tautological_real(1, 2)
        phi = make(bundle)
        assert _per_probe_injectivity(bundle, phi, 7) is None
        lf.ambient_projection_lift(bundle, phi, seed=7)


class TestGrassmannLift:
    def test_identity_matrix(self):
        lift = lf.grassmann_orthogonal_lift(np.eye(2), 1)
        x, v = _probe(lift, 0)
        assert np.linalg.norm(lift.action(x, v) - v) == 0.0

    def test_reflection_on_rp1(self):
        lift = lf.grassmann_orthogonal_lift(np.diag([1.0, -1.0]), 1)
        rep = lf.check_lift(lift, samples=20, seed=1)
        assert passes(rep, 1e-10)
        assert rep.isometry_residual <= 1e-10

    def test_seeded_o4(self):
        lift = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 11), 2)
        rep = lf.check_lift(lift, samples=30, seed=2)
        assert passes(rep, 1e-10)
        assert rep.isometry_residual <= 1e-10

    def test_rejects_non_orthogonal(self):
        with pytest.raises(BadParams):
            lf.grassmann_orthogonal_lift(np.diag([2.0, 1.0]), 1)


class TestFrameLiftView:
    def test_identity_keeps_frame(self):
        bundle = bd.tautological_real(2, 4)
        lift = identity_lift(bundle)
        x = random_point(bundle.base, 3)
        frame = lf.FiberFrame(x, bundle.fiber_basis(x))
        out = lf.frame_lift_view(lift, frame)
        assert np.allclose(out.vectors, frame.vectors)

    def test_orthonormal_output(self):
        lift = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 6), 2)
        x = random_point(lift.bundle.base, 4)
        frame = lf.FiberFrame(x, lift.bundle.fiber_basis(x))
        out = lf.frame_lift_view(lift, frame)
        gram = out.vectors.T @ out.vectors
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_equivariance(self):
        lift = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 7), 2)
        x = random_point(lift.bundle.base, 5)
        g = mf.random_orthogonal(2, 8)
        frame = lf.FiberFrame(x, lift.bundle.fiber_basis(x))
        out = lf.frame_lift_view(lift, frame)
        out_rot = lf.frame_lift_view(lift, lf.FiberFrame(x, frame.vectors @ g))
        assert np.max(np.abs(out_rot.vectors - out.vectors @ g)) <= 1e-8

    def test_stack_of_frames_equals_per_frame_calls(self):
        lift = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 9), 2)
        base = lift.bundle.base
        x = base.random_points(np.random.default_rng(0), 30)
        g = mf.random_orthogonal(2, 10)
        for vectors in (lift.bundle.fiber_basis(x),
                        lift.bundle.fiber_basis(x) @ g):
            out = lf.frame_lift_view(lift, lf.FiberFrame(x, vectors))
            assert out.vectors.shape == (30, 4, 2)
            for i in range(30):
                one = lf.frame_lift_view(lift, lf.FiberFrame(x[i], vectors[i]))
                assert out.vectors[i].tobytes() == one.vectors.tobytes()
                assert out.base_point[i].tobytes() == one.base_point.tobytes()

    @pytest.mark.parametrize("bad", [0, 4, 9])
    def test_one_bad_frame_refuses_the_stack(self, bad):
        bundle = bd.tautological_real(2, 4)
        lift = identity_lift(bundle)
        x = bundle.base.random_points(np.random.default_rng(0), 10)
        vectors = bundle.fiber_basis(x)
        lf.frame_lift_view(lift, lf.FiberFrame(x, vectors))
        vectors[bad] *= 1.5
        with pytest.raises(NotOrthonormal):
            lf.frame_lift_view(lift, lf.FiberFrame(x, vectors))

    @pytest.mark.parametrize("bad", [0, 6])
    def test_one_non_isometric_image_refuses_the_stack(self, bad):
        bundle = bd.trivial(mf.Sphere(2), 2)

        def action(x, v):
            # stretches the fiber over one point of the stack only
            out = np.array(v)
            if np.ndim(x) == 2:
                out[..., bad, 0] *= 2.0
            return out

        stretch = lf.Lift(bundle, mf.identity_diffeo(mf.Sphere(2)), action,
                          "stretch_one")
        x = mf.Sphere(2).random_points(np.random.default_rng(0), 8)
        with pytest.raises(NotIsometric):
            lf.frame_lift_view(stretch, lf.FiberFrame(x, bundle.fiber_basis(x)))

    def test_rejects_bad_frame(self):
        bundle = bd.tautological_real(2, 4)
        lift = identity_lift(bundle)
        x = random_point(bundle.base, 6)
        bad = lf.FiberFrame(x, 1.5 * bundle.fiber_basis(x))
        with pytest.raises(NotOrthonormal):
            lf.frame_lift_view(lift, bad)

    def test_rejects_non_isometric_lift(self):
        bundle = bd.trivial(mf.Sphere(2), 2)
        stretch = lf.Lift(bundle, mf.identity_diffeo(mf.Sphere(2)),
                          lambda x, v: np.matvec(np.diag([2.0, 1.0]), v),
                          "stretch")
        x = random_point(mf.Sphere(2), 7)
        frame = lf.FiberFrame(x, bundle.fiber_basis(x))
        with pytest.raises(NotIsometric):
            lf.frame_lift_view(stretch, frame)

    def test_rejects_nan_output(self):
        bundle = bd.tautological_complex(1)
        nan_lift = lf.Lift(bundle, mf.identity_diffeo(bundle.base),
                           lambda x, v: v * np.nan, "nan")
        x = random_point(bundle.base, 8)
        frame = lf.FiberFrame(x, bundle.fiber_basis(x))
        with pytest.raises(NotIsometric):
            lf.frame_lift_view(nan_lift, frame)


@pytest.mark.parametrize("kind", ["bundle", "metrize", "invert", "differential",
                                  "homotopy"])
def test_cached_objects_are_freed_without_gc(kind):
    # an object that kept a bound method of itself would form a reference
    # cycle, freed only when the garbage collector runs
    bundle = bd.tangent_sphere(2)
    sigma = mf.named_diffeo(bundle.base, "sphere_reflection")
    h = mf.rotation_homotopy(bundle.base, (0, 1), 0.5)
    x, v = _probe(identity_lift(bundle), 1)
    make = {
        "bundle": lambda: bd.tangent_sphere(2),
        "metrize": lambda: lf.metrize(lf.differential_lift(sigma)),
        "invert": lambda: lf.invert(lf.differential_lift(sigma)),
        "differential": lambda: lf.differential_lift(sigma),
        "homotopy": lambda: lf.lift_from_homotopy(bundle, h, steps=16),
    }[kind]
    gc.disable()
    try:
        obj = make()
        if kind == "bundle":
            obj.fiber_basis(x)
        else:
            obj.action(x, v)
        ref = weakref.ref(obj)
        del obj
        assert ref() is None
    finally:
        gc.enable()


def test_homotopy_invariance_mechanism():
    # if phi lifts by a constructor and psi = phi . endpoint(h), then the
    # composition with the transport lift of h lifts psi
    bundle = bd.tangent_sphere(2)
    sigma = mf.named_diffeo(mf.Sphere(2), "sphere_reflection")
    phi_lift = lf.differential_lift(sigma)
    h = mf.rotation_homotopy(mf.Sphere(2), (0, 2), 0.7)
    psi_lift = lf.compose(phi_lift, lf.lift_from_homotopy(bundle, h, steps=256))
    rep = lf.check_lift(psi_lift, samples=10, seed=3)
    assert passes(rep, 1e-5)
    for seed in range(10):
        x = random_point(mf.Sphere(2), seed)
        expected = sigma.forward(h.endpoint.forward(x))
        assert np.linalg.norm(psi_lift.base_map.forward(x) - expected) <= 1e-10
