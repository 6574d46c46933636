import math

import numpy as np
import pytest

from bundlelift import manifolds as mf
from bundlelift.errors import BadParams, BadPlane, UnknownName
from bundlelift.numkernel import stream

from helpers import (TEST_DIFFEOS, constant_homotopy, cp1_power_differential,
                     cpn_phase_homotopy, diffeo, fd_differential,
                     membership_residual, random_point, stack_points,
                     unimodular)


MODELS = [
    mf.Sphere(2),
    mf.Sphere(3),
    mf.Torus(2),
    mf.Torus(3),
    mf.GrassmannReal(1, 2),
    mf.GrassmannReal(2, 4),
    mf.ComplexProjective(1),
    mf.ComplexProjective(2),
    mf.Product(mf.GrassmannReal(1, 2), mf.ComplexProjective(1)),
]


# Each model, built by position and by name, with its repr. The models are
# plain immutable values: the bundle constructors and lru_caches key on them
# and the refusal messages print them.
VALUES = [
    (mf.Sphere(2), mf.Sphere(n=2), "Sphere(n=2)"),
    (mf.Torus(3), mf.Torus(n=3), "Torus(n=3)"),
    (mf.GrassmannReal(2, 4), mf.GrassmannReal(k=2, n=4), "GrassmannReal(k=2, n=4)"),
    (mf.ComplexProjective(1), mf.ComplexProjective(n=1), "ComplexProjective(n=1)"),
    (mf.Product(mf.Sphere(1), mf.Product(mf.Torus(2), mf.ComplexProjective(1))),
     mf.Product(left=mf.Sphere(n=1),
                right=mf.Product(mf.Torus(2), right=mf.ComplexProjective(1))),
     "Product(left=Sphere(n=1), right=Product(left=Torus(n=2), "
     "right=ComplexProjective(n=1)))"),
]


@pytest.mark.parametrize("model,by_name,text", VALUES, ids=[v[2] for v in VALUES])
def test_model_is_a_value_with_equality_hash_and_repr(model, by_name, text):
    assert repr(model) == str(model) == repr(by_name) == text
    assert by_name is not model
    assert by_name == model and not by_name != model
    assert hash(by_name) == hash(model)
    assert {model: "cached"}[by_name] == "cached"
    # every other model differs, and so does anything that is no model
    for other, _, _ in VALUES:
        assert (other == model) is (other is model)
    assert model != text and model != model.fields


def test_models_with_equal_fields_differ_by_class_and_by_field():
    assert mf.Sphere(2) != mf.Torus(2) and mf.Torus(2) != mf.ComplexProjective(2)
    assert mf.Sphere(2) != mf.Sphere(3)
    inner = mf.Product(mf.Torus(2), mf.ComplexProjective(1))
    assert (mf.Product(mf.Sphere(1), inner)
            != mf.Product(mf.Sphere(1), mf.Product(mf.Torus(2), mf.ComplexProjective(2))))
    assert mf.Product(mf.Sphere(1), inner) != mf.Product(inner, mf.Sphere(1))


@pytest.mark.parametrize("model,by_name,text", VALUES, ids=[v[2] for v in VALUES])
def test_model_fields_cannot_be_assigned(model, by_name, text):
    for name in model.fields + ("point_ndim", "extra"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(model, name, 5)
    assert model == by_name and repr(model) == text


@pytest.mark.parametrize("args,kwargs", [((), {}), ((1, 2), {}), ((1,), {"n": 2}),
                                         ((), {"m": 2}), ((), {"n": 2, "m": 3})])
def test_model_takes_exactly_its_fields(args, kwargs):
    with pytest.raises(TypeError, match=r"^Sphere takes the fields \('n',\)$"):
        mf.Sphere(*args, **kwargs)


@pytest.mark.parametrize("k,n", [(0, 2), (2, 2), (3, 2), (-1, 3)])
def test_grassmann_model_refuses_k_outside_0_n(k, n):
    with pytest.raises(BadParams, match=rf"^need 0 < k < n, got k={k}, n={n}$"):
        mf.GrassmannReal(k, n)
    with pytest.raises(BadParams):
        mf.GrassmannReal(k=k, n=n)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_random_points_are_members_and_repeatable(model):
    for seed in (0, 1, 42):
        x = random_point(model, seed)
        assert membership_residual(model, x) <= 1e-10
        y = random_point(model, seed)
        assert model.distance(x, y) == 0.0


def _per_point_map(model, rng, count):
    # the block a model draws, mapped onto the model one point at a time:
    # the oracle of the stacked map in random_points
    if isinstance(model, mf.Product):
        left = _per_point_map(model.left, rng, count)
        return left, _per_point_map(model.right, rng, count)
    if isinstance(model, mf.Sphere):
        return np.stack([v / np.linalg.norm(v)
                         for v in rng.normal(size=(count, model.n + 1))])
    if isinstance(model, mf.Torus):
        return np.stack([rng.uniform(0.0, 1.0, size=model.n) for _ in range(count)])
    if isinstance(model, mf.GrassmannReal):
        qs = [np.linalg.qr(a)[0] for a in rng.normal(size=(count, model.n, model.k))]
        return np.stack([q @ q.T for q in qs])
    g = rng.normal(size=(count, 2, model.n + 1))
    zs = [z / np.linalg.norm(z) for z in g[:, 0] + 1j * g[:, 1]]
    return np.stack([np.outer(z, z.conj()) for z in zs])


def _same_bytes(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_bytes, a, b))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


DRAW_MODELS = MODELS + [
    mf.Sphere(1),
    mf.Sphere(9),
    mf.GrassmannReal(3, 7),
    mf.ComplexProjective(4),
    mf.Product(mf.Torus(1), mf.Sphere(2)),
]


@pytest.mark.parametrize("model", DRAW_MODELS, ids=str)
def test_stacked_draws_are_bitwise_the_per_point_draws(model):
    # from the package's stream and from a numpy Generator alike
    for make in (lambda seed: stream(seed, 0), np.random.default_rng):
        rng, ref = make(7), make(7)
        stacked = model.random_points(rng, 64)
        assert model.stack_shape(stacked) == (64,)
        assert _same_bytes(stacked, _per_point_map(model, ref, 64))
        # the block leaves the stream where the per-point draws leave it
        assert rng.uniform(0.0, 1.0, 1) == ref.uniform(0.0, 1.0, 1)


@pytest.mark.parametrize("model", DRAW_MODELS, ids=str)
def test_block_draws_are_members(model):
    stack = model.random_points(np.random.default_rng(7), 64)
    assert model.stack_shape(stack) == (64,)
    for i in range(64):
        point = mf.map_points(lambda a: a[i], stack)
        assert membership_residual(model, point) <= 1e-10


@pytest.mark.parametrize("model", DRAW_MODELS, ids=str)
def test_equal_seeds_give_bitwise_equal_stacks(model):
    first = model.random_points(np.random.default_rng([7, 5]), 33)
    again = model.random_points(np.random.default_rng([7, 5]), 33)
    other = model.random_points(np.random.default_rng([7, 6]), 33)
    assert _same_bytes(first, again)
    assert not _same_bytes(first, other)


@pytest.mark.parametrize("model", DRAW_MODELS, ids=str)
def test_random_point_is_row_0_of_the_one_point_draw(model):
    for seed in (0, 3, 42):
        one = random_point(model, seed)
        stack = model.random_points(np.random.default_rng(seed), 1)
        assert model.stack_shape(stack) == (1,)
        assert _same_bytes(one, mf.map_points(lambda a: a[0], stack))


@pytest.mark.parametrize("model", DRAW_MODELS, ids=str)
def test_distance_of_empty_stacks_is_empty(model):
    empty = model.random_points(np.random.default_rng(0), 0)
    assert np.shape(model.distance(empty, empty)) == (0,)


def test_sphere_point_norm():
    x = random_point(mf.Sphere(2), 5)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_grassmann_point_trace():
    p = random_point(mf.GrassmannReal(2, 4), 9)
    assert abs(np.trace(p) - 2.0) <= 1e-10


def test_torus_reduced_coordinates():
    x = random_point(mf.Torus(3), 4)
    assert np.all(x >= 0.0) and np.all(x < 1.0)


def test_torus_distance_wraps():
    t = mf.Torus(1)
    assert t.distance(np.array([0.05]), np.array([0.95])) == pytest.approx(0.1)


def _per_point_distance(model, a, b):
    # the one-point distances that the stacked distance replaced, kept as
    # its oracle
    if isinstance(model, mf.Product):
        return max(_per_point_distance(model.left, a[0], b[0]),
                   _per_point_distance(model.right, a[1], b[1]))
    d = np.asarray(a) - np.asarray(b)
    if isinstance(model, mf.Torus):
        d = np.mod(d + 0.5, 1.0) - 0.5
    return float(np.linalg.norm(d))


DISTANCE_MODELS = [
    mf.Sphere(2),
    mf.Sphere(9),
    mf.Torus(1),
    mf.Torus(3),
    mf.GrassmannReal(1, 2),
    mf.GrassmannReal(2, 4),
    mf.GrassmannReal(3, 7),
    mf.ComplexProjective(1),
    mf.ComplexProjective(2),
    mf.Product(mf.GrassmannReal(1, 2), mf.ComplexProjective(1)),
    mf.Product(mf.Torus(2), mf.Sphere(2)),
]


@pytest.mark.parametrize("model", DISTANCE_MODELS, ids=str)
def test_stacked_distance_is_bitwise_the_per_point_distance(model):
    a = model.random_points(np.random.default_rng(5), 40)
    far = model.random_points(np.random.default_rng(6), 40)
    # a nearby stack too: points moved by about 1e-9, where rounding shows
    near = model.random_points(np.random.default_rng(5), 40)
    near = mf.map_points(
        lambda p: p + 1e-9 * np.random.default_rng(8).normal(size=p.shape), near)
    for b in (far, near):
        stacked = model.distance(a, b)
        assert stacked.shape == (40,)
        for i in range(40):
            ai, bi = (mf.map_points(lambda p: p[i], q) for q in (a, b))
            one = model.distance(ai, bi)
            assert type(one) is float
            assert stacked[i] == one == _per_point_distance(model, ai, bi)
    # further leading axes are stack axes too
    grid = mf.map_points(lambda p: p.reshape((4, 10) + p.shape[1:]), a)
    other = mf.map_points(lambda p: p.reshape((4, 10) + p.shape[1:]), far)
    assert np.array_equal(model.distance(grid, other),
                          model.distance(a, far).reshape(4, 10))


def test_product_distance_keeps_a_nan_in_either_factor():
    model = mf.Product(mf.Sphere(2), mf.Sphere(2))
    x = model.random_points(np.random.default_rng(0), 3)
    broken = (x[0], x[1].copy())
    broken[1][2] = np.nan
    d = model.distance(x, broken)
    assert np.isnan(d[2]) and np.all(d[:2] == 0.0)


@pytest.mark.parametrize("model,point", [
    (mf.Product(mf.Sphere(1), mf.Sphere(2)), ([1.0, 0.0], [np.nan, 0.0, 1.0])),
    (mf.Product(mf.Sphere(1), mf.Sphere(2)), ([np.nan, 0.0], [1.0, 0.0, 0.0])),
    (mf.Product(mf.Sphere(2), mf.ComplexProjective(1)),
     ([0.0, 0.0, 1.0], np.array([[np.nan, 0.0], [0.0, 0.0]], dtype=complex))),
    (mf.Product(mf.GrassmannReal(1, 2), mf.Torus(1)),
     (np.array([[1.0, 0.0], [0.0, 0.0]]), [np.nan])),
], ids=["nan_right", "nan_left", "nan_right_cpn", "nan_right_torus"])
def test_product_membership_keeps_a_nan_in_either_factor(model, point):
    assert np.isnan(membership_residual(model, point))


def _build_nan_at_one_point(model, params):
    # exact on one point, but a stack's inverse loses its second point
    def inverse(x):
        out = np.array(x, dtype=float)
        if out.ndim == 2:
            out[1] = np.nan
        return out

    return mf.Diffeo("nan_at_one_point", lambda x: np.array(x), inverse, model)


def test_round_trip_with_a_nan_at_one_point_is_refused(monkeypatch):
    monkeypatch.setitem(mf._DIFFEO_REGISTRY, (mf.Sphere, "nan_at_one_point"),
                        _build_nan_at_one_point)
    with pytest.raises(BadParams, match="round-trip"):
        mf.named_diffeo(mf.Sphere(2), "nan_at_one_point")


@pytest.mark.parametrize("model", [mf.Sphere(2), mf.Torus(3),
                                   mf.Product(mf.GrassmannReal(1, 2),
                                              mf.ComplexProjective(1))])
def test_round_trip_points_are_drawn_once_per_model_and_read_only(model):
    x = mf._round_trip_points(model)
    assert mf._round_trip_points(model) is x
    want = model.random_points(stream(3, 0), 3)
    assert _points_equal(x, want)
    for a in (x if isinstance(x, tuple) else (x,)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_cached_round_trip_still_refuses_a_nan(monkeypatch):
    monkeypatch.setitem(mf._DIFFEO_REGISTRY, (mf.Sphere, "nan_at_one_point"),
                        _build_nan_at_one_point)
    mf.named_diffeo(mf.Sphere(2), "sphere_reflection")  # the points are cached now
    for _ in range(2):
        with pytest.raises(BadParams, match="round-trip"):
            mf.named_diffeo(mf.Sphere(2), "nan_at_one_point")


class TestNamedDiffeos:
    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            mf.named_diffeo(mf.Sphere(2), "does_not_exist")

    def test_bad_rotation_params(self):
        with pytest.raises(BadParams):
            mf.named_diffeo(mf.Sphere(2), "sphere_rotation",
                            matrix=np.diag([2.0, 1.0, 1.0]))
        # a defect that cannot be measured (NaN) is refused, not passed
        with pytest.raises(BadParams):
            mf.named_diffeo(mf.Sphere(2), "sphere_rotation",
                            matrix=np.full((3, 3), np.nan))
        with pytest.raises(BadParams):
            diffeo(mf.ComplexProjective(1), "cpn_unitary",
                   matrix=np.full((2, 2), np.nan))
        with pytest.raises(BadParams):
            mf.named_diffeo(mf.GrassmannReal(2, 4), "grassmann_action",
                            matrix=np.full((4, 4), np.nan))

    def test_bad_torus_matrix(self):
        with pytest.raises(BadParams):
            mf.torus_autos(mf.Torus(2), np.array([[2, 0], [0, 1]]))
        # not truncated to the identity by the integer cast
        with pytest.raises(BadParams):
            mf.torus_autos(mf.Torus(2), [[1.5, 0], [0, 1]])

    def test_torus_identity(self):
        d = mf.torus_autos(mf.Torus(2), np.eye(2, dtype=int))
        x = random_point(mf.Torus(2), 3)
        assert mf.Torus(2).distance(d.forward(x), x) <= 1e-12

    def test_grassmann_involution_is_involution(self):
        m = mf.GrassmannReal(1, 2)
        d = mf.named_diffeo(m, "grassmann_involution")
        x = random_point(m, 8)
        assert m.distance(d.forward(d.forward(x)), x) <= 1e-12
        assert np.allclose(d.forward(x), np.eye(2) - x)

    def test_grassmann_involution_needs_half_dim(self):
        with pytest.raises(BadParams):
            mf.named_diffeo(mf.GrassmannReal(1, 3), "grassmann_involution")

    def test_cpn_conjugation_on_real_points_fixes(self):
        m = mf.ComplexProjective(1)
        d = mf.named_diffeo(m, "cpn_conjugation")
        z = np.array([0.6, 0.8], dtype=complex)
        p = np.outer(z, z.conj())
        assert m.distance(d.forward(p), p) <= 1e-12

    @pytest.mark.parametrize("model,name,params", [
        (mf.Sphere(2), "sphere_rotation", {"matrix": mf.random_orthogonal(3, 1)}),
        (mf.Sphere(2), "sphere_reflection", {}),
        (mf.Sphere(3), "antipodal", {}),
        (mf.GrassmannReal(2, 4), "grassmann_action",
         {"matrix": mf.random_orthogonal(4, 2)}),
        (mf.ComplexProjective(1), "cpn_conjugation", {}),
        (mf.ComplexProjective(1), "cp1_antipodal", {}),
        (mf.ComplexProjective(2), "cpn_unitary",
         {"matrix": np.diag([np.exp(0.7j), 1.0, np.exp(-0.2j)])}),
        (mf.Torus(3), "torus_auto", {"matrix": unimodular(3, 5)}),
    ])
    def test_round_trip_and_membership(self, model, name, params):
        d = diffeo(model, name, **params)
        for seed in range(100):
            x = random_point(model, seed)
            y = d.forward(x)
            assert membership_residual(model, y) <= 1e-8
            assert model.distance(d.inverse(y), x) <= 1e-8

    def test_grassmann_action_preserves_idempotence(self):
        m = mf.GrassmannReal(2, 4)
        d = mf.named_diffeo(m, "grassmann_action", matrix=mf.random_orthogonal(4, 3))
        for seed in range(10):
            p = d.forward(random_point(m, seed))
            assert np.max(np.abs(p @ p - p)) <= 1e-10


class TestHomotopies:
    def test_rotation_homotopy_zero_angle(self):
        h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), 0.0)
        x = random_point(mf.Sphere(2), 2)
        assert np.allclose(h.family(0.4, x), x)
        assert np.allclose(h.endpoint.forward(x), x)

    def test_quarter_turn(self):
        h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), np.pi / 2)
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(h.family(1.0, e1), [0.0, 1.0, 0.0], atol=1e-12)

    def test_full_turn_loops(self):
        h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), 2 * np.pi)
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(h.family(1.0, e1), e1, atol=1e-12)
        assert np.allclose(h.family(0.5, e1), -e1, atol=1e-12)

    def test_bad_plane(self):
        with pytest.raises(BadPlane):
            mf.rotation_homotopy(mf.Sphere(2), (1, 1), 0.3)
        with pytest.raises(BadPlane):
            mf.rotation_homotopy(mf.Sphere(2), (0, 5), 0.3)

    @pytest.mark.parametrize("make", [
        lambda m: cpn_phase_homotopy(m, 1.3),
        lambda m: mf.cp1_plane_rotation_homotopy(m, np.pi),
    ])
    def test_cp1_homotopy_invariants(self, make):
        m = mf.ComplexProjective(1)
        h = make(m)
        for seed in range(10):
            x = random_point(m, seed)
            assert m.distance(h.family(0.0, x), x) <= 1e-10
            assert m.distance(h.family(1.0, x), h.endpoint.forward(x)) <= 1e-10
            assert membership_residual(m, h.family(0.37, x)) <= 1e-10

    def test_nan_generator_is_refused(self):
        with pytest.raises(BadParams, match="anti-Hermitian"):
            cpn_phase_homotopy(mf.ComplexProjective(1), np.nan)

    def test_velocity_matches_finite_difference(self):
        h = cpn_phase_homotopy(mf.ComplexProjective(1), 0.9)
        x = random_point(mf.ComplexProjective(1), 4)
        t = 0.3
        fd = fd_differential(lambda s: h.family(s, x))(t, 1.0)
        assert np.max(np.abs(h.velocity(t, x, h.family(t, x)) - fd)) <= 1e-8

    def test_endpoint_agreement_100_points(self):
        cases = [
            (mf.Sphere(2), mf.rotation_homotopy(mf.Sphere(2), (1, 2), 2.3)),
            (mf.ComplexProjective(1),
             cpn_phase_homotopy(mf.ComplexProjective(1), 1.7)),
            (mf.ComplexProjective(1),
             mf.cp1_plane_rotation_homotopy(mf.ComplexProjective(1), 0.9)),
            (mf.Torus(2), constant_homotopy(mf.Torus(2))),
        ]
        for model, h in cases:
            for seed in range(100):
                x = random_point(model, seed)
                assert model.distance(h.family(1.0, x), h.endpoint.forward(x)) <= 1e-10
                assert model.distance(h.family(0.0, x), x) <= 1e-10


REGISTERED = [
    (mf.Sphere(2), "sphere_rotation", {"matrix": mf.random_orthogonal(3, 1)}),
    (mf.Sphere(2), "sphere_reflection", {"axis": 2}),
    (mf.Sphere(3), "antipodal", {}),
    (mf.GrassmannReal(2, 4), "grassmann_action", {"matrix": mf.random_orthogonal(4, 2)}),
    (mf.GrassmannReal(2, 4), "grassmann_involution", {}),
    (mf.ComplexProjective(1), "cpn_conjugation", {}),
    (mf.ComplexProjective(2), "cpn_unitary",
     {"matrix": np.diag([np.exp(0.7j), 1.0, np.exp(-0.2j)])}),
    (mf.ComplexProjective(1), "cp1_antipodal", {}),
    (mf.Torus(3), "torus_auto", {"matrix": unimodular(3, 5)}),
]


def test_stack_cases_cover_the_registry():
    assert {(type(m), name) for m, name, _ in REGISTERED
            if name not in TEST_DIFFEOS} == set(mf._DIFFEO_REGISTRY)


@pytest.mark.parametrize("model,name,params", REGISTERED,
                         ids=[c[1] for c in REGISTERED])
def test_registered_diffeo_on_a_stack_equals_per_point(model, name, params):
    d = diffeo(model, name, **params)
    xs = [random_point(model, 70 + s) for s in range(7)]
    stack = stack_points(xs)
    maps = [d.forward, d.inverse, d.inverted().forward, d.then(d).forward,
            mf.identity_diffeo(model).forward]
    for f in maps:
        assert np.array_equal(f(stack), np.stack([f(x) for x in xs]))


def test_product_diffeo_on_a_stack_equals_per_point():
    model = mf.Product(mf.GrassmannReal(1, 2), mf.ComplexProjective(1))
    d = mf.product_diffeo(model, mf.named_diffeo(model.left, "grassmann_involution"),
                          mf.named_diffeo(model.right, "cp1_antipodal"))
    xs = [random_point(model, 80 + s) for s in range(7)]
    for f in (d.forward, d.inverse):
        assert _points_equal(f(stack_points(xs)), stack_points([f(x) for x in xs]))


def test_identity_copies_each_factor_of_a_product_point():
    model = mf.Product(mf.GrassmannReal(1, 2), mf.ComplexProjective(1))
    d = mf.identity_diffeo(model)
    one = random_point(model, 5)
    for x in (one, stack_points([one, random_point(model, 6)])):
        for f in (d.forward, d.inverse):
            y = f(x)
            assert isinstance(y, tuple) and _same_bytes(y, x)
            kept = tuple(a.copy() for a in x)
            for out, inp in zip(y, x):
                assert out is not inp
                out[...] = 0.0
            assert _same_bytes(x, kept)


HOMOTOPIES = [
    (mf.Sphere(2), lambda m: mf.rotation_homotopy(m, (0, 2), 1.8 * np.pi)),
    (mf.Sphere(3), lambda m: mf.rotation_homotopy(m, (3, 1), -0.7)),
    (mf.ComplexProjective(1), lambda m: cpn_phase_homotopy(m, 6 * np.pi)),
    (mf.ComplexProjective(2), lambda m: cpn_phase_homotopy(m, 1.3, slot=2)),
    (mf.ComplexProjective(1), lambda m: mf.cp1_plane_rotation_homotopy(m, np.pi)),
    (mf.Torus(2), constant_homotopy),
    (mf.Product(mf.GrassmannReal(1, 2), mf.ComplexProjective(1)),
     constant_homotopy),
]
HOMOTOPY_IDS = ["rot_s2", "rot_s3", "phase_cp1", "phase_cp2", "plane_cp1",
                "const_torus", "const_product"]


@pytest.mark.parametrize("model,make", HOMOTOPIES, ids=HOMOTOPY_IDS)
def test_homotopy_on_a_point_stack_stacks_per_point_tracks(model, make):
    # times first: family(ts, stack) has shape (T, P, ...)
    h = make(model)
    ts = np.linspace(-0.1, 1.1, 13)
    xs = [random_point(model, seed) for seed in range(5)]
    stack = stack_points(xs)
    per_point = stack_points([h.family(ts, x) for x in xs])
    assert _points_equal(h.family(ts, stack),
                         mf.map_points(lambda a: np.swapaxes(a, 0, 1), per_point))
    assert _points_equal(h.family(0.4, stack),
                         stack_points([h.family(0.4, x) for x in xs]))
    per_point = stack_points([h.velocity(ts, x, h.family(ts, x)) for x in xs])
    assert _points_equal(h.velocity(ts, stack, h.family(ts, stack)),
                         mf.map_points(lambda a: np.swapaxes(a, 0, 1), per_point))
    assert _points_equal(h.endpoint.forward(stack),
                         stack_points([h.endpoint.forward(x) for x in xs]))


@pytest.mark.parametrize("model,make", HOMOTOPIES, ids=HOMOTOPY_IDS)
def test_homotopy_on_time_vector_stacks_per_time_values(model, make):
    h = make(model)
    ts = np.linspace(-0.1, 1.1, 13)
    for seed in range(3):
        x = random_point(model, seed)
        stacked = stack_points([h.family(t, x) for t in ts])
        assert _points_equal(h.family(ts, x), stacked)
        per_time = [h.velocity(t, x, h.family(t, x)) for t in ts]
        assert _points_equal(h.velocity(ts, x, h.family(ts, x)), stack_points(per_time))


UNITARY_HOMOTOPIES = [
    # (homotopy, its anti-Hermitian generator X)
    (HOMOTOPIES[2], np.diag([6j * np.pi, 0.0])),
    (HOMOTOPIES[3], np.diag([0.0, 0.0, 1.3j])),
    (HOMOTOPIES[4], 0.5 * np.pi * np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)),
]


@pytest.mark.parametrize("homotopy,x_gen", UNITARY_HOMOTOPIES,
                         ids=["phase_cp1", "phase_cp2", "plane_cp1"])
def test_unitary_family_matches_matmul_oracle(homotopy, x_gen):
    # the complex @ forms of the unitary family P(t) = U(t) P U(t)^*, with
    # U(t) = exp(t X) and velocity X P(t) - P(t) X: the oracle of the closed
    # form of cp1_plane_rotation_homotopy, and of its endpoint at t = 1
    model, make = homotopy
    h = make(model)
    w, v = np.linalg.eigh(-1j * x_gen)
    ts = np.linspace(-0.1, 1.1, 13)
    u = ((v * np.exp(1j * ts[:, None, None] * w)) @ v.conj().T)[:, None]
    p = stack_points([random_point(model, seed) for seed in range(5)])
    want = u @ p @ np.conj(np.swapaxes(u, -1, -2))
    pt = h.family(ts, p)
    assert pt.shape == want.shape == (13, 5) + p.shape[1:]
    assert np.max(np.abs(pt - want)) <= 1e-14
    assert np.max(np.abs(h.velocity(ts, p, pt) - (x_gen @ want - want @ x_gen))
                  ) <= 1e-14 * np.max(np.abs(x_gen))
    assert np.max(np.abs(pt - np.conj(np.swapaxes(pt, -1, -2)))) <= 1e-14
    assert np.max(np.abs(pt @ pt - pt)) <= 1e-14
    assert np.max(np.abs(h.endpoint.forward(p) - want[11])) <= 1e-14
    assert np.max(np.abs(h.endpoint.inverse(want[11]) - p)) <= 1e-14


@pytest.mark.parametrize("model,plane,angle", [(mf.Sphere(2), (0, 2), 1.8 * np.pi),
                                               (mf.Sphere(3), (3, 1), -0.7)],
                         ids=["rot_s2", "rot_s3"])
def test_rotation_family_matches_matvec_oracle(model, plane, angle):
    # np.matvec of the rotation matrices by t * angle in the plane (i, j),
    # which the family on the two plane coordinates replaced, and the
    # velocity angle * (G x) of the generator G = dR/dalpha at 0
    i, j = plane
    dim = model.n + 1
    h = mf.rotation_homotopy(model, plane, angle)
    ts = np.linspace(-0.1, 1.1, 13)
    r = np.zeros((13, dim, dim)) + np.eye(dim)
    r[:, i, i] = r[:, j, j] = np.cos(ts * angle)
    r[:, j, i] = np.sin(ts * angle)
    r[:, i, j] = -r[:, j, i]
    gen = np.zeros((dim, dim))
    gen[j, i], gen[i, j] = 1.0, -1.0
    x = model.random_points(np.random.default_rng(11), 5)
    want = np.matvec(r[:, None], x)
    xt = h.family(ts, x)
    assert xt.shape == want.shape == (13, 5, dim)
    assert np.max(np.abs(xt - want)) <= 1e-15
    assert np.max(np.abs(h.velocity(ts, x, xt) - angle * np.matvec(gen, xt))
                  ) <= 1e-15 * abs(angle)
    assert np.max(np.abs(h.endpoint.forward(x) - want[11])) <= 1e-15
    assert np.max(np.abs(h.endpoint.inverse(want[11]) - x)) <= 1e-15


def _points_equal(a, b):
    if isinstance(a, tuple):
        return all(_points_equal(p, q) for p, q in zip(a, b))
    return np.array_equal(a, b)


def _homogeneous_power_map(p, n):
    # the formula cp1_power_map had before its closed form: a unit
    # homogeneous vector from the largest column of p, raised entrywise
    norms = np.linalg.norm(p, axis=0)
    w = p[:, int(np.argmax(norms))]
    w = w / np.linalg.norm(w)
    v = np.array([w[0] ** n, w[1] ** n])
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_power_map_closed_form_matches_homogeneous_formula(n):
    f = mf.cp1_power_map(n)
    m = mf.ComplexProjective(1)
    ps = [random_point(m, seed) for seed in range(200)]
    ps += [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    for p in ps:
        assert np.max(np.abs(f.forward(p) - _homogeneous_power_map(p, n))) <= 1e-14
    stacked = f.forward(np.stack(ps))
    assert np.array_equal(stacked, np.stack([f.forward(p) for p in ps]))


def _tangent_directions(model, seed, count=7):
    # count points of the model and a tangent direction at each: the
    # velocity of a random unitary family X P - P X on CP^1, the tangent
    # part of a random vector on a sphere
    rng = np.random.default_rng(seed)
    xs = model.random_points(rng, count)
    if isinstance(model, mf.ComplexProjective):
        g = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
        gen = g - np.conj(np.swapaxes(g, -1, -2))
        return xs, gen @ xs - xs @ gen
    v = rng.normal(size=xs.shape)
    return xs, v - np.vecdot(v, xs)[..., None] * xs


_S2 = mf.Sphere(2)
DIFFERENTIABLE_MAPS = [
    ("cp1_power_1", mf.cp1_power_map(1)),
    ("cp1_power_2", mf.cp1_power_map(2)),
    ("cp1_power_3", mf.cp1_power_map(3)),
    ("sphere_rotation", mf.named_diffeo(_S2, "sphere_rotation",
                                        matrix=mf.random_orthogonal(3, 8))),
    ("sphere_reflection", mf.named_diffeo(_S2, "sphere_reflection", axis=0)),
    ("antipodal", diffeo(_S2, "antipodal")),
    ("identity", mf.identity_diffeo(_S2)),
    # linear endpoints, and the chain rule of a composite
    ("rotation_endpoint", mf.rotation_homotopy(_S2, (0, 2), 0.7).endpoint),
    ("cp1_rotation_endpoint", mf.cp1_plane_rotation_homotopy(
        mf.ComplexProjective(1), np.pi).endpoint),
    ("rotation_then_reflection", mf.named_diffeo(
        _S2, "sphere_rotation", matrix=mf.random_orthogonal(3, 8)).then(
            mf.named_diffeo(_S2, "sphere_reflection", axis=0))),
]


@pytest.mark.parametrize("name,f", DIFFERENTIABLE_MAPS,
                         ids=[c[0] for c in DIFFERENTIABLE_MAPS])
def test_differential_matches_finite_difference(name, f):
    xs, dirs = _tangent_directions(f.source, 11)
    exact = f.differential(xs, dirs)
    assert np.max(np.abs(exact - fd_differential(f.forward)(xs, dirs))) <= 1e-8
    assert np.array_equal(exact, np.stack([f.differential(x, d)
                                           for x, d in zip(xs, dirs)]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cp1_power_differential_is_bitwise_the_complex_formula(n):
    # the entries written with real norm and dnorm against the complex
    # array formula (e - fwd(p) dnorm) / norm that they replaced: bitwise on
    # random points and tangent directions; at the poles, where the zero
    # entries may differ in their sign, equal in value
    f, oracle = mf.cp1_power_map(n).differential, cp1_power_differential(n)
    xs, dirs = _tangent_directions(mf.ComplexProjective(1), 40 + n, count=500)
    assert f(xs, dirs).tobytes() == oracle(xs, dirs).tobytes()
    poles = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    assert np.array_equal(f(poles, dirs[:2]), oracle(poles, dirs[:2]))


def _sphere_to_cp1_per_point(x):
    # the one-point chart that the stacked sphere_to_cp1 replaced
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    if x3 >= 0.0:
        w = np.array([1.0 + x3, x1 - 1j * x2])
    else:
        w = np.array([x1 + 1j * x2, 1.0 - x3])
    w = w / np.linalg.norm(w)
    return np.outer(w, w.conj())


def _cp1_to_sphere_per_point(p):
    # the one-point inverse chart that the stacked cp1_to_sphere replaced
    return np.array([2.0 * p[0, 1].real, 2.0 * p[0, 1].imag,
                     p[0, 0].real - p[1, 1].real])


def _bitwise_equal(a, b):
    # unlike np.array_equal, tells -0.0 from 0.0
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# both poles, the equator with x3 = 0.0 and x3 = -0.0 (both take the north
# branch), signed zeros in x1 and x2, and random points
_CHART_POINTS = np.concatenate([
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
              [1.0, 0.0, 0.0], [1.0, -0.0, -0.0], [-0.0, -1.0, 0.0],
              [0.6, -0.8, 0.0], [-0.6, 0.8, -0.0]]),
    np.stack([random_point(mf.Sphere(2), seed) for seed in range(50)]),
])


class TestIdentification:
    def test_sphere_to_cp1_stack_matches_per_point(self):
        xs = np.concatenate([_CHART_POINTS, mf.icosphere(5)[0]])
        stacked = mf.sphere_to_cp1(xs)
        oracle = np.stack([_sphere_to_cp1_per_point(x) for x in xs])
        assert _bitwise_equal(stacked, oracle)
        for x in _CHART_POINTS[:7]:
            assert _bitwise_equal(mf.sphere_to_cp1(x), _sphere_to_cp1_per_point(x))

    def test_cp1_to_sphere_stack_matches_per_point(self):
        ps = np.concatenate([
            mf.sphere_to_cp1(_CHART_POINTS),
            np.stack([random_point(mf.ComplexProjective(1), seed)
                      for seed in range(50)]),
        ])
        stacked = mf.cp1_to_sphere(ps)
        oracle = np.stack([_cp1_to_sphere_per_point(p) for p in ps])
        assert _bitwise_equal(stacked, oracle)
        assert _bitwise_equal(mf.cp1_to_sphere(ps[3]), _cp1_to_sphere_per_point(ps[3]))

    def test_sphere_power_map_takes_stacks(self):
        f = mf.sphere_power_map(3)
        stacked = f.forward(_CHART_POINTS)
        assert _bitwise_equal(stacked, np.stack([f.forward(x) for x in _CHART_POINTS]))

    def test_north_pole_chart_center(self):
        p = mf.sphere_to_cp1(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_round_trip(self):
        for seed in range(25):
            x = random_point(mf.Sphere(2), seed)
            assert np.linalg.norm(mf.cp1_to_sphere(mf.sphere_to_cp1(x)) - x) <= 1e-12

    def test_power_map_fixes_poles(self):
        f = mf.cp1_power_map(3)
        north = np.diag([1.0, 0.0]).astype(complex)
        south = np.diag([0.0, 1.0]).astype(complex)
        assert np.allclose(f.forward(north), north)
        assert np.allclose(f.forward(south), south)

    def test_power_map_on_equator(self):
        # z = 1 maps to z^n = 1: the fixed point (1, 0, 0)
        f = mf.sphere_power_map(2)
        x = np.array([1.0, 0.0, 0.0])
        assert np.linalg.norm(f.forward(x) - x) <= 1e-12


def _icosphere_from_scratch(level):
    # every level rebuilt from the icosahedron, the construction the cached
    # one-level subdivision replaced; kept as the oracle
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
    for _ in range(level):
        midpoint = {}

        def mid(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts), np.array(faces, dtype=np.int64)


def _subdivide_by_unique_rows(coarse, tris):
    # one subdivision step that finds the edge midpoints with np.unique over
    # the edge rows, the form the scalar edge keys replaced; kept as the
    # oracle
    edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    pairs, first, inverse = np.unique(edges, axis=0, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)
    index = np.empty_like(order)
    index[order] = np.arange(len(coarse), len(coarse) + len(order))
    ab, bc, ca = index[inverse].reshape(-1, 3).T
    a, b, c = tris.T
    m = coarse[pairs[order, 0]] + coarse[pairs[order, 1]]
    verts = np.concatenate([coarse, m / np.sqrt(np.vecdot(m, m))[:, None]])
    faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                     axis=1).reshape(-1, 3)
    return verts, faces


class TestIcosphere:
    @pytest.mark.parametrize("level", range(1, 7))
    def test_scalar_edge_keys_match_the_unique_rows_subdivision(self, level):
        verts, tris = mf.icosphere(level)
        ref_verts, ref_tris = _subdivide_by_unique_rows(*mf.icosphere(level - 1))
        assert verts.dtype == ref_verts.dtype and tris.dtype == ref_tris.dtype
        assert verts.tobytes() == ref_verts.tobytes()
        assert tris.tobytes() == ref_tris.tobytes()

    def test_matches_from_scratch_oracle_bytewise(self):
        for level in range(7):
            verts, tris = mf.icosphere(level)
            ref_verts, ref_tris = _icosphere_from_scratch(level)
            assert verts.shape == ref_verts.shape and tris.shape == ref_tris.shape
            assert verts.dtype == ref_verts.dtype and tris.dtype == ref_tris.dtype
            assert verts.tobytes() == ref_verts.tobytes()
            assert tris.tobytes() == ref_tris.tobytes()

    @pytest.mark.parametrize("level", range(1, 7))
    def test_faces_come_in_subdivision_groups(self, level):
        # the layout the plaquette kernel reads: each coarse face [a, b, c]
        # gives [a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca] in a row,
        # ab, bc and ca new vertices of this level
        coarse_verts, coarse_tris = mf.icosphere(level - 1)
        g = mf.icosphere(level)[1].reshape(-1, 12)
        a, ab, ca, b, bc, c = g[:, [0, 1, 2, 3, 4, 6]].T
        assert np.array_equal(np.stack([a, b, c], axis=1), coarse_tris)
        for col, role in [(5, ab), (9, ab), (7, ca), (11, ca), (8, bc), (10, bc)]:
            assert np.array_equal(g[:, col], role)
        assert np.all(np.stack([ab, bc, ca]) >= len(coarse_verts))

    @pytest.mark.parametrize("level", range(1, 7))
    def test_vertices_of_a_level_prefix_the_next(self, level):
        coarse = mf.icosphere(level)[0]
        fine = mf.icosphere(level + 1)[0]
        assert fine[:len(coarse)].tobytes() == coarse.tobytes()

    def test_counts(self):
        for level, nv, nt in [(0, 12, 20), (1, 42, 80), (2, 162, 320)]:
            verts, tris = mf.icosphere(level)
            assert verts.shape == (nv, 3)
            assert tris.shape == (nt, 3)

    def test_unit_vertices_and_orientation(self):
        verts, tris = mf.icosphere(2)
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)
        dets = np.linalg.det(verts[tris])
        assert np.all(dets > 0)

    def test_total_solid_angle(self):
        from bundlelift import _kernels
        verts, tris = mf.icosphere(3)
        total = np.sum(_kernels.solid_angles(verts, tris))
        assert total == pytest.approx(4 * np.pi, rel=1e-12)


def _sequential_unimodular(n, seed, count):
    # the oracle of random_unimodular's masked rounds: the same blocks from
    # the same stream, then each matrix built alone by applying its drawn
    # ops one at a time, in Python integers
    if n == 1:
        return [np.eye(1, dtype=np.int64)] * count
    rng = np.random.default_rng(seed)
    n_ops = rng.integers(1, 9, size=count)
    kind = rng.integers(0, 2, size=(8, count))
    i = rng.integers(0, n, size=(8, count))
    j = (i + rng.integers(1, n, size=(8, count))) % n
    coeff = rng.choice(np.array([-2, -1, 1, 2]), size=(8, count))
    mats = []
    for r in range(count):
        a = [[int(p == q) for q in range(n)] for p in range(n)]
        for k in range(n_ops[r]):
            ri, rj = int(i[k, r]), int(j[k, r])
            assert ri != rj
            if kind[k, r] == 0:
                a[ri] = [x + int(coeff[k, r]) * y for x, y in zip(a[ri], a[rj])]
            else:
                a[ri], a[rj] = a[rj], a[ri]
        mats.append(np.array(a, dtype=np.int64))
    return mats


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_unimodular_rows_equal_the_sequential_ops(n):
    for seed, count in [(0, 1), (5, 37), (11, 400)]:
        block = mf.random_unimodular(n, np.random.default_rng(seed), count)
        assert block.dtype == np.int64 and block.shape == (count, n, n)
        for k, want in enumerate(_sequential_unimodular(n, seed, count)):
            assert np.array_equal(block[k], want), (seed, k)


def _int_det(a):
    # exact determinant of a stack of small integer matrices: cofactor
    # expansion along the first row, in int64
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0]
    return sum((-1) ** c * a[..., 0, c] * _int_det(np.delete(a[..., 1:, :], c, axis=-1))
               for c in range(n))


def test_random_unimodular_det():
    # |det| = 1 exactly, in integer arithmetic, over a large block
    for n in (2, 3, 4):
        block = mf.random_unimodular(n, np.random.default_rng(n), 5000)
        assert np.all(np.abs(_int_det(block)) == 1)
        mf.integer_inverse(block)  # an exact integer inverse of every matrix
        # the ops act: most matrices are not the identity
        moved = (block != np.eye(n, dtype=np.int64)).any(axis=(1, 2))
        assert np.count_nonzero(moved) > 4000


def test_random_unimodular_for_n_1_gives_identities():
    block = mf.random_unimodular(1, np.random.default_rng(0), 6)
    assert block.dtype == np.int64 and np.array_equal(block, np.ones((6, 1, 1)))


def test_random_orthogonal():
    a = mf.random_orthogonal(5, 3)
    assert np.max(np.abs(a @ a.T - np.eye(5))) <= 1e-12
