import numpy as np
import pytest

from bundlelift import _kernels, bundles as bd, manifolds as mf
from bundlelift.config import DEFAULT_TOLERANCES as TOL
from bundlelift.errors import Ambiguous, BadParams


ALL_BUNDLES = [
    ("tangent_sphere", bd.tangent_sphere(2)),
    ("tautological_real", bd.tautological_real(2, 4)),
    ("tautological_complex", bd.tautological_complex(1)),
    ("torus_line", bd.torus_line((1, 0))),
    ("trivial", bd.trivial(mf.Sphere(2), 3)),
    ("complement_tangent", bd.complement(bd.tangent_sphere(2))),
    ("pullback_f2", bd.pullback(mf.cp1_power_map(2), bd.tautological_complex(1))),
    ("direct_sum", bd.direct_sum(bd.tautological_real(1, 2),
                                 bd.tautological_complex(1))),
]


@pytest.mark.parametrize("name,bundle", ALL_BUNDLES, ids=[n for n, _ in ALL_BUNDLES])
def test_projector_field_invariants(name, bundle):
    for seed in range(10):
        x = mf.random_point(bundle.base, seed)
        q = bundle.fiber_projector(x)
        assert np.max(np.abs(q @ q - q)) <= 1e-8
        assert np.max(np.abs(q - q.T)) <= 1e-8
        assert abs(np.trace(q) - bundle.real_rank) <= 1e-8
        if bundle.has_complex_structure:
            j = bundle.complex_structure(x)
            assert np.max(np.abs(j @ q - q @ j)) <= 1e-8
            assert np.max(np.abs(j @ j + q)) <= 1e-8


@pytest.mark.parametrize("name,bundle", ALL_BUNDLES, ids=[n for n, _ in ALL_BUNDLES])
def test_fiber_basis_and_sampling(name, bundle):
    rng = np.random.default_rng(3)
    x = mf.random_point(bundle.base, 17)
    basis = bundle.fiber_basis(x)
    assert basis.shape == (bundle.ambient_fiber_dim, bundle.real_rank)
    assert np.max(np.abs(basis.T @ basis - np.eye(bundle.real_rank))) <= 1e-10
    v = bundle.random_fiber_vector(x, rng)
    assert bundle.membership_residual(x, v) <= 1e-10


@pytest.mark.parametrize("name,bundle", ALL_BUNDLES, ids=[n for n, _ in ALL_BUNDLES])
def test_fields_on_a_stack_equal_per_point_fields(name, bundle):
    seeds = range(20, 27)
    xs = [mf.random_point(bundle.base, s) for s in seeds]
    stack = mf.stack_points(xs)
    # any array of the point shape serves as a direction for the differential
    dirs = [mf.random_point(bundle.base, s + 100) for s in seeds]
    fields = [bundle.fiber_projector]
    if bundle.has_complex_structure:
        fields += [bundle.complex_fiber_projector, bundle.complex_structure]
    for field in fields:
        per_point = np.stack([field(x) for x in xs])
        assert np.max(np.abs(field(stack) - per_point)) <= 1e-15, field
    if bundle.has_projector_differential:
        per_point = np.stack([bundle.projector_differential(x, d)
                              for x, d in zip(xs, dirs)])
        batched = bundle.projector_differential(stack, mf.stack_points(dirs))
        assert np.max(np.abs(batched - per_point)) <= 1e-15


def test_pullback_fibers_bitwise():
    w = bd.tautological_complex(1)
    f = mf.cp1_power_map(2)
    pb = bd.pullback(f, w)
    for seed in range(5):
        x = mf.random_point(pb.base, seed)
        assert np.array_equal(pb.fiber_projector(x),
                              w.fiber_projector(f.forward(x)))


def test_torus_line_periodic():
    tl = bd.torus_line((1, 1))
    x = np.array([0.3, 0.6])
    for m in ([1, 0], [0, 1], [2, 3]):
        assert np.allclose(tl.fiber_projector(x),
                           tl.fiber_projector(x + np.array(m, dtype=float)),
                           atol=1e-12)


def test_torus_line_rejects_bad_bits():
    with pytest.raises(BadParams):
        bd.torus_line((0, 0))
    with pytest.raises(BadParams):
        bd.torus_line((2, 1))


class TestTransport:
    def test_constant_path_fixes_vector(self):
        ts = bd.tangent_sphere(2)
        x = mf.random_point(mf.Sphere(2), 1)
        v = ts.random_fiber_vector(x, np.random.default_rng(0))
        out = bd.transport_operator(ts, lambda t: x, steps=64) @ v
        assert np.linalg.norm(out - v) <= 1e-12

    def test_step_floor(self):
        ts = bd.tangent_sphere(2)
        x = np.array([1.0, 0.0, 0.0])
        with pytest.raises(BadParams):
            bd.transport_operator(ts, lambda t: x, steps=4)

    def test_octant_holonomy(self):
        # geodesic triangle e1 -> e2 -> e3 -> e1 encloses one octant
        # (area pi/2); transport rotates the tangent plane by pi/2:
        # e3 |-> -e2. Oracle: the same integration at 4x steps.
        ts = bd.tangent_sphere(2)
        e = np.eye(3)

        def loop(t):
            s, leg = (t * 3) % 1.0, int(min(t * 3, 2.999))
            a, b = e[leg], e[(leg + 1) % 3]
            return np.cos(s * np.pi / 2) * a + np.sin(s * np.pi / 2) * b

        out = bd.transport_operator(ts, loop, steps=2048) @ e[2]
        assert np.linalg.norm(out - (-e[1])) <= 1e-4
        oracle = bd.transport_operator(ts, loop, steps=8192) @ e[2]
        assert np.linalg.norm(out - oracle) <= 1e-4

    def test_norm_preserved_complex_line(self):
        tc = bd.tautological_complex(1)
        h = mf.cpn_phase_homotopy(mf.ComplexProjective(1), 1.9)
        x = mf.random_point(mf.ComplexProjective(1), 6)
        v = tc.random_fiber_vector(x, np.random.default_rng(2))
        out = bd.transport_operator(tc, bd.homotopy_path(h, x), steps=256) @ v
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-6

    def test_reversal(self):
        ts = bd.tangent_sphere(2)
        h = mf.rotation_homotopy(mf.Sphere(2), (1, 2), 1.4)
        x = mf.random_point(mf.Sphere(2), 9)
        v = ts.random_fiber_vector(x, np.random.default_rng(5))
        fwd_path = bd.homotopy_path(h, x)
        out = bd.transport_operator(ts, fwd_path, steps=512) @ v
        back = bd.transport_operator(ts, lambda t: fwd_path(1.0 - t),
                                     steps=512) @ out
        assert np.linalg.norm(back - v) <= 1e-5

    def test_exact_derivative_matches_fd(self):
        ts = bd.tangent_sphere(2)
        h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.1)
        x = mf.random_point(mf.Sphere(2), 10)
        v = ts.random_fiber_vector(x, np.random.default_rng(6))
        path = bd.homotopy_path(h, x)
        out_fd = bd.transport_operator(ts, bd.Path(path.fn), steps=256) @ v
        out_ex = bd.transport_operator(ts, path, steps=256) @ v
        assert np.linalg.norm(out_fd - out_ex) <= 1e-8


def _looped_stage_arrays(bundle, path, steps):
    # the per-stage assembly that the batched field calls replaced: one
    # field evaluation per stage time, kept as the oracle
    n = bundle.ambient_fiber_dim
    h = 1.0 / steps
    n_stage = 2 * steps + 1
    qp = np.empty((n_stage, n, n))
    if path.velocity is not None and bundle.has_projector_differential:
        for j in range(n_stage):
            t = 0.5 * h * j
            qp[j] = bundle.projector_differential(path(t), path.velocity(t))
    else:
        delta = TOL.fd_delta
        for j in range(n_stage):
            t = 0.5 * h * j
            qp[j] = (bundle.fiber_projector(path(t + delta))
                     - bundle.fiber_projector(path(t - delta))) / (2.0 * delta)
    qnode = np.empty((steps + 1, n, n))
    for i in range(steps + 1):
        qnode[i] = bundle.fiber_projector(path(i * h))
    return qp, qnode


def _looped_transport(bundle, path, steps):
    qp, qnode = _looped_stage_arrays(bundle, path, steps)
    return _kernels.rk4_transport(qp, qnode, np.ascontiguousarray(qnode[0]))


def _torus_loop(n, i):
    d = np.eye(n)[i]
    return bd.Path(lambda ts: np.multiply.outer(ts, d),
                   velocity=lambda ts: np.multiply.outer(np.ones_like(ts), d))


ORACLE_TRACKS = [
    # (bundle, path, bound); exact projector differentials first
    ("sphere_rotation", bd.tangent_sphere(2),
     bd.homotopy_path(mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.8 * np.pi),
                      mf.random_point(mf.Sphere(2), 41)), 1e-12),
    ("complex_phase", bd.tautological_complex(1),
     bd.homotopy_path(mf.cpn_phase_homotopy(mf.ComplexProjective(1), 6 * np.pi),
                      mf.random_point(mf.ComplexProjective(1), 41)), 1e-12),
    ("torus_loop", bd.torus_line((1, 1, 0)), _torus_loop(3, 1), 1e-12),
    # central differences divide last-bit differences of Q by 2 fd_delta
    ("pullback_fd", bd.pullback(mf.cp1_power_map(2), bd.tautological_complex(1)),
     bd.homotopy_path(mf.cp1_plane_rotation_homotopy(mf.ComplexProjective(1), np.pi),
                      mf.random_point(mf.ComplexProjective(1), 41)), 1e-10),
]


@pytest.mark.parametrize("name,bundle,path,bound", ORACLE_TRACKS,
                         ids=[t[0] for t in ORACLE_TRACKS])
def test_batched_transport_matches_per_stage_oracle(name, bundle, path, bound):
    batched = bd.transport_operator(bundle, path, steps=1024)
    oracle = _looped_transport(bundle, path, steps=1024)
    assert np.max(np.abs(batched - oracle)) <= bound


@pytest.mark.parametrize("name,exact", [("exact", True), ("fd", False)])
def test_transport_makes_at_most_three_field_calls_per_track(monkeypatch,
                                                             name, exact):
    calls = []
    for attr in ("fiber_projector", "projector_differential"):
        original = getattr(bd.BundleModel, attr)

        def counted(self, *args, _original=original, _attr=attr):
            calls.append(_attr)
            return _original(self, *args)

        monkeypatch.setattr(bd.BundleModel, attr, counted)
    ts = bd.tangent_sphere(2)
    h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.1)
    path = bd.homotopy_path(h, mf.random_point(mf.Sphere(2), 3))
    if not exact:
        path = bd.Path(path.fn)
    bd.transport_operator(ts, path, steps=1024)
    assert len(calls) <= 3
    assert ("projector_differential" in calls) == exact


class TestHolonomySign:
    def test_trivial_bundle(self):
        tr = bd.trivial(mf.Torus(2), 1)
        assert bd.holonomy_sign(tr, lambda t: np.array([t, 0.0]), steps=64) == 1

    @pytest.mark.parametrize("b,n", [((1,), 1), ((1, 0), 2), ((0, 1), 2),
                                     ((1, 1), 2), ((1, 0, 1), 3)])
    def test_coordinate_loops_match_parity(self, b, n):
        # analytic oracle: the sign around loop e_i is (-1)^{b_i}
        tl = bd.torus_line(b)
        for i in range(n):
            direction = np.zeros(n)
            direction[i] = 1.0
            sign = bd.holonomy_sign(tl, lambda t, d=direction: t * d, steps=256)
            assert sign == (-1) ** b[i]

    def test_open_loop_rejected(self):
        tl = bd.torus_line((1, 0))
        with pytest.raises(BadParams):
            bd.holonomy_sign(tl, lambda t: np.array([0.4 * t, 0.0]), steps=64)

    def test_rank_requirement(self):
        ts = bd.tangent_sphere(2)
        with pytest.raises(BadParams):
            bd.holonomy_sign(ts, lambda t: np.array([1.0, 0.0, 0.0]), steps=64)

    def test_ambiguous_quarter_turn(self):
        # a synthetic line field rotating by pi/4 over one period leaves
        # |<chi(1), v0>| = cos(pi/4) <= 0.9, which cannot be resolved to a sign
        base = mf.Torus(1)

        def q_quarter(x):
            # one point (1,) or a stack (T, 1), as the field contract requires
            phase = 0.25 * np.pi * np.asarray(x, dtype=float)[..., 0]
            u = np.stack([np.cos(phase), np.sin(phase)], axis=-1)
            return u[..., :, None] * u[..., None, :]

        synthetic = bd.BundleModel(("synthetic_quarter",), base, 2, 1, q_quarter)
        with pytest.raises(Ambiguous):
            bd.holonomy_sign(synthetic, lambda t: np.array([t]), steps=64)


class TestPointCache:
    def test_bound_and_oldest_first_eviction(self):
        computed = []

        def compute(x):
            computed.append(int(x[0]))
            return np.array([2.0 * x[0]])

        cache = bd.PointCache()
        size = bd.POINT_CACHE_SIZE
        points = [np.array([float(i)]) for i in range(size + 1)]
        for p in points:
            cache.get(p, compute)
        # the newest POINT_CACHE_SIZE points are held
        for p in points[1:]:
            cache.get(p, compute)
        assert computed == list(range(size + 1))
        # the oldest was evicted; computing it again evicts the next oldest
        assert np.array_equal(cache.get(points[0], compute), [0.0])
        cache.get(points[1], compute)
        assert computed[size + 1:] == [0, 1]

    def test_evicted_fiber_basis_is_recomputed_identically(self):
        ts = bd.tangent_sphere(2)
        x = mf.random_point(ts.base, 0)
        first = ts.fiber_basis(x)
        for i in range(bd.POINT_CACHE_SIZE):
            ts.fiber_basis(np.array([0.0, np.sin(i), np.cos(i)]))
        again = ts.fiber_basis(x)
        assert again is not first
        assert np.array_equal(again, first)


def test_direct_sum_blocks():
    ds = bd.direct_sum(bd.tautological_real(1, 2), bd.tautological_complex(1))
    x = mf.random_point(ds.base, 5)
    q = ds.fiber_projector(x)
    assert np.allclose(q[:2, 2:], 0.0)
    assert np.allclose(q[2:, :2], 0.0)
    assert ds.real_rank == 3
    assert not ds.has_complex_structure


def test_complement_of_complex_bundle_keeps_structure():
    w = bd.tautological_complex(1)
    c = bd.complement(w)
    assert c.has_complex_structure
    x = mf.random_point(c.base, 2)
    pc = c.complex_fiber_projector(x)
    assert np.allclose(pc + w.complex_fiber_projector(x), np.eye(2), atol=1e-12)
