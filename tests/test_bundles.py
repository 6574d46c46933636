import numpy as np
import pytest

from bundlelift import bundles as bd, manifolds as mf
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
            phase = 0.25 * np.pi * float(x[0])
            u = np.array([np.cos(phase), np.sin(phase)])
            return np.outer(u, u)

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
