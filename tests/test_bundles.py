import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlelift import _kernels, bundles as bd, manifolds as mf
from bundlelift.errors import Ambiguous, BadParams
from bundlelift.numkernel import norms, realify

from helpers import (complement, constant_homotopy, cpn_phase_homotopy,
                     eigh_fiber_basis, exact_group_transport, fd_differential,
                     holonomy_sign, random_point, sequential_transport,
                     stack_points, torus_line_lift)


ALL_BUNDLES = [
    ("tangent_sphere", bd.tangent_sphere(2)),
    ("tautological_real", bd.tautological_real(2, 4)),
    ("tautological_complex", bd.tautological_complex(1)),
    ("torus_line", bd.torus_line((1, 0))),
    ("trivial", bd.trivial(mf.Sphere(2), 3)),
    ("complement_tangent", complement(bd.tangent_sphere(2))),
    ("pullback_f2", bd.pullback(mf.cp1_power_map(2), bd.tautological_complex(1))),
    ("direct_sum", bd.direct_sum(bd.tautological_real(1, 2),
                                 bd.tautological_complex(1))),
    ("direct_sum_complex", bd.direct_sum(bd.tautological_complex(1),
                                         bd.tautological_complex(1))),
    ("trivial_complex", bd.trivial(mf.Sphere(2), 2, complex_fibers=True)),
]


@pytest.mark.parametrize("name,bundle", ALL_BUNDLES, ids=[n for n, _ in ALL_BUNDLES])
def test_projector_field_invariants(name, bundle):
    for seed in range(10):
        x = random_point(bundle.base, seed)
        q = bundle.fiber_projector(x)
        assert np.max(np.abs(q @ q - q)) <= 1e-8
        assert np.max(np.abs(q - q.T)) <= 1e-8
        assert abs(np.trace(q) - bundle.real_rank) <= 1e-8
        if bundle.has_complex_structure:
            j = bundle.complex_structure(x)
            assert np.max(np.abs(j @ q - q @ j)) <= 1e-8
            assert np.max(np.abs(j @ j + q)) <= 1e-8
            assert np.array_equal(q, realify(bundle.complex_fiber_projector(x)))


@pytest.mark.parametrize("name,bundle", ALL_BUNDLES, ids=[n for n, _ in ALL_BUNDLES])
def test_fiber_basis_and_sampling(name, bundle):
    rng = np.random.default_rng(3)
    x = random_point(bundle.base, 17)
    basis = bundle.fiber_basis(x)
    assert basis.shape == (bundle.ambient_fiber_dim, bundle.real_rank)
    assert np.max(np.abs(basis.T @ basis - np.eye(bundle.real_rank))) <= 1e-10
    v = bundle.random_fiber_vector(x, rng)
    assert bundle.membership_residual(x, v) <= 1e-10


@pytest.mark.parametrize("name,bundle", ALL_BUNDLES, ids=[n for n, _ in ALL_BUNDLES])
def test_fields_on_a_stack_equal_per_point_fields(name, bundle):
    seeds = range(20, 27)
    xs = [random_point(bundle.base, s) for s in seeds]
    stack = stack_points(xs)
    # any array of the point shape serves as a direction for the differential
    dirs = [random_point(bundle.base, s + 100) for s in seeds]
    fields = [bundle.fiber_projector]
    if bundle.has_complex_structure:
        fields += [bundle.complex_fiber_projector, bundle.complex_structure]
    for field in fields:
        per_point = np.stack([field(x) for x in xs])
        assert np.max(np.abs(field(stack) - per_point)) <= 1e-15, field
    if bundle.has_projector_differential:
        per_point = np.stack([bundle.projector_differential(x, d)
                              for x, d in zip(xs, dirs)])
        batched = bundle.projector_differential(stack, stack_points(dirs))
        assert np.max(np.abs(batched - per_point)) <= 1e-15


@pytest.mark.parametrize("name,bundle", ALL_BUNDLES, ids=[n for n, _ in ALL_BUNDLES])
def test_fiber_basis_on_a_stack_equals_per_point_bases(name, bundle):
    xs = [random_point(bundle.base, s) for s in range(30, 37)]
    stacked = bundle.fiber_basis(stack_points(xs))
    assert np.array_equal(stacked, np.stack([bundle.fiber_basis(x) for x in xs]))


def _transposed(a):
    return np.swapaxes(a, -1, -2)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name,bundle", ALL_BUNDLES, ids=[n for n, _ in ALL_BUNDLES])
def test_fiber_basis_spans_the_eigh_fiber_orthonormally(name, bundle, seed):
    # the pivoted Cholesky basis against the eigh basis it replaced: the
    # same fiber, orthonormal columns, and bitwise the per-point bases
    x = bundle.base.random_points(np.random.default_rng([seed, 50]), 300)
    basis = bundle.fiber_basis(x)
    oracle = eigh_fiber_basis(bundle, x)
    span = basis @ _transposed(basis) - oracle @ _transposed(oracle)
    assert np.max(np.abs(span)) <= 1e-14
    gram = _transposed(basis) @ basis - np.eye(bundle.real_rank)
    assert np.max(np.abs(gram)) <= 1e-14
    for i in range(0, 300, 37):
        one = bundle.fiber_basis(mf.map_points(lambda a: a[i], x))
        assert np.array_equal(one, basis[i])


def _with_rank(bundle, rank, projector=None):
    # the bundle's own field declared with another rank
    return bd.BundleModel(("rank", rank, bundle.key), bundle.base,
                          bundle.ambient_fiber_dim, rank,
                          projector or bundle._projector,
                          complex_fibers=bundle.has_complex_structure)


@pytest.mark.parametrize("name,bundle", ALL_BUNDLES, ids=[n for n, _ in ALL_BUNDLES])
def test_fiber_basis_refuses_a_wrong_rank_naming_the_measured_one(name, bundle):
    x = bundle.base.random_points(np.random.default_rng(5), 6)
    r = bundle.real_rank
    for rank in (r - 1, r + 1):
        wrong = _with_rank(bundle, rank)
        for points in (x, mf.map_points(lambda a: a[2], x)):
            with pytest.raises(BadParams,
                               match=rf"^projector rank {r} != bundle rank {rank}$"):
                wrong.fiber_basis(points)


@pytest.mark.parametrize("name,bundle", ALL_BUNDLES, ids=[n for n, _ in ALL_BUNDLES])
def test_fiber_basis_refuses_a_nan_projector(name, bundle):
    nan = _with_rank(bundle, bundle.real_rank,
                     lambda p: bundle._projector(p) * np.nan)
    x = bundle.base.random_points(np.random.default_rng(6), 3)
    with pytest.raises(ValueError, match="non-finite"):
        nan.fiber_basis(x)


def test_fiber_basis_refuses_a_stack_with_one_nan_point():
    ts = bd.tangent_sphere(2)
    x = ts.base.random_points(np.random.default_rng(7), 4)
    x[1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ts.fiber_basis(x)


def test_fiber_basis_refuses_a_non_projector_of_the_eigh_rank():
    # eigenvalues 1, 0.3, 0.3 count rank 1, but one pivot leaves trace 0.6
    q = np.diag([1.0, 0.3, 0.3])
    model = bd.BundleModel("diag", mf.Sphere(2), 3, 1,
                           lambda x: np.broadcast_to(q, np.shape(x)[:-1] + q.shape))
    with pytest.raises(BadParams,
                       match=r"^projector is not an orthogonal projector of rank 1$"):
        model.fiber_basis(np.array([0.0, 0.0, 1.0]))


def test_fiber_basis_makes_no_eigensolve(monkeypatch):
    # the eigensolver names the rank of a refused projector, and only then
    def refuse(s):
        raise AssertionError("sym_eigh called")

    monkeypatch.setattr(bd, "sym_eigh", refuse)
    for _, bundle in ALL_BUNDLES:
        bundle.fiber_basis(bundle.base.random_points(np.random.default_rng(8), 5))


def test_pullback_fibers_bitwise():
    w = bd.tautological_complex(1)
    f = mf.cp1_power_map(2)
    pb = bd.pullback(f, w)
    for seed in range(5):
        x = random_point(pb.base, seed)
        assert np.array_equal(pb.fiber_projector(x),
                              w.fiber_projector(f.forward(x)))


def test_differentials_are_bitwise_the_two_outer_products():
    # the differential of tangent_sphere builds outer(a, b) once and adds
    # its transpose: b_i a_j is a_j b_i exactly, so the sum is bitwise
    # outer(a, b) + outer(b, a), C-ordered as that sum is
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9232, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    xdot = rng.normal(size=(9232, 3))
    got = bd.tangent_sphere(2).projector_differential(x, xdot)
    ref = -(bd._outer(xdot, x) + bd._outer(x, xdot))
    assert got.flags.c_contiguous and got.tobytes() == ref.tobytes()


def test_torus_line_fields_are_the_outer_products_to_roundoff():
    # Q and Q' of L_b are written in the double angle 2 pi b.x; the outer
    # products u u^T and du u^T + u du^T of the section u = (cos, sin)(pi
    # b.x) are their oracle, to a few units of roundoff: of 1 for Q, of the
    # rate pi b.xdot for Q' (measured: 1 and 1.9 eps)
    rng = np.random.default_rng(5)
    bits = np.array([1, 1])
    t = rng.uniform(-2.0, 2.0, size=(2307, 2))
    tdot = rng.normal(size=(2307, 2))
    tl = bd.torus_line(bits)
    u = tl.unit_section(t)
    rate = np.pi * (tdot @ bits.astype(float))
    du = rate[:, None] * (u[:, ::-1] * [-1.0, 1.0])
    eps = np.finfo(float).eps
    q = tl.fiber_projector(t)
    assert q.flags.c_contiguous
    assert np.max(np.abs(q - bd._outer(u, u))) <= 4 * eps
    dq = tl.projector_differential(t, tdot)
    err = np.abs(dq - (bd._outer(du, u) + bd._outer(u, du)))
    assert dq.flags.c_contiguous and np.all(err <= 8 * eps * np.abs(rate)[:, None, None])
    # entry by entry, so a stack is bitwise its per-point calls
    assert q.tobytes() == np.stack([tl.fiber_projector(p) for p in t]).tobytes()
    assert dq.tobytes() == np.stack([tl.projector_differential(p, v)
                                     for p, v in zip(t, tdot)]).tobytes()


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


@pytest.mark.parametrize("bits", [(0.5, 1), (1.5, 0), (1, 0.999),
                                  (np.nan, 1), (1, np.nan)])
def test_non_integer_bits_are_refused_not_truncated(bits):
    # the bits are tested before the integer cast: (0.5, 1) is not L_(0,1)
    # and (1.5, 0) is not L_(1,0)
    from bundlelift import lifts as lf, obstruction as ob

    eye = np.eye(2, dtype=np.int64)
    for build in (lambda: bd.torus_line(bits),
                  lambda: ob.torus_criterion(eye, bits),
                  lambda: ob.subgroup_generators(bits),
                  lambda: ob.w1_profiles([bits], steps=8),
                  lambda: torus_line_lift(eye, bits),
                  lambda: lf.torus_line_lifts(eye[None], bits)):
        with pytest.raises(BadParams, match="b must be a nonzero 0/1 vector"):
            build()


def test_integer_valued_float_bits_are_kept():
    assert bd.torus_line((1.0, 0.0)).key == bd.torus_line((1, 0)).key


def _line(d):
    # the path t -> t d, on one time or a time vector
    return bd.Path(lambda t: np.multiply.outer(t, d),
                   lambda t, xt: np.multiply.outer(np.ones_like(t), d))


def _constant(x):
    return bd.Path(lambda t: np.multiply.outer(np.ones_like(t), x),
                   lambda t, xt: np.zeros_like(xt))


def _reversed(path):
    # t -> path(1 - t), whose velocity is minus the velocity at 1 - t
    return bd.Path(lambda t: path(1.0 - t),
                   lambda t, xt: -path.velocity(1.0 - t, xt))


class TestTransport:
    def test_constant_path_fixes_vector(self):
        ts = bd.tangent_sphere(2)
        x = random_point(mf.Sphere(2), 1)
        v = ts.random_fiber_vector(x, np.random.default_rng(0))
        out = bd.transport_operator(ts, _constant(x), steps=64) @ v
        assert np.linalg.norm(out - v) <= 1e-12

    def test_step_floor(self):
        ts = bd.tangent_sphere(2)
        x = np.array([1.0, 0.0, 0.0])
        with pytest.raises(BadParams):
            bd.transport_operator(ts, _constant(x), steps=4)

    def test_octant_holonomy(self):
        # geodesic triangle e1 -> e2 -> e3 -> e1 encloses one octant
        # (area pi/2); transport rotates the tangent plane by pi/2:
        # e3 |-> -e2. Oracle: the same integration at 4x steps.
        ts = bd.tangent_sphere(2)
        e = np.eye(3)

        def leg(t):
            # the leg e_k -> e_k+1 that t is on, and the angle along it
            k = np.floor(np.minimum(t * 3, 2.999)).astype(int)
            return e[k], e[(k + 1) % 3], (t * 3 - k)[..., None] * (np.pi / 2)

        def loop_fn(t):
            a, b, s = leg(t)
            return np.cos(s) * a + np.sin(s) * b

        def loop_velocity(t, xt):
            a, b, s = leg(t)
            return (1.5 * np.pi) * (np.cos(s) * b - np.sin(s) * a)

        loop = bd.Path(loop_fn, loop_velocity)
        out = bd.transport_operator(ts, loop, steps=2048) @ e[2]
        assert np.linalg.norm(out - (-e[1])) <= 1e-4
        oracle = bd.transport_operator(ts, loop, steps=8192) @ e[2]
        assert np.linalg.norm(out - oracle) <= 1e-4

    def test_norm_preserved_complex_line(self):
        tc = bd.tautological_complex(1)
        h = cpn_phase_homotopy(mf.ComplexProjective(1), 1.9)
        x = random_point(mf.ComplexProjective(1), 6)
        v = tc.random_fiber_vector(x, np.random.default_rng(2))
        out = bd.transport_operator(tc, bd.homotopy_path(h, x), steps=256) @ v
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-6

    def test_reversal(self):
        ts = bd.tangent_sphere(2)
        h = mf.rotation_homotopy(mf.Sphere(2), (1, 2), 1.4)
        x = random_point(mf.Sphere(2), 9)
        v = ts.random_fiber_vector(x, np.random.default_rng(5))
        fwd_path = bd.homotopy_path(h, x)
        out = bd.transport_operator(ts, fwd_path, steps=512) @ v
        back = bd.transport_operator(ts, _reversed(fwd_path), steps=512) @ out
        assert np.linalg.norm(back - v) <= 1e-5

    def test_exact_derivative_matches_fd(self):
        # on TS^2, and on the pullback of gamma along f_2, whose projector
        # differential composes the power map's differential
        cp1 = mf.ComplexProjective(1)
        cases = [
            (bd.tangent_sphere(2), mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.1)),
            (bd.pullback(mf.cp1_power_map(2), bd.tautological_complex(1)),
             mf.cp1_plane_rotation_homotopy(cp1, 1.1)),
        ]
        for bundle, h in cases:
            x = random_point(h.source, 10)
            v = bundle.random_fiber_vector(x, np.random.default_rng(6))
            path = bd.homotopy_path(h, x)
            out_fd = _looped_transport(bundle, path, 256, fd=True) @ v
            out_ex = bd.transport_operator(bundle, path, steps=256) @ v
            assert np.linalg.norm(out_fd - out_ex) <= 1e-8, bundle


def _looped_stage_arrays(bundle, path, steps, fd=False):
    # the per-stage assembly that the batched field calls replaced: one
    # field evaluation per stage time, kept as the oracle; with ``fd`` the
    # projector derivative is the central difference on the path parameter
    n = bundle.ambient_fiber_dim
    h = 1.0 / steps
    n_stage = 2 * steps + 1
    qp = np.empty((n_stage, n, n))
    along = fd_differential(lambda t: bundle.fiber_projector(path(t)))
    for j in range(n_stage):
        t = 0.5 * h * j
        qp[j] = (along(t, 1.0) if fd else
                 bundle.projector_differential(path(t), path.velocity(t, path(t))))
    qnode = np.empty((steps + 1, n, n))
    for i in range(steps + 1):
        qnode[i] = bundle.fiber_projector(path(i * h))
    return qp, qnode


def _looped_transport(bundle, path, steps, fd=False):
    qp, qnode = _looped_stage_arrays(bundle, path, steps, fd)
    return _kernels.rk4_transport(qp, qnode, np.ascontiguousarray(qnode[0]),
                                  1.0 / steps)


def _torus_loop(n, i):
    d = np.eye(n)[i]
    return bd.Path(lambda ts: np.multiply.outer(ts, d),
                   velocity=lambda ts, xt: np.multiply.outer(np.ones_like(ts), d))


ORACLE_TRACKS = [
    # (bundle, path, bound); exact projector differentials first
    ("sphere_rotation", bd.tangent_sphere(2),
     bd.homotopy_path(mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.8 * np.pi),
                      random_point(mf.Sphere(2), 41)), 1e-12),
    ("complex_phase", bd.tautological_complex(1),
     bd.homotopy_path(cpn_phase_homotopy(mf.ComplexProjective(1), 6 * np.pi),
                      random_point(mf.ComplexProjective(1), 41)), 1e-12),
    ("torus_loop", bd.torus_line((1, 1, 0)), _torus_loop(3, 1), 1e-12),
    ("pullback", bd.pullback(mf.cp1_power_map(2), bd.tautological_complex(1)),
     bd.homotopy_path(mf.cp1_plane_rotation_homotopy(mf.ComplexProjective(1), np.pi),
                      random_point(mf.ComplexProjective(1), 41)), 1e-12),
]


@pytest.mark.parametrize("name,bundle,path,bound", ORACLE_TRACKS,
                         ids=[t[0] for t in ORACLE_TRACKS])
def test_batched_transport_matches_per_stage_oracle(name, bundle, path, bound):
    batched = bd.transport_operator(bundle, path, steps=1024)
    oracle = _looped_transport(bundle, path, steps=1024)
    assert np.max(np.abs(batched - oracle)) <= bound


def _torus_loops(n):
    # the n coordinate loops as one stack of tracks, as w1_profiles builds them
    eye = np.eye(n)
    return bd.Path(lambda ts: np.multiply.outer(ts, eye),
                   velocity=lambda ts, xt: np.multiply.outer(np.ones_like(ts), eye))


STACKED_TRACKS = [
    # (bundle, tracks from a stack of points or one point, model)
    ("tangent_sphere", bd.tangent_sphere(2),
     lambda x: bd.homotopy_path(
         mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.8 * np.pi), x), mf.Sphere(2)),
    ("tautological_complex", bd.tautological_complex(1),
     lambda x: bd.homotopy_path(
         cpn_phase_homotopy(mf.ComplexProjective(1), 6 * np.pi), x),
     mf.ComplexProjective(1)),
    ("pullback", bd.pullback(mf.cp1_power_map(2), bd.tautological_complex(1)),
     lambda x: bd.homotopy_path(
         mf.cp1_plane_rotation_homotopy(mf.ComplexProjective(1), np.pi), x),
     mf.ComplexProjective(1)),
]


def _window_bytes(tracks, window, n):
    # the budget that holds exactly ``window`` steps of stage arrays for
    # ``tracks`` tracks
    return tracks * (3 * window + 2) * n * n * 8


# at 256 steps the 32 segments are of L = 8 steps: windows of one step, of
# 7 steps (then 1 to the segment's end), of 9 steps (rounded down to one
# segment) and one window over the whole grid
WINDOWS = (1, 7, 9, 256)


@pytest.mark.parametrize("name,bundle,tracks,model", STACKED_TRACKS,
                         ids=[t[0] for t in STACKED_TRACKS])
def test_stacked_transport_is_bitwise_per_track(monkeypatch, name, bundle,
                                                tracks, model):
    n = bundle.ambient_fiber_dim
    xs = [random_point(model, 60 + i) for i in range(5)]
    stacked = bd.transport_operator(bundle, tracks(stack_points(xs)), steps=256)
    single = [bd.transport_operator(bundle, tracks(x), steps=256) for x in xs]
    assert stacked.shape == (5,) + 2 * (n,)
    for i in range(5):
        assert np.array_equal(stacked[i], single[i])
    # the window size does not change the operators
    for window in WINDOWS:
        monkeypatch.setattr(bd, "TRANSPORT_CHUNK_BYTES", _window_bytes(5, window, n))
        assert np.array_equal(
            bd.transport_operator(bundle, tracks(stack_points(xs)), steps=256),
            stacked)
        monkeypatch.setattr(bd, "TRANSPORT_CHUNK_BYTES", _window_bytes(1, window, n))
        for i, x in enumerate(xs):
            assert np.array_equal(bd.transport_operator(bundle, tracks(x), steps=256),
                                  single[i])


def test_stacked_torus_loops_are_bitwise_per_loop(monkeypatch):
    bundle = bd.torus_line((1, 1, 0))
    stacked = bd.transport_operator(bundle, _torus_loops(3), steps=256)
    single = [bd.transport_operator(bundle, _torus_loop(3, i), steps=256)
              for i in range(3)]
    for i in range(3):
        assert np.array_equal(stacked[i], single[i])
    # the window size does not change the operators
    for window in WINDOWS:
        monkeypatch.setattr(bd, "TRANSPORT_CHUNK_BYTES", _window_bytes(3, window, 2))
        assert np.array_equal(bd.transport_operator(bundle, _torus_loops(3), steps=256),
                              stacked)
        monkeypatch.setattr(bd, "TRANSPORT_CHUNK_BYTES", _window_bytes(1, window, 2))
        for i in range(3):
            assert np.array_equal(
                bd.transport_operator(bundle, _torus_loop(3, i), steps=256), single[i])


def _counted_kernel(monkeypatch):
    # (steps, stage bytes, tracks, segments) of every RK4 kernel call, in
    # one list per step h: the transport's walk and the walk at 2h of its
    # error estimate
    calls = {}
    kernel = _kernels.rk4_transport

    def counted(qp, qnode, x0, h, segments=1):
        calls.setdefault(h, []).append(
            (qnode.shape[0] - 1, qp.nbytes + qnode.nbytes, qp.shape[1], segments))
        return kernel(qp, qnode, x0, h, segments)

    monkeypatch.setattr(_kernels, "rk4_transport", counted)
    return calls


def test_chunk_budget_sets_the_kernel_calls(monkeypatch):
    walks = _counted_kernel(monkeypatch)
    monkeypatch.setattr(bd, "TRANSPORT_CHUNK_BYTES", _window_bytes(7, 10, 3))
    xs = stack_points([random_point(mf.Sphere(2), s) for s in range(7)])
    h = mf.rotation_homotopy(mf.Sphere(2), (0, 2), 0.8)
    bd.transport_operator(bd.tangent_sphere(2), bd.homotopy_path(h, xs), steps=64)
    assert sorted(walks) == [1 / 64, 2 / 64]
    calls, doubled = walks[1 / 64], walks[2 / 64]
    # 64 steps are 32 segments of 2: windows of 10 steps are 5 whole segments
    assert len(calls) == math.ceil(64 / 10)
    assert [c[0] for c in calls] == [10] * 6 + [4]
    assert [c[3] for c in calls] == [5] * 6 + [2]
    assert all(c[2] == 7 for c in calls)
    assert max(c[1] for c in calls) <= bd.TRANSPORT_CHUNK_BYTES
    # at 2h each window is 5 segments of one step, the last one 2
    assert [(c[0], c[3]) for c in doubled] == [(5, 5)] * 6 + [(2, 2)]
    assert all(c[2] == 7 for c in doubled)
    assert max(c[1] for c in doubled) <= bd.TRANSPORT_CHUNK_BYTES


def test_transport_stage_arrays_stay_in_budget_at_large_step_counts(monkeypatch):
    # one track at 2**16 steps: the stage arrays of the whole grid would be
    # 9.4 MB, but every kernel call stays within TRANSPORT_CHUNK_BYTES
    walks = _counted_kernel(monkeypatch)
    steps = 2 ** 16
    h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), 0.8)
    x = random_point(mf.Sphere(2), 3)
    bd.transport_operator(bd.tangent_sphere(2), bd.homotopy_path(h, x), steps=steps)
    assert sorted(walks) == [1 / steps, 2 / steps]
    calls, doubled = walks[1 / steps], walks[2 / steps]
    assert max(c[1] for c in calls) <= bd.TRANSPORT_CHUNK_BYTES
    assert sum(c[0] for c in calls) == steps
    # the budget fits 4853 steps, rounded down to two segments of 2048
    assert [(c[0], c[3]) for c in calls] == [(4096, 2)] * 16
    # the walk at 2h takes half the steps of the same windows
    assert max(c[1] for c in doubled) <= bd.TRANSPORT_CHUNK_BYTES
    assert [(c[0], c[3]) for c in doubled] == [(2048, 2)] * 16


def test_more_tracks_than_fit_one_step_are_transported_in_groups(monkeypatch):
    # a budget of one step for 7 tracks (five 3x3 matrices each): 40 tracks
    # go in groups of 7, each in budget, and every operator is bitwise the
    # one of the unsplit run
    xs = stack_points([random_point(mf.Sphere(2), s) for s in range(40)])
    path = bd.homotopy_path(mf.rotation_homotopy(mf.Sphere(2), (0, 2), 0.8), xs)
    unsplit = bd.transport_operator(bd.tangent_sphere(2), path, steps=64)
    budget = 7 * 5 * 3 * 3 * 8
    monkeypatch.setattr(bd, "TRANSPORT_CHUNK_BYTES", budget)
    walks = _counted_kernel(monkeypatch)
    split = bd.transport_operator(bd.tangent_sphere(2), path, steps=64)
    assert sorted(walks) == [1 / 64, 2 / 64]
    calls, doubled = walks[1 / 64], walks[2 / 64]
    assert np.array_equal(split, unsplit)
    assert max(c[1] for c in calls) <= budget
    # six groups of 7 tracks walk 64 one-step windows; the last group of 5
    # fits windows of (budget // (5 * 72) - 2) // 3 = 1 step too
    assert [c[2] for c in calls] == [7] * (5 * 64) + [5] * 64
    # at 2h a step spans two windows: one call per window that ends on an
    # even node, from the node data of the two
    assert max(c[1] for c in doubled) <= budget
    assert [c[2] for c in doubled] == [7] * (5 * 32) + [5] * 32
    assert all((c[0], c[3]) == (1, 1) for c in doubled)


def test_track_groups_cut_across_joint_pairs(monkeypatch):
    # groups of 4 tracks cut through the 35 tracks of the 15 joint pairs
    pairs = _joint_pairs()
    with bd.transport_errors() as alone_errors:
        alone = [bd.transport_operator(b, p, steps=64) for b, p in pairs]
    budget = 4 * 5 * 2 * 2 * 8
    monkeypatch.setattr(bd, "TRANSPORT_CHUNK_BYTES", budget)
    walks = _counted_kernel(monkeypatch)
    with bd.transport_errors() as errors:
        joint = bd.joint_transport_operators(pairs, steps=64)
    assert sorted(walks) == [1 / 64, 2 / 64]
    calls, doubled = walks[1 / 64], walks[2 / 64]
    assert max(c[1] for c in calls) <= budget
    assert sorted({c[2] for c in calls}) == [3, 4]
    assert max(c[1] for c in doubled) <= budget
    assert sorted({c[2] for c in doubled}) == [3, 4]
    for got, want in zip(joint + errors, alone + alone_errors):
        assert got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=15)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       angle=st.floats(min_value=-2 * np.pi, max_value=2 * np.pi),
       plane=st.sampled_from([(0, 1), (1, 2), (0, 2)]))
def test_reversed_stacked_path_inverts_transport(seed, angle, plane):
    # re-projected RK4 stays in the fiber, so transport back along the
    # reversed tracks undoes the forward transport on the fiber
    ts = bd.tangent_sphere(2)
    rng = np.random.default_rng(seed)
    xs = stack_points([random_point(ts.base, rng) for _ in range(3)])
    vs = np.stack([ts.random_fiber_vector(mf.map_points(lambda a: a[i], xs), rng)
                   for i in range(3)])
    forward = bd.homotopy_path(mf.rotation_homotopy(ts.base, plane, angle), xs)
    out = np.matvec(bd.transport_operator(ts, forward, steps=512), vs)
    back = np.matvec(bd.transport_operator(ts, _reversed(forward), steps=512), out)
    assert np.max(norms(back - vs)) <= 1e-5


def test_transport_makes_at_most_three_field_calls_per_track(monkeypatch):
    calls = []
    for attr in ("fiber_projector", "projector_differential"):
        original = getattr(bd.BundleModel, attr)

        def counted(self, *args, _original=original, _attr=attr):
            calls.append(_attr)
            return _original(self, *args)

        monkeypatch.setattr(bd.BundleModel, attr, counted)
    ts = bd.tangent_sphere(2)
    h = mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.1)
    path = bd.homotopy_path(h, random_point(mf.Sphere(2), 3))
    bd.transport_operator(ts, path, steps=1024)
    # one window: one differential call on the stage times, one projector
    # call on the node times
    assert sorted(calls) == ["fiber_projector", "projector_differential"]


def _plane_generator(dim, plane, angle):
    # the skew generator of rotation_homotopy's rotations by t * angle
    i, j = plane
    a = np.zeros((dim, dim))
    a[i, j], a[j, i] = -angle, angle
    return a


def _group_pairs(dim):
    # joint transport pairs along one-parameter groups, each with its skew
    # generator and its fibers at t = 0: sphere rotations on two planes of
    # TS^2 (dim 3), or a rotation of TS^3 with the cpn_phase and plane
    # rotation families of gamma over CP^1 (dim 4), three tracks each
    out = []
    if dim == 3:
        s2, ts = mf.Sphere(2), bd.tangent_sphere(2)
        xs = stack_points([random_point(s2, 80 + i) for i in range(3)])
        for plane, angle in (((0, 1), 1.8 * np.pi), ((1, 2), 1.3 * np.pi)):
            h = mf.rotation_homotopy(s2, plane, angle)
            out.append((ts, bd.homotopy_path(h, xs), _plane_generator(3, plane, angle),
                        ts.fiber_projector(xs), f"S2 {plane}"))
        return out
    s3, ts = mf.Sphere(3), bd.tangent_sphere(3)
    xs = stack_points([random_point(s3, 83 + i) for i in range(3)])
    h = mf.rotation_homotopy(s3, (0, 3), 1.8 * np.pi)
    out.append((ts, bd.homotopy_path(h, xs), _plane_generator(4, (0, 3), 1.8 * np.pi),
                ts.fiber_projector(xs), "S3 (0, 3)"))
    cp1, gamma = mf.ComplexProjective(1), bd.tautological_complex(1)
    ps = stack_points([random_point(cp1, 90 + i) for i in range(3)])
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    for h, gen in ((cpn_phase_homotopy(cp1, 6 * np.pi), np.diag([6j * np.pi, 0.0])),
                   (mf.cp1_plane_rotation_homotopy(cp1, np.pi), 0.5 * np.pi * quarter),
                   (mf.cp1_plane_rotation_homotopy(cp1, 4 * np.pi), 2 * np.pi * quarter)):
        out.append((gamma, bd.homotopy_path(h, ps), realify(gen),
                    gamma.fiber_projector(ps), h.name))
    return out


def _closed_form_errors(cases, steps):
    # the largest entry error of each track's operator, one row per pair
    ops = bd.joint_transport_operators([(b, p) for b, p, *_ in cases], steps)
    return [np.max(np.abs(op - exact_group_transport(a, p0)), axis=(-2, -1))
            for op, (_, _, a, p0, _) in zip(ops, cases)]


@pytest.mark.parametrize("dim,bound", [(3, 1e-10), (4, 3e-9)])
def test_transport_error_against_the_closed_form(dim, bound):
    # at 1024 steps the largest errors are 2.7e-11 (TS^2) and 8.6e-10
    # (cpn_phase over 6 pi); every track of a joint window is held to it
    cases = _group_pairs(dim)
    for errs, case in zip(_closed_form_errors(cases, 1024), cases):
        assert np.all(errs <= bound), (case[-1], errs)


@pytest.mark.parametrize("dim", [3, 4])
def test_transport_is_fourth_order_against_the_closed_form(dim):
    # from 64 to 128 to 256 steps the truncation error, far above the
    # roundoff floor, falls 16x per doubling on every track
    cases = _group_pairs(dim)
    errs = [_closed_form_errors(cases, steps) for steps in (64, 128, 256)]
    for k, case in enumerate(cases):
        for coarse, fine in zip(errs, errs[1:]):
            order = np.log2(coarse[k] / fine[k])
            assert np.all((order > 3.8) & (order < 4.2)), (case[-1], order)


def _quarter_turn(steps):
    # the S^2 quarter-turn about the z axis on 200 tracks: the transport
    # operators at ``steps`` and their closed form
    s2, ts = mf.Sphere(2), bd.tangent_sphere(2)
    xs = s2.random_points(np.random.default_rng(5), 200)
    path = bd.homotopy_path(mf.rotation_homotopy(s2, (0, 1), np.pi / 2), xs)
    exact = exact_group_transport(_plane_generator(3, (0, 1), np.pi / 2),
                                  ts.fiber_projector(xs))
    return bd.transport_operator(ts, path, steps), exact


@pytest.mark.parametrize("steps", [17, 64, 65, 128, 255, 256, 1024])
def test_error_estimate_tracks_the_closed_form_error(steps):
    # the largest Richardson estimate over the tracks against the largest
    # true error: 5.97e-9 against 5.93e-9 at 64 steps, 9.0e-14 against
    # 1.04e-13 at 1024, where roundoff starts to show; an odd count
    # estimates all but its last step (1.17e-6 against 1.21e-6 at 17)
    with bd.transport_errors() as errors:
        op, exact = _quarter_turn(steps)
    true = np.max(np.abs(op - exact), axis=(-2, -1))
    assert errors[0].shape == (200,)
    assert 0.5 <= np.max(errors[0]) / np.max(true) <= 2.0


@pytest.mark.parametrize("steps", [32, 48, 64, 256, 1024])
def test_step_doubled_walk_is_the_transport_at_half_the_steps(steps):
    # the walk at 2h on the node data is bitwise transport_operator at
    # steps / 2: the node times, the step and the segments are the same
    with bd.transport_errors() as errors:
        op, _ = _quarter_turn(steps)
    half, _ = _quarter_turn(steps // 2)
    assert np.array_equal(errors[0], np.max(np.abs(op - half), axis=(-2, -1)) / 15.0)
    # the same in the kernel, on one segment
    h = 1.0 / steps
    bundle, path = bd.tangent_sphere(2), bd.homotopy_path(
        mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.1), random_point(mf.Sphere(2), 3))
    qp, qnode = bd._stage_arrays(bundle, path, (0.5 * h) * np.arange(2 * steps + 1),
                                 slice(None))
    qp2, qnode2 = bd._stage_arrays(bundle, path, h * np.arange(steps + 1), slice(None))
    assert np.array_equal(
        _kernels.rk4_transport(qp[::2], qnode[::2], qnode[0], 2 * h),
        _kernels.rk4_transport(qp2, qnode2, qnode2[0], 2 * h))


def _all_bits(n):
    return [tuple(int(c) for c in np.binary_repr(m, width=n)) for m in range(1, 2 ** n)]


def _joint_pairs():
    # the 11 torus line bundles over T^1, T^2, T^3 with their coordinate
    # loops (stacks of tracks), then more pairs of ambient dimension 2: the
    # tangent bundle of S^1 on one track, on a stack of four tracks and on
    # the first track reversed, and one torus loop alone
    pairs = [(bd.torus_line(b), _torus_loops(n)) for n in (1, 2, 3) for b in _all_bits(n)]
    ts1 = bd.tangent_sphere(1)
    h = mf.rotation_homotopy(mf.Sphere(1), (0, 1), 1.3 * np.pi)
    one = bd.homotopy_path(h, random_point(mf.Sphere(1), 79))
    xs = stack_points([random_point(mf.Sphere(1), 80 + i) for i in range(4)])
    pairs += [(ts1, one), (ts1, bd.homotopy_path(h, xs)), (ts1, _reversed(one)),
              (bd.torus_line((1, 0)), _torus_loop(2, 1))]
    return pairs


def test_joint_transport_is_bitwise_each_pair_alone(monkeypatch):
    pairs = _joint_pairs()
    with bd.transport_errors() as alone_errors:
        alone = [bd.transport_operator(b, p, steps=256) for b, p in pairs]
    assert {a.shape for a in alone} >= {(2, 2), (1, 2, 2), (3, 2, 2), (4, 2, 2)}
    tracks = sum(math.prod(a.shape[:-2]) for a in alone)
    assert tracks == 28 + 7
    with bd.transport_errors() as errors:
        joint = bd.joint_transport_operators(pairs, steps=256)
    assert len(joint) == len(pairs) == len(errors)
    for got, want in zip(joint, alone):
        assert got.shape == want.shape and np.array_equal(got, want)
    for got, want in zip(errors, alone_errors):
        assert got.shape == want.shape and np.array_equal(got, want)
    # the window size does not change the operators; no window crosses a
    # segment boundary of the 32 segments of 8 steps
    expected = {1: [(1, 1)] * 256, 7: [(7, 1), (1, 1)] * 32, 9: [(8, 1)] * 32,
                256: [(256, 32)]}
    # at 2h: a step across two windows is walked once its second one ends
    expected_doubled = {1: [(1, 1)] * 128, 7: [(3, 1), (1, 1)] * 32,
                        9: [(4, 1)] * 32, 256: [(128, 32)]}
    for window in WINDOWS:
        monkeypatch.setattr(bd, "TRANSPORT_CHUNK_BYTES", _window_bytes(tracks, window, 2))
        walks = _counted_kernel(monkeypatch)
        joint = bd.joint_transport_operators(pairs, steps=256)
        monkeypatch.undo()
        assert sorted(walks) == [1 / 256, 2 / 256]
        calls, doubled = walks[1 / 256], walks[2 / 256]
        assert [(c[0], c[3]) for c in calls] == expected[window]
        assert all(c[2] == tracks for c in calls)
        assert max(c[1] for c in calls) <= _window_bytes(tracks, window, 2)
        assert [(c[0], c[3]) for c in doubled] == expected_doubled[window]
        assert all(c[2] == tracks for c in doubled)
        for got, want in zip(joint, alone):
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("steps", [256, 1024])
def test_segmented_transport_matches_the_sequential_walk(steps):
    # the product of the segment transports regroups the arithmetic of one
    # walk over the whole grid, so the two agree to roundoff, not bitwise
    pairs = _joint_pairs()
    ops = bd.joint_transport_operators(pairs, steps)
    for _, bundle, tracks, model in STACKED_TRACKS:
        path = tracks(stack_points([random_point(model, 60 + i) for i in range(3)]))
        pairs.append((bundle, path))
        ops.append(bd.transport_operator(bundle, path, steps))
    for (bundle, path), op in zip(pairs, ops):
        assert np.max(np.abs(op - sequential_transport(bundle, path, steps))) <= 1e-13


def test_transport_of_one_segment_is_bitwise_the_sequential_walk():
    # gcd(255, 32) = 1: one segment, walked in windows from its first node
    pairs = _joint_pairs()[-4:]
    for (bundle, path), op in zip(pairs, bd.joint_transport_operators(pairs, 255)):
        assert np.array_equal(op, sequential_transport(bundle, path, 255))


@settings(max_examples=15)
@given(steps=st.integers(16, 300), data=st.data())
def test_segment_windows_leave_every_operator_bitwise(steps, data):
    # one window below the segment length L (it ends at the segment's end)
    # and one of at least L (rounded down to whole segments)
    seg = steps // math.gcd(steps, bd.TRANSPORT_SEGMENTS)
    short = data.draw(st.integers(1, max(1, seg - 1)), label="short")
    long = data.draw(st.integers(seg, steps), label="long")
    pairs = _joint_pairs()[-4:]
    tracks = 1 + 4 + 1 + 1
    with bd.transport_errors() as want_errors:
        want = bd.joint_transport_operators(pairs, steps)
    for window in (short, long):
        with pytest.MonkeyPatch.context() as mp, bd.transport_errors() as errors:
            mp.setattr(bd, "TRANSPORT_CHUNK_BYTES", _window_bytes(tracks, window, 2))
            got = bd.joint_transport_operators(pairs, steps)
        # the error estimates too: the step-doubled walk pairs steps across
        # windows that end on an odd node
        for g, w in zip(got + errors, want + want_errors):
            assert np.array_equal(g, w)


def test_transport_steps_must_be_an_integer():
    bundle, path = bd.torus_line((1, 0)), _torus_loop(2, 1)
    for steps in (64.0, 100.5, "64"):
        with pytest.raises(BadParams, match="^transport steps must be an integer"):
            bd.transport_operator(bundle, path, steps=steps)
    with pytest.raises(BadParams, match="at least 16 steps"):
        bd.transport_operator(bundle, path, steps=15)
    assert np.array_equal(bd.transport_operator(bundle, path, steps=np.int64(64)),
                          bd.transport_operator(bundle, path, steps=64))


def test_joint_transport_refuses_mixed_fiber_dimensions_and_no_pairs():
    pairs = [(bd.torus_line((1,)), _torus_loops(1)),
             (bd.tangent_sphere(2), _constant([1.0, 0.0, 0.0]))]
    with pytest.raises(BadParams, match=r"^pair 1 of 2: ambient fiber dimension 3 != 2"):
        bd.joint_transport_operators(pairs, steps=64)
    with pytest.raises(BadParams, match="no .* pairs"):
        bd.joint_transport_operators([], steps=64)
    with pytest.raises(BadParams, match="no .* pairs"):
        bd.holonomy_signs([], steps=64)


def test_joint_transport_names_the_pair_without_a_projector_differential():
    # sphere_power_map carries no differential, so neither does a pullback
    # along it
    power = bd.pullback(mf.sphere_power_map(2), bd.tangent_sphere(2))
    assert not power.has_projector_differential
    path = bd.homotopy_path(mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.0),
                            random_point(mf.Sphere(2), 0))
    with pytest.raises(BadParams, match=r"^bundle \('pullback', 'sphere_power\[2\]'"):
        bd.transport_operator(power, path, steps=64)
    pairs = [(bd.tangent_sphere(2), path), (power, path)]
    with pytest.raises(BadParams, match="^pair 1 of 2: bundle .* no projector differential"):
        bd.joint_transport_operators(pairs, steps=64)


def test_transport_of_no_tracks_gives_empty_operators():
    # every pair empty: the window size and the kernel's increment block
    # must not divide by the zero bytes of zero tracks
    h = mf.rotation_homotopy(mf.Sphere(1), (0, 1), 1.0)
    empty = bd.homotopy_path(h, np.zeros((0, 2)))
    op = bd.transport_operator(bd.tangent_sphere(1), empty, 32)
    assert op.shape == (0, 2, 2)
    ops = bd.joint_transport_operators(
        [(bd.tangent_sphere(1), empty),
         (bd.torus_line((1,)), bd.homotopy_path(constant_homotopy(mf.Torus(1)),
                                                np.zeros((3, 0, 1))))], steps=32)
    assert [o.shape for o in ops] == [(0, 2, 2), (3, 0, 2, 2)]


def _torus_loop_transport():
    # one transport of one track, whose estimate is an array of shape ()
    return bd.transport_operator(bd.torus_line((1, 0)), _torus_loop(2, 1), steps=64)


def test_transport_errors_collect_in_the_innermost_open_block():
    with bd.transport_errors() as closed:
        pass
    # outside every block a transport records nothing
    _torus_loop_transport()
    assert closed == []
    with bd.transport_errors() as outer:
        with bd.transport_errors() as inner:
            _torus_loop_transport()
        assert len(inner) == 1 and outer == []
        _torus_loop_transport()
    assert len(inner) == 1 and len(outer) == 1
    assert np.array_equal(inner[0], outer[0]) and inner[0].shape == ()


def test_transport_errors_block_resets_after_an_exception():
    with bd.transport_errors() as outer:
        with pytest.raises(ZeroDivisionError):
            with bd.transport_errors() as inner:
                _torus_loop_transport()
                1 / 0
        # the inner block is closed: the outer one collects again
        _torus_loop_transport()
    _torus_loop_transport()
    assert len(inner) == 1 and len(outer) == 1


class TestHolonomySign:
    def test_trivial_bundle(self):
        tr = bd.trivial(mf.Torus(2), 1)
        assert holonomy_sign(tr, _line([1.0, 0.0]), steps=64) == 1

    @pytest.mark.parametrize("b,n", [((1,), 1), ((1, 0), 2), ((0, 1), 2),
                                     ((1, 1), 2), ((1, 0, 1), 3)])
    def test_coordinate_loops_match_parity(self, b, n):
        # analytic oracle: the sign around loop e_i is (-1)^{b_i}
        tl = bd.torus_line(b)
        for i in range(n):
            direction = np.zeros(n)
            direction[i] = 1.0
            sign = holonomy_sign(tl, _line(direction), steps=256)
            assert sign == (-1) ** b[i]

    def test_open_loop_rejected(self):
        tl = bd.torus_line((1, 0))
        with pytest.raises(BadParams):
            holonomy_sign(tl, _line([0.4, 0.0]), steps=64)

    def test_rank_requirement(self):
        ts = bd.tangent_sphere(2)
        with pytest.raises(BadParams):
            holonomy_sign(ts, _constant([1.0, 0.0, 0.0]), steps=64)

    def test_stack_of_loops_gives_per_loop_signs(self):
        tl = bd.torus_line((1, 0, 1))
        signs = holonomy_sign(tl, _torus_loops(3), steps=256)
        assert signs.tolist() == [holonomy_sign(tl, _torus_loop(3, i), steps=256)
                                  for i in range(3)] == [-1, 1, -1]

    def test_ambiguous_quarter_turn(self):
        # a synthetic line field rotating by pi/4 over one period leaves
        # |<chi(1), v0>| = cos(pi/4) <= 0.9, which cannot be resolved to a sign
        base = mf.Torus(1)

        def u_quarter(x):
            # one point (1,) or a stack (T, 1), as the field contract requires
            phase = 0.25 * np.pi * np.asarray(x, dtype=float)[..., 0]
            return np.stack([np.cos(phase), np.sin(phase)], axis=-1)

        def q_quarter(x):
            u = u_quarter(x)
            return u[..., :, None] * u[..., None, :]

        def q_quarter_diff(x, xdot):
            # u turns by a quarter of pi per unit of x
            u = u_quarter(x)
            du = (0.25 * np.pi) * np.asarray(xdot)[..., :1] * u[..., ::-1] * [-1.0, 1.0]
            return du[..., :, None] * u[..., None, :] + u[..., :, None] * du[..., None, :]

        synthetic = bd.BundleModel(("synthetic_quarter",), base, 2, 1, q_quarter,
                                   q_quarter_diff)
        with pytest.raises(Ambiguous):
            holonomy_sign(synthetic, _line([1.0]), steps=64)

    @staticmethod
    def _nan_after_half(keep_end):
        # the loop t -> t on T^1, whose points turn NaN after t = 0.5; with
        # ``keep_end`` the point at t = 1 stays finite, so the loop closes
        def fn(t):
            t = np.asarray(t, dtype=float)
            bad = (t > 0.5) & ~(keep_end & (t == 1.0))
            return np.where(bad, np.nan, t)[..., None]
        return bd.Path(fn, lambda t, xt: np.ones_like(xt))

    def test_nan_transport_is_ambiguous_not_a_sign(self):
        # torus_line((1,)) has sign -1, which a NaN used to come back as
        tl = bd.torus_line((1,))
        with pytest.raises(Ambiguous):
            holonomy_sign(tl, self._nan_after_half(keep_end=True), steps=64)

    def test_nan_gap_is_not_closed(self):
        tl = bd.torus_line((1,))
        nan_loop = self._nan_after_half(keep_end=False)
        with pytest.raises(BadParams, match="not closed"):
            holonomy_sign(tl, nan_loop, steps=64)
        # also behind a closed loop in a stack: the builtin max drops a NaN
        # after the first item
        stack = bd.Path(lambda t: np.stack([_line([1.0])(t), nan_loop(t)], axis=-2),
                        lambda t, xt: np.ones_like(xt))
        with pytest.raises(BadParams, match="not closed"):
            holonomy_sign(tl, stack, steps=64)

    def test_pairs_give_each_pair_its_own_signs(self):
        pairs = [(bd.torus_line(b), _torus_loops(n))
                 for n in (1, 2, 3) for b in _all_bits(n)]
        pairs.append((bd.torus_line((1, 0)), _line([1.0, 0.0])))
        signs = bd.holonomy_signs(pairs, steps=256)
        for (line_bundle, loop), got in zip(pairs, signs):
            want = holonomy_sign(line_bundle, loop, steps=256)
            assert type(got) is type(want) and np.array_equal(got, want)
        assert signs[-1] == -1

    def _good_pairs(self):
        return [(bd.torus_line(b), _torus_loops(len(b)))
                for b in ((1,), (1, 0), (0, 1, 1), (1, 1), (1,))]

    @pytest.mark.parametrize("k", [0, 2, 4])
    @pytest.mark.parametrize("keep_end,error,message", [
        (False, BadParams, r"loop is not closed \(gap nan\)$"),
        (True, Ambiguous, r"\|<chi\(1\), v0>\| = nan <= 0\.9; increase steps$"),
    ], ids=["nan_gap", "nan_transport"])
    def test_nan_loop_names_its_pair(self, k, keep_end, error, message):
        # a NaN loop at pair k, and another after it: the first is named
        tl = bd.torus_line((1,))
        pairs = self._good_pairs()
        for j in range(k, len(pairs), 3):
            pairs[j] = (tl, self._nan_after_half(keep_end))
        with pytest.raises(error, match=rf"^pair {k} of 5: {message}"):
            bd.holonomy_signs(pairs, steps=64)

    @pytest.mark.parametrize("k", [0, 3])
    def test_open_loop_names_its_pair(self, k):
        pairs = self._good_pairs()
        pairs[k] = (bd.torus_line((1,)), _line([0.4]))
        with pytest.raises(BadParams, match=rf"^pair {k} of 5: loop is not closed"):
            bd.holonomy_signs(pairs, steps=64)

    def test_one_pair_keeps_its_messages(self):
        tl = bd.torus_line((1,))
        with pytest.raises(BadParams, match=r"^loop is not closed \(gap nan\)$"):
            holonomy_sign(tl, self._nan_after_half(keep_end=False), steps=64)
        with pytest.raises(Ambiguous, match=r"^\|<chi\(1\), v0>\| = nan <= 0\.9"):
            holonomy_sign(tl, self._nan_after_half(keep_end=True), steps=64)
        with pytest.raises(BadParams, match=r"^holonomy_signs needs a real line"):
            holonomy_sign(bd.tangent_sphere(2), _constant([1.0, 0.0, 0.0]), steps=64)


def test_fiber_basis_calls_return_equal_distinct_arrays():
    ts = bd.tangent_sphere(2)
    x = random_point(ts.base, 0)
    first = ts.fiber_basis(x)
    again = ts.fiber_basis(x)
    assert again is not first
    assert np.array_equal(again, first)


def test_direct_sum_blocks():
    ds = bd.direct_sum(bd.tautological_real(1, 2), bd.tautological_complex(1))
    x = random_point(ds.base, 5)
    q = ds.fiber_projector(x)
    assert np.allclose(q[:2, 2:], 0.0)
    assert np.allclose(q[2:, :2], 0.0)
    assert ds.real_rank == 3
    assert not ds.has_complex_structure


def test_complex_direct_sum_is_one_hermitian_field():
    v1, v2 = bd.tautological_complex(1), bd.tautological_complex(2)
    ds = bd.direct_sum(v1, v2)
    assert ds.has_complex_structure
    assert (ds.ambient_fiber_dim, ds.real_rank) == (10, 4)
    x = random_point(ds.base, 5)
    p = ds.complex_fiber_projector(x)
    assert np.array_equal(p[:2, :2], v1.complex_fiber_projector(x[0]))
    assert np.array_equal(p[2:, 2:], v2.complex_fiber_projector(x[1]))
    assert not p[:2, 2:].any() and not p[2:, :2].any()


def test_real_bundle_has_no_complex_structure():
    ts = bd.tangent_sphere(2)
    x = random_point(ts.base, 0)
    for field in (ts.complex_fiber_projector, ts.complex_structure):
        with pytest.raises(BadParams, match="no complex structure"):
            field(x)


def test_complement_of_complex_bundle_keeps_structure():
    w = bd.tautological_complex(1)
    c = complement(w)
    assert c.has_complex_structure
    x = random_point(c.base, 2)
    pc = c.complex_fiber_projector(x)
    assert np.allclose(pc + w.complex_fiber_projector(x), np.eye(2), atol=1e-12)
    # realified from I - P_W, the real field equals I - Q_W exactly
    assert np.array_equal(c.fiber_projector(x), np.eye(4) - w.fiber_projector(x))
