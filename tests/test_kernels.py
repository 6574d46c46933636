"""The numpy kernels against slow oracles: per-triangle loops, the
per-triangle section kernel and the complex triple product for the
plaquette sums, per-triangle loops for the solid-angle sums, the per-step
staged RK4 loop for transport, and the exact one-step RK4 polynomial for a
constant generator."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlelift import _kernels, bundles as bd, manifolds as mf

from helpers import (cpn_phase_homotopy, oracle_line_bundles,
                     plaquette_phases_per_triangle, random_point, stack_points)


def _plaquette_phases_loop(qv, tris):
    phases = np.empty(tris.shape[0])
    min_abs = 1e300
    for k, (a, b, c) in enumerate(tris):
        tr = np.trace(qv[a] @ qv[b] @ qv[c])
        min_abs = min(min_abs, abs(tr))
        phases[k] = math.atan2(tr.imag, tr.real)
    return phases, min_abs


def _solid_angles_loop(pts, tris):
    out = np.empty(tris.shape[0])
    for k, (ia, ib, ic) in enumerate(tris):
        a, b, c = pts[ia], pts[ib], pts[ic]
        num = float(np.linalg.det(np.array([a, b, c])))
        den = 1.0 + a @ b + b @ c + c @ a
        out[k] = 2.0 * math.atan2(num, den)
    return out


def _staged_rk4_transport(qp, qnode, x0, h):
    # the per-step loop of four stage products that the batched increments
    # replaced, kept as the oracle
    steps = qnode.shape[0] - 1
    x = x0.copy()
    for i in range(steps):
        a0 = qp[2 * i]
        a1 = qp[2 * i + 1]
        a2 = qp[2 * i + 2]
        k1 = a0 @ x
        k2 = a1 @ (x + (0.5 * h) * k1)
        k3 = a1 @ (x + (0.5 * h) * k2)
        k4 = a2 @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = qnode[i + 1] @ x
    return x


def _random_projector_field(rng, count, dim):
    z = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.einsum("ki,kj->kij", z, z.conj())


def _random_fields_on_the_mesh():
    # random rank-1 fields on the level-2 icosphere vertices, by fiber
    # dimension: m = 1 (trivial lines) has one section entry; m = 2 is the
    # CP^1 field every Chern number reads
    verts, tris = mf.icosphere(2)
    for dim, seed in [(3, 0), (1, 1), (2, 2)]:
        rng = np.random.default_rng(seed)
        yield dim, _random_projector_field(rng, len(verts), dim), tris


def test_plaquette_phases_match_loop():
    # to roundoff against the triple matrix products, and bitwise against
    # the per-triangle section kernel
    for dim, qv, tris in _random_fields_on_the_mesh():
        w = _kernels.unit_sections(qv)
        (phases, min_abs), _ = _kernels.plaquette_phases(w, tris)
        ref_phases, ref_min = _plaquette_phases_loop(qv, tris)
        assert np.allclose(phases, ref_phases, atol=1e-12), dim
        assert abs(min_abs - ref_min) < 1e-12, dim
        _assert_bitwise_the_per_triangle_oracle(w, 2)


def _assert_bitwise(got, ref):
    (phases, min_abs), (ref_phases, ref_min) = got, ref
    assert phases.dtype == ref_phases.dtype and phases.shape == ref_phases.shape
    assert phases.tobytes() == ref_phases.tobytes()
    assert np.float64(min_abs).tobytes() == np.float64(ref_min).tobytes()


def _assert_bitwise_the_per_triangle_oracle(w, level):
    # the fine phases on the level's triangles, and the coarse phases on
    # those of the level before, in its order, from its first vertices
    coarse_verts, coarse_tris = mf.icosphere(level - 1)
    tris = mf.icosphere(level)[1]
    fine, coarse = _kernels.plaquette_phases(w, tris)
    _assert_bitwise(fine, plaquette_phases_per_triangle(w, tris))
    _assert_bitwise(coarse, plaquette_phases_per_triangle(
        w[:, :len(coarse_verts)], coarse_tris))


@pytest.mark.parametrize("level", range(1, 6))
def test_grouped_plaquette_phases_are_bitwise_the_per_triangle_oracle(level):
    # the fifteen overlaps of a subdivision group are the three overlaps of
    # each of its four triangles and of the triangle it splits, in the same
    # order and from the same bits
    verts = mf.icosphere(level)[0]
    pts = {mf.Sphere(2): verts, mf.ComplexProjective(1): mf.sphere_to_cp1(verts)}
    for name, bundle in oracle_line_bundles().items():
        qv = bundle.complex_fiber_projector(pts[bundle.base])
        _assert_bitwise_the_per_triangle_oracle(_kernels.unit_sections(qv), level)


@pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zero", "nan"])
def test_grouped_plaquette_phases_match_the_oracle_at_a_degenerate_vertex(fill):
    # a zero or NaN projector at one vertex: NaN sections there, NaN phases
    # on its triangles and a NaN min |tr| on both sides
    _, qv, tris = next(_random_fields_on_the_mesh())
    qv[17] = fill
    w = _kernels.unit_sections(qv)
    (phases, min_abs), _ = _kernels.plaquette_phases(w, tris)
    ref_phases, ref_min = plaquette_phases_per_triangle(w, tris)
    assert math.isnan(min_abs) and math.isnan(ref_min)
    assert np.isnan(phases).sum() == np.any(tris == 17, axis=1).sum()
    assert phases.tobytes() == ref_phases.tobytes()


def test_a_nan_vertex_reaches_the_minimum_of_each_level_it_is_on():
    # a vertex of the coarse mesh is on both levels' triangles; a vertex
    # that only the fine mesh has leaves the coarse minimum finite. Every
    # vertex in turn, so each of the four triangle roles carries the NaN
    _, qv, tris = next(_random_fields_on_the_mesh())
    coarse_count = len(mf.icosphere(1)[0])
    for vertex in range(len(qv)):
        field = qv.copy()
        field[vertex] = np.nan
        (_, fine_min), (_, coarse_min) = _kernels.plaquette_phases(
            _kernels.unit_sections(field), tris)
        assert math.isnan(fine_min), vertex
        assert math.isnan(coarse_min) == (vertex < coarse_count), vertex


def test_solid_angles_match_loop():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    tris = rng.integers(0, 20, size=(40, 3))
    assert np.allclose(_kernels.solid_angles(pts, tris),
                       _solid_angles_loop(pts, tris), atol=1e-12)


def _plaquette_phases_fancy(qv, tris):
    # the complex triple product with fancy-index gathers that the unit
    # sections and take gathers replaced, kept as the oracle
    tr = np.einsum("kij,kjl,kli->k", qv[tris[:, 0]], qv[tris[:, 1]],
                   qv[tris[:, 2]])
    return np.angle(tr), float(np.abs(tr).min())


def _solid_angles_fancy(pts, tris):
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    num = np.einsum("ki,ki->k", a, np.cross(b, c))
    den = (1.0 + np.einsum("ki,ki->k", a, b) + np.einsum("ki,ki->k", b, c)
           + np.einsum("ki,ki->k", c, a))
    return 2.0 * np.arctan2(num, den)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_take_gathers_equal_the_fancy_index_gathers(level):
    # the plaquette phases of every oracle line bundle against the triple
    # product: three overlaps of unit sections regroup the arithmetic, so
    # they agree to roundoff, not bitwise; the solid angles of the images
    # of the mesh under id, f_2 and f_3, which degrees read, bitwise
    verts, tris = mf.icosphere(level)
    pts = {mf.Sphere(2): verts, mf.ComplexProjective(1): mf.sphere_to_cp1(verts)}
    for name, bundle in oracle_line_bundles().items():
        qv = np.ascontiguousarray(bundle.complex_fiber_projector(pts[bundle.base]))
        (phases, min_abs), _ = _kernels.plaquette_phases(_kernels.unit_sections(qv), tris)
        ref_phases, ref_min = _plaquette_phases_fancy(qv, tris)
        gap = np.abs(np.remainder(phases - ref_phases + np.pi, 2 * np.pi) - np.pi)
        assert np.max(gap) <= 1e-14, name
        assert abs(min_abs - ref_min) <= 1e-14, name
        assert abs(np.sum(phases) - np.sum(ref_phases)) / (2 * np.pi) <= 1e-12, name
    for n in (1, 2, 3):
        image = np.ascontiguousarray(mf.sphere_power_map(n).forward(verts))
        assert (_kernels.solid_angles(image, tris).tobytes()
                == _solid_angles_fancy(image, tris).tobytes()), n


def test_rk4_transport_constant_generator_is_taylor_polynomial():
    # with A constant and no re-projection, one RK4 step is the degree-4
    # Taylor polynomial of exp(hA)
    rng = np.random.default_rng(2)
    steps = 32
    h = 1.0 / steps
    a = rng.normal(size=(4, 4))
    qp = np.tile(a, (2 * steps + 1, 1, 1))
    qnode = np.tile(np.eye(4), (steps + 1, 1, 1))
    x0 = rng.normal(size=(4, 2))
    ha = h * a
    step = np.eye(4) + ha + ha @ ha / 2 + ha @ ha @ ha / 6 + ha @ ha @ ha @ ha / 24
    expected = np.linalg.matrix_power(step, steps) @ x0
    assert np.allclose(_kernels.rk4_transport(qp, qnode, x0, h), expected,
                       rtol=1e-12, atol=1e-12)


def test_rk4_transport_continued_through_x0_is_bitwise_one_call():
    # a run split at a node and continued from the first call's result is
    # the same arithmetic as the whole run, for a stack of tracks
    rng = np.random.default_rng(3)
    steps, split = 32, 13
    h = 1.0 / steps
    qp = rng.normal(size=(2 * steps + 1, 2, 4, 4))
    qnode = 0.5 * rng.normal(size=(steps + 1, 2, 4, 4))
    x0 = rng.normal(size=(2, 4, 4))
    whole = _kernels.rk4_transport(qp, qnode, x0, h)
    first = _kernels.rk4_transport(qp[:2 * split + 1], qnode[:split + 1], x0, h)
    assert np.array_equal(
        _kernels.rk4_transport(qp[2 * split:], qnode[split:], first, h), whole)


@settings(max_examples=12)
@given(steps=st.integers(1, 24), data=st.data(),
       tracks=st.sampled_from((1, 2, 5)), n=st.sampled_from((2, 3, 4)))
def test_rk4_transport_split_at_any_node_is_bitwise_one_call(steps, data, tracks, n):
    split = data.draw(st.integers(0, steps), label="split")
    h = 1.0 / steps
    rng = np.random.default_rng([steps, split, tracks, n])
    qp = rng.normal(size=(2 * steps + 1, tracks, n, n))
    qnode = 0.5 * rng.normal(size=(steps + 1, tracks, n, n))
    x0 = rng.normal(size=(tracks, n, n))
    whole = _kernels.rk4_transport(qp, qnode, x0, h)
    first = _kernels.rk4_transport(qp[:2 * split + 1], qnode[:split + 1], x0, h)
    assert np.array_equal(
        _kernels.rk4_transport(qp[2 * split:], qnode[split:], first, h), whole)


@pytest.mark.parametrize("segments,length,tracks,n",
                         [(4, 8, 3, 3), (12, 32, 28, 2), (3, 1, 1, 4), (1, 13, 2, 2)])
def test_rk4_transport_segments_side_by_side_are_bitwise_separate_calls(
        segments, length, tracks, n):
    # a window of k segments of L steps, each started from its own state,
    # is k one-segment calls on the segments' stage arrays
    steps = segments * length
    rng = np.random.default_rng([segments, length, tracks, n])
    h = 1.0 / steps
    qp = rng.normal(size=(2 * steps + 1, tracks, n, n))
    qnode = 0.5 * rng.normal(size=(steps + 1, tracks, n, n))
    x0 = rng.normal(size=(segments, tracks, n, n))
    whole = _kernels.rk4_transport(qp, qnode, x0, h, segments=segments)
    assert whole.shape == x0.shape
    for s in range(segments):
        a, b = s * length, (s + 1) * length
        alone = _kernels.rk4_transport(qp[2 * a:2 * b + 1], qnode[a:b + 1], x0[s], h)
        assert np.array_equal(whole[s], alone)


def _unblocked_rk4_transport(qp, qnode, x0, h):
    # the increments of the whole window in one batch of products, as
    # before they were built in blocks; kept as the oracle
    a0, a1, a2 = qp[:-2:2], qp[1::2], qp[2::2]
    k = a1 @ a0
    k *= 0.5 * h
    k += a1
    d = a0 + 2.0 * k
    k = a1 @ k
    k *= 0.5 * h
    k += a1
    d += 2.0 * k
    k = a2 @ k
    k *= h
    k += a2
    d += k
    d *= h / 6.0
    x = x0
    for i in range(qnode.shape[0] - 1):
        x = qnode[i + 1] @ (x + d[i] @ x)
    return x


@pytest.mark.parametrize("steps,tracks,n", [(61, 5, 3), (40, 1, 2), (3, 28, 2)])
def test_rk4_increment_blocks_do_not_change_a_bit(monkeypatch, steps, tracks, n):
    rng = np.random.default_rng([steps, tracks, n])
    h = 1.0 / steps
    qp = rng.normal(size=(2 * steps + 1, tracks, n, n))
    qnode = 0.5 * rng.normal(size=(steps + 1, tracks, n, n))
    x0 = rng.normal(size=(tracks, n, n))
    oracle = _unblocked_rk4_transport(qp, qnode, x0, h)
    step_bytes = tracks * n * n * 8
    # blocks of one step, of 7 steps (the last one short) and of the whole
    # window, and the default
    for block in (step_bytes, 7 * step_bytes, steps * step_bytes,
                  _kernels.INCREMENT_BLOCK_BYTES):
        monkeypatch.setattr(_kernels, "INCREMENT_BLOCK_BYTES", block)
        assert np.array_equal(_kernels.rk4_transport(qp, qnode, x0, h), oracle)


def test_rk4_transport_adds_one_increment_per_step_and_a_few_blocks():
    # the kernel's working set next to its stage arrays: the increments D
    # (one matrix per track and step) and about three blocks of products,
    # not three more window-sized temporaries; here a window of the torus
    # sweep's w1 transport, 389 steps of 28 tracks
    steps, tracks, n = 389, 28, 2
    rng = np.random.default_rng(5)
    qp = rng.normal(size=(2 * steps + 1, tracks, n, n))
    qnode = 0.5 * rng.normal(size=(steps + 1, tracks, n, n))
    increments = steps * tracks * n * n * 8
    tracemalloc.start()
    try:
        _kernels.rk4_transport(qp, qnode, qnode[0], 1.0 / steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= increments + 3 * _kernels.INCREMENT_BLOCK_BYTES + 2 ** 14
    # whole-window temporaries would make it three times D
    assert peak < 2 * increments


def test_plaquette_kernel_makes_no_copy_of_the_role_stack():
    # the role stack holds six section columns per group of four triangles;
    # a conjugated or stacked copy of it would take the kernel's peak past
    # twice its bytes, and a divide out of place the sections' past 2.5
    # times theirs; here the level-5 field of a Chern number at level 4
    verts, tris = mf.icosphere(5)
    bundle = bd.pullback(mf.cp1_power_map(3), bd.tautological_complex(1))
    qv = bundle.complex_fiber_projector(mf.sphere_to_cp1(verts))
    tracemalloc.start()
    try:
        w = _kernels.unit_sections(qv)
        _, sections_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _kernels.plaquette_phases(w, tris)
        _, kernel_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    role_stack = w.shape[0] * 6 * (len(tris) // 4) * w.itemsize
    assert sections_peak <= 2.5 * w.nbytes
    assert kernel_peak <= w.nbytes + 2 * role_stack


ORACLE_STEPS = 16384

STACKED_TRACKS = [
    # (bundle, tracks of a stack of points, model)
    ("sphere_rotation", bd.tangent_sphere(2),
     lambda x: bd.homotopy_path(
         mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.8 * np.pi), x), mf.Sphere(2)),
    ("complex_phase", bd.tautological_complex(1),
     lambda x: bd.homotopy_path(
         cpn_phase_homotopy(mf.ComplexProjective(1), 6 * np.pi), x),
     mf.ComplexProjective(1)),
    ("pullback", bd.pullback(mf.cp1_power_map(2), bd.tautological_complex(1)),
     lambda x: bd.homotopy_path(
         mf.cp1_plane_rotation_homotopy(mf.ComplexProjective(1), np.pi), x),
     mf.ComplexProjective(1)),
]


@pytest.mark.parametrize("name,bundle,tracks,model", STACKED_TRACKS,
                         ids=[t[0] for t in STACKED_TRACKS])
def test_rk4_transport_matches_staged_oracle(name, bundle, tracks, model):
    # the batched increments regroup the RK4 arithmetic, so they agree with
    # the staged loop to roundoff over a long run, not bitwise
    path = tracks(stack_points([random_point(model, 70 + i) for i in range(3)]))
    h = 1.0 / ORACLE_STEPS
    qp, qnode = bd._stage_arrays(bundle, path,
                                 (0.5 * h) * np.arange(2 * ORACLE_STEPS + 1),
                                 slice(None))
    new = _kernels.rk4_transport(qp, qnode, qnode[0], h)
    oracle = _staged_rk4_transport(qp, qnode, qnode[0], h)
    assert np.max(np.abs(new - oracle)) <= 1e-13
