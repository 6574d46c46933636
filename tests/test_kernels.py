"""The numpy kernels against slow oracles: per-triangle loops for the
plaquette and solid-angle sums, and the exact one-step RK4 polynomial for
transport with a constant generator."""

import math

import numpy as np

from bundlelift import _kernels


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


def _random_projector_field(rng, count, dim):
    z = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.einsum("ki,kj->kij", z, z.conj())


def test_plaquette_phases_match_loop():
    rng = np.random.default_rng(0)
    qv = _random_projector_field(rng, 30, 3)
    tris = rng.integers(0, 30, size=(50, 3))
    phases, min_abs = _kernels.plaquette_phases(qv, tris)
    ref_phases, ref_min = _plaquette_phases_loop(qv, tris)
    assert np.allclose(phases, ref_phases, atol=1e-12)
    assert abs(min_abs - ref_min) < 1e-12


def test_solid_angles_match_loop():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    tris = rng.integers(0, 20, size=(40, 3))
    assert np.allclose(_kernels.solid_angles(pts, tris),
                       _solid_angles_loop(pts, tris), atol=1e-12)


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
