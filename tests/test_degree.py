"""Degree of sphere self-maps: production path (area-form pullback over an
icosphere) against an independent regular-value preimage-count oracle."""

import math

import numpy as np
import pytest

from bundlelift import _kernels, manifolds as mf
from bundlelift.errors import BadParams, NonConvergent

from helpers import antipodal


def _tangent_basis(x):
    proj = np.eye(3) - np.outer(x, x)
    for i in range(3):
        u = proj[:, i]
        if np.linalg.norm(u) > 0.3:
            u = u / np.linalg.norm(u)
            break
    v = np.cross(x, u)
    return u, v  # (u, v, x) is right-handed


def _extended(f, y):
    nrm = np.linalg.norm(y)
    return nrm * np.asarray(f(y / nrm))


def _jacobian(f, x, delta=1e-6):
    jac = np.empty((3, 3))
    for i in range(3):
        step = np.zeros(3)
        step[i] = delta
        jac[:, i] = (_extended(f, x + step) - _extended(f, x - step)) / (2 * delta)
    return jac


def degree_by_preimage_count(f, target_seed=12345):
    """Independent oracle: count preimages of a seeded regular value with
    Jacobian orientation signs (projected Gauss-Newton from icosphere
    starts, deduplicated)."""
    fwd = f.forward if isinstance(f, mf.SmoothMap) else f
    rng = np.random.default_rng(target_seed)
    y = rng.normal(size=3)
    y /= np.linalg.norm(y)
    starts, _ = mf.icosphere(2)
    roots = []
    for x0 in starts:
        x = x0.copy()
        for _ in range(40):
            r = np.asarray(fwd(x)) - y
            if np.linalg.norm(r) < 1e-12:
                break
            jac = _jacobian(fwd, x) @ (np.eye(3) - np.outer(x, x))
            dx, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            dx = (np.eye(3) - np.outer(x, x)) @ dx
            step_norm = np.linalg.norm(dx)
            if step_norm > 0.5:
                dx *= 0.5 / step_norm
            x = x + dx
            x /= np.linalg.norm(x)
        if np.linalg.norm(np.asarray(fwd(x)) - y) > 1e-10:
            continue
        if any(np.linalg.norm(x - r_) < 1e-5 for r_ in roots):
            continue
        roots.append(x)
    total = 0
    for x in roots:
        u, v = _tangent_basis(x)
        jac = _jacobian(fwd, x)
        w1, w2 = jac @ u, jac @ v
        total += 1 if np.linalg.det(np.column_stack([w1, w2, y])) > 0 else -1
    return total


def test_identity_degree():
    assert mf.degree(mf.identity_diffeo(mf.Sphere(2)), 3) == 1


def test_reflection_degree():
    sigma = mf.named_diffeo(mf.Sphere(2), "sphere_reflection")
    assert mf.degree(sigma, 3) == -1


def test_antipodal_degree():
    # deg(-id) = (-1)^{n+1} = -1 on S^2
    anti = antipodal(mf.Sphere(2))
    assert mf.degree(anti, 3) == -1


@pytest.mark.parametrize("n", [2, 3])
def test_power_map_degree_matches_oracle(n):
    f = mf.sphere_power_map(n)
    by_area = mf.degree(f, 4)
    by_count = degree_by_preimage_count(f)
    assert by_area == n
    assert by_count == n


def test_oracle_on_reflection():
    sigma = mf.named_diffeo(mf.Sphere(2), "sphere_reflection")
    assert degree_by_preimage_count(sigma) == -1


def test_multiplicativity_on_samples():
    sigma = mf.named_diffeo(mf.Sphere(2), "sphere_reflection")
    f2 = mf.sphere_power_map(2)
    f3 = mf.sphere_power_map(3)
    cases = {"sigma": (sigma.forward, -1), "f2": (f2.forward, 2),
             "f3": (f3.forward, 3)}
    for name_a, (fa, da) in cases.items():
        for name_b, (fb, db) in cases.items():
            composed = lambda x: fa(fb(x))
            assert mf.degree(composed, 4) == da * db, (name_a, name_b)


def test_mesh_level_floor():
    with pytest.raises(BadParams):
        mf.degree(mf.identity_diffeo(mf.Sphere(2)), 2)


def test_non_convergent_retry_logic(monkeypatch):
    # the solid-angle sum of a closed mesh image is an integer multiple of
    # 4 pi up to roundoff for any evaluable map, so drive the retry branch
    # directly with synthetic raw values
    from bundlelift.errors import NonConvergent

    values = {3: 0.47, 4: 0.52}
    monkeypatch.setattr(mf, "_degree_raw", lambda f, level: values[level])
    with pytest.raises(NonConvergent):
        mf.degree(lambda x: x, 3)

    values = {3: 0.47, 4: 2.02}
    assert mf.degree(lambda x: x, 3) == 2


def _wild(x):
    # one point (3,) or a stack (P, 3), as degree's contract requires
    t = 25.0 * (x[..., 0] + 2.0 * x[..., 1]) + 0.3
    return np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)


def test_aliasing_shows_up_as_level_disagreement():
    # sub-mesh-scale oscillation yields (exact) integers that differ between
    # consecutive levels -- the instability a caller detects by comparing
    # levels, as the acceptance checks do
    r3 = mf._degree_raw(_wild, 3)
    r4 = mf._degree_raw(_wild, 4)
    assert abs(r3 - round(r3)) <= 0.1
    assert abs(r4 - round(r4)) <= 0.1
    assert round(r3) != round(r4)


def test_degree_stable_across_levels():
    f = mf.sphere_power_map(3)
    assert mf.degree(f, 3) == mf.degree(f, 4) == 3


def _degree_raw_per_vertex(f, level):
    # the per-vertex evaluation that _degree_raw replaced, kept as its oracle
    verts, tris = mf.icosphere(level)
    fwd = f.forward if isinstance(f, mf.SmoothMap) else f
    img = np.empty_like(verts)
    for i in range(verts.shape[0]):
        img[i] = fwd(verts[i])
    img = img / np.linalg.norm(img, axis=1, keepdims=True)
    angles = _kernels.solid_angles(img, np.ascontiguousarray(tris))
    return float(np.sum(angles)) / (4.0 * math.pi)


def _oracle_maps():
    f2 = mf.sphere_power_map(2)
    return {
        "id": mf.identity_diffeo(mf.Sphere(2)),
        "sigma": mf.named_diffeo(mf.Sphere(2), "sphere_reflection"),
        "rotation": mf.named_diffeo(mf.Sphere(2), "sphere_rotation",
                                    matrix=mf.random_orthogonal(3, 5)),
        "f2": f2,
        "f3": mf.sphere_power_map(3),
        "f2of2": lambda x: f2.forward(f2.forward(x)),
        "wild": _wild,
    }


@pytest.mark.parametrize("level", [3, 4, 5])
def test_degree_raw_matches_per_vertex_oracle(level):
    for name, f in _oracle_maps().items():
        raw = mf._degree_raw(f, level)
        oracle = _degree_raw_per_vertex(f, level)
        assert np.float64(raw).tobytes() == np.float64(oracle).tobytes(), name


def test_degree_raw_makes_one_map_call_per_mesh():
    f = mf.sphere_power_map(2)
    shapes = []

    def counted(x):
        shapes.append(np.shape(x))
        return f.forward(x)

    assert mf.degree(counted, 4) == 2
    assert shapes == [mf.icosphere(4)[0].shape]


def test_nan_image_is_non_convergent():
    # a map undefined at one mesh vertex used to reach round(nan) and die
    # with a ValueError
    pole = mf.icosphere(3)[0][0]

    def holed(x):
        y = np.array(x, dtype=float)
        y[np.linalg.norm(x - pole, axis=-1) < 1e-9] = np.nan
        return y

    with pytest.raises(NonConvergent):
        mf.degree(holed, 3)
