import numpy as np
import pytest

from bundlelift import cli, gluing as gl, lifts as lf, manifolds as mf
from bundlelift.errors import BadParams, NotOrthonormal, PatchNotInvariant

from helpers import random_point


def rot(angle, axes=(0, 1), dim=3):
    m = np.eye(dim)
    i, j = axes
    c, s = np.cos(angle), np.sin(angle)
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s
    m[j, i] = s
    return m


@pytest.fixture
def setup_fields():
    rng = np.random.default_rng(0)
    points = [rng.uniform(-1, 1, size=2) for _ in range(10)]
    phi = mf.Diffeo("flip", lambda x: x * np.array([1.0, -1.0]),
                    lambda x: x * np.array([1.0, -1.0]), None)

    def alpha1(x):
        return rot(0.5 * float(x[0])) @ rot(0.3 * float(x[1] ** 2), (1, 2))

    def alpha_t(x):
        return rot(0.2 * float(x[0]) - 0.4, (0, 2))

    def alpha2(x):
        return np.linalg.inv(alpha_t(phi.forward(x))) @ alpha1(x) @ alpha_t(x)

    return points, phi, alpha1, alpha2, alpha_t


class TestCocycleCheck:
    def test_identity_fields_compatible(self):
        points = [np.array([0.1 * i, 0.2]) for i in range(5)]
        ident = lambda x: np.eye(2)
        phi = mf.Diffeo("id", lambda x: x, lambda x: x, None)
        out = gl.cocycle_compat_check(
            gl.LocalLiftDatum("U1", points, ident),
            gl.LocalLiftDatum("U2", points, ident),
            gl.TransitionDatum(points, ident), phi)
        assert out["max_residual"] == 0.0
        assert out["compatible"]

    def test_constructed_datum_compatible(self, setup_fields):
        points, phi, alpha1, alpha2, alpha_t = setup_fields
        out = gl.cocycle_compat_check(
            gl.LocalLiftDatum("U1", points, alpha1),
            gl.LocalLiftDatum("U2", points, alpha2),
            gl.TransitionDatum(points, alpha_t), phi)
        assert out["max_residual"] <= 1e-12
        assert out["compatible"]

    def test_perturbed_datum_incompatible(self, setup_fields):
        points, phi, alpha1, alpha2, alpha_t = setup_fields
        bump = rot(0.1)
        out = gl.cocycle_compat_check(
            gl.LocalLiftDatum("U1", points, alpha1),
            gl.LocalLiftDatum("U2", points, lambda x: alpha2(x) @ bump),
            gl.TransitionDatum(points, alpha_t), phi)
        assert not out["compatible"]
        # spectral distance of a rotation by 0.1 from the identity
        assert abs(out["max_residual"] - 0.1) <= 0.01

    def test_frame_independence(self, setup_fields):
        # replacing s1 by s1 g conjugates alpha1 and the transition; the
        # verdict and residual are unchanged
        points, phi, alpha1, alpha2, alpha_t = setup_fields
        g = rot(0.77, (0, 2))
        alpha1_g = lambda x: g.T @ alpha1(x) @ g
        alpha_t_g = lambda x: g.T @ alpha_t(x)
        bump = rot(0.1)
        base = gl.cocycle_compat_check(
            gl.LocalLiftDatum("U1", points, alpha1),
            gl.LocalLiftDatum("U2", points, lambda x: alpha2(x) @ bump),
            gl.TransitionDatum(points, alpha_t), phi)
        conj = gl.cocycle_compat_check(
            gl.LocalLiftDatum("U1", points, alpha1_g),
            gl.LocalLiftDatum("U2", points, lambda x: alpha2(x) @ bump),
            gl.TransitionDatum(points, alpha_t_g), phi)
        assert conj["compatible"] == base["compatible"]
        assert abs(conj["max_residual"] - base["max_residual"]) <= 1e-10

    def test_swap_symmetry(self, setup_fields):
        points, phi, alpha1, alpha2, alpha_t = setup_fields
        bump = rot(0.05, (1, 2))
        alpha2_bad = lambda x: alpha2(x) @ bump
        fwd = gl.cocycle_compat_check(
            gl.LocalLiftDatum("U1", points, alpha1),
            gl.LocalLiftDatum("U2", points, alpha2_bad),
            gl.TransitionDatum(points, alpha_t), phi)
        swapped = gl.cocycle_compat_check(
            gl.LocalLiftDatum("U2", points, alpha2_bad),
            gl.LocalLiftDatum("U1", points, alpha1),
            gl.TransitionDatum(points, lambda x: np.linalg.inv(alpha_t(x))), phi)
        assert abs(fwd["max_residual"] - swapped["max_residual"]) <= 1e-10

    def test_patch_invariance_enforced(self, setup_fields):
        points, _, alpha1, alpha2, alpha_t = setup_fields
        shift = mf.Diffeo("shift", lambda x: x + 10.0, lambda x: x - 10.0, None)
        datum = gl.LocalLiftDatum("U1", points, alpha1,
                                  contains=lambda x: float(np.max(np.abs(x))) < 2.0)
        with pytest.raises(PatchNotInvariant):
            gl.cocycle_compat_check(datum,
                                    gl.LocalLiftDatum("U2", points, alpha2),
                                    gl.TransitionDatum(points, alpha_t), shift)

    def test_non_orthogonal_rejected(self):
        points = [np.zeros(2)]
        with pytest.raises(NotOrthonormal):
            gl.LocalLiftDatum("U1", points, lambda x: 2.0 * np.eye(3))

    def test_nan_field_rejected(self):
        points = [np.zeros(2)]
        with pytest.raises(NotOrthonormal):
            gl.LocalLiftDatum("U1", points, lambda x: np.full((3, 3), np.nan))

    def test_nan_residual_off_the_samples_is_incompatible(self):
        # the NaN sits at an overlap point that is no sample point, so the
        # orthogonality guard never sees it; the residual must read NaN
        samples = [np.zeros(2)]
        bad = np.array([0.5, 0.5])
        overlap = [np.array([0.1, 0.2]), bad]
        ident = lambda x: np.eye(3)
        nan_at_bad = (lambda x: np.full((3, 3), np.nan)
                      if np.array_equal(x, bad) else np.eye(3))
        phi = mf.Diffeo("id", lambda x: x, lambda x: x, None)
        out = gl.cocycle_compat_check(
            gl.LocalLiftDatum("U1", samples, nan_at_bad),
            gl.LocalLiftDatum("U2", samples, ident),
            gl.TransitionDatum(overlap, ident), phi)
        assert np.isnan(out["max_residual"])
        assert out["compatible"] is False


    def test_empty_overlap_is_refused_not_passed(self):
        # nothing to measure is no verdict: it must not read compatible
        points = [np.array([0.1, 0.2])]
        ident = lambda x: np.eye(2)
        phi = mf.Diffeo("id", lambda x: x, lambda x: x, None)
        with pytest.raises(BadParams, match="no overlap points"):
            gl.cocycle_compat_check(
                gl.LocalLiftDatum("U1", points, ident),
                gl.LocalLiftDatum("U2", points, ident),
                gl.TransitionDatum([], ident), phi)


def test_gluing_demo_with_too_few_overlap_points_exits_2(monkeypatch, capsys):
    # the first three draws lie in both patches, every later one in U1 only,
    # so the 200 draws give 3 overlap points instead of 8
    both = np.full((2, 2), 0.5)
    u1_only = np.diag([1.0, 0.0])
    monkeypatch.setattr(cli, "_draw", lambda model, seed, tag, count:
                        np.stack([both] * 3 + [u1_only] * (count - 3)))
    code = cli.main(["scenario", "gluing_demo", "--seed", "42",
                     "--no-timestamp"])
    assert code == 2
    assert "200 draws gave 3 overlap points" in capsys.readouterr().err


class TestAdapter:
    def test_grassmann_lift_local_data_compatible(self):
        lift = lf.grassmann_orthogonal_lift(np.diag([1.0, -1.0]), 1)
        bundle = lift.bundle

        def in_u1(p):
            return p[0, 0] > 0.1

        def in_u2(p):
            return p[1, 1] > 0.1

        def frame1(p):
            col = np.asarray(p)[:, 0]
            return (col / np.linalg.norm(col)).reshape(2, 1)

        def frame2(p):
            col = np.asarray(p)[:, 1]
            return (col / np.linalg.norm(col)).reshape(2, 1)

        pts1, pts2, overlap = [], [], []
        seed = 0
        while len(overlap) < 10 and seed < 300:
            p = random_point(bundle.base, seed)
            seed += 1
            if in_u1(p):
                pts1.append(p)
            if in_u2(p):
                pts2.append(p)
            if in_u1(p) and in_u2(p):
                overlap.append(p)
        d1, d2, t = gl.local_data_from_lift(
            lift, ("U1", pts1, in_u1), ("U2", pts2, in_u2),
            frame1, frame2, overlap)
        out = gl.cocycle_compat_check(d1, d2, t, lift.base_map)
        assert out["compatible"]
        assert out["max_residual"] <= 1e-10
