from collections import Counter

import numpy as np
import pytest

from bundlelift import cli, gluing as gl, lifts as lf, manifolds as mf
from bundlelift.errors import BadParams, NotOrthonormal, PatchNotInvariant
from bundlelift.numkernel import worst


def rot(angle, axes=(0, 1), dim=3):
    """One rotation of the (i, j) plane per entry of the angle stack (one
    matrix for a scalar angle)."""
    m = np.tile(np.eye(dim), np.shape(angle) + (1, 1))
    i, j = axes
    c, s = np.cos(angle), np.sin(angle)
    m[..., i, i] = c
    m[..., j, j] = c
    m[..., i, j] = -s
    m[..., j, i] = s
    return m


def constant(m):
    """The field that is m at every point of a stack."""
    return lambda x: np.broadcast_to(m, (len(x),) + m.shape)


FLIP = mf.Diffeo("flip", lambda x: x * np.array([1.0, -1.0]),
                 lambda x: x * np.array([1.0, -1.0]), None)
IDENTITY = mf.Diffeo("id", lambda x: x, lambda x: x, None)


# The per-point checker the stacked one replaced, kept as its oracle. It
# calls every field on one point at a time, as field(x[None])[0].

def _one(field):
    return lambda x: field(np.asarray(x)[None])[0]


def _oracle_orthogonal(alpha, points, label):
    for x in points:
        a = np.asarray(alpha(x), dtype=float)
        defect = float(np.max(np.abs(a @ a.T - np.eye(a.shape[0]))))
        if not defect <= 1e-8:
            raise NotOrthonormal(
                f"{label} is not orthogonal at a sample (defect {defect:.3e})"
            )


def oracle_check(d1, d2, transition, diffeo):
    """d1 and d2 are (patch_id, sample_points, alpha, contains) and
    transition is (overlap_points, alpha), with stacked fields."""
    data = [(pid, pts, _one(alpha), contains)
            for pid, pts, alpha, contains in (d1, d2)]
    overlap, alpha_t = transition[0], _one(transition[1])
    for pid, pts, alpha, _ in data:
        _oracle_orthogonal(alpha, pts, f"alpha[{pid}]")
    _oracle_orthogonal(alpha_t, overlap, "transition alpha")
    if len(overlap) == 0:
        raise BadParams("no overlap points to check the cocycle condition on")
    for pid, pts, _, contains in data:
        if contains is None:
            continue
        for x in pts:
            if not contains(diffeo.forward(x[None]))[0]:
                raise PatchNotInvariant(
                    f"diffeomorphism leaves patch {pid} at a sample")
    (_, _, alpha1, _), (_, _, alpha2, _) = data
    max_residual = 0.0
    for x in overlap:
        a1 = np.asarray(alpha1(x), dtype=float)
        a2 = np.asarray(alpha2(x), dtype=float)
        a_here = np.asarray(alpha_t(x), dtype=float)
        a_there = np.asarray(alpha_t(diffeo.forward(x)), dtype=float)
        gap = a2 - np.linalg.inv(a_there) @ a1 @ a_here
        res = float(np.linalg.norm(gap, 2)) if np.all(np.isfinite(gap)) else np.nan
        max_residual = worst(max_residual, res)
    return max_residual


def check_both(d1, d2, transition, diffeo):
    """The stacked checker's residual, after asserting that the per-point
    oracle gives the same residual bit for bit, or the same refusal."""
    def stacked():
        return gl.cocycle_compat_check(
            gl.LocalLiftDatum(*d1[:3], contains=d1[3]),
            gl.LocalLiftDatum(*d2[:3], contains=d2[3]),
            gl.TransitionDatum(*transition), diffeo)

    try:
        expected = oracle_check(d1, d2, transition, diffeo)
    except (BadParams, NotOrthonormal, PatchNotInvariant) as exc:
        with pytest.raises(type(exc)):
            stacked()
        raise
    out = stacked()
    np.testing.assert_array_equal(out, expected)
    return out


def compatible(residual):
    # the CLI's reading of a cocycle residual; a NaN is not compatible
    return residual <= cli.COCYCLE_TOL


def incompatible(residual):
    # a NaN is not a measured incompatibility either
    return residual > cli.COCYCLE_TOL


@pytest.fixture
def setup_fields():
    rng = np.random.default_rng(0)
    points = rng.uniform(-1, 1, size=(10, 2))

    def alpha1(x):
        return rot(0.5 * x[:, 0]) @ rot(0.3 * x[:, 1] ** 2, (1, 2))

    def alpha_t(x):
        return rot(0.2 * x[:, 0] - 0.4, (0, 2))

    def alpha2(x):
        return np.linalg.inv(alpha_t(FLIP.forward(x))) @ alpha1(x) @ alpha_t(x)

    return points, FLIP, alpha1, alpha2, alpha_t


class TestCocycleCheck:
    def test_identity_fields_compatible(self):
        points = np.array([[0.1 * i, 0.2] for i in range(5)])
        ident = constant(np.eye(2))
        out = check_both(("U1", points, ident, None), ("U2", points, ident, None),
                         (points, ident), IDENTITY)
        assert out == 0.0
        assert compatible(out)

    def test_constructed_datum_compatible(self, setup_fields):
        points, phi, alpha1, alpha2, alpha_t = setup_fields
        out = check_both(("U1", points, alpha1, None),
                         ("U2", points, alpha2, None), (points, alpha_t), phi)
        assert out <= 1e-12
        assert compatible(out)

    def test_perturbed_datum_incompatible(self, setup_fields):
        points, phi, alpha1, alpha2, alpha_t = setup_fields
        bump = rot(0.1)
        out = check_both(("U1", points, alpha1, None),
                         ("U2", points, lambda x: alpha2(x) @ bump, None),
                         (points, alpha_t), phi)
        assert incompatible(out)
        # spectral distance of a rotation by 0.1 from the identity
        assert abs(out - 0.1) <= 0.01

    def test_frame_independence(self, setup_fields):
        # replacing s1 by s1 g conjugates alpha1 and the transition; the
        # verdict and residual are unchanged
        points, phi, alpha1, alpha2, alpha_t = setup_fields
        g = rot(0.77, (0, 2))
        alpha1_g = lambda x: g.T @ alpha1(x) @ g
        alpha_t_g = lambda x: g.T @ alpha_t(x)
        bump = rot(0.1)
        base = check_both(("U1", points, alpha1, None),
                          ("U2", points, lambda x: alpha2(x) @ bump, None),
                          (points, alpha_t), phi)
        conj = check_both(("U1", points, alpha1_g, None),
                          ("U2", points, lambda x: alpha2(x) @ bump, None),
                          (points, alpha_t_g), phi)
        assert compatible(conj) == compatible(base)
        assert abs(conj - base) <= 1e-10

    def test_swap_symmetry(self, setup_fields):
        points, phi, alpha1, alpha2, alpha_t = setup_fields
        bump = rot(0.05, (1, 2))
        alpha2_bad = lambda x: alpha2(x) @ bump
        fwd = check_both(("U1", points, alpha1, None),
                         ("U2", points, alpha2_bad, None), (points, alpha_t), phi)
        swapped = check_both(("U2", points, alpha2_bad, None),
                             ("U1", points, alpha1, None),
                             (points, lambda x: np.linalg.inv(alpha_t(x))), phi)
        assert abs(fwd - swapped) <= 1e-10

    def test_patch_invariance_enforced(self, setup_fields):
        points, _, alpha1, alpha2, alpha_t = setup_fields
        shift = mf.Diffeo("shift", lambda x: x + 10.0, lambda x: x - 10.0, None)
        inside = lambda x: np.max(np.abs(x), axis=-1) < 2.0
        with pytest.raises(PatchNotInvariant):
            check_both(("U1", points, alpha1, inside),
                       ("U2", points, alpha2, None), (points, alpha_t), shift)

    def test_patch_not_invariant_names_patch_and_sample(self):
        # the flip y -> -y moves the samples with y < -0.1 (2 and 3) out
        # of the half-plane y < 0.1; the first of them is named
        points = np.array([[0.2, 0.5], [0.3, 0.05], [0.1, -0.4], [0.0, -0.7]])
        ident = constant(np.eye(3))
        below = lambda x: x[..., 1] < 0.1
        with pytest.raises(PatchNotInvariant,
                           match=r"^diffeomorphism moves sample 2 out of patch U2$"):
            gl.cocycle_compat_check(
                gl.LocalLiftDatum("U1", points, ident),
                gl.LocalLiftDatum("U2", points, ident, contains=below),
                gl.TransitionDatum(points, ident), FLIP)

    def test_non_orthogonal_rejected(self):
        points = np.zeros((1, 2))
        with pytest.raises(NotOrthonormal):
            check_both(("U1", points, constant(2.0 * np.eye(3)), None),
                       ("U2", points, constant(np.eye(3)), None),
                       (points, constant(np.eye(3))), IDENTITY)

    def test_nan_field_rejected(self):
        points = np.zeros((1, 2))
        with pytest.raises(NotOrthonormal):
            check_both(("U1", points, constant(np.full((3, 3), np.nan)), None),
                       ("U2", points, constant(np.eye(3)), None),
                       (points, constant(np.eye(3))), IDENTITY)

    def test_not_orthonormal_names_first_failing_sample(self):
        # sample 2 is scaled by 1.5 and sample 3 by 3: the first is named
        scale = np.array([1.0, 1.0, 1.5, 3.0])
        points = np.zeros((4, 2))
        with pytest.raises(NotOrthonormal, match=r"^alpha\[U1\] is not orthogonal "
                           r"at sample 2 \(defect 1\.250e\+00\)$"):
            gl.LocalLiftDatum("U1", points, lambda x: scale[:, None, None]
                              * np.eye(3))

    def test_not_orthonormal_names_a_nan_sample(self):
        # a NaN at one point of the stack fails there, with defect nan
        points = np.array([[0.1, 0.2], [0.3, 0.4], [np.nan, 0.5], [0.6, 0.7]])
        with pytest.raises(NotOrthonormal, match=r"^transition alpha is not "
                           r"orthogonal at sample 2 \(defect nan\)$"):
            gl.TransitionDatum(points, lambda x: rot(x[:, 0]))

    def test_nan_residual_off_the_samples_is_incompatible(self):
        # the NaN sits at an overlap point that is no sample point, so the
        # orthogonality guard never sees it; the residual must read NaN
        samples = np.zeros((1, 2))
        overlap = np.array([[0.1, 0.2], [np.nan, np.nan], [0.3, -0.4]])
        ident = constant(np.eye(3))
        out = check_both(("U1", samples, lambda x: rot(x[:, 0]), None),
                         ("U2", samples, ident, None), (overlap, ident), IDENTITY)
        assert np.isnan(out)
        assert not compatible(out)

    def test_empty_overlap_is_refused_not_passed(self):
        # nothing to measure is no verdict: it must not read compatible
        points = np.array([[0.1, 0.2]])
        ident = constant(np.eye(2))
        with pytest.raises(BadParams, match="no overlap points"):
            gl.cocycle_compat_check(
                gl.LocalLiftDatum("U1", points, ident),
                gl.LocalLiftDatum("U2", points, ident),
                gl.TransitionDatum(np.empty((0, 2)), ident), IDENTITY)

    def test_fields_are_called_once_per_role_whatever_the_point_count(self):
        # each field and predicate is evaluated on the whole stack: as many
        # calls for 50 points as for 5
        def counts(n):
            calls = Counter()

            def counted(role, field):
                def wrapped(x):
                    calls[role] += 1
                    return field(x)
                return wrapped

            points = np.random.default_rng(3).uniform(-1, 1, size=(n, 2))
            alpha1 = lambda x: rot(0.5 * x[:, 0])
            alpha_t = lambda x: rot(0.3 * x[:, 0], (0, 2))
            alpha2 = lambda x: (np.linalg.inv(alpha_t(FLIP.forward(x)))
                                @ alpha1(x) @ alpha_t(x))
            disc = lambda x: np.max(np.abs(x), axis=-1) <= 1.0
            d1 = gl.LocalLiftDatum("U1", points, counted("alpha1", alpha1),
                                   contains=counted("contains1", disc))
            d2 = gl.LocalLiftDatum("U2", points, counted("alpha2", alpha2),
                                   contains=counted("contains2", disc))
            t = gl.TransitionDatum(points, counted("alpha_t", alpha_t))
            assert compatible(gl.cocycle_compat_check(d1, d2, t, FLIP))
            return calls

        assert counts(5) == counts(50)
        assert counts(5) == {"alpha1": 2, "alpha2": 2, "alpha_t": 3,
                             "contains1": 1, "contains2": 1}


@pytest.mark.parametrize("seed", [0, 7, 42, 123])
def test_gluing_demo_point_block_equals_twelve_single_draws(seed):
    # the scenario draws its 12 patch points as one block; the values are
    # those of the 12 single draws it once made, bit for bit
    block = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(12, 2))
    rng = np.random.default_rng(seed)
    singles = np.stack([rng.uniform(-1.0, 1.0, size=2) for _ in range(12)])
    np.testing.assert_array_equal(block, singles)


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
            return p[..., 0, 0] > 0.1

        def in_u2(p):
            return p[..., 1, 1] > 0.1

        def frame(column):
            def f(p):
                col = p[..., :, column]
                return (col / np.linalg.norm(col, axis=-1, keepdims=True))[..., None]
            return f

        p = bundle.base.random_points(np.random.default_rng(0), 300)
        both = np.flatnonzero(in_u1(p) & in_u2(p))[:10]
        pts1, pts2, overlap = p[in_u1(p)], p[in_u2(p)], p[both]
        assert len(overlap) == 10
        d1, d2, t = gl.local_data_from_lift(
            lift, ("U1", pts1, in_u1), ("U2", pts2, in_u2),
            frame(0), frame(1), overlap)
        out = check_both(("U1", pts1, d1.alpha, in_u1),
                         ("U2", pts2, d2.alpha, in_u2), (overlap, t.alpha),
                         lift.base_map)
        assert compatible(out)
        assert out <= 1e-10


def test_gluing_demo_fails_a_perturbed_residual_it_could_not_measure(monkeypatch):
    # a NaN residual is no measured incompatibility: the check must fail,
    # not pass with residual 0.0
    real = cli.cocycle_compat_check
    calls = []

    def nan_on_the_perturbed_call(d1, d2, transition, diffeo):
        calls.append(d2.patch_id)
        residual = real(d1, d2, transition, diffeo)
        return np.nan if len(calls) == 2 else residual

    monkeypatch.setattr(cli, "cocycle_compat_check", nan_on_the_perturbed_call)
    report, _ = cli.run_scenario(cli.ScenarioConfig("gluing_demo", no_timestamp=True))
    verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
    assert len(calls) == 3
    assert verdicts["cocycle.perturbed_incompatible"] is False
    assert verdicts["cocycle.constructed_residual"] is True
    assert verdicts["cocycle.adapter_from_lift"] is True
    assert report["overall"] is False
