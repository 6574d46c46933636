"""Conjugation lifts, complex-linearity residuals, fiberwise corrections,
torus line-bundle lifts and the S^1 x S^2 generator lifts."""

import numpy as np
import pytest

from bundlelift import bundles as bd, lifts as lf, manifolds as mf
from bundlelift.errors import (BadParams, CriterionFails, NoComplexStructure,
                               Singular)

from helpers import (cpn_phase_homotopy, identity_lift, passes, random_point,
                     torus_line_lift)


class TestCpnConjugationLift:
    def test_fixes_real_vectors(self):
        lift = lf.cpn_conjugation_lift(1)
        z = np.array([0.6, 0.8], dtype=complex)  # real point, real fiber vector
        x = np.outer(z, z.conj())
        v = np.concatenate([z.real, z.imag])
        assert np.linalg.norm(lift.action(x, v) - v) <= 1e-12

    def test_anti_linearity_identity(self):
        lift = lf.cpn_conjugation_lift(1)
        bundle = lift.bundle
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = random_point(bundle.base, rng)
            v = bundle.random_fiber_vector(x, rng)
            j_x = bundle.complex_structure(x)
            j_y = bundle.complex_structure(lift.base_map.forward(x))
            # Phi(i v) = -i Phi(v)
            assert np.linalg.norm(lift.action(x, j_x @ v)
                                  + j_y @ lift.action(x, v)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_check_lift_passes(self, n):
        lift = lf.cpn_conjugation_lift(n)
        rep = lf.check_lift(lift, samples=200, seed=3)
        assert passes(rep, 1e-10)
        assert rep.anti_linearity_residual <= 1e-10
        assert not rep.complex_linearity_residual <= 1e-10

    def test_defect_pair(self):
        rep = lf.check_lift(lf.cpn_conjugation_lift(1), samples=30, seed=1)
        assert rep.complex_linearity_residual >= 1.0
        assert rep.anti_linearity_residual <= 1e-10

    def test_identity_defect_pair(self):
        bundle = bd.tautological_complex(1)
        rep = lf.check_lift(identity_lift(bundle), samples=20, seed=2)
        assert rep.complex_linearity_residual <= 1e-12
        # |2 J v| = 2 on unit probes
        assert abs(rep.anti_linearity_residual - 2.0) <= 1e-10

    def test_nan_lift_defects_are_nan(self):
        bundle = bd.tautological_complex(1)
        nan_lift = lf.Lift(bundle, mf.identity_diffeo(bundle.base),
                           lambda x, v: v * np.nan, "nan")
        rep = lf.check_lift(nan_lift, samples=3, seed=0)
        # every residual is NaN, so every check of it fails
        assert np.all(np.isnan([
            rep.base_residual, rep.linearity_residual, rep.min_singular_value,
            rep.isometry_residual, rep.complex_linearity_residual,
            rep.anti_linearity_residual]))
        assert not passes(rep, 1e-10)

    def test_no_complex_structure(self):
        rep = lf.check_lift(identity_lift(bd.tangent_sphere(2)), samples=5)
        assert rep.complex_linearity_residual is None
        assert rep.anti_linearity_residual is None


class TestPullbackConjugationLift:
    @pytest.mark.parametrize("n", [1, 2])
    def test_check_lift(self, n):
        lift = lf.pullback_conjugation_lift(n)
        rep = lf.check_lift(lift, samples=50, seed=4)
        assert passes(rep, 1e-10)
        assert rep.anti_linearity_residual <= 1e-10

    def test_points_near_chart_seam(self):
        lift = lf.pullback_conjugation_lift(2)
        bundle = lift.bundle
        rng = np.random.default_rng(5)
        for _ in range(20):
            # cluster homogeneous coordinates near [1, 0]
            z = np.array([1.0, 0.0]) + 0.02 * (rng.normal(size=2)
                                               + 1j * rng.normal(size=2))
            z /= np.linalg.norm(z)
            x = np.outer(z, z.conj())
            v = bundle.random_fiber_vector(x, rng)
            w = lift.action(x, v)
            y = lift.base_map.forward(x)
            assert bundle.membership_residual(y, w) <= 1e-10

    def test_involution(self):
        lift = lf.pullback_conjugation_lift(2)
        squared = lf.compose(lift, lift)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = random_point(lift.bundle.base, rng)
            v = lift.bundle.random_fiber_vector(x, rng)
            assert np.linalg.norm(squared.action(x, v) - v) <= 1e-10
            assert lift.bundle.base.distance(
                squared.base_map.forward(x), x) <= 1e-10

    def test_n1_matches_plain_conjugation(self):
        # f_1 = id makes the pullback identification trivial
        pb = lf.pullback_conjugation_lift(1)
        plain = lf.cpn_conjugation_lift(1)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = random_point(pb.bundle.base, rng)
            v = pb.bundle.random_fiber_vector(x, rng)
            assert np.linalg.norm(pb.action(x, v) - plain.action(x, v)) <= 1e-12


class TestFiberwiseCorrection:
    def test_transport_lift_is_c_linear(self):
        # the projection connection of a complex subbundle commutes with J,
        # so transport along any track stays C-linear up to integration error
        bundle = bd.tautological_complex(1)
        h = cpn_phase_homotopy(mf.ComplexProjective(1), 1.1)
        lift = lf.lift_from_homotopy(bundle, h, steps=1024)
        rep = lf.check_lift(lift, samples=10, seed=5)
        assert rep.complex_linearity_residual <= 1e-5

    def test_c_linear_lift_gives_conjugation_of_j_itself(self):
        bundle = bd.tautological_complex(1)
        h = cpn_phase_homotopy(mf.ComplexProjective(1), 1.1)
        lift = lf.lift_from_homotopy(bundle, h, steps=256)
        x = random_point(mf.ComplexProjective(1), 6)
        psi = lf.fiberwise_complex_correction(lift, x)
        q = bundle.fiber_projector(x)
        j = bundle.complex_structure(x)
        # K ~ J, and psi conjugates J to K: on the fiber psi is C-linear
        assert np.max(np.abs((psi @ j - j @ psi) @ q)) <= 1e-4

    def test_conjugation_produces_minus_j(self):
        lift = lf.cpn_conjugation_lift(1)
        bundle = lift.bundle
        x = random_point(mf.ComplexProjective(1), 7)
        y = lift.base_map.inverse(x)
        b_y = bundle.fiber_basis(y)
        b_x = bundle.fiber_basis(x)
        m = lift.fiber_matrix_between(y, b_y, b_x)
        j_y = b_y.T @ bundle.complex_structure(y) @ b_y
        j_x = b_x.T @ bundle.complex_structure(x) @ b_x
        k = m @ j_y @ np.linalg.inv(m)
        assert np.max(np.abs(k + j_x)) <= 1e-10
        # and the correction certifies
        psi = lf.fiberwise_complex_correction(lift, x)
        assert psi.shape == (4, 4)

    def test_random_vertical_automorphism_corrects(self):
        bundle = bd.tautological_complex(1)
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)

        def action(x, v):
            q = bundle.fiber_projector(x)
            w = np.matvec(q, np.matvec(a, v))
            # keep it invertible on the fiber: add the original vector back
            return w + v

        lift = lf.Lift(bundle, mf.identity_diffeo(bundle.base), action,
                       "vertical_r_linear")
        for seed in range(10):
            x = random_point(mf.ComplexProjective(1), 100 + seed)
            # internal certification asserts the corrected map commutes
            lf.fiberwise_complex_correction(lift, x)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 123, 999])
    def test_stack_equals_the_per_point_calls_bitwise(self, seed):
        # the 20 points of cpn_conjugation's correction check
        lift = lf.cpn_conjugation_lift(1)
        x = mf.ComplexProjective(1).random_points(
            np.random.default_rng([seed, 300]), 20)
        psi = lf.fiberwise_complex_correction(lift, x)
        assert psi.shape == (20, 4, 4)
        for i in range(20):
            one = lf.fiberwise_complex_correction(lift, x[i])
            assert one.shape == (4, 4)
            assert one.tobytes() == psi[i].tobytes()

    def test_one_singular_point_refuses_the_stack(self):
        bundle = bd.tautological_complex(1)
        x = mf.ComplexProjective(1).random_points(np.random.default_rng(4), 5)

        def action(p, v):
            # the zero map over x[3], the identity elsewhere
            dead = np.all(p == x[3], axis=(-2, -1))[..., None]
            return np.where(dead, 0.0, v)

        lift = lf.Lift(bundle, mf.identity_diffeo(bundle.base), action,
                       "dead_fiber")
        lf.fiberwise_complex_correction(lift, x[[0, 1, 2, 4]])
        with pytest.raises(Singular, match="not invertible"):
            lf.fiberwise_complex_correction(lift, x)

    def test_one_nan_point_refuses_the_stack(self):
        # a NaN fiber matrix has no singular value to compare with 1e-8:
        # it is refused, not let through the invertibility guard
        bundle = bd.tautological_complex(1)
        x = mf.ComplexProjective(1).random_points(np.random.default_rng(4), 5)

        def action(p, v):
            dead = np.all(p == x[3], axis=(-2, -1))[..., None]
            return np.where(dead, np.nan, v)

        lift = lf.Lift(bundle, mf.identity_diffeo(bundle.base), action,
                       "nan_fiber")
        lf.fiberwise_complex_correction(lift, x[[0, 1, 2, 4]])
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            lf.fiberwise_complex_correction(lift, x)
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            lf.fiberwise_complex_correction(lift, x[3])

    def test_requires_complex_structure(self):
        with pytest.raises(NoComplexStructure):
            lf.fiberwise_complex_correction(
                identity_lift(bd.tangent_sphere(2)),
                np.array([0.0, 0.0, 1.0]))


class TestTorusLineLift:
    def test_identity_any_b(self):
        for b in ((1,), (1, 0), (1, 1), (1, 0, 1)):
            lift = torus_line_lift(np.eye(len(b), dtype=int), b)
            x = random_point(mf.Torus(len(b)), 3)
            v = lift.bundle.random_fiber_vector(x, np.random.default_rng(0))
            assert np.linalg.norm(lift.action(x, v) - v) <= 1e-12

    def test_shear_liftable_case(self):
        a = np.array([[1, 1], [0, 1]])
        lift = torus_line_lift(a, (0, 1))
        rep = lf.check_lift(lift, samples=40, seed=5)
        assert passes(rep, 1e-10)
        assert rep.isometry_residual <= 1e-10

    def test_lift_lands_over_the_image_point(self):
        """b^T A = b^T mod 2 but b^T A != b^T, so the section moves:
        u(Ax) != u(x). The lift <u(x), v> u(Ax) passes; the mutant
        <u(x), v> u(x), a lift onto the wrong base point, reads base
        residual 0.9995 here; on a lift with b^T A = b^T exactly the two
        agree."""
        lift = lf.torus_line_lifts([[1, 2], [0, 1]], (1, 0))
        assert isinstance(lift, lf.Lift)
        rep = lf.check_lift(lift, samples=40)
        assert passes(rep, 1e-10)
        assert rep.isometry_residual <= 1e-10

    def test_shear_refused_case(self):
        a = np.array([[1, 1], [0, 1]])
        with pytest.raises(CriterionFails) as err:
            torus_line_lift(a, (1, 0))
        assert err.value.witness is not None
        m = err.value.witness["m"]
        b = np.array([1, 0])
        # the witness demonstrates the parity mismatch
        assert (b @ a @ m) % 2 != (b @ m) % 2

    def test_continuity_across_seam(self):
        # the fiber map just below x1 = 1 must agree with the map at the
        # wrapped representative x1 = 0 (same torus point, same fiber)
        a = np.array([[1, 1], [0, 1]])
        lift = torus_line_lift(a, (0, 1))
        bundle = lift.bundle
        eps = 1e-9
        x_below = np.array([1.0 - eps, 0.4])
        x_wrapped = np.array([0.0, 0.4])
        v = bundle.fiber_basis(x_wrapped)[:, 0]
        w1 = lift.action(x_below, v)
        w2 = lift.action(x_wrapped, v)
        assert np.linalg.norm(w1 - w2) <= 1e-6


def _shears(count, k, bad):
    # count copies of the liftable shear of L_(0,1), with bad at index k
    mats = [np.array([[1, 1], [0, 1]])] * count
    mats[k] = np.asarray(bad)
    return mats


class TestTorusLineLifts:
    def test_one_matrix_messages_are_unchanged(self):
        # the one-matrix refusals of torus_autos and torus_line_lift, word
        # for word
        for bad, message in (
                ([[2, 0], [0, 1]], "matrix is not unimodular (det 2)"),
                ([[1.5, 0], [0, 1]], "matrix is not an integer matrix"),
                (np.eye(3, dtype=int), "expected 2x2, got (3, 3)"),
                ([[1, 2 ** 62], [0, 1]],
                 "torus_auto: inverse round-trip check failed")):
            for build in (lambda: torus_line_lift(bad, (0, 1)),
                          lambda: mf.torus_autos(mf.Torus(2), np.array(bad))):
                with pytest.raises(BadParams) as err:
                    build()
                assert str(err.value) == message
        with pytest.raises(CriterionFails) as err:
            torus_line_lift([[1, 1], [0, 1]], (1, 0))
        assert str(err.value) == (
            "b^T A = [1, 1] != [1, 0] mod 2; representatives x=0 and "
            "x=m=[0, 1] give fiber images of opposite sign ((-1)^{b.Am} = -1 "
            "while (-1)^{b.m} = +1)")

    @pytest.mark.parametrize("k", [0, 3, 6])
    @pytest.mark.parametrize("bad,problem", [
        ([[2, 0], [0, 1]], "is not unimodular (det 2)"),
        ([[1, 0.5], [0, 1]], "is not an integer matrix"),
        ([[1, np.nan], [0, 1]], "is not an integer matrix"),
        (np.eye(3, dtype=int), "has shape (3, 3), not 2x2"),
        ([1, 0], "has shape (2,), not 2x2"),
        ([[1, 2 ** 62], [0, 1]], "failed"),
    ], ids=["det2", "half", "nan", "3x3", "vector", "round_trip"])
    def test_a_bad_matrix_refuses_the_stack_by_its_index(self, k, bad,
                                                         problem):
        mats = _shears(7, k, bad)
        with pytest.raises(BadParams) as err:
            lf.torus_line_lifts(mats, (0, 1))
        if problem == "failed":
            assert str(err.value) == (
                f"torus_auto: inverse round-trip check failed "
                f"(matrix {k} of the stack)")
        else:
            assert str(err.value) == f"matrix {k} of the stack {problem}"

    def test_a_nan_round_trip_refuses_the_stack(self, monkeypatch):
        # a NaN in the round trip of matrix 4 alone: the negated test
        # refuses it instead of reading NaN <= 1e-8 as a pass
        exact = mf.integer_inverse

        def nan_at_4(a):
            inv = exact(a).astype(float)
            inv[4, 0, 0] = np.nan
            return inv

        monkeypatch.setattr(mf, "integer_inverse", nan_at_4)
        with pytest.raises(BadParams, match=r"round-trip check failed "
                                            r"\(matrix 4 of the stack\)"):
            lf.torus_line_lifts(np.stack(_shears(7, 0, [[1, 0], [0, 1]])),
                                (0, 1))

    def test_an_empty_stack_gives_no_lifts(self):
        assert lf.torus_line_lifts(np.zeros((0, 2, 2), dtype=int), (1, 1)) == []

    def test_array_and_sequence_give_the_same_lifts(self):
        mats = _shears(5, 2, [[0, 1], [1, 0]])
        x = np.array([[0.3, 0.9], [0.7, 0.2]])
        v = np.array([[0.6, 0.8], [1.0, 0.0]])
        for b in ((0, 1), (1, 0), (1, 1)):
            from_list = lf.torus_line_lifts(mats, b)
            from_array = lf.torus_line_lifts(np.stack(mats), b)
            for one, other in zip(from_list, from_array):
                assert type(one) is type(other)
                if isinstance(one, lf.Lift):
                    assert np.array_equal(one.action(x, v), other.action(x, v))
                else:
                    assert str(one) == str(other)

    def test_one_matrix_is_the_one_row_case(self):
        # one matrix gives one item, not a list, and the 2-D messages
        x = np.array([[0.3, 0.9], [0.7, 0.2]])
        v = np.array([[0.6, 0.8], [1.0, 0.0]])
        shear = np.array([[1, 1], [0, 1]])
        lift = lf.torus_line_lifts(shear, (0, 1))
        row = lf.torus_line_lifts(shear[None], (0, 1))[0]
        assert np.array_equal(lift.action(x, v), row.action(x, v))
        fails = lf.torus_line_lifts(shear, (1, 0))
        assert isinstance(fails, CriterionFails)
        assert str(fails) == str(lf.torus_line_lifts(shear[None], (1, 0))[0])
        with pytest.raises(BadParams, match=r"^matrix is not unimodular"):
            lf.torus_line_lifts([[2, 0], [0, 1]], (0, 1))

    def test_named_diffeo_makes_one_round_trip(self, monkeypatch):
        calls = []
        checked = mf._check_round_trip
        monkeypatch.setattr(mf, "_check_round_trip",
                            lambda *args: calls.append(args) or checked(*args))
        mf.torus_autos(mf.Torus(2), np.eye(2, dtype=int))
        assert len(calls) == 1
        mf.named_diffeo(mf.Sphere(2), "sphere_reflection")
        assert len(calls) == 2


class TestS1xS2Generators:
    @pytest.mark.parametrize("n", [1, 2])
    def test_s_and_r_pass_exactly(self, n):
        for name in ("s", "r"):
            lift = lf.s1xs2_generator_lift(name, n)
            rep = lf.check_lift(lift, samples=25, seed=6)
            assert passes(rep, 1e-10), name
            assert rep.base_residual <= 1e-10
            assert rep.isometry_residual <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_passes_with_transport_tolerance(self, n):
        lift = lf.s1xs2_generator_lift("a", n, steps=512)
        rep = lf.check_lift(lift, samples=15, seed=7)
        assert passes(rep, 1e-5)
        assert rep.base_residual <= 1e-5

    def test_a_transports_by_the_unitary_family_velocity(self, monkeypatch):
        # the half-turn's exact velocity, and with it the pullback's exact
        # projector differential, drives the transport inside the a lift
        entered = []
        make = lf.cp1_plane_rotation_homotopy

        def counted(model, angle):
            h = make(model, angle)

            def velocity(t, x, xt):
                entered.append(np.shape(t))
                return h.velocity(t, x, xt)

            return mf.Homotopy(h.name, h.family, h.endpoint, h.source, velocity)

        monkeypatch.setattr(lf, "cp1_plane_rotation_homotopy", counted)
        lift = lf.s1xs2_generator_lift("a", 2, steps=64)
        x = random_point(lift.bundle.base, 12)
        lift.action(x, lift.bundle.random_fiber_vector(x, np.random.default_rng(12)))
        # one window of the 64 steps: 129 stage times
        assert entered == [(129,)]

    def test_s_base_involution(self):
        lift = lf.s1xs2_generator_lift("s", 1)
        for seed in range(10):
            x = random_point(lift.bundle.base, seed)
            y = lift.base_map.forward(lift.base_map.forward(x))
            assert lift.bundle.base.distance(x, y) <= 1e-10

    def test_r_theta_zero_slice_is_identity(self):
        lift = lf.s1xs2_generator_lift("r", 2)
        p1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        rng = np.random.default_rng(9)
        for _ in range(10):
            x2 = random_point(mf.ComplexProjective(1), rng)
            x = (p1, x2)
            v = lift.bundle.random_fiber_vector(x, rng)
            assert np.linalg.norm(lift.action(x, v) - v) <= 1e-12

    def test_r_base_rotates_sphere_factor(self):
        lift = lf.s1xs2_generator_lift("r", 1)
        rng = np.random.default_rng(10)
        x1 = random_point(mf.GrassmannReal(1, 2), 11)
        x2 = random_point(mf.ComplexProjective(1), rng)
        theta = float(np.arctan2(2 * x1[0, 1], x1[0, 0] - x1[1, 1]))
        u = np.diag([np.exp(1j * theta), 1.0])
        _, y2 = lift.base_map.forward((x1, x2))
        assert np.max(np.abs(y2 - u @ x2 @ u.conj().T)) <= 1e-12

    def test_unknown_generator(self):
        with pytest.raises(BadParams):
            lf.s1xs2_generator_lift("q", 1)
