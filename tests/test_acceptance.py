"""Acceptance suite: one test per criterion, each at its stated tolerance.

The terminal summary (see conftest) prints one pass/fail line per
criterion. Reduced sample counts are used where a check is
sample-size-independent; tolerances are never loosened.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import conftest
from bundlelift import bundles as bd, lifts as lf, manifolds as mf
from bundlelift import obstruction as ob
from bundlelift.cli import COCYCLE_TOL, SCENARIOS
from bundlelift.errors import BundleLiftError
from bundlelift.gluing import (LocalLiftDatum, TransitionDatum,
                               cocycle_compat_check)
from bundlelift.numkernel import polar_two_metric

from helpers import (cpn_phase_homotopy, passes, random_point,
                     torus_line_lift, unimodular)


def _criterion(number, description):
    conftest.start_criterion(number, description)
    return number


def _done(number):
    conftest.pass_criterion(number)


def test_criterion_1_chern_anchors():
    n = _criterion(1, "Chern anchors 0/-1/-2/-3, stable at mesh 4 and 5, "
                      "with c1(f_n^*L) = n c1(L)")
    gamma = bd.tautological_complex(1)
    bundles = {
        "trivial": bd.trivial(mf.ComplexProjective(1), 1, complex_fibers=True),
        "gamma1": gamma,
        "f2": bd.pullback(mf.cp1_power_map(2), gamma),
        "f3": bd.pullback(mf.cp1_power_map(3), gamma),
    }
    expected = {"trivial": 0, "gamma1": -1, "f2": -2, "f3": -3}
    values = {}
    for name, bundle in bundles.items():
        at4 = ob.lattice_chern_number(bundle, 4)
        at5 = ob.lattice_chern_number(bundle, 5)
        assert at4.value == at5.value == expected[name], name
        assert at4.stable and at5.stable, name
        values[name] = at4.value
    # convention-independent core claim
    for k in (2, 3):
        assert values[f"f{k}"] == k * values["gamma1"]
    _done(n)


def test_criterion_2_conjugation_obstruction():
    n = _criterion(2, "conjugation on CP^1: c1 flip -1 vs +1, anti-linear "
                      "lift passes, C-defect >= 1, corrections <= 1e-8")
    lift = lf.cpn_conjugation_lift(1)
    report = ob.pullback_invariance_report(lift.base_map, lift.bundle,
                                           mesh_level=4)
    assert report["c1"] == -1
    assert report["c1_pullback"] == 1
    assert report["lift_obstructed"]

    rep = lf.check_lift(lift, samples=50, seed=7)
    assert passes(rep, 1e-10)
    assert rep.anti_linearity_residual <= 1e-10
    assert rep.complex_linearity_residual >= 1.0

    bundle = lift.bundle
    for i in range(20):
        x = random_point(mf.ComplexProjective(1), 9000 + i)
        psi = lf.fiberwise_complex_correction(lift, x)
        y = lift.base_map.inverse(x)
        b_y = bundle.fiber_basis(y)
        b_x = bundle.fiber_basis(x)
        m = lift.fiber_matrix_between(y, b_y, b_x)
        j_y = b_y.T @ bundle.complex_structure(y) @ b_y
        j_x = b_x.T @ bundle.complex_structure(x) @ b_x
        corrected = (b_x.T @ psi @ b_x) @ m
        assert np.max(np.abs(corrected @ j_y - j_x @ corrected)) <= 1e-8
    _done(n)


def test_criterion_3_homotopy_lifting_order():
    n = _criterion(3, "transport lifts pass at 1024 steps (<= 1e-5) and the "
                      "integration error drops >= 10x at 4096 steps")
    cases = [
        (bd.tangent_sphere(2),
         mf.rotation_homotopy(mf.Sphere(2), (0, 1), np.pi / 2),
         mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.8 * np.pi),
         mf.Sphere(2)),
        (bd.tautological_complex(1),
         cpn_phase_homotopy(mf.ComplexProjective(1), 2 * np.pi / 3),
         cpn_phase_homotopy(mf.ComplexProjective(1), 6 * np.pi),
         mf.ComplexProjective(1)),
    ]
    for bundle, h_check, h_order, model in cases:
        lift = lf.lift_from_homotopy(bundle, h_check, steps=1024)
        rep = lf.check_lift(lift, samples=12, seed=3)
        assert passes(rep, 1e-5), bundle.key
        assert rep.isometry_residual <= 1e-5
        if bundle.has_complex_structure:
            assert rep.complex_linearity_residual <= 1e-5

        # order-of-accuracy evidence: check_lift residuals saturate at the
        # roundoff floor far below 1e-5, so measure the transport operator
        # against a 16384-step reference (exact projector derivatives keep
        # the finite-difference noise floor out of the comparison)
        for i in range(3):
            x = random_point(model, 40 + i)
            path = bd.homotopy_path(h_order, x)
            ref = bd.transport_operator(bundle, path, steps=16384)
            err = {s: float(np.max(np.abs(
                bd.transport_operator(bundle, path, steps=s) - ref)))
                   for s in (1024, 4096)}
            assert err[1024] <= 1e-5
            assert err[1024] >= 10.0 * err[4096], (bundle.key, i, err)
    _done(n)


def test_criterion_4_polar_metrization():
    n = _criterion(4, "metrize: isometry, factorization and idempotence all "
                      "<= 1e-8 on 20 seeded non-isometric lifts")
    model = mf.Sphere(2)
    bundle = bd.trivial(model, 3)
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        a = rng.normal(size=(3, 3)) + 2.5 * np.eye(3)
        s = rng.normal(size=(3, 3))
        field = lambda x, a=a, s=s: a + 0.2 * float(x[0]) * s
        lift = lf.Lift(bundle, mf.identity_diffeo(model),
                       lambda x, v, f=field: np.matvec(f(x), v), f"vert{i}")
        iso = lf.metrize(lift)
        iso2 = lf.metrize(iso)
        for j in range(4):
            x = random_point(model, 50 * i + j)
            b = bundle.fiber_basis(x)
            m_iso = iso.fiber_matrix_between(x, b, b)
            assert np.max(np.abs(m_iso.T @ m_iso - np.eye(3))) <= 1e-8
            f = lift.fiber_matrix_between(x, b, b)
            psi, xi = polar_two_metric(f)
            assert np.max(np.abs(xi @ psi - f)) <= 1e-8
            m_iso2 = iso2.fiber_matrix_between(x, b, b)
            assert np.max(np.abs(m_iso2 - m_iso)) <= 1e-8
    _done(n)


def test_criterion_5_torus_criterion_sweep():
    n = _criterion(5, "torus criterion: fast mod-2 verdict == subgroup "
                      "oracle and == lift constructibility on the full sweep")
    total = 0
    for dim in (1, 2, 3):
        for m in range(1, 2 ** dim):
            b = tuple(int(x) for x in np.binary_repr(m, width=dim))
            for i in range(20):
                a = unimodular(dim, 7777 + 131 * total)
                res = ob.torus_criterion(a, b)
                assert res.fast_verdict == res.oracle_verdict
                try:
                    torus_line_lift(a, b)
                    built = True
                except BundleLiftError:
                    built = False
                assert built == res.fast_verdict
                total += 1
    assert total == (1 + 3 + 7) * 20
    _done(n)


def test_criterion_6_degrees():
    n = _criterion(6, "degrees +1/-1/2/3 stable across mesh levels 4 and 5; "
                      "deg(f2 . f2) = 4")
    sigma = mf.named_diffeo(mf.Sphere(2), "sphere_reflection")
    cases = [(mf.identity_diffeo(mf.Sphere(2)), 1), (sigma, -1),
             (mf.sphere_power_map(2), 2), (mf.sphere_power_map(3), 3)]
    for f, expected in cases:
        assert mf.degree(f, 4) == expected
        assert mf.degree(f, 5) == expected
    f2 = mf.sphere_power_map(2)
    assert mf.degree(lambda x: f2.forward(f2.forward(x)), 4) == 4
    _done(n)


def test_criterion_7_w1_profiles():
    n = _criterion(7, "w1 holonomy profiles equal ((-1)^{b_i}) for every "
                      "b != 0, n <= 3, at 1024 transport steps")
    for dim in (1, 2, 3):
        for m in range(1, 2 ** dim):
            b = tuple(int(x) for x in np.binary_repr(m, width=dim))
            profile = ob.w1_profiles([b], steps=1024)[0]
            assert tuple(profile) == tuple((-1) ** bi for bi in b), b
    _done(n)


def test_criterion_8_group_structure():
    n = _criterion(8, "composition/inversion/base-homomorphism residuals "
                      "<= 1e-8 on 100 probes; homotopy-composed lift passes")
    l1 = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 21), 2)
    l2 = lf.grassmann_orthogonal_lift(mf.random_orthogonal(4, 22), 2)
    comp = lf.compose(l1, l2)
    ident = lf.compose(l1, lf.invert(l1))
    base = l1.bundle.base
    for i in range(100):
        rng = np.random.default_rng([17, i])
        x = random_point(base, rng)
        v = l1.bundle.random_fiber_vector(x, rng)
        direct = l1.base_map.forward(l2.base_map.forward(x))
        assert base.distance(comp.base_map.forward(x), direct) <= 1e-8
        assert np.linalg.norm(ident.action(x, v) - v) <= 1e-8
        assert base.distance(ident.base_map.forward(x), x) <= 1e-8

    sigma = mf.named_diffeo(mf.Sphere(2), "sphere_reflection")
    h = mf.rotation_homotopy(mf.Sphere(2), (0, 2), 0.9)
    composed = lf.compose(lf.differential_lift(sigma),
                          lf.lift_from_homotopy(bd.tangent_sphere(2), h,
                                                steps=1024))
    rep = lf.check_lift(composed, samples=12, seed=5)
    assert passes(rep, 1e-5)
    _done(n)


def test_criterion_9_gluing():
    n = _criterion(9, "constructed cocycle datum residual <= 1e-12; rotation "
                      "0.1 perturbation scores within 10% of 0.1, incompatible")
    points = np.random.default_rng(31).uniform(-1, 1, size=(10, 2))
    phi = mf.Diffeo("flip", lambda x: x * np.array([1.0, -1.0]),
                    lambda x: x * np.array([1.0, -1.0]), None)

    def rot(angle, axes=(0, 1)):
        m = np.tile(np.eye(3), np.shape(angle) + (1, 1))
        i, j = axes
        c, s = np.cos(angle), np.sin(angle)
        m[..., i, i] = c
        m[..., j, j] = c
        m[..., i, j] = -s
        m[..., j, i] = s
        return m

    alpha1 = lambda x: rot(0.5 * x[:, 0]) @ rot(0.2 * x[:, 1], (1, 2))
    alpha_t = lambda x: rot(0.3 * x[:, 0] + 0.2, (0, 2))
    alpha2 = lambda x: (np.linalg.inv(alpha_t(phi.forward(x)))
                        @ alpha1(x) @ alpha_t(x))
    good = cocycle_compat_check(LocalLiftDatum("U1", points, alpha1),
                                LocalLiftDatum("U2", points, alpha2),
                                TransitionDatum(points, alpha_t), phi)
    assert good <= 1e-12
    assert good <= COCYCLE_TOL  # compatible; a NaN fails

    bump = rot(0.1)
    bad = cocycle_compat_check(
        LocalLiftDatum("U1", points, alpha1),
        LocalLiftDatum("U2", points, lambda x: alpha2(x) @ bump),
        TransitionDatum(points, alpha_t), phi)
    assert bad > COCYCLE_TOL  # incompatible; a NaN fails
    assert abs(bad - 0.1) <= 0.01
    _done(n)


def test_criterion_10_s1xs2_generators():
    n = _criterion(10, "S^1 x S^2 generator lifts pass (1e-10 formula / 1e-5 "
                       "composed) for n in {1,2}; rotation fixes theta=0 fibers")
    for power in (1, 2):
        for name in ("s", "r"):
            lift = lf.s1xs2_generator_lift(name, power)
            rep = lf.check_lift(lift, samples=20, seed=11)
            assert passes(rep, 1e-10), (name, power)
        a_lift = lf.s1xs2_generator_lift("a", power, steps=1024)
        rep = lf.check_lift(a_lift, samples=12, seed=11)
        assert passes(rep, 1e-5), power

        r_lift = lf.s1xs2_generator_lift("r", power)
        p1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        rng = np.random.default_rng(power)
        for _ in range(10):
            x = (p1, random_point(mf.ComplexProjective(1), rng))
            v = r_lift.bundle.random_fiber_vector(x, rng)
            assert np.linalg.norm(r_lift.action(x, v) - v) <= 1e-12
    _done(n)


@pytest.mark.parametrize("batch", [0, 1, 2])
def test_criterion_11_reproducibility(batch):
    if batch == 0:
        _criterion(11, "every scenario report byte-identical across two runs "
                       "(same seed, --no-timestamp)")
    names = sorted(SCENARIOS)
    chunk = names[batch::3]
    procs = []
    for name in chunk:
        for run in range(2):
            out = f"/tmp/bundlelift_accept_{name}_{run}.json"
            procs.append((name, out, subprocess.Popen(
                [sys.executable, "-m", "bundlelift", "scenario", name,
                 "--samples", "8", "--steps", "64", "--mesh", "3",
                 "--no-timestamp", "--json", out],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)))
    for _, _, proc in procs:
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err.decode()
    for name in chunk:
        blobs = [open(f"/tmp/bundlelift_accept_{name}_{run}.json", "rb").read()
                 for run in range(2)]
        assert blobs[0] == blobs[1], name
        assert json.loads(blobs[0])["overall"] is True, name
    if batch == 2:
        _done(11)
