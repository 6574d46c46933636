"""The stacked checks of the CLI scenarios against the per-point loops
they replaced, and a guard that keeps them stacked: a scenario's count
of eigensolves and fiber-basis factorisations must not grow with
--samples."""

import math
import sys

import numpy as np
import pytest

from bundlelift import (_kernels, bundles, cli, lifts, manifolds, numkernel,
                        obstruction)
from bundlelift.bundles import trivial
from bundlelift.cli import ScenarioConfig, run_scenario
from bundlelift.errors import CriterionFails
from bundlelift.lifts import (FiberFrame, Lift, compose, frame_lift_view,
                              grassmann_orthogonal_lift, metrize,
                              s1xs2_generator_lift)
from bundlelift.manifolds import (ComplexProjective, Sphere, identity_diffeo,
                                  map_points, random_orthogonal,
                                  rotation_homotopy)
from bundlelift.numkernel import polar_two_metric, stream, worst

from helpers import torus_line_lift


def _residuals(name, **config):
    report, _ = run_scenario(ScenarioConfig(scenario=name, **config))
    return {c["name"]: c["residual"] for c in report["checks"]}


def _one_point_distance(a, b):
    # the one-point distance of Sphere, GrassmannReal, ComplexProjective
    # and of a Product of them, as the loops read it
    if isinstance(a, tuple):
        return max(_one_point_distance(a[0], b[0]),
                   _one_point_distance(a[1], b[1]))
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


# (tag, block) of every draw the loops make, for the test to hold against
# the scenarios' own draws
LOOP_DRAWS = []


def _rows(model, seed, tag, count):
    # the points of a scenario's block draw from stream(seed, tag), one at
    # a time
    block = model.random_points(stream(seed, tag), count)
    LOOP_DRAWS.append((tag, block))
    return [map_points(lambda a: a[i], block) for i in range(count)]


def _points_equal(a, b):
    if isinstance(a, tuple):
        return all(_points_equal(p, q) for p, q in zip(a, b))
    return np.array_equal(a, b)


# -- the per-point loops, kept as oracles -------------------------------------


def _metrize_random_loop(seed, samples):
    model = Sphere(2)
    bundle = trivial(model, 3)
    rng = stream(seed, 0)
    a = rng.normal(size=(3, 3)) + 2.5 * np.eye(3)
    s = rng.normal(size=(3, 3))
    vert = Lift(bundle, identity_diffeo(model),
                lambda x, v: np.matvec(a + 0.2 * np.asarray(x)[..., 0, None, None]
                                       * s, v), "vertical_random")
    iso = metrize(vert)
    iso2 = metrize(iso)
    idem = fact = 0.0
    for x in _rows(model, seed, 500, min(samples, 20)):
        m1 = iso.fiber_matrix_in_bases(x)
        m2 = iso2.fiber_matrix_in_bases(x)
        idem = worst(idem, float(np.max(np.abs(m1 - m2))))
        f = vert.fiber_matrix_in_bases(x)
        psi, xi = polar_two_metric(f)
        fact = worst(fact, float(np.max(np.abs(xi @ psi - f))))
    return {"metrize.idempotence": idem, "metrize.factorization": fact}


def _frame_view_loop(seed, samples):
    lift = grassmann_orthogonal_lift(random_orthogonal(4, seed), 2)
    bundle = lift.bundle
    g = random_orthogonal(2, seed + 1)
    gram_defect = equiv = 0.0
    for x in _rows(bundle.base, seed, 100, min(samples, 50)):
        frame = FiberFrame(x, bundle.fiber_basis(x))
        out = frame_lift_view(lift, frame)
        gram = out.vectors.T @ out.vectors
        gram_defect = worst(gram_defect, float(np.max(np.abs(gram - np.eye(2)))))
        out_rot = frame_lift_view(lift, FiberFrame(x, frame.vectors @ g))
        equiv = worst(equiv, float(np.max(np.abs(out_rot.vectors
                                                 - out.vectors @ g))))
    return {"frame.output_gram": gram_defect, "frame.equivariance": equiv}


def _grassmann_action_loop(seed, samples):
    l1 = grassmann_orthogonal_lift(random_orthogonal(4, seed), 2)
    l2 = grassmann_orthogonal_lift(random_orthogonal(4, seed + 1), 2)
    comp = compose(l1, l2)
    hom = 0.0
    for x in _rows(l1.bundle.base, seed, 200, min(samples, 100)):
        hom = worst(hom, _one_point_distance(
            comp.base_map.forward(x),
            l1.base_map.forward(l2.base_map.forward(x))))
    return {"compose.base_homomorphism": hom}


def _homotopy_endpoint_loop(seed, samples):
    h = rotation_homotopy(Sphere(2), (0, 1), np.pi / 2)
    gap = 0.0
    for x in _rows(Sphere(2), seed, 1000, min(samples, 100)):
        gap = worst(gap, float(np.linalg.norm(h.family(1.0, x)
                                              - h.endpoint.forward(x))))
    return {"homotopy.endpoint_agreement": gap}


def _s1xs2_involution_loop(seed, samples):
    out = {}
    for n in (1, 2):
        s_lift = s1xs2_generator_lift("s", n, steps=64)
        roundtrip = 0.0
        for x in _rows(s_lift.bundle.base, seed, 900, min(samples, 20)):
            y = s_lift.base_map.forward(s_lift.base_map.forward(x))
            roundtrip = worst(roundtrip, _one_point_distance(x, y))
        out[f"s_lift.n{n}.involution"] = roundtrip
    return out


def _cpn_correction_loop(seed, samples):
    lift = lifts.cpn_conjugation_lift(1)
    bundle = lift.bundle
    corr = 0.0
    for x in _rows(ComplexProjective(1), seed, 300, 20):
        y = lift.base_map.inverse(x)
        psi = lifts.fiberwise_complex_correction(lift, x)
        j_x = bundle.complex_structure(x)
        j_y = bundle.complex_structure(y)
        corrected = psi @ lift.fiber_matrix(y)
        corr = worst(corr, float(np.max(np.abs(
            (corrected @ j_y - j_x @ corrected) @ bundle.fiber_projector(y)))))
    return {"fiberwise_correction.commutation": corr}


LOOPS = [
    ("metrize_random", _metrize_random_loop),
    ("frame_view", _frame_view_loop),
    ("grassmann_action", _grassmann_action_loop),
    ("homotopy_lift_sphere", _homotopy_endpoint_loop),
    ("s1xs2_generators", _s1xs2_involution_loop),
    ("cpn_conjugation", _cpn_correction_loop),
]


@pytest.mark.parametrize("seed,samples", [(0, 3), (7, 40), (42, 200)])
@pytest.mark.parametrize("scenario,loop", LOOPS, ids=[n for n, _ in LOOPS])
def test_stacked_checks_equal_the_per_point_loops(monkeypatch, scenario, loop,
                                                 seed, samples):
    # the scenario's draws, by tag: some residuals (the base homomorphism,
    # the endpoint agreement, the involution round trip) read exactly 0 on
    # any points, so the loop's points are held to the scenario's as well
    drawn = []
    draw = cli._draw

    def recorded(model, seed, tag, count):
        points = draw(model, seed, tag, count)
        drawn.append((tag, points))
        return points

    monkeypatch.setattr(cli, "_draw", recorded)
    # transport steps do not enter these checks; 64 keeps the lifts cheap
    got = _residuals(scenario, seed=seed, samples=samples, transport_steps=64)
    LOOP_DRAWS.clear()
    for name, residual in loop(seed, samples).items():
        assert got[name] == residual, name
    assert LOOP_DRAWS
    for tag, block in LOOP_DRAWS:
        assert any(t == tag and _points_equal(block, points) for t, points in drawn), tag


# -- the work-count guard -----------------------------------------------------


def _count_factorisations(monkeypatch):
    """Count numkernel.sym_eigh calls from every module that holds it, and
    BundleModel.fiber_basis calls (one pivoted Cholesky of a stack each)."""
    calls = []
    original = numkernel.sym_eigh
    original_basis = bundles.BundleModel.fiber_basis

    def counted(s):
        calls.append(np.shape(s))
        return original(s)

    def counted_basis(self, x):
        basis = original_basis(self, x)
        calls.append(basis.shape)
        return basis

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bundlelift" and \
                getattr(module, "sym_eigh", None) is original:
            monkeypatch.setattr(module, "sym_eigh", counted)
    monkeypatch.setattr(bundles.BundleModel, "fiber_basis", counted_basis)
    return calls


@pytest.mark.parametrize("scenario", ["metrize_random", "frame_view",
                                      "ambient_projection"])
def test_eigensolve_count_does_not_grow_with_samples(monkeypatch, scenario):
    # a per-point loop makes one eigensolve or basis factorisation per
    # point, so its count would follow min(samples, loop length)
    calls = _count_factorisations(monkeypatch)
    counts = []
    for samples in (5, 200):
        calls.clear()
        run_scenario(ScenarioConfig(scenario=scenario, samples=samples))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_cpn_conjugation_corrects_all_its_points_in_one_call(monkeypatch):
    # one stacked correction, hence one stacked conjugator call, for the
    # scenario's 20 points, not one of each per point
    shapes = {"fiberwise_complex_correction": [],
              "complex_structure_conjugator": []}
    for name, module in (("fiberwise_complex_correction", lifts),
                         ("complex_structure_conjugator", numkernel)):
        original = getattr(module, name)

        def counted(lift_or_j, x_or_k, _name=name, _original=original):
            shapes[_name].append(np.shape(x_or_k))
            return _original(lift_or_j, x_or_k)

        for holder in (cli, lifts, numkernel):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, counted)
    assert _residuals("cpn_conjugation", samples=5)[
        "fiberwise_correction.commutation"] <= 1e-8
    assert shapes == {"fiberwise_complex_correction": [(20, 2, 2)],
                      "complex_structure_conjugator": [(20, 2, 2)]}


@pytest.mark.parametrize("steps,window", [(1024, None), (64, 10)])
def test_torus_sweep_transports_every_w1_loop_in_one_window_walk(monkeypatch, steps,
                                                                 window):
    # the 28 coordinate loops of the 11 torus line bundles share each RK4
    # window: ceil(steps / window) kernel calls of 28 tracks each, where one
    # transport per bit vector makes 11 walks of 1-3 tracks; a window is
    # rounded down to whole segments of steps / 32 steps, and each window
    # makes one more call at 2h for the error estimate
    walks = {}
    kernel = _kernels.rk4_transport

    def counted(qp, qnode, x0, h, **kwargs):
        walks.setdefault(h, []).append((qnode.shape[0] - 1, qp.shape[1]))
        return kernel(qp, qnode, x0, h, **kwargs)

    monkeypatch.setattr(_kernels, "rk4_transport", counted)
    if window is not None:
        monkeypatch.setattr(bundles, "TRANSPORT_CHUNK_BYTES",
                            28 * (3 * window + 2) * 2 * 2 * 8)
    else:
        window = (bundles.TRANSPORT_CHUNK_BYTES // (28 * 2 * 2 * 8) - 2) // 3
        window -= window % (steps // 32)
    got = _residuals("torus_sweep", transport_steps=steps)
    assert got["w1.profile_mismatches"] == 0
    assert sorted(walks) == [1 / steps, 2 / steps]
    calls, doubled = walks[1 / steps], walks[2 / steps]
    assert len(calls) == math.ceil(steps / window)
    assert sum(c[0] for c in calls) == steps
    assert all(c[1] == 28 for c in calls)
    assert [2 * c[0] for c in doubled] == [c[0] for c in calls]
    assert all(c[1] == 28 for c in doubled)
    if steps == 1024:
        assert [c[0] for c in calls] == [384, 384, 256]
        assert [c[0] for c in doubled] == [192, 192, 128]


def _count_generators(monkeypatch):
    """The (seed, tag) of every numkernel.stream construction."""
    seeds = []
    original = stream.__init__

    def counted(self, seed, tag):
        seeds.append((seed, tag))
        original(self, seed, tag)

    monkeypatch.setattr(stream, "__init__", counted)
    return seeds


def test_torus_sweep_builds_one_generator_for_its_draws(monkeypatch):
    # one stream for the 220 matrices, and no generator per matrix, per lift
    # or per named_diffeo call: the round trip draws its three points once
    # per model (T^1, T^2, T^3 on a cold cache)
    manifolds._round_trip_points.cache_clear()
    seeds = _count_generators(monkeypatch)
    assert _residuals("torus_sweep", seed=5)["criterion.lift_construction_agreement"] == 0
    assert seeds == [(5, 600), (3, 0), (3, 0), (3, 0)]
    seeds.clear()
    _residuals("torus_sweep", seed=6)
    assert seeds == [(6, 600)]
    seeds.clear()
    for k in range(50):
        torus_line_lift(np.eye(3, dtype=np.int64), (1, 0, k % 2))
    assert seeds == []


def _sweep_cases(seed):
    # the bit vectors of torus_sweep with their 20 matrices each, drawn as
    # the scenario draws them: one block per bit vector from stream(seed, 600)
    rng = stream(seed, 600)
    return [(tuple(int(x) for x in np.binary_repr(m, width=n)),
             manifolds.random_unimodular(n, rng, 20))
            for n in (1, 2, 3) for m in range(1, 2 ** n)]


@pytest.mark.parametrize("seed", [42, 7])
def test_stacked_torus_lifts_equal_the_one_matrix_lifts(seed):
    # each sweep matrix: built or refused alike, the same refusal message
    # and witness, and for a built lift the same base map and bitwise the
    # same action on a probe stack
    built = refused = 0
    for b, mats in _sweep_cases(seed):
        torus = manifolds.Torus(len(b))
        x = torus.random_points(np.random.default_rng([seed, 9]), 16) * 3.0
        v = np.random.default_rng([seed, 10]).normal(size=(16, 2))
        stacked = lifts.torus_line_lifts(mats, b)
        assert len(stacked) == len(mats)
        for a, got in zip(mats, stacked):
            try:
                want = torus_line_lift(a, b)
            except CriterionFails as err:
                want = err
            assert type(got) is type(want)
            if isinstance(want, CriterionFails):
                refused += 1
                assert str(got) == str(want)
                assert want.witness.keys() == got.witness.keys()
                for key, value in want.witness.items():
                    assert got.witness[key].dtype == value.dtype
                    assert np.array_equal(got.witness[key], value)
            else:
                built += 1
                assert (got.bundle.key, got.provenance) == (
                    want.bundle.key, want.provenance)
                assert got.action(x, v).tobytes() == want.action(x, v).tobytes()
                for image in ("forward", "inverse"):
                    assert (getattr(got.base_map, image)(x).tobytes()
                            == getattr(want.base_map, image)(x).tobytes())
    assert built + refused == 220 and built > 0 and refused > 0


def test_torus_sweep_validates_and_builds_each_bundle_at_most_twice(
        monkeypatch):
    # one integer_inverse and one torus_line per bit vector for the lifts
    # (torus_criterion and w1_profiles make the others), not one per matrix
    calls = {"integer_inverse": 0, "torus_line": 0}
    for name in calls:
        original = getattr(manifolds if name == "integer_inverse" else bundles,
                           name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (bundles, cli, lifts, manifolds, obstruction):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert _residuals("torus_sweep", seed=42)[
        "criterion.lift_construction_agreement"] == 0
    bit_vectors = len(_sweep_cases(42))
    assert bit_vectors == 11
    assert 0 < calls["integer_inverse"] <= 2 * bit_vectors
    assert 0 < calls["torus_line"] <= 2 * bit_vectors
