import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlelift import _kernels, bundles as bd, manifolds as mf, obstruction as ob
from bundlelift.cli import ScenarioConfig, run_scenario
from bundlelift.errors import BadParams, DegeneratePlaquette

from helpers import (cpn_unitary, holonomy_sign, oracle_line_bundles,
                     spiky_bundle, torus_line_lift, unimodular)


class TestLatticeChernNumber:
    def test_trivial_line_is_zero(self):
        bundle = bd.trivial(mf.ComplexProjective(1), 1, complex_fibers=True)
        res = ob.lattice_chern_number(bundle, 3)
        assert res.value == 0
        assert res.stable
        assert abs(res.raw) <= 1e-10

    def test_tautological_anchor(self):
        res = ob.lattice_chern_number(bd.tautological_complex(1), 4)
        assert res.value == -1
        assert res.stable
        assert abs(res.raw - (-1)) <= 0.05

    @pytest.mark.parametrize("n", [2, 3])
    def test_pullback_scaling(self, n):
        bundle = bd.pullback(mf.cp1_power_map(n), bd.tautological_complex(1))
        res = ob.lattice_chern_number(bundle, 4)
        assert res.value == -n
        assert res.stable

    def test_ratio_is_convention_independent(self):
        base = ob.lattice_chern_number(bd.tautological_complex(1), 4)
        for n in (2, 3):
            pb = ob.lattice_chern_number(
                bd.pullback(mf.cp1_power_map(n), bd.tautological_complex(1)), 4)
            assert pb.value == n * base.value

    def test_sphere_base_accepted(self):
        # conjugate the tautological projector field through the chart
        tc = bd.tautological_complex(1)
        to_cp1 = mf.SmoothMap("chart", mf.sphere_to_cp1, mf.Sphere(2),
                              mf.ComplexProjective(1))
        bundle = bd.pullback(to_cp1, tc)
        assert ob.lattice_chern_number(bundle, 3).value == -1

    def test_rejects_real_bundle(self):
        with pytest.raises(BadParams):
            ob.lattice_chern_number(bd.tangent_sphere(2), 4)

    def test_rejects_coarse_mesh(self):
        with pytest.raises(BadParams):
            ob.lattice_chern_number(bd.tautological_complex(1), 2)

    def test_naturality_with_degree(self):
        gamma = bd.tautological_complex(1)
        c_gamma = ob.lattice_chern_number(gamma, 4).value
        cases = [
            (mf.identity_diffeo(mf.ComplexProjective(1)),
             mf.identity_diffeo(mf.Sphere(2)), None),
            (mf.named_diffeo(mf.ComplexProjective(1), "cpn_conjugation"),
             mf.named_diffeo(mf.Sphere(2), "sphere_reflection"), None),
            (mf.cp1_power_map(2), mf.sphere_power_map(2), None),
            (mf.cp1_power_map(3), mf.sphere_power_map(3), None),
        ]
        for f_cp1, f_s2, _ in cases:
            deg = mf.degree(f_s2, 4)
            c_pb = ob.lattice_chern_number(bd.pullback(f_cp1, gamma), 4).value
            assert c_pb == deg * c_gamma


class TestPullbackInvariance:
    def test_identity_not_obstructed(self):
        rep = ob.pullback_invariance_report(
            mf.identity_diffeo(mf.ComplexProjective(1)),
            bd.tautological_complex(1), mesh_level=3)
        assert rep["c1"] == rep["c1_pullback"] == -1
        assert not rep["lift_obstructed"]

    def test_conjugation_obstructed(self):
        rep = ob.pullback_invariance_report(
            mf.named_diffeo(mf.ComplexProjective(1), "cpn_conjugation"),
            bd.tautological_complex(1), mesh_level=4)
        assert rep["c1"] == -1
        assert rep["c1_pullback"] == 1
        assert rep["lift_obstructed"]

    def test_rotation_not_obstructed(self):
        rot = cpn_unitary(mf.ComplexProjective(1), np.diag([np.exp(0.9j), 1.0]))
        rep = ob.pullback_invariance_report(rot, bd.tautological_complex(1),
                                            mesh_level=3)
        assert rep["c1"] == rep["c1_pullback"] == -1
        assert not rep["lift_obstructed"]


def _all_bits(n):
    return [tuple(int(x) for x in np.binary_repr(m, width=n))
            for m in range(1, 2 ** n)]


class TestTorusCriterion:
    def test_identity_always_liftable(self):
        for n in (1, 2, 3):
            for b in _all_bits(n):
                res = ob.torus_criterion(np.eye(n, dtype=int), b)
                assert res.fast_verdict and res.oracle_verdict

    def test_shear_cases(self):
        a = np.array([[1, 1], [0, 1]])
        assert not ob.torus_criterion(a, (1, 0)).fast_verdict
        assert ob.torus_criterion(a, (0, 1)).fast_verdict

    def test_exhaustive_sweep_fast_equals_oracle(self):
        total = 0
        for n in (1, 2, 3):
            for b in _all_bits(n):
                for i in range(20):
                    a = unimodular(n, 1000 * n + 31 * i + hash(b) % 97)
                    res = ob.torus_criterion(a, b)
                    assert res.fast_verdict == res.oracle_verdict
                    total += 1
        assert total == (1 + 3 + 7) * 20

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_property_sweep(self, n, seed):
        rng = np.random.default_rng(seed)
        b = tuple(rng.integers(0, 2, size=n).tolist())
        if not any(b):
            b = tuple([1] + [0] * (n - 1))
        a = unimodular(n, seed)
        res = ob.torus_criterion(a, b)
        assert res.fast_verdict == res.oracle_verdict

    def test_rejects_non_unimodular(self):
        with pytest.raises(BadParams):
            ob.torus_criterion(np.array([[2, 0], [0, 1]]), (1, 0))

    def test_rejects_zero_bits(self):
        with pytest.raises(BadParams):
            ob.torus_criterion(np.eye(2, dtype=int), (0, 0))

    def test_generators_span_expected_shapes(self):
        gens = ob.subgroup_generators((1, 0, 1))
        arrs = {tuple(g) for g in gens}
        assert (0, 1, 0) in arrs        # free coordinate
        assert (2, 0, 0) in arrs        # doubled first set bit
        assert (1, 0, 1) in arrs        # pair of set bits


def _per_matrix_criterion(a, b):
    # the per-matrix criterion that the stacked torus_criterion replaced,
    # kept as its oracle: Python integers against the subgroup generators
    b = np.asarray(b, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    fast = bool(np.all(np.mod(b @ a - b, 2) == 0))
    oracle = all(int(b @ (a @ g)) % 2 == 0 for g in ob.subgroup_generators(b))
    return fast, oracle


class TestStackedCriterion:
    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=3),
           st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1,
                    max_size=12))
    def test_stack_equals_per_matrix_calls(self, n, seeds):
        mats = np.stack([unimodular(n, s) for s in seeds])
        inv = mf.integer_inverse(mats)
        assert inv.dtype == np.int64
        for a, a_inv in zip(mats, inv):
            one = mf.integer_inverse(a)
            assert one.dtype == a_inv.dtype and one.tobytes() == a_inv.tobytes()
        for b in _all_bits(n):
            res = ob.torus_criterion(mats, b)
            assert res.fast_verdict.shape == res.oracle_verdict.shape == (len(seeds),)
            for i, a in enumerate(mats):
                one = ob.torus_criterion(a, b)
                assert ((one.fast_verdict, one.oracle_verdict)
                        == _per_matrix_criterion(a, b))
                assert res.fast_verdict[i] == one.fast_verdict
                assert res.oracle_verdict[i] == one.oracle_verdict

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=3),
           st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=2,
                    max_size=8),
           st.data())
    def test_bad_matrix_in_stack_is_named(self, n, seeds, data):
        mats = np.stack([unimodular(n, s) for s in seeds])
        k = data.draw(st.integers(min_value=0, max_value=len(seeds) - 2))
        b = (1,) + (0,) * (n - 1)
        singular = mats.copy()
        singular[k, 0] = 0
        singular[k + 1, 0] = 0  # a later bad matrix: the first one is named
        fractional = mats.astype(float)
        fractional[k, 0, 0] += 0.5
        fractional[k + 1, 0, 0] += 0.5
        for bad in (singular, fractional):
            with pytest.raises(BadParams, match=rf"^matrix {k} of the stack "):
                mf.integer_inverse(bad)
            with pytest.raises(BadParams, match=rf"^matrix {k} of the stack "):
                ob.torus_criterion(bad, b)

    def test_one_bad_matrix_keeps_its_message(self):
        with pytest.raises(BadParams, match=r"^matrix is not unimodular \(det 2\)"):
            mf.integer_inverse(np.array([[2, 0], [0, 1]]))
        with pytest.raises(BadParams, match=r"^matrix is not unimodular \(det 0\)"):
            mf.integer_inverse(np.array([[1, 2], [2, 4]]))
        with pytest.raises(BadParams, match=r"^matrix is not an integer matrix"):
            mf.integer_inverse(np.array([[1.5, 0.0], [0.0, 1.0]]))
        with pytest.raises(BadParams, match=r"^expected an integer matrix"):
            mf.integer_inverse(np.eye(2))

    def test_rejects_bad_stack_shapes(self):
        for a in (np.zeros((2, 2, 2, 2), dtype=int), np.eye(3, dtype=int)):
            with pytest.raises(BadParams, match="A must be 2x2"):
                ob.torus_criterion(a, (1, 0))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_fast_oracle_mismatch_is_a_hard_error(self, monkeypatch, stacked):
        # generators that are all even make the oracle accept every matrix
        monkeypatch.setattr(ob, "subgroup_generators",
                            lambda b: [np.zeros(len(b), dtype=np.int64)])
        shear = np.array([[1, 1], [0, 1]])
        a = np.stack([np.eye(2, dtype=int), shear]) if stacked else shear
        where = r" \(matrix 1 of the stack\)" if stacked else ""
        with pytest.raises(AssertionError,
                           match=rf"A=\[\[1, 1\], \[0, 1\]\]{where}, b=\[1, 0\]"):
            ob.torus_criterion(a, (1, 0))


class TestW1Profile:
    @pytest.mark.parametrize("b,expected", [
        ((1, 0), (-1, 1)),
        ((1, 1), (-1, -1)),
        ((0, 1), (1, -1)),
    ])
    def test_t2_profiles(self, b, expected):
        assert tuple(ob.w1_profiles([b], steps=256)[0]) == expected

    def test_t3_all_bits(self):
        for b in _all_bits(3):
            profile = ob.w1_profiles([b], steps=256)[0]
            assert tuple(profile) == tuple((-1) ** bi for bi in b)

    def test_trivial_bundle_distinguished(self):
        # every nonzero b forces at least one -1 in the profile
        for n in (1, 2, 3):
            for b in _all_bits(n):
                assert -1 in ob.w1_profiles([b], steps=256)[0]

    def test_dimension_cap(self):
        with pytest.raises(BadParams):
            ob.w1_profiles([(1, 0, 0, 0, 1)], steps=64)

    @staticmethod
    def _per_bundle_profile(b, steps):
        # the one transport per bit vector that w1_profiles replaced, kept
        # as the oracle
        n = len(b)
        eye = np.eye(n)
        loops = bd.Path(lambda ts: np.multiply.outer(ts, eye),
                        velocity=lambda ts, xt: np.multiply.outer(np.ones_like(ts), eye))
        return holonomy_sign(bd.torus_line(b), loops, steps=steps).astype(np.int64)

    def test_stacked_profiles_equal_the_per_bundle_loop(self):
        bs = [b for n in (1, 2, 3) for b in _all_bits(n)]
        profiles = ob.w1_profiles(bs, steps=256)
        assert len(profiles) == len(bs) == 11
        for b, profile in zip(bs, profiles):
            want = self._per_bundle_profile(b, 256)
            assert profile.dtype == want.dtype == np.int64
            assert np.array_equal(profile, want)
            assert np.array_equal(ob.w1_profiles([b], steps=256)[0], want)
        for bad in ([(1, 0), (1, 0, 0, 0, 1)], [(1, 0), (0, 0)], []):
            with pytest.raises(BadParams):
                ob.w1_profiles(bad, steps=64)


def test_torus_lift_agrees_with_criterion():
    from bundlelift.errors import BundleLiftError

    for n in (1, 2, 3):
        for b in _all_bits(n):
            for i in range(20):
                a = unimodular(n, 555 * n + 13 * i + hash(b) % 101)
                expected = ob.torus_criterion(a, b).fast_verdict
                try:
                    torus_line_lift(a, b)
                    built = True
                except BundleLiftError:
                    built = False
                assert built == expected


def _pointwise_orthogonal_bundle():
    # a field orthogonal to its surroundings at one mesh vertex zeroes the
    # triple overlap on every triangle touching it
    pole = mf.icosphere(3)[0][0]

    def field(p):
        # one point or a stack, as the field contract requires
        x = mf.cp1_to_sphere(p)
        at_pole = np.linalg.norm(x - pole, axis=-1) < 1e-9
        z = np.where(at_pole[..., None], np.array([0.0, 1.0], dtype=complex),
                     np.array([1.0, 0.0], dtype=complex))
        return z[..., :, None] * z.conj()[..., None, :]

    return bd.BundleModel(("pointwise_orthogonal",), mf.ComplexProjective(1),
                          4, 2, field, complex_fibers=True)


def _holed_bundle(fill=np.nan, vertex=0):
    # the tautological field with `fill` entries at one mesh vertex; a zero
    # fill is z z* for a section that vanishes there
    pole = mf.icosphere(4)[0][vertex]

    def holed(p):
        q = np.array(p, dtype=complex)
        q[np.linalg.norm(mf.cp1_to_sphere(p) - pole, axis=-1) < 1e-9] = fill
        return q

    return bd.BundleModel(("holed",), mf.ComplexProjective(1), 4, 2, holed,
                          complex_fibers=True)


def test_degenerate_plaquette_detected():
    with pytest.raises(DegeneratePlaquette):
        ob.lattice_chern_number(_pointwise_orthogonal_bundle(), 3)


def test_non_convergent_detected():
    # variation far below the mesh scale aliases into different integers
    # at consecutive levels
    from bundlelift.errors import NonConvergent

    with pytest.raises(NonConvergent):
        ob.lattice_chern_number(spiky_bundle(), 3)


def test_nan_projector_is_degenerate():
    # a NaN overlap used to pass the `min_abs < 1e-12` guard, and the NaN
    # phases then died in int(round(nan)) with a ValueError
    bundle = _holed_bundle()
    with pytest.raises(DegeneratePlaquette):
        ob.plaquette_phases(bundle, 3)
    with pytest.raises(DegeneratePlaquette):
        ob.lattice_chern_number(bundle, 3)


@pytest.mark.parametrize("make", [_holed_bundle, lambda: _holed_bundle(0.0),
                                  _pointwise_orthogonal_bundle],
                         ids=["nan", "zero", "pointwise_orthogonal"])
def test_degenerate_fields_are_refused_without_a_warning(make):
    # a zero or non-finite projector makes the section's division 0/0 or
    # NaN; the kernel does it quietly and the NaN overlap is refused
    bundle = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneratePlaquette):
            ob.plaquette_phases(bundle, 3)
        with pytest.raises(DegeneratePlaquette):
            ob.lattice_chern_number(bundle, 3)


def test_plaquette_phases_refuse_a_bundle_of_rank_two():
    # the unit-section phases are exact only for rank-1 projectors; the
    # identity field of C^2 would give wrong phases, not an error
    bundle = bd.trivial(mf.ComplexProjective(1), 2, complex_fibers=True)
    for call in (ob.plaquette_phases, ob.lattice_chern_number):
        with pytest.raises(BadParams, match="needs a complex line bundle"):
            call(bundle, 3)
    with pytest.raises(BadParams, match="needs a complex line bundle"):
        ob.plaquette_phases(bd.tangent_sphere(2), 3)


def test_cached_mesh_points_are_read_only():
    # every Chern number at a level shares this cached stack
    pts = ob._cp1_mesh_points(3)
    with pytest.raises(ValueError):
        pts[0, 0, 0] = 2.0
    assert ob.lattice_chern_number(bd.tautological_complex(1), 3).value == -1


def _plaquette_phases_per_vertex(line_bundle, pts, tris):
    # the per-vertex evaluation that plaquette_phases replaced, kept as its
    # oracle; pts is the list of mesh points in the bundle's base
    qv = np.stack([line_bundle.complex_fiber_projector(p) for p in pts])
    (phases, _), _ = _kernels.plaquette_phases(
        _kernels.unit_sections(np.ascontiguousarray(qv)),
        np.ascontiguousarray(tris))
    return phases


@pytest.mark.parametrize("level", [3, 4, 5])
def test_plaquette_phases_match_per_vertex_oracle(level):
    verts, tris = mf.icosphere(level)
    pts = {mf.Sphere(2): list(verts),
           mf.ComplexProjective(1): [mf.sphere_to_cp1(v) for v in verts]}
    for name, bundle in oracle_line_bundles().items():
        phases = ob.plaquette_phases(bundle, level)
        oracle = _plaquette_phases_per_vertex(bundle, pts[bundle.base], tris)
        assert phases.dtype == oracle.dtype and phases.shape == oracle.shape
        assert phases.tobytes() == oracle.tobytes(), name


def _count_kernel_calls(monkeypatch):
    # the triangle count of each plaquette-kernel call, in call order
    calls = []
    kernel = _kernels.plaquette_phases

    def counted(w, tris):
        calls.append(len(tris))
        return kernel(w, tris)

    monkeypatch.setattr(_kernels, "plaquette_phases", counted)
    return calls


def test_plaquette_phases_evaluates_each_field_once(monkeypatch):
    counts = {}
    public = bd.BundleModel.complex_fiber_projector

    def counted(self, x):
        counts[self.key] = counts.get(self.key, 0) + 1
        return public(self, x)

    stacks = []

    def gamma_field(p):
        stacks.append(np.shape(p))
        return np.asarray(p, dtype=complex)

    monkeypatch.setattr(bd.BundleModel, "complex_fiber_projector", counted)
    kernel_calls = _count_kernel_calls(monkeypatch)
    gamma = bd.BundleModel(("counted_gamma",), mf.ComplexProjective(1), 4, 2,
                           gamma_field, complex_fibers=True)
    bundle = bd.pullback(mf.cp1_power_map(3), gamma)
    ob.plaquette_phases(bundle, 3)
    # one public call on the pullback, which evaluates gamma's own field
    # once, on the mapped stack of all mesh vertices, and one kernel call
    assert counts == {bundle.key: 1}
    assert stacks == [(len(mf.icosphere(3)[0]), 2, 2)]
    assert kernel_calls == [len(mf.icosphere(3)[1])]
    # a Chern number reads both of its levels from one field call and one
    # kernel call on the finer mesh, whose first vertices are the coarser
    # mesh's and whose subdivision groups are its triangles
    counts.clear()
    stacks.clear()
    kernel_calls.clear()
    assert ob.lattice_chern_number(bundle, 4).value == -3
    assert counts == {bundle.key: 1}
    assert stacks == [(len(mf.icosphere(5)[0]), 2, 2)]
    assert kernel_calls == [len(mf.icosphere(5)[1])]


def test_invariant_scenarios_make_one_kernel_call_per_chern_number(monkeypatch):
    # at CLI defaults: six Chern numbers and one phase table; a kernel call
    # per level would make 13
    kernel_calls = _count_kernel_calls(monkeypatch)
    for name in ("sphere_pullbacks", "cpn_conjugation"):
        run_scenario(ScenarioConfig(scenario=name))
    assert len(kernel_calls) == 7


def test_a_vertex_of_both_levels_is_degenerate_at_the_coarser():
    # the coarse level is checked first
    with pytest.raises(DegeneratePlaquette, match="at level 3$"):
        ob.lattice_chern_number(_holed_bundle(vertex=0), 3)


def test_a_vertex_of_the_finer_level_alone_is_degenerate_at_that_level():
    # NaN at the first vertex that level 4 adds: level 3 is clean, and the
    # Chern number at 3 names level 4
    bundle = _holed_bundle(vertex=len(mf.icosphere(3)[0]))
    assert np.all(np.isfinite(ob.plaquette_phases(bundle, 3)))
    with pytest.raises(DegeneratePlaquette, match="at level 4$"):
        ob.lattice_chern_number(bundle, 3)


def test_plaquette_phases_refuse_level_zero():
    # the level-0 faces come in no subdivision groups
    with pytest.raises(BadParams, match="mesh_level >= 1"):
        ob.plaquette_phases(bd.tautological_complex(1), 0)
    assert ob.plaquette_phases(bd.tautological_complex(1), 1).shape == (80,)


@pytest.mark.parametrize("level", range(1, 7))
def test_cp1_mesh_points_of_a_level_prefix_the_next(level):
    # a Chern number reads level L from the sections at level L + 1
    coarse = ob._cp1_mesh_points(level)
    fine = ob._cp1_mesh_points(level + 1)
    assert fine[:len(coarse)].tobytes() == coarse.tobytes()


# Naturality c1(f^* gamma) = deg(f) c1(gamma), with f read on the sphere
# through the chart.

def _on_sphere(f):
    return lambda x: mf.cp1_to_sphere(f.forward(mf.sphere_to_cp1(x)))


def _random_unitary(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q


@settings(max_examples=5)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_unitary_pullback_keeps_c1(seed):
    phi = cpn_unitary(mf.ComplexProjective(1), _random_unitary(seed))
    gamma = bd.tautological_complex(1)
    c_pb = ob.lattice_chern_number(bd.pullback(phi, gamma), 3).value
    assert c_pb == -1
    assert mf.degree(_on_sphere(phi), 3) * ob.lattice_chern_number(gamma, 3).value == c_pb


@settings(max_examples=5)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_rotation_degree_is_determinant(seed):
    r = mf.random_orthogonal(3, seed)
    rot = mf.named_diffeo(mf.Sphere(2), "sphere_rotation", matrix=r)
    assert mf.degree(rot, 3) == round(np.linalg.det(r))


@settings(max_examples=5)
@given(st.integers(min_value=1, max_value=3))
def test_power_map_naturality(n):
    gamma = bd.tautological_complex(1)
    c_gamma = ob.lattice_chern_number(gamma, 3).value
    c_pb = ob.lattice_chern_number(bd.pullback(mf.cp1_power_map(n), gamma), 3).value
    assert mf.degree(mf.sphere_power_map(n), 3) * c_gamma == c_pb
