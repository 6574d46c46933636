"""Scenario runner: every construction and check in the library exposed as
named, reproducible commands with JSON reports and optional CSV tables.

The report schema is versioned ("schema": "1"). Reports are strict JSON:
a residual that is NaN or infinite is written as null with a "nonfinite"
marker. Reports are byte-identical for equal configurations when
``--no-timestamp`` is passed (it nulls both the timestamp and the wall-time
field). Exit codes: 0 all verdicts pass, 1 at least one verdict failed,
2 configuration or runtime error.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bundles import (pullback, tangent_sphere, tautological_complex,
                      tautological_real, transport_errors, trivial)
from .config import (DEFAULT_MESH_LEVEL, DEFAULT_SAMPLES, DEFAULT_SEED,
                     DEFAULT_TOL_EXACT, DEFAULT_TOL_TRANSPORT,
                     DEFAULT_TRANSPORT_STEPS, MAX_MESH_LEVEL)
from .errors import BadParams, ConfigInvalid, NonInjective, UnknownScenario
from .gluing import (LocalLiftDatum, TransitionDatum, cocycle_compat_check,
                     local_data_from_lift)
from .lifts import (ambient_projection_lift, check_lift, compose,
                    cpn_conjugation_lift, differential_lift,
                    fiberwise_complex_correction, frame_lift_view,
                    FiberFrame, grassmann_orthogonal_lift, invert, Lift,
                    lift_from_homotopy, metrize, s1xs2_generator_lift,
                    torus_line_lifts)
from .manifolds import (ComplexProjective, Diffeo, Sphere, cp1_power_map,
                        degree, identity_diffeo, named_diffeo,
                        random_orthogonal, random_unimodular,
                        rotation_homotopy, sphere_power_map)
from .numkernel import norms, polar_two_metric, stream, worst
from .obstruction import (lattice_chern_number, plaquette_phases,
                          pullback_invariance_report, torus_criterion,
                          w1_profiles)

SCHEMA_VERSION = "1"
# a cocycle residual above this reads incompatible: far above the roundoff
# of a datum that is compatible by construction, far below the frame
# rotations the check is meant to catch (a rotation by d scores 2 sin(d/2))
COCYCLE_TOL = 1e-6


class ScenarioConfig:
    def __init__(self, scenario, seed=DEFAULT_SEED, samples=DEFAULT_SAMPLES,
                 transport_steps=DEFAULT_TRANSPORT_STEPS,
                 mesh_level=DEFAULT_MESH_LEVEL, tol_exact=DEFAULT_TOL_EXACT,
                 tol_transport=DEFAULT_TOL_TRANSPORT, json_path=None,
                 csv_path=None, no_timestamp=False):
        self.scenario = scenario
        self.seed = seed
        self.samples = samples
        self.transport_steps = transport_steps
        self.mesh_level = mesh_level
        self.tol_exact = tol_exact
        self.tol_transport = tol_transport
        self.json_path = json_path
        self.csv_path = csv_path
        self.no_timestamp = no_timestamp

    def validate(self):
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0")
        if self.samples < 1:
            raise ConfigInvalid("samples must be >= 1")
        if self.transport_steps < 16:
            raise ConfigInvalid("transport steps must be >= 16")
        if self.mesh_level < 3:
            raise ConfigInvalid("mesh level must be >= 3")
        if self.mesh_level > MAX_MESH_LEVEL:
            raise ConfigInvalid(f"mesh level must be <= {MAX_MESH_LEVEL}")
        if not (0 < self.tol_exact <= 1e-2 and 0 < self.tol_transport <= 1e-2):
            raise ConfigInvalid("tolerances must lie in (0, 1e-2]")
        if self.scenario not in SCENARIOS:
            raise UnknownScenario(
                f"unknown scenario {self.scenario!r}; see `bundlelift list`"
            )


def _check(name, residual, tolerance, comparator="le"):
    residual = float(residual)
    tolerance = float(tolerance)
    verdict = residual <= tolerance if comparator == "le" else residual >= tolerance
    return {"name": name, "residual": residual, "tolerance": tolerance,
            "comparator": comparator, "verdict": bool(verdict)}


def _report_checks(prefix, report, tol, checks, isometry=True):
    # a lift that transports is held to the transport tier, its estimate too
    checks.append(_check(f"{prefix}.base", report.base_residual, tol))
    checks.append(_check(f"{prefix}.linearity", report.linearity_residual, tol))
    checks.append(_check(f"{prefix}.min_singular_value",
                         report.min_singular_value, 1e-8, "ge"))
    if isometry:
        checks.append(_check(f"{prefix}.isometry", report.isometry_residual, tol))
    if report.transport_error is not None:
        checks.append(_check(f"{prefix}.transport_error", report.transport_error, tol))


def _draw(model, seed, tag, count):
    """count points of model, one block from stream(seed, tag). Each draw
    of a scenario has its own tag: not 0 (stream(seed, 0) gives
    random_orthogonal's matrices and the draws of metrize_random and
    gluing_demo), not 1-3, the tags of the lifts module's probes, and not
    77 or 600, the streams that the theta = 0 slice of s1xs2_generators
    and the torus sweep's matrices are drawn from."""
    return model.random_points(stream(seed, tag), count)


def _max_abs(m):
    # the largest |entry| of each matrix of a stack
    return np.max(np.abs(m), axis=(-2, -1))


# ---------------------------------------------------------------------------
# Scenarios. Each returns (checks, table-or-None).


def _scenario_homotopy_lift_sphere(cfg):
    """Transport lift of a rotation homotopy endpoint on the sphere tangent
    bundle; residuals shrink with step count."""
    bundle = tangent_sphere(2)
    h = rotation_homotopy(Sphere(2), (0, 1), np.pi / 2)
    lift = lift_from_homotopy(bundle, h, steps=cfg.transport_steps)
    rep = check_lift(lift, samples=cfg.samples, seed=cfg.seed)
    checks = []
    _report_checks("homotopy_lift", rep, cfg.tol_transport, checks)
    x = _draw(Sphere(2), cfg.seed, 1000, min(cfg.samples, 100))
    endpoint_gap = worst(0.0, *Sphere(2).distance(h.family(1.0, x),
                                                  h.endpoint.forward(x)))
    checks.append(_check("homotopy.endpoint_agreement", endpoint_gap, 1e-10))
    return checks, None


def _scenario_metrize_random(cfg):
    """Polar metrization of seeded non-isometric vertical automorphisms:
    isometric output, factorization residual, idempotence."""
    model = Sphere(2)
    bundle = trivial(model, 3)
    rng = stream(cfg.seed, 0)
    a = rng.normal(size=(3, 3)) + 2.5 * np.eye(3)
    s = rng.normal(size=(3, 3))

    def field(x):
        # one matrix per point of a stack of points
        return a + 0.2 * np.asarray(x)[..., 0, None, None] * s

    vert = Lift(bundle, identity_diffeo(model),
                lambda x, v: np.matvec(field(x), v), "vertical_random")
    iso = metrize(vert)
    rep = check_lift(iso, samples=cfg.samples, seed=cfg.seed)
    checks = []
    _report_checks("metrized", rep, 1e-8, checks)
    iso2 = metrize(iso)
    x = _draw(model, cfg.seed, 500, min(cfg.samples, 20))
    m1 = iso.fiber_matrix_in_bases(x)
    m2 = iso2.fiber_matrix_in_bases(x)
    idem = worst(0.0, *_max_abs(m1 - m2))
    f = vert.fiber_matrix_in_bases(x)
    psi, xi = polar_two_metric(f)
    fact = worst(0.0, *_max_abs(xi @ psi - f))
    checks.append(_check("metrize.idempotence", idem, 1e-8))
    checks.append(_check("metrize.factorization", fact, 1e-8))
    return checks, None


def _scenario_frame_view(cfg):
    """Induced map on orthonormal frames: orthonormal output and O(r)
    equivariance."""
    lift = grassmann_orthogonal_lift(random_orthogonal(4, cfg.seed), 2)
    bundle = lift.bundle
    g = random_orthogonal(2, cfg.seed + 1)
    x = _draw(bundle.base, cfg.seed, 100, min(cfg.samples, 50))
    frame = FiberFrame(x, bundle.fiber_basis(x))
    out = frame_lift_view(lift, frame)
    gram = np.swapaxes(out.vectors, -1, -2) @ out.vectors
    gram_defect = worst(0.0, *_max_abs(gram - np.eye(2)))
    out_rot = frame_lift_view(lift, FiberFrame(x, frame.vectors @ g))
    equiv = worst(0.0, *_max_abs(out_rot.vectors - out.vectors @ g))
    checks = [
        _check("frame.output_gram", gram_defect, cfg.tol_exact),
        _check("frame.equivariance", equiv, 1e-8),
    ]
    return checks, None


def _scenario_tangent_isometry(cfg):
    """Differential lift of sphere diffeomorphisms followed by metrization:
    every diffeomorphism yields an isometry of the round tangent bundle."""
    sigma = named_diffeo(Sphere(2), "sphere_reflection")
    dl = differential_lift(sigma)
    rep = check_lift(dl, samples=cfg.samples, seed=cfg.seed)
    checks = []
    _report_checks("differential_sigma", rep, cfg.tol_transport, checks,
                   isometry=False)
    iso = metrize(dl)
    rep_iso = check_lift(iso, samples=min(cfg.samples, 50), seed=cfg.seed)
    checks.append(_check("metrized_sigma.isometry", rep_iso.isometry_residual, 1e-8))
    rot = named_diffeo(Sphere(2), "sphere_rotation",
                       matrix=random_orthogonal(3, cfg.seed))
    rep_rot = check_lift(differential_lift(rot), samples=min(cfg.samples, 50),
                         seed=cfg.seed)
    checks.append(_check("differential_rotation.isometry",
                         rep_rot.isometry_residual, 1e-8))
    return checks, None


def _scenario_ambient_projection(cfg):
    """Projection lifts inside the ambient trivial bundle: a small rotation
    projects injectively, the orthocomplement involution does not, and the
    literal complement variant leaves the fibers."""
    bundle = tautological_real(1, 2)
    theta = 0.1
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    phi = named_diffeo(bundle.base, "grassmann_action", matrix=rot)
    lift = ambient_projection_lift(bundle, phi, seed=cfg.seed)
    rep = check_lift(lift, samples=cfg.samples, seed=cfg.seed)
    checks = []
    _report_checks("small_rotation", rep, cfg.tol_exact, checks, isometry=False)

    involution = named_diffeo(bundle.base, "grassmann_involution")
    try:
        ambient_projection_lift(bundle, involution, seed=cfg.seed)
        refused = 1.0
    except NonInjective:
        refused = 0.0
    checks.append(_check("involution.non_injective_refused", refused, 0.5))

    # the complement-projection variant is injective for the involution but
    # its image is orthogonal to the target fiber
    literal = ambient_projection_lift(bundle, involution,
                                      variant="orthocomplement", seed=cfg.seed)
    rep_lit = check_lift(literal, samples=min(cfg.samples, 50), seed=cfg.seed)
    checks.append(_check("orthocomplement_variant.leaves_fibers",
                         rep_lit.base_residual, 0.5, "ge"))
    return checks, None


def _scenario_grassmann_action(cfg):
    """The natural orthogonal-group lift on the tautological bundle over a
    Grassmannian: exact isometry, group homomorphism on base maps."""
    a1 = random_orthogonal(4, cfg.seed)
    a2 = random_orthogonal(4, cfg.seed + 1)
    l1 = grassmann_orthogonal_lift(a1, 2)
    l2 = grassmann_orthogonal_lift(a2, 2)
    rep = check_lift(l1, samples=cfg.samples, seed=cfg.seed)
    checks = []
    _report_checks("orthogonal_lift", rep, cfg.tol_exact, checks)
    comp = compose(l1, l2)
    x = _draw(l1.bundle.base, cfg.seed, 200, min(cfg.samples, 100))
    hom = worst(0.0, *l1.bundle.base.distance(
        comp.base_map.forward(x), l1.base_map.forward(l2.base_map.forward(x))))
    checks.append(_check("compose.base_homomorphism", hom, 1e-10))
    inv_rep = check_lift(compose(l1, invert(l1)),
                         samples=min(cfg.samples, 50), seed=cfg.seed)
    checks.append(_check("compose_invert.base", inv_rep.base_residual, 1e-8))
    return checks, None


def _scenario_cpn_conjugation(cfg):
    """Conjugation lift on the tautological line bundle over CP^n:
    anti-linear, obstructed as a C-linear lift, fiberwise correctable."""
    lift = cpn_conjugation_lift(1)
    rep = check_lift(lift, samples=cfg.samples, seed=cfg.seed)
    checks = []
    _report_checks("conjugation", rep, cfg.tol_exact, checks)
    checks.append(_check("conjugation.anti_linearity",
                         rep.anti_linearity_residual, cfg.tol_exact))
    checks.append(_check("conjugation.c_linearity_defect",
                         rep.complex_linearity_residual, 1.0, "ge"))

    x = _draw(ComplexProjective(1), cfg.seed, 300, 20)
    y = lift.base_map.inverse(x)
    bundle = lift.bundle
    corrected = fiberwise_complex_correction(lift, x) @ lift.fiber_matrix(y)
    comm = ((corrected @ bundle.complex_structure(y)
             - bundle.complex_structure(x) @ corrected) @ bundle.fiber_projector(y))
    checks.append(_check("fiberwise_correction.commutation",
                         worst(0.0, *_max_abs(comm)), 1e-8))

    report = pullback_invariance_report(lift.base_map, lift.bundle,
                                        mesh_level=cfg.mesh_level)
    checks.append(_check("obstruction.c1", abs(report["c1"] - (-1)), 0.5))
    checks.append(_check("obstruction.c1_pullback",
                         abs(report["c1_pullback"] - 1), 0.5))
    checks.append(_check("obstruction.flagged",
                         0.0 if report["lift_obstructed"] else 1.0, 0.5))

    rep2 = check_lift(cpn_conjugation_lift(2), samples=min(cfg.samples, 50),
                      seed=cfg.seed)
    checks.append(_check("conjugation_n2.base", rep2.base_residual, cfg.tol_exact))

    phases = plaquette_phases(tautological_complex(1), cfg.mesh_level)
    table = {
        "name": "plaquette_phases",
        "header": ["triangle_index", "phase"],
        "rows": list(enumerate(phases.tolist())),
    }
    return checks, table


def _scenario_sphere_pullbacks(cfg):
    """Degrees of the power maps on the sphere and Chern numbers of their
    pullback bundles; naturality ties the two integer invariants together."""
    checks = []
    ident = identity_diffeo(Sphere(2))
    sigma = named_diffeo(Sphere(2), "sphere_reflection")
    degree_cases = [("id", ident, 1), ("sigma", sigma, -1),
                    ("f2", sphere_power_map(2), 2), ("f3", sphere_power_map(3), 3)]
    degs = {}
    for name, f, expected in degree_cases:
        d = degree(f, cfg.mesh_level)
        degs[name] = d
        checks.append(_check(f"degree.{name}", abs(d - expected), 0.5))

    f2 = sphere_power_map(2)
    comp = lambda x: f2.forward(f2.forward(x))
    checks.append(_check("degree.f2of2_multiplicative",
                         abs(degree(comp, cfg.mesh_level) - 4), 0.5))

    gamma = tautological_complex(1)
    cherns = {"trivial": lattice_chern_number(
        trivial(ComplexProjective(1), 1, complex_fibers=True), cfg.mesh_level)}
    cherns["gamma1"] = lattice_chern_number(gamma, cfg.mesh_level)
    for n in (2, 3):
        cherns[f"f{n}_pullback"] = lattice_chern_number(
            pullback(cp1_power_map(n), gamma), cfg.mesh_level)
    expected_c1 = {"trivial": 0, "gamma1": -1, "f2_pullback": -2, "f3_pullback": -3}
    for name, res in cherns.items():
        checks.append(_check(f"chern.{name}", abs(res.value - expected_c1[name]), 0.5))
        checks.append(_check(f"chern.{name}.stable", 0.0 if res.stable else 1.0, 0.5))
    for n in (2, 3):
        checks.append(_check(
            f"naturality.f{n}",
            abs(cherns[f"f{n}_pullback"].value - degs[f"f{n}"] * cherns["gamma1"].value),
            0.5))
    return checks, None


def _scenario_torus_sweep(cfg):
    """Exhaustive torus line-bundle criterion sweep: the fast mod-2 verdict
    against the subgroup oracle, lift construction agreement, and holonomy
    sign profiles."""
    checks = []
    rows = []
    mismatches = 0
    lift_disagreements = 0
    # every matrix first, one stack of 20 per bit vector b, all drawn from
    # one stream
    rng = stream(cfg.seed, 600)
    cases = []
    for n in (1, 2, 3):
        for m in range(1, 2 ** n):
            b = tuple(int(x) for x in np.binary_repr(m, width=n))
            cases.append((n, b, random_unimodular(n, rng, 20)))
    for n, b, mats in cases:
        # one criterion and one stacked lift construction per bit vector
        res = torus_criterion(mats, b)
        mismatches += int(np.sum(res.fast_verdict != res.oracle_verdict))
        built = [isinstance(lift, Lift) for lift in torus_line_lifts(mats, b)]
        lift_disagreements += int(np.sum(built != res.fast_verdict))
        for i in range(len(mats)):
            rows.append([n, "".join(map(str, b)), i,
                         int(res.fast_verdict[i]), int(res.oracle_verdict[i])])
    checks.append(_check("criterion.fast_vs_oracle_mismatches", mismatches, 0.5))
    checks.append(_check("criterion.lift_construction_agreement",
                         lift_disagreements, 0.5))
    # (2^1 - 1) + (2^2 - 1) + (2^3 - 1) = 11 bit vectors, 20 matrices each
    checks.append(_check("criterion.cases_swept", len(rows), 220, "ge"))

    w1_bad = 0
    bs = [b for _, b, _ in cases]
    # one transport for all 11 bundles' coordinate loops
    with transport_errors() as errors:
        profiles = w1_profiles(bs, steps=cfg.transport_steps)
    for b, profile in zip(bs, profiles):
        expected = np.array([(-1) ** bi for bi in b])
        w1_bad += int(np.any(profile != expected))
    checks.append(_check("w1.profile_mismatches", w1_bad, 0.5))
    checks.append(_check("w1.transport_error", worst(0.0, *np.concatenate(errors)),
                         cfg.tol_transport))
    table = {
        "name": "torus_sweep",
        "header": ["n", "b", "case", "fast_verdict", "oracle_verdict"],
        "rows": rows,
    }
    return checks, table


def _scenario_s1xs2_generators(cfg):
    """Lifts of the three diffeotopy generators of S^1 x S^2 on the product
    bundle; the twisted rotation restricts to the identity on the theta=0
    slice."""
    checks = []
    for n in (1, 2):
        for name in ("s", "r", "a"):
            lift = s1xs2_generator_lift(name, n, steps=cfg.transport_steps)
            samples = cfg.samples if name != "a" else min(cfg.samples, 50)
            tol = cfg.tol_exact if name != "a" else cfg.tol_transport
            rep = check_lift(lift, samples=samples, seed=cfg.seed)
            _report_checks(f"{name}_lift.n{n}", rep, tol, checks)
        # theta = 0 slice of r: fiber action is the identity
        r_lift = s1xs2_generator_lift("r", n, steps=cfg.transport_steps)
        count = min(cfg.samples, 20)
        rng = stream(cfg.seed, 77)
        # lines at angle 0
        x = (np.broadcast_to(np.diag([1.0, 0.0]), (count, 2, 2)),
             ComplexProjective(1).random_points(rng, count))
        v = r_lift.bundle.random_fiber_vector(x, rng)
        slice_res = worst(0.0, *norms(r_lift.action(x, v) - v))
        checks.append(_check(f"r_lift.n{n}.theta0_identity", slice_res, 1e-12))
        s_lift = s1xs2_generator_lift("s", n, steps=cfg.transport_steps)
        x = _draw(s_lift.bundle.base, cfg.seed, 900, min(cfg.samples, 20))
        y = s_lift.base_map.forward(s_lift.base_map.forward(x))
        roundtrip = worst(0.0, *s_lift.bundle.base.distance(x, y))
        checks.append(_check(f"s_lift.n{n}.involution", roundtrip, 1e-10))
    return checks, None


def _scenario_gluing_demo(cfg):
    """Cocycle compatibility on a patch overlap: a constructed-compatible
    datum, its rotation-perturbed variant, and the adapter that extracts
    local data from a lift."""
    points = stream(cfg.seed, 0).uniform(-1.0, 1.0, size=(12, 2))

    def rot3(angle, axes=(0, 1)):
        m = np.tile(np.eye(3), np.shape(angle) + (1, 1))
        i, j = axes
        c, s = np.cos(angle), np.sin(angle)
        m[..., i, i] = c
        m[..., j, j] = c
        m[..., i, j] = -s
        m[..., j, i] = s
        return m

    flip = lambda x: x * np.array([1.0, -1.0])
    phi = Diffeo("patch_shift", flip, flip, None)

    def alpha1(x):
        return rot3(0.4 * x[:, 0], (0, 1)) @ rot3(0.2 * (x[:, 0] * x[:, 0]), (1, 2))

    def alpha_t(x):
        return rot3(0.3 * x[:, 0] + 0.1, (0, 2))

    def alpha2(x):
        return np.linalg.inv(alpha_t(phi.forward(x))) @ alpha1(x) @ alpha_t(x)

    d1 = LocalLiftDatum("U1", points, alpha1)
    d2 = LocalLiftDatum("U2", points, alpha2)
    t = TransitionDatum(points, alpha_t)
    good = cocycle_compat_check(d1, d2, t, phi)
    checks = [_check("cocycle.constructed_residual", good, 1e-12)]

    bump = rot3(0.1, (0, 1))
    d2_bad = LocalLiftDatum("U2", points, lambda x: alpha2(x) @ bump)
    bad = cocycle_compat_check(d1, d2_bad, t, phi)
    # a NaN residual is no measured incompatibility: it fails
    checks.append(_check("cocycle.perturbed_incompatible",
                         0.0 if bad > COCYCLE_TOL else 1.0, 0.5))
    checks.append(_check("cocycle.perturbed_residual_near_0.1",
                         abs(bad - 0.1), 0.01))

    # adapter round trip on the tautological line over RP^1
    refl = np.diag([1.0, -1.0])
    lift = grassmann_orthogonal_lift(refl, 1)
    bundle = lift.bundle

    def in_u1(p):
        return p[..., 0, 0] > 0.1

    def in_u2(p):
        return p[..., 1, 1] > 0.1

    def unit_column(j):
        # the frame of the line: column j of p, normalised, as (P, 2, 1)
        return lambda p: (p[..., :, j] / norms(p[..., :, j])[..., None])[..., None]

    # 200 candidates, of which the prefix up to the 8th overlap point is kept
    p = _draw(bundle.base, cfg.seed, 400, 200)
    both = np.flatnonzero(in_u1(p) & in_u2(p))
    if len(both) < 8:
        raise BadParams(f"200 draws gave {len(both)} overlap points, fewer than 8")
    p = p[:both[7] + 1]
    pts1, pts2, overlap = (p[m] for m in (in_u1(p), in_u2(p), both[:8]))
    da, db, dt = local_data_from_lift(lift, ("U1", pts1, in_u1),
                                      ("U2", pts2, in_u2),
                                      unit_column(0), unit_column(1), overlap)
    adapted = cocycle_compat_check(da, db, dt, lift.base_map)
    checks.append(_check("cocycle.adapter_from_lift", adapted, 1e-10))
    return checks, None


SCENARIOS = {
    "homotopy_lift_sphere": _scenario_homotopy_lift_sphere,
    "metrize_random": _scenario_metrize_random,
    "frame_view": _scenario_frame_view,
    "tangent_isometry": _scenario_tangent_isometry,
    "ambient_projection": _scenario_ambient_projection,
    "grassmann_action": _scenario_grassmann_action,
    "cpn_conjugation": _scenario_cpn_conjugation,
    "sphere_pullbacks": _scenario_sphere_pullbacks,
    "torus_sweep": _scenario_torus_sweep,
    "s1xs2_generators": _scenario_s1xs2_generators,
    "gluing_demo": _scenario_gluing_demo,
}


REPORT_SCHEMA = {
    "schema": SCHEMA_VERSION,
    "fields": {
        "schema": "report schema version (string)",
        "scenario": "scenario name",
        "version": "package version",
        "config": "echo of the scenario configuration",
        "checks": "list of {name, residual, tolerance, comparator, verdict}; "
                  "a NaN or infinite residual is null and its check also "
                  "carries nonfinite: \"nan\" | \"inf\" | \"-inf\"",
        "overall": "conjunction of all verdicts",
        "wall_time": "seconds, null when --no-timestamp is used",
        "timestamp": "UTC ISO-8601, null when --no-timestamp is used",
    },
    "comparators": {"le": "pass iff residual <= tolerance",
                    "ge": "pass iff residual >= tolerance"},
}


def run_scenario(cfg):
    """Execute a scenario and assemble its report dictionary."""
    cfg.validate()
    start = time.perf_counter()
    checks, table = SCENARIOS[cfg.scenario](cfg)
    wall = time.perf_counter() - start
    report = {
        "schema": SCHEMA_VERSION,
        "scenario": cfg.scenario,
        "version": __version__,
        "config": {
            "seed": cfg.seed,
            "samples": cfg.samples,
            "transport_steps": cfg.transport_steps,
            "mesh_level": cfg.mesh_level,
            "tol_exact": cfg.tol_exact,
            "tol_transport": cfg.tol_transport,
        },
        "checks": checks,
        "overall": all(c["verdict"] for c in checks),
        "wall_time": None if cfg.no_timestamp else round(wall, 6),
        "timestamp": None if cfg.no_timestamp else
        datetime.now(timezone.utc).isoformat(),
    }
    return report, table


def emit_plot_data(table, path):
    """Write a scenario table (or a checks table) as deterministic CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table["header"])
    for row in table["rows"]:
        writer.writerow(row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _checks_table(report):
    return {
        "name": "checks",
        "header": ["name", "residual", "tolerance", "comparator", "verdict"],
        "rows": [[c["name"], repr(c["residual"]), repr(c["tolerance"]),
                  c["comparator"], int(c["verdict"])] for c in report["checks"]],
    }


def _strict_check(check):
    # JSON has no NaN or infinity: write null and name the value instead
    r = check["residual"]
    if math.isfinite(r):
        return check
    return {**check, "residual": None,
            "nonfinite": "nan" if r != r else ("inf" if r > 0 else "-inf")}


def _render_report(report):
    strict = {**report, "checks": [_strict_check(c) for c in report["checks"]]}
    return json.dumps(strict, indent=2, allow_nan=False) + "\n"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bundlelift",
        description="Diffeomorphism-lifting constructions and checks on "
                    "concrete vector bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("scenario", help="run a named scenario")
    run.add_argument("name", help="scenario name (see `bundlelift list`)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    run.add_argument("--steps", type=int, default=DEFAULT_TRANSPORT_STEPS,
                     help="transport integration steps")
    run.add_argument("--mesh", type=int, default=DEFAULT_MESH_LEVEL,
                     help=f"icosphere subdivision level, 3 to {MAX_MESH_LEVEL} "
                          f"(level {MAX_MESH_LEVEL} peaks near 0.5 GB)")
    run.add_argument("--tol-exact", type=float, default=DEFAULT_TOL_EXACT)
    run.add_argument("--tol-transport", type=float, default=DEFAULT_TOL_TRANSPORT)
    run.add_argument("--json", dest="json_path", default=None,
                     help="write the JSON report to this path")
    run.add_argument("--csv", dest="csv_path", default=None,
                     help="write the scenario's CSV table to this path")
    run.add_argument("--no-timestamp", action="store_true",
                     help="null the timestamp and wall-time fields "
                          "(byte-identical reports)")
    sub.add_parser("list", help="list scenario names")
    sub.add_parser("report-schema", help="print the JSON report schema")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted(SCENARIOS):
            print(name)
        return 0
    if args.command == "report-schema":
        print(json.dumps(REPORT_SCHEMA, indent=2))
        return 0
    cfg = ScenarioConfig(
        scenario=args.name,
        seed=args.seed,
        samples=args.samples,
        transport_steps=args.steps,
        mesh_level=args.mesh,
        tol_exact=args.tol_exact,
        tol_transport=args.tol_transport,
        json_path=args.json_path,
        csv_path=args.csv_path,
        no_timestamp=args.no_timestamp,
    )
    try:
        report, table = run_scenario(cfg)
        rendered = _render_report(report)
        if cfg.json_path:
            with open(cfg.json_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(rendered)
            n_pass = sum(c["verdict"] for c in report["checks"])
            print(f"{cfg.scenario}: {'PASS' if report['overall'] else 'FAIL'} "
                  f"({n_pass}/{len(report['checks'])} checks) -> {cfg.json_path}")
        else:
            sys.stdout.write(rendered)
        if cfg.csv_path:
            emit_plot_data(table if table is not None else _checks_table(report),
                           cfg.csv_path)
    except Exception as exc:
        # every error, ours or not, keeps the contract: one line, exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if report["overall"] else 1


if __name__ == "__main__":
    sys.exit(main())
