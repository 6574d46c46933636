"""Byte-identity gate: seed-42 `--no-timestamp` outputs equal the golden
files in tests/data. The torus sweep and grassmann_action files were
written before the torus sweep and the probe draws were stacked; the
metrize_random, frame_view, ambient_projection, homotopy_lift_sphere and
s1xs2_generators files before those scenarios' per-point checks were
stacked; the cpn_conjugation, gluing_demo, sphere_pullbacks and
tangent_isometry files before the w1 sweep's transports were joined, so
that every scenario is gated. Regenerate a file only for a change that is meant to move its
bytes, and say which bytes moved and why. A failure names the first JSON
paths (or CSV cells) that moved, with their golden and new values.

s1xs2_generators.json was regenerated when the unitary homotopy family
moved from complex ``@`` to ``numkernel.small_matmul``: six residuals of
the antipodal lifts moved in their last digits (``checks[8]``, ``[9]``,
``[10]``, ``[21]``, ``[22]``, ``[23]``, listed in CHANGES.md), and every
name and verdict stayed.

ambient_projection, cpn_conjugation, frame_view, grassmann_action,
homotopy_lift_sphere, metrize_random, s1xs2_generators and
tangent_isometry .json were regenerated when random points came to be
drawn as blocks from one stream per purpose (check_lift's probes, the
injectivity probes of ambient_projection_lift, and each scenario's own
points) instead of one generator per point or probe: the residuals
measured on those points moved (listed in CHANGES.md), and every name,
verdict and tolerance stayed. gluing_demo.json kept its bytes: its
overlap points are drawn anew too, but its residuals came out the same.
The torus sweep files draw no points and were unchanged then.

torus_sweep.csv was regenerated when the sweep's 220 matrices came to be
drawn as blocks from the one stream [seed, 600] instead of one generator
per matrix: the matrices changed, so the rows' verdicts moved (77 of 220
liftable, from 90), while every check of torus_sweep.json, and so its
bytes, stayed.

ambient_projection, cpn_conjugation, frame_view, grassmann_action,
homotopy_lift_sphere, s1xs2_generators and tangent_isometry .json were
regenerated when fiber bases came to be the columns of a pivoted
Cholesky factor of the projector instead of the top eigenvectors of an
eigensolve: the bases span the same fibers but are other rotations of
them, so 19 residuals moved in their last digits (listed in CHANGES.md),
and every name, verdict and tolerance stayed. metrize_random,
gluing_demo, sphere_pullbacks and both torus_sweep files kept their
bytes.

grassmann_action, metrize_random, s1xs2_generators and tangent_isometry
.json were regenerated when smallest singular values came to be computed
by one-sided Jacobi sweeps instead of LAPACK's SVD: five residuals moved
in their last digits (grassmann_action
``orthogonal_lift.min_singular_value``, metrize_random
``metrized.min_singular_value``, s1xs2_generators
``a_lift.n1.min_singular_value`` and ``a_lift.n2.min_singular_value``,
tangent_isometry ``differential_sigma.min_singular_value``), and every
name, verdict and tolerance stayed. The polar factor from one SVD moved
no byte: at identity metrics the two-metric formula it replaced computed
the same products.

homotopy_lift_sphere and s1xs2_generators .json were regenerated when
the RK4 grid of every transport came to be cut into segments, each
walked from the projector at its first node, and the operator came to be
the product of the segment transports: ten residuals moved in their last
digits (homotopy_lift_sphere ``checks[0]`` to ``[3]``, s1xs2_generators
``checks[8]``, ``[9]``, ``[10]``, ``[21]``, ``[22]``, ``[23]``, listed in
CHANGES.md), and every name, verdict and tolerance stayed. The other
reports, both torus_sweep files included, kept their bytes.

s1xs2_generators and tangent_isometry .json were regenerated when every
derivative came to be exact: transport along a pullback by the map's
differential instead of central differences, and the differential lift's
Jacobian from the diffeomorphism's differential instead of central
differences on its radial extension. Ten residuals moved, and every name,
verdict and tolerance stayed: s1xs2_generators ``a_lift.n1.linearity``
9.4e-17 -> 1.2e-16, ``a_lift.n1.min_singular_value`` 1 - 1.7e-12 ->
1 - 4.4e-14, ``a_lift.n2.base`` 4.59e-16 -> 4.57e-16,
``a_lift.n2.linearity`` 1.5e-16 -> 1.3e-16 and
``a_lift.n2.min_singular_value`` 1 - 4.2e-12 -> 1 - 7.7e-14;
tangent_isometry ``differential_sigma.base`` 1.8e-16 -> 1.6e-16,
``differential_sigma.linearity`` 1.6e-16 -> 1.2e-16,
``differential_sigma.min_singular_value`` 1 - 2.7e-11 -> 1 - 4.4e-16,
``metrized_sigma.isometry`` 1.3e-15 -> 1.1e-15 and
``differential_rotation.isometry`` 1.8e-10 -> 1.0e-15.

homotopy_lift_sphere and s1xs2_generators .json were regenerated when the
transport paths came to be written in closed form: the sphere rotation
family on its two plane coordinates instead of a matrix-vector product,
and the CP^1 half-turn as R P R^T, entry by entry, instead of the general
unitary family. Nine residuals moved in their last digits, and every
name, verdict and tolerance stayed: homotopy_lift_sphere
``homotopy_lift.linearity`` 1.66e-16 -> 1.64e-16,
``homotopy_lift.min_singular_value`` 1 - 8.95e-14 -> 1 - 9.07e-14 and
``homotopy_lift.isometry`` 1.665e-13 -> 1.671e-13; s1xs2_generators
``a_lift.n1.base`` 4.75e-16 -> 4.61e-16, ``a_lift.n1.linearity``
1.2e-16 -> 1.6e-16, ``a_lift.n1.min_singular_value`` 1 - 4.4e-14 ->
1 - 8.0e-14, ``a_lift.n2.base`` 4.569e-16 -> 4.578e-16,
``a_lift.n2.linearity`` 1.26e-16 -> 1.61e-16 and
``a_lift.n2.min_singular_value`` 1 - 7.7e-14 -> 1 - 1.1e-13. The other
reports, both torus_sweep files included, kept their bytes.

Every .json file was regenerated when the default transport step count
went from 1024 to 128 and every transport came to carry its Richardson
error estimate: each report's ``config.transport_steps`` moved, and the
eight reports that transport nothing changed in that field alone.
homotopy_lift_sphere gained ``homotopy_lift.transport_error`` (3.7e-10),
s1xs2_generators ``a_lift.n1.transport_error`` (5.0e-10) and
``a_lift.n2.transport_error`` (2.4e-9), and torus_sweep.json
``w1.transport_error`` (8.8e-10). Ten residuals of the transport lifts
moved, and every name, verdict and tolerance stayed: homotopy_lift_sphere
``homotopy_lift.base`` 1.67e-16 -> 2.22e-16, ``homotopy_lift.linearity``
1.64e-16 -> 1.33e-16, ``homotopy_lift.min_singular_value`` 1 - 9.1e-14 ->
1 - 2.4e-10 and ``homotopy_lift.isometry`` 1.67e-13 -> 4.48e-10;
s1xs2_generators ``a_lift.n1.base`` 4.61e-16 -> 4.65e-16,
``a_lift.n1.linearity`` 1.59e-16 -> 1.95e-16,
``a_lift.n1.min_singular_value`` 1 - 8.0e-14 -> 1 - 7.6e-12,
``a_lift.n2.base`` 4.58e-16 -> 4.61e-16, ``a_lift.n2.linearity``
1.61e-16 -> 1.84e-16 and ``a_lift.n2.min_singular_value`` 1 - 1.1e-13 ->
1 - 3.2e-10. torus_sweep.csv kept its bytes.

Every file but sphere_pullbacks.json and torus_sweep.json was
regenerated when every seeded draw came to be taken from
``numkernel.stream`` (SplitMix64 words, Box-Muller normals) instead of
numpy's generator, with the same tags, and s1xs2_generators gained
``a_lift.n1.isometry`` (1.5e-11) and ``a_lift.n2.isometry`` (6.5e-10),
each against the transport tolerance and right after its lift's
``min_singular_value`` check. The residuals measured on the drawn points
moved at roundoff scale (listed in CHANGES.md), and every other name,
every verdict and every tolerance stayed. torus_sweep.csv's matrices are
new draws, so its rows' verdicts moved (81 of 220 liftable, from 77);
every check of torus_sweep.json, and so its bytes, stayed.
``cp1_power_map``'s integer powers by products, in the same change,
moved no byte of sphere_pullbacks.json."""

import csv
import io
import json
from pathlib import Path

import pytest

from bundlelift import cli

DATA = Path(__file__).parent / "data"

GOLDEN = [
    # (scenario, extra flags, golden files by output flag)
    ("torus_sweep", [], {"--json": "torus_sweep.json",
                         "--csv": "torus_sweep.csv"}),
    ("grassmann_action", ["--samples", "200"],
     {"--json": "grassmann_action.json"}),
] + [
    (name, [], {"--json": f"{name}.json"})
    for name in ("metrize_random", "frame_view", "ambient_projection",
                 "homotopy_lift_sphere", "s1xs2_generators", "cpn_conjugation",
                 "gluing_demo", "sphere_pullbacks", "tangent_isometry")
]


@pytest.mark.parametrize("scenario,flags,golden", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_seed42_outputs_are_byte_identical_to_golden(tmp_path, scenario, flags,
                                                     golden):
    outputs = []
    for flag, name in golden.items():
        outputs += [flag, str(tmp_path / name)]
    argv = ["scenario", scenario, "--seed", "42", "--no-timestamp", *flags,
            *outputs]
    assert cli.main(argv) == 0
    for name in golden.values():
        new, old = (tmp_path / name).read_bytes(), (DATA / name).read_bytes()
        assert new == old, _describe_changes(name, old, new)


_ABSENT = "<absent>"


def _json_changes(old, new, path="$"):
    # (path, golden value, new value) where two parsed JSON documents
    # differ, in document order; 1 and 1.0 differ, as their bytes do
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from _json_changes(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                     f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from _json_changes(old[i] if i < len(old) else _ABSENT,
                                     new[i] if i < len(new) else _ABSENT,
                                     f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def _csv_changes(old, new):
    rows = [list(csv.reader(io.StringIO(text.decode()))) for text in (old, new)]
    header = rows[0][0] if rows[0] else []
    for r in range(max(map(len, rows))):
        cells = [table[r] if r < len(table) else [] for table in rows]
        for c in range(max(map(len, cells))):
            a, b = (row[c] if c < len(row) else _ABSENT for row in cells)
            if a != b:
                column = header[c] if c < len(header) else c
                yield f"line {r + 1}, column {column}", a, b


def _describe_changes(name, old, new, limit=10):
    """The failure message of a golden mismatch: the first paths that
    moved, each with its golden and its new value."""
    try:
        if name.endswith(".json"):
            changes = list(_json_changes(json.loads(old), json.loads(new)))
        else:
            changes = list(_csv_changes(old, new))
    except ValueError as exc:
        return f"{name}: bytes differ, and the new output does not parse ({exc})"
    if not changes:
        return f"{name}: bytes differ, but every value is equal (layout or key order)"
    lines = [f"{name}: {len(changes)} value(s) moved, the first {min(limit, len(changes))}:"]
    lines += [f"  {path}: {a!r} -> {b!r}" for path, a, b in changes[:limit]]
    return "\n".join(lines)


def test_golden_mismatch_names_the_moved_values():
    old = json.dumps({"checks": [{"residual": 0.9999999999973996, "verdict": True}],
                      "n": 1}).encode()
    new = json.dumps({"checks": [{"residual": 0.9999999999974566, "verdict": True},
                                 {"residual": 0.5}], "n": 1.0}).encode()
    message = _describe_changes("s.json", old, new)
    assert message.splitlines() == [
        "s.json: 3 value(s) moved, the first 3:",
        "  $.checks[0].residual: 0.9999999999973996 -> 0.9999999999974566",
        "  $.checks[1]: '<absent>' -> {'residual': 0.5}",
        "  $.n: 1 -> 1.0"]
    assert _describe_changes("s.json", old, old.replace(b", ", b",")).endswith(
        "every value is equal (layout or key order)")
    assert "does not parse" in _describe_changes("s.json", old, b"{")
    message = _describe_changes("t.csv", b"n,b\n1,1\n2,0\n", b"n,b\n1,1\n2,1\n3,0\n")
    assert message.splitlines() == [
        "t.csv: 3 value(s) moved, the first 3:",
        "  line 3, column b: '0' -> '1'",
        "  line 4, column n: '<absent>' -> '3'",
        "  line 4, column b: '<absent>' -> '0'"]
