"""Byte-identity gate: seed-42 `--no-timestamp` outputs equal the golden
files in tests/data. The torus sweep and grassmann_action files were
written before the torus sweep and the probe draws were stacked; the
metrize_random, frame_view, ambient_projection, homotopy_lift_sphere and
s1xs2_generators files before those scenarios' per-point checks were
stacked; the cpn_conjugation, gluing_demo, sphere_pullbacks and
tangent_isometry files before the w1 sweep's transports were joined, so
that every scenario is gated. Regenerate a file only for a change that is meant to move its
bytes, and say which bytes moved and why."""

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
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
