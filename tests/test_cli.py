"""CLI contract: subcommands, exit codes, report schema, reproducibility,
CSV emission."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bundlelift import bundles as bd, cli, lifts as lf, manifolds as mf
from bundlelift.bundles import tautological_complex
from bundlelift.cli import (SCENARIOS, ScenarioConfig, emit_plot_data,
                            run_scenario)
from bundlelift.config import (DEFAULT_MESH_LEVEL, DEFAULT_SAMPLES,
                               DEFAULT_SEED, DEFAULT_TOL_EXACT,
                               DEFAULT_TOL_TRANSPORT, DEFAULT_TRANSPORT_STEPS,
                               MAX_MESH_LEVEL)
from bundlelift.errors import BadParams, ConfigInvalid, UnknownScenario
from bundlelift.obstruction import plaquette_phases

from helpers import constant_homotopy, random_point


FAST = {"samples": 10, "transport_steps": 64, "mesh_level": 3}


def _run(*args):
    return subprocess.run([sys.executable, "-m", "bundlelift", *args],
                          capture_output=True, text=True)


def test_list_names_all_scenarios():
    out = _run("list")
    assert out.returncode == 0
    names = out.stdout.split()
    assert names == sorted(SCENARIOS)


def test_report_schema_subcommand():
    out = _run("report-schema")
    assert out.returncode == 0
    schema = json.loads(out.stdout)
    assert schema["schema"] == "1"
    assert "checks" in schema["fields"]


def test_unknown_scenario_exits_2():
    out = _run("scenario", "no_such_thing")
    assert out.returncode == 2
    assert "unknown scenario" in out.stderr.lower()


def test_unknown_flag_exits_2():
    out = _run("scenario", "gluing_demo", "--bogus-flag")
    assert out.returncode == 2


def test_invalid_config_rejected():
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(scenario="gluing_demo", samples=0).validate()
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(scenario="gluing_demo", transport_steps=2).validate()
    with pytest.raises(UnknownScenario):
        ScenarioConfig(scenario="nope").validate()


def test_negative_seed_exits_2():
    out = _run("scenario", "frame_view", "--seed", "-1")
    assert out.returncode == 2
    assert "seed must be >= 0" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("exc", [ValueError("bad value"),
                                 MemoryError("cannot allocate")])
def test_unexpected_error_exits_2(monkeypatch, capsys, exc):
    def scenario(cfg):
        raise exc

    monkeypatch.setitem(cli.SCENARIOS, "gluing_demo", scenario)
    assert cli.main(["scenario", "gluing_demo", "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {type(exc).__name__}: {exc}\n"


def _track(homotopy, seed=0):
    return bd.homotopy_path(homotopy, random_point(homotopy.source, seed))


def _bare_reflection():
    d = mf.named_diffeo(mf.Sphere(2), "sphere_reflection")
    return mf.Diffeo("bare", d.forward, d.inverse, d.source)


# derivatives that have no exact path: sphere_power_map carries no
# differential, so neither does a pullback along it; a direct sum has no
# projector differential
REFUSALS = {
    "pullback_along_power_map": lambda: bd.transport_operator(
        bd.pullback(mf.sphere_power_map(2), bd.tangent_sphere(2)),
        _track(mf.rotation_homotopy(mf.Sphere(2), (0, 1), 1.0)), 64),
    "differential_lift_of_bare_diffeo": lambda: lf.differential_lift(_bare_reflection()),
    "direct_sum": lambda: bd.transport_operator(
        bd.direct_sum(bd.tautological_real(1, 2), bd.tautological_complex(1)),
        _track(constant_homotopy(mf.Product(mf.GrassmannReal(1, 2),
                                            mf.ComplexProjective(1)))), 64),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_derivative_exits_2(monkeypatch, capsys, name):
    with pytest.raises(BadParams, match="has no (projector )?differential"):
        REFUSALS[name]()

    def scenario(cfg):
        REFUSALS[name]()

    monkeypatch.setitem(cli.SCENARIOS, "gluing_demo", scenario)
    assert cli.main(["scenario", "gluing_demo", "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BadParams: ") and err.count("\n") == 1


def _nan_images(make):
    # make(...) with every image of its lift's action NaN
    def patched(*args, **kwargs):
        lift = make(*args, **kwargs)
        return cli.Lift(lift.bundle, lift.base_map,
                        lambda x, v: lift.action(x, v) * np.nan, "nan")

    return patched


@pytest.mark.parametrize("scenario,maker", [
    ("grassmann_action", "grassmann_orthogonal_lift"),  # reaches invert
    ("cpn_conjugation", "cpn_conjugation_lift"),  # fiberwise_complex_correction
])
def test_nan_fiber_matrix_exits_2(monkeypatch, capsys, scenario, maker):
    # a NaN fiber matrix has no singular value: the invertibility guards
    # refuse it instead of letting it past their sv <= 1e-8 test
    monkeypatch.setattr(cli, maker, _nan_images(getattr(cli, maker)))
    assert cli.main(["scenario", scenario, "--samples", "5",
                     "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err == "error: ValueError: matrix has non-finite entries\n"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("value,comparator,marker", [
    (float("nan"), "le", "nan"), (float("inf"), "le", "inf"),
    (float("-inf"), "ge", "-inf")])
def test_nonfinite_residual_is_written_as_strict_json(monkeypatch, tmp_path,
                                                      value, comparator, marker):
    def scenario(cfg):
        return [cli._check("unmeasured", value, 1e-10, comparator),
                cli._check("measured", 0.0, 1e-10)], None

    monkeypatch.setitem(cli.SCENARIOS, "gluing_demo", scenario)
    # the report dictionary keeps the value, its name and its verdict
    report, _ = run_scenario(ScenarioConfig("gluing_demo", no_timestamp=True))
    assert report["checks"][0]["name"] == "unmeasured"
    assert report["checks"][0]["verdict"] is False
    assert np.array_equal(report["checks"][0]["residual"], value, equal_nan=True)
    path = tmp_path / "report.json"
    assert cli.main(["scenario", "gluing_demo", "--no-timestamp",
                     "--json", str(path)]) == 1
    written = json.loads(path.read_text(), parse_constant=_reject_constant)
    bad, good = written["checks"]
    assert bad == {"name": "unmeasured", "residual": None, "tolerance": 1e-10,
                   "comparator": comparator, "verdict": False, "nonfinite": marker}
    assert good == report["checks"][1]


def test_scenario_report_structure(tmp_path):
    path = tmp_path / "report.json"
    out = _run("scenario", "grassmann_action", "--samples", "10",
               "--no-timestamp", "--json", str(path))
    assert out.returncode == 0
    report = json.loads(path.read_text())
    assert report["schema"] == "1"
    assert report["scenario"] == "grassmann_action"
    assert report["overall"] is True
    assert report["wall_time"] is None and report["timestamp"] is None
    assert report["config"]["samples"] == 10
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "tolerance", "comparator",
                              "verdict"}
    assert len(report["checks"]) >= 4


def test_exit_code_1_on_verdict_failure(tmp_path):
    # an absurdly tight exact tolerance makes formula checks fail
    out = _run("scenario", "grassmann_action", "--samples", "5",
               "--tol-exact", "1e-17", "--no-timestamp")
    assert out.returncode == 1


def test_reports_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        out = _run("scenario", "cpn_conjugation", "--samples", "8",
                   "--steps", "64", "--mesh", "3", "--no-timestamp",
                   "--json", str(p))
        assert out.returncode == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_plaquette_csv_sums_to_chern(tmp_path):
    path = tmp_path / "phases.csv"
    out = _run("scenario", "cpn_conjugation", "--seed", "42", "--samples",
               "5", "--steps", "64", "--mesh", "4", "--no-timestamp", "--csv",
               str(path))
    assert out.returncode == 0
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "triangle_index,phase"
    total = sum(float(r.split(",")[1]) for r in rows[1:])
    assert round(total / (2 * np.pi)) == -1
    # the table holds floats and csv writes each as its repr: the bytes of
    # the rows once formatted as f"{i},{repr(float(p))}"
    phases = plaquette_phases(tautological_complex(1), 4)
    want = "triangle_index,phase\n" + "".join(
        f"{i},{repr(float(p))}\n" for i, p in enumerate(phases))
    assert path.read_bytes() == want.encode()


def test_torus_sweep_csv_verdict_columns(tmp_path):
    path = tmp_path / "sweep.csv"
    out = _run("scenario", "torus_sweep", "--samples", "5", "--steps", "64",
               "--no-timestamp", "--csv", str(path))
    assert out.returncode == 0
    rows = [r.split(",") for r in path.read_text().strip().split("\n")]
    assert rows[0] == ["n", "b", "case", "fast_verdict", "oracle_verdict"]
    assert len(rows) == 1 + 220
    assert all(r[3] == r[4] for r in rows[1:])


def test_empty_table_gives_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    emit_plot_data({"name": "t", "header": ["a", "b"], "rows": []}, str(path))
    assert path.read_text() == "a,b\n"


def test_checks_table_fallback_csv(tmp_path):
    path = tmp_path / "checks.csv"
    out = _run("scenario", "gluing_demo", "--no-timestamp", "--csv", str(path))
    assert out.returncode == 0
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "name,residual,tolerance,comparator,verdict"
    assert len(rows) >= 4


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_passes_fast_config(name):
    cfg = ScenarioConfig(scenario=name, no_timestamp=True, **FAST)
    report, _ = run_scenario(cfg)
    failed = [c["name"] for c in report["checks"] if not c["verdict"]]
    assert report["overall"], failed


@pytest.mark.parametrize("seed", [56, 307, 604])
def test_metrize_random_passes_at_seed(seed):
    # seeds at which the polar factor from sym_sqrt(F F^T) missed 1e-8
    report, _ = run_scenario(ScenarioConfig("metrize_random", seed=seed,
                                            no_timestamp=True))
    failed = [c["name"] for c in report["checks"] if not c["verdict"]]
    assert report["overall"], failed


def test_mesh_level_above_the_cap_is_refused_by_validation():
    # validation alone: a mesh above the cap is never built
    ScenarioConfig(scenario="cpn_conjugation", mesh_level=MAX_MESH_LEVEL).validate()
    with pytest.raises(ConfigInvalid, match=f"<= {MAX_MESH_LEVEL}"):
        ScenarioConfig(scenario="cpn_conjugation",
                       mesh_level=MAX_MESH_LEVEL + 1).validate()
    with pytest.raises(ConfigInvalid):
        ScenarioConfig(scenario="sphere_pullbacks", mesh_level=10 ** 6).validate()


def test_mesh_above_the_cap_exits_2_before_the_scenario_runs(monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(SCENARIOS, "cpn_conjugation",
                        lambda cfg: ran.append(cfg) or ([], None))
    code = cli.main(["scenario", "cpn_conjugation", "--mesh",
                     str(MAX_MESH_LEVEL + 1), "--no-timestamp"])
    assert code == 2 and not ran
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigInvalid") and err.count("\n") == 1


def test_help_states_the_mesh_cap(capsys):
    with pytest.raises(SystemExit):
        cli.main(["scenario", "--help"])
    assert f"3 to {MAX_MESH_LEVEL}" in " ".join(capsys.readouterr().out.split())


def test_scenario_config_defaults_by_position_and_by_name():
    defaults = {"scenario": "frame_view", "seed": DEFAULT_SEED,
                "samples": DEFAULT_SAMPLES,
                "transport_steps": DEFAULT_TRANSPORT_STEPS,
                "mesh_level": DEFAULT_MESH_LEVEL, "tol_exact": DEFAULT_TOL_EXACT,
                "tol_transport": DEFAULT_TOL_TRANSPORT, "json_path": None,
                "csv_path": None, "no_timestamp": False}
    assert vars(ScenarioConfig("frame_view")) == defaults
    assert vars(ScenarioConfig(scenario="frame_view")) == defaults
    # as a benchmark worker builds it: the name, then keywords
    cfg = ScenarioConfig("frame_view", seed=7, no_timestamp=True, samples=3)
    assert vars(cfg) == {**defaults, "seed": 7, "no_timestamp": True, "samples": 3}
    assert vars(ScenarioConfig(*defaults.values())) == defaults


def test_import_loads_no_dataclasses():
    # the package writes its classes plainly: importing the CLI builds no
    # class from generated source, so it never imports dataclasses
    code = "import sys, bundlelift.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_scenarios_never_import_numpy_random(tmp_path):
    # every draw comes from numkernel.stream: the 11 scenarios, run in one
    # fresh process, leave numpy's random package unimported, and no
    # module of the package names it
    code = (
        "import json, sys\n"
        "from bundlelift import cli\n"
        "codes = {name: cli.main(['scenario', name, '--samples', '20', '--json',\n"
        f"                        {str(tmp_path)!r} + '/' + name + '.json'])\n"
        "         for name in cli.SCENARIOS}\n"
        "print(json.dumps([codes, 'numpy.random' in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == {name: 0 for name in SCENARIOS}
    assert not loaded
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "np.random" not in text and "numpy.random" not in text, path.name


def test_tolerance_defaults_come_from_the_config():
    args = cli.build_parser().parse_args(["scenario", "frame_view"])
    cfg = ScenarioConfig(scenario="frame_view")
    assert (args.tol_exact, args.tol_transport) == \
        (cfg.tol_exact, cfg.tol_transport) == \
        (DEFAULT_TOL_EXACT, DEFAULT_TOL_TRANSPORT)


TRANSPORT_ERRORS = {
    "homotopy_lift_sphere": ["homotopy_lift.transport_error"],
    "s1xs2_generators": ["a_lift.n1.transport_error", "a_lift.n2.transport_error"],
    "torus_sweep": ["w1.transport_error"],
}


@pytest.mark.parametrize("name", sorted(TRANSPORT_ERRORS))
def test_default_step_count_keeps_transport_errors_far_inside_the_gate(name):
    # the default step count was chosen so that every transport error
    # estimate at seeds 0-9 stays below tol_transport / 1000; the worst is
    # a_lift.n2.transport_error at 2.5e-9
    args = cli.build_parser().parse_args(["scenario", name])
    assert args.steps == ScenarioConfig(name).transport_steps == DEFAULT_TRANSPORT_STEPS
    for seed in range(10):
        report, _ = run_scenario(ScenarioConfig(name, seed=seed, no_timestamp=True))
        errors = {c["name"]: c for c in report["checks"]
                  if c["name"].endswith(".transport_error")}
        assert sorted(errors) == TRANSPORT_ERRORS[name]
        for check in errors.values():
            assert check["tolerance"] == DEFAULT_TOL_TRANSPORT
            assert check["residual"] <= DEFAULT_TOL_TRANSPORT / 1000, (seed, check)


@pytest.mark.parametrize("name,flags,failing", [
    # the quarter-turn's estimate is 1.6e-6 at 16 steps; the n = 2 half-turn
    # reads 2.0e-5 and the torus loops 2.8e-5, over the default 1e-5
    ("homotopy_lift_sphere", ["--tol-transport", "1e-7"],
     "homotopy_lift.transport_error"),
    ("s1xs2_generators", [], "a_lift.n2.transport_error"),
    ("torus_sweep", [], "w1.transport_error"),
])
def test_transport_error_check_fails_a_coarse_grid(tmp_path, name, flags, failing):
    path = tmp_path / "report.json"
    assert cli.main(["scenario", name, "--steps", "16", *flags, "--no-timestamp",
                     "--json", str(path)]) == 1
    failed = [c["name"] for c in json.loads(path.read_text())["checks"]
              if not c["verdict"]]
    assert failing in failed


@pytest.mark.parametrize("name", sorted(TRANSPORT_ERRORS))
def test_odd_step_count_runs_with_an_estimate(tmp_path, name):
    # an odd count is not refused: its step-doubled walk pairs all steps
    # but the last, which it takes at step h, and the estimate is checked
    # as at an even count
    path = tmp_path / "report.json"
    assert cli.main(["scenario", name, "--steps", "129", "--samples", "10",
                     "--no-timestamp", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    errors = [c for c in report["checks"] if c["name"].endswith(".transport_error")]
    assert [c["name"] for c in errors] == TRANSPORT_ERRORS[name]
    assert all(0.0 < c["residual"] <= 1e-8 for c in errors)
