"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SMALL_PLAN = {
    "meshes": [3, 4],
    "scenarios": [
        {"scenario": "homotopy_lift_sphere", "samples": 3, "transport_steps": 64},
        {"scenario": "metrize_random", "samples": 20},
        {"scenario": "sphere_pullbacks", "mesh_level": 3},
    ],
}


def _worker(plan, seed, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", json.dumps(plan),
           "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counters_repeat_for_equal_seeds(tmp_path):
    first = _worker(SMALL_PLAN, 42, tmp_path / "a.json")
    second = _worker(SMALL_PLAN, 42, tmp_path / "b.json")
    counters = {k: v for k, v in first["totals"].items() if not k.endswith("_s")}
    assert counters == {k: v for k, v in second["totals"].items()
                        if not k.endswith("_s")}
    for key in ("bundles.fiber_projector.calls", "kernels.rk4_transport.steps",
                "bundles.fiber_basis.eigensolves", "lifts.check_lift.probes"):
        assert counters[key] > 0, key
    assert first["failed"] == 0
    assert first["absent"] == []
    spans = json.loads((tmp_path / "a.json").read_text())
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"]) > 0
    assert all(end >= start for start, end in zip(spans["start"], spans["end"]))


def test_second_seed_passes_every_workload():
    for name, plan in run.WORKLOADS.items():
        result = _worker(plan, 7)
        assert result["attempted"] > 0
        assert result["failed"] == 0, (name, [s["failures"] for s in result["scenarios"]])


def test_wrapper_rebinds_names_imported_from_other_modules():
    from bundlelift import bundles, cli, lifts, numkernel

    originals = (lifts.check_lift, bundles.transport_operator,
                 numkernel.sym_eigh, bundles.BundleModel.fiber_projector)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.check_lift is lifts.check_lift is not originals[0]
        assert lifts.transport_operator is bundles.transport_operator \
            is not originals[1]
        assert bundles.sym_eigh is numkernel.sym_eigh is not originals[2]
        assert bundles.BundleModel.fiber_projector is not originals[3]
    finally:
        tr.uninstall()
    assert (cli.check_lift, lifts.transport_operator, bundles.sym_eigh,
            bundles.BundleModel.fiber_projector) == originals


def test_missing_target_is_reported_absent(monkeypatch):
    import bundlelift.cli  # noqa: F401  (loads every layer)

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        tracer.Target("bundles.transport_operators", "bundles",
                      "transport_operators"),
        tracer.Target("gone.fn", "no_such_module", "fn"),
    ))
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert {"bundles.transport_operators", "gone.fn"} <= set(tr.absent)
    metrics = tracer.layer_metrics({"transport": tr.totals()}, 1.0, 1.0)
    assert list(metrics) == [row[0] for row in tracer.PER_LAYER]


def test_layer_metrics_read_only_their_source_workloads():
    totals = {
        "formula_checks": {"lifts.check_lift.busy_s": 2.0,
                           "lifts.check_lift.self_s": 0.5,
                           "lifts.check_lift.probes": 1000},
        "transport": {"lifts.check_lift.busy_s": 9.0,
                      "lifts.check_lift.self_s": 0.25,
                      "lifts.check_lift.probes": 20,
                      "transport_lift.probes": 20,
                      "transport_lift.tracks": 40},
    }
    metrics = tracer.layer_metrics(totals, 1.0, 1.05)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["lifts.check_lift.busy_s"] == 2.0
    assert value["lifts.check_lift.us_per_probe"] == 2000.0
    assert value["lifts.check_lift.self_s"] == 0.75
    assert value["bundles.tracks_per_probe"] == 2.0


def test_git_sha_outside_a_repository_is_none(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run._git_sha() is None


def test_raising_scenario_fails_its_checks_and_the_pass_continues(monkeypatch):
    from bundlelift import cli

    def broken(cfg):
        raise ValueError("boom")

    monkeypatch.setitem(cli.SCENARIOS, "frame_view", broken)
    plan = {"scenarios": [{"scenario": "frame_view", "samples": 2},
                          {"scenario": "gluing_demo"}]}
    first, second = worker.run_plan(cli, plan, seed=1)
    assert first["failed"] == first["attempted"] == worker.EXPECTED_CHECKS["frame_view"]
    assert "ValueError: boom" in first["failures"][0]
    assert second["failed"] == 0 and second["attempted"] == 4


def test_gate_fails_a_missing_integer_check_once():
    report = {"checks": [
        {"name": "criterion.fast_vs_oracle_mismatches", "residual": 1.0,
         "verdict": False},
        {"name": "criterion.lift_construction_agreement", "residual": 0.0,
         "verdict": True}]}
    attempted, failed, failures = worker.gate("torus_sweep", report)
    assert (attempted, failed) == (3, 2)
    assert failures == ["criterion.fast_vs_oracle_mismatches",
                        "w1.profile_mismatches missing"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in tracer.PER_LAYER]
    assert {w for row in tracer.PER_LAYER for w in row[3]} == set(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transport",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
