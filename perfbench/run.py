#!/usr/bin/env python3
"""bundlelift benchmark: end-to-end metrics per workload, per-layer metrics
from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload transport --seed 42 --seconds 30 --trace 0

Each workload is a fixed list of CLI scenarios (``cli.run_scenario``) at
fixed sizes; the seed reaches the library only as ``ScenarioConfig.seed``,
and scenario verdicts are deterministic for a given seed. Every pass runs
in its own fresh worker process (perfbench/worker.py), one worker at a
time, so each pass pays what a CLI invocation pays.

``--trace 0`` starts workers until ``--seconds`` is used up (at least
three) and reports, as medians over the workers:

* ``wall_s``          wall time of one pass over the scenario list, set-up excluded
* ``cpu_s``           process CPU time of the same pass
* ``setup_s``         importing ``bundlelift.cli`` and building the workload's
                      meshes (numpy is imported before the clock starts)
* ``peak_rss_mb``     peak resident set of the worker (``ru_maxrss``)
* ``check_pass_frac`` checks passed / checks attempted, over all workers

Other tenants of a shared machine slow it by up to 2x for tens of
seconds, which moves the raw times of whole runs by 20-30%. So
``wall_s``, ``cpu_s`` and ``setup_s`` are in reference seconds: each raw
time is scaled by the speed that ``worker.SpeedSampler`` measures during
the same window, on the same clock: wall time or process CPU time (see
there). The raw medians are printed as
``raw_wall_s``, ``raw_cpu_s`` and ``raw_setup_s``. ``check_fail_frac``
(failed / attempted, 0 at a correct commit) is printed too; the gated
metric is its complement, because a gated metric must never be 0.

``--trace 1`` is the traced run. Whatever ``--workload`` says, it runs
every workload twice untraced and twice under perfbench/tracer.py,
alternating, each in its own worker, so that every layer is exercised
and every per-layer metric is measured. Each per-layer metric is read
from the traced workers of the workloads ``tracer.PER_LAYER`` lists it
with, the ones below. ``trace.overhead_frac`` compares the mean traced
and untraced pass times. Spans are written to ``.perfbench_out/``.

Which end-to-end metric each per-layer metric should move:

* ``cli.<scenario>.wall_s``: ``wall_s`` of the workload holding the scenario
* ``lifts.check_lift.*``, ``lifts.Lift.action.calls``: ``wall_s`` on
  formula_checks; on transport only ``self_s`` (the rest is transport)
* ``bundles.fiber_projector.calls``, ``bundles.transport_operator.*``
  (self time is RK4 stage assembly), ``bundles.transport.*``,
  ``bundles.tracks_per_probe``, ``kernels.rk4_transport.*``,
  ``obstruction.w1_profile.busy_s``, ``obstruction.torus_criterion.*``:
  ``wall_s`` and ``peak_rss_mb`` on transport
* ``bundles.fiber_basis.*``, ``kernels.jacobi_eigh.*``,
  ``numkernel.sym_eigh.*``, ``numkernel.polar_two_metric.*``,
  ``gluing.cocycle_compat_check.busy_s``: ``wall_s`` on formula_checks
* ``bundles.complex_fiber_projector.calls``, ``kernels.plaquette_phases.*``,
  ``kernels.solid_angles.*``, ``obstruction.lattice_chern_number.*``,
  ``obstruction.plaquette_phases.self_s`` (vertex evaluation),
  ``manifolds.degree.*``: ``wall_s`` on invariants
* ``manifolds.cpn_homogeneous.calls``: transport and invariants
* ``manifolds.icosphere.busy_s``: ``setup_s`` on invariants

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracer import layer_metrics  # noqa: E402

# Each workload: the meshes its set-up builds and its scenarios with their
# size levers (unlisted flags keep the CLI defaults).
WORKLOADS = {
    # L1 projector fields and L2 RK4 transport: the tangent-sphere field,
    # the finite-difference CP^1 pullback field (cpn_homogeneous per stage)
    # and the torus-line holonomy. Sized so neither transport lift takes
    # more than about two thirds of the pass, so that a gain on one field
    # does not vanish in the other.
    "transport": {
        "meshes": [],
        "scenarios": [
            {"scenario": "homotopy_lift_sphere", "samples": 16},
            {"scenario": "s1xs2_generators", "samples": 3},
            {"scenario": "torus_sweep"},
        ],
    },
    # Formula lifts through check_lift, no transport and no mesh: per-probe
    # Python and the Jacobi eigensolves behind fiber_basis and
    # polar_two_metric. Shows whether batching check_lift costs formula
    # lifts anything.
    "formula_checks": {
        "meshes": [],
        "scenarios": [
            {"scenario": s, "samples": 1000}
            for s in ("grassmann_action", "metrize_random", "tangent_isometry",
                      "ambient_projection", "frame_view", "gluing_demo")
        ],
    },
    # Integer invariants: per-vertex projector and map evaluation on
    # icosphere meshes feeding the plaquette and solid-angle kernels, no
    # transport. Chern numbers and degrees read the mesh at level L and
    # L + 1, so set-up builds both. Level 4 is the CLI default and keeps
    # the pass short enough for about ten passes per run.
    "invariants": {
        "meshes": [4, 5],
        "scenarios": [
            {"scenario": "sphere_pullbacks", "mesh_level": 4},
            {"scenario": "cpn_conjugation", "mesh_level": 4},
        ],
    },
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("check_pass_frac", "frac"),
)

MIN_WORKERS = 3
# untraced/traced worker pairs per workload in the traced run
TRACE_REPEATS = 2
# every run must finish well inside the 180 s a run is allowed
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(plan, seed, deadline, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", json.dumps(plan),
           "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_sha():
    """HEAD of the checkout; None when git is missing or the checkout is
    not a git repository (git does not look above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload, seed, seconds, deadline):
    """Workers until ``seconds`` are used; never fewer than MIN_WORKERS."""
    plan = WORKLOADS[workload]
    start = time.monotonic()
    workers = []
    while True:
        t0 = time.monotonic()
        workers.append(run_worker(plan, seed, deadline))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if len(workers) >= MIN_WORKERS and elapsed + took > seconds:
            return workers


def traced(seed, deadline):
    """Every workload TRACE_REPEATS times untraced and traced, alternating,
    each in a fresh worker."""
    OUT_DIR.mkdir(exist_ok=True)
    runs = {}
    for name, plan in WORKLOADS.items():
        runs[name] = {"untraced": [], "traced": []}
        for i in range(TRACE_REPEATS):
            runs[name]["untraced"].append(run_worker(plan, seed, deadline))
            spans = OUT_DIR / f"spans-{name}-seed{seed}-{i}.json"
            runs[name]["traced"].append(
                run_worker(plan, seed, deadline, spans=spans))
    return runs


def _layer_totals(runs):
    """Per workload, the per-layer totals of its traced workers: times
    averaged over the workers, counts (equal in each) taken once."""
    totals = {}
    for name, pair in runs.items():
        workers = pair["traced"]
        totals[name] = {
            key: (sum(w["totals"][key] for w in workers) / len(workers)
                  if key.endswith("_s") else value)
            for key, value in workers[0]["totals"].items()}
    return totals


def _mean_wall(workers):
    return sum(w["wall_s"] for w in workers) / len(workers)


def _median(workers, key):
    return statistics.median(w[key] for w in workers)


def _scenario_shares(workers):
    """Per scenario: sizes used, median wall time and its share of the
    median pass."""
    pass_wall = _median(workers, "wall_s")
    rows = []
    for i, entry in enumerate(workers[0]["scenarios"]):
        wall = statistics.median(w["scenarios"][i]["wall_s"] for w in workers)
        rows.append({k: entry[k] for k in
                     ("scenario", "samples", "mesh_level", "transport_steps")}
                    | {"wall_s": wall, "share_of_wall": wall / pass_wall})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "bundlelift" / "cli.py").is_file():
        print(f"error: no bundlelift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            runs = traced(args.seed, deadline)
            workers = [w for pair in runs.values() for ws in pair.values() for w in ws]
        else:
            workers = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if args.trace:
        metrics = layer_metrics(
            _layer_totals(runs),
            untraced_wall=sum(_mean_wall(p["untraced"]) for p in runs.values()),
            traced_wall=sum(_mean_wall(p["traced"]) for p in runs.values()))
        absent = sorted({a for p in runs.values() for w in p["traced"]
                         for a in w["absent"]})
        record = {"runs": runs, "absent": absent}
        shown = {}
    else:
        values = {key: _median(workers, key) for key in
                  ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        values["check_pass_frac"] = 1.0 - failed / attempted
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        shown = {key: _median(workers, key) for key in
                 ("raw_wall_s", "raw_cpu_s", "raw_setup_s")}
        record = {"workers": workers, "scenarios": _scenario_shares(workers)}

    meta = {"git_sha": _git_sha(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "workers": len(workers), **workers[0]["meta"],
            "nproc": len(os.sched_getaffinity(0))}
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"meta": meta, "metrics": metrics, **record},
                                   indent=1))

    print(f"# {json.dumps(meta)}")
    for row in record.get("scenarios", ()):
        print(f"# scenario {json.dumps(row)}")
    if args.trace and absent:
        print(f"# absent targets: {', '.join(absent)}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    for name, value in shown.items():
        print(f"{name:<44} {value:>16.6g} s")
    print(f"{'check_fail_frac':<44} {failed / attempted:>16.6g} frac")
    for w in workers:
        for s in w["scenarios"]:
            for failure in s["failures"]:
                print(f"FAILED {s['scenario']}: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
