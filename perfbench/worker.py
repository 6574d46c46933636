"""One benchmark worker: a fresh process that sets up bundlelift, runs one
pass over a scenario plan through ``cli.run_scenario`` and checks every
verdict.

Run (normally started by perfbench/run.py, one worker at a time):

    python3 perfbench/worker.py --plan '<json>' --seed 42 [--spans PATH]

The plan is ``{"meshes": [levels], "scenarios": [{"scenario": name,
"samples": n, "mesh_level": L, "transport_steps": s}, ...]}`` with the
size fields optional. With ``--spans`` the pass runs under the tracer and
the span table is written to PATH at the end. The last line of standard
output is one JSON object with the measurements.
"""

import argparse
import contextlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Checks each scenario makes at the seed commit; a scenario that raises is
# charged with all of them as failed.
EXPECTED_CHECKS = {
    "ambient_projection": 5, "cpn_conjugation": 11, "frame_view": 2,
    "gluing_demo": 4, "grassmann_action": 6, "homotopy_lift_sphere": 5,
    "metrize_random": 6, "s1xs2_generators": 26, "sphere_pullbacks": 15,
    "tangent_isometry": 5, "torus_sweep": 4,
}

# The checks that carry the integer invariants every run must reproduce:
# Chern numbers 0/-1/-2/-3 and -1/+1, degrees 1/-1/2/3/4, products of the
# two, and zero torus mismatches. Each residual is |computed - expected| of
# integers against a 0.5 threshold, so its verdict fails exactly when the
# integer is wrong; the gate only makes sure none of them goes missing.
INTEGER_CHECKS = {
    "sphere_pullbacks": (
        "degree.id", "degree.sigma", "degree.f2", "degree.f3",
        "degree.f2of2_multiplicative", "chern.trivial", "chern.gamma1",
        "chern.f2_pullback", "chern.f3_pullback", "naturality.f2",
        "naturality.f3"),
    "cpn_conjugation": ("obstruction.c1", "obstruction.c1_pullback"),
    "torus_sweep": ("criterion.fast_vs_oracle_mismatches",
                    "criterion.lift_construction_agreement",
                    "w1.profile_mismatches"),
}

SIZE_FIELDS = ("samples", "mesh_level", "transport_steps")


def gate(scenario, report):
    """(attempted, failed, failures) for one scenario report: every verdict,
    and each integer check the report lacks counts as one failed check."""
    failures = [c["name"] for c in report["checks"] if not c["verdict"]]
    names = {c["name"] for c in report["checks"]}
    missing = [name for name in INTEGER_CHECKS.get(scenario, ())
               if name not in names]
    failures += [f"{name} missing" for name in missing]
    return len(report["checks"]) + len(missing), len(failures), failures


# The reference kernel's time on an idle machine of the kind the benchmark
# was written on (2 vCPUs, numpy 2.4); it only sets the scale of the values.
NOMINAL_KERNEL_S = 150e-6
# wall-clock interval between two samples of the reference kernel
TICK_S = 0.02


class SpeedSampler:
    """Samples the machine's speed while the worker runs.

    Other tenants of a shared machine slow it by up to 2x for tens of
    seconds, which moves raw pass times of whole runs by 20-30%. On a
    wall-clock timer signal every TICK_S seconds (no extra thread) the
    sampler times a tiny fixed reference kernel, in wall time and in
    process CPU time: small numpy products and element reads in Python
    loops, like the library's per-point code and Jacobi sweeps. A duration
    scaled by NOMINAL_KERNEL_S over the mean kernel time of its window, on
    the same clock, is the duration at a fixed reference speed: a change
    to the library moves it as it moves the raw time, while a slow machine
    stretches the window and the kernel together.
    """

    def __init__(self):
        import numpy as np

        self.matrix = np.full((4, 4), 0.25)
        self.vector = np.ones((4, 1))
        self.wall = []
        self.cpu = []
        self._previous = None
        # the first runs of the kernel in a process take 2-30 times as long
        for _ in range(10):
            self._tick()
        self.wall.clear()
        self.cpu.clear()

    def _tick(self, signum=None, frame=None):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        v = self.vector
        for _ in range(50):
            v = self.matrix @ v + 0.001 * v
        a = self.matrix
        acc = 0.0
        for _ in range(8):
            for i in range(4):
                for j in range(4):
                    acc += a[i, j] * a[j, i]
        self.cpu.append(time.process_time() - cpu0)
        self.wall.append(time.perf_counter() - wall0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        """Open a window: take one sample now, outside the timed work."""
        self._tick()
        return len(self.wall) - 1

    def spent(self, mark):
        """Wall and CPU seconds the ticks took from the work since ``mark``."""
        return sum(self.wall[mark + 1:]), sum(self.cpu[mark + 1:])

    def scales(self, mark):
        """Factors from raw wall and CPU seconds since ``mark`` to
        reference seconds, each from the kernel's time on its own clock."""
        n = len(self.wall) - mark
        return (NOMINAL_KERNEL_S * n / sum(self.wall[mark:]),
                NOMINAL_KERNEL_S * n / sum(self.cpu[mark:]))


def run_plan(cli, plan, seed, tracer=None):
    """Run every scenario of the plan once; a scenario that raises counts
    all of its checks as failed and the pass continues."""
    results = []
    for entry in plan["scenarios"]:
        name = entry["scenario"]
        sizes = {k: entry[k] for k in SIZE_FIELDS if k in entry}
        cfg = cli.ScenarioConfig(name, seed=seed, no_timestamp=True, **sizes)
        span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        error = None
        try:
            with span:
                report, _ = cli.run_scenario(cfg)
        except Exception as exc:  # the pass must go on to the next scenario
            error = "".join(traceback.format_exception_only(exc)).strip()
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if error is None:
            attempted, failed, failures = gate(name, report)
        else:
            attempted = EXPECTED_CHECKS.get(name, 1)
            failed, failures = attempted, [error]
        results.append({"scenario": name, "samples": cfg.samples,
                        "mesh_level": cfg.mesh_level,
                        "transport_steps": cfg.transport_steps,
                        "wall_s": wall, "cpu_s": cpu, "attempted": attempted,
                        "failed": failed, "failures": failures})
    return results


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    plan = json.loads(args.plan)
    sys.path.insert(0, str(ROOT / "src"))

    # numpy is imported first because the sampler needs it; set-up is then
    # what a CLI invocation pays for this library before its first scenario
    import numpy as np

    with SpeedSampler() as sampler:
        setup_mark = sampler.mark()
        t0 = time.perf_counter()
        from bundlelift import cli
        from bundlelift import manifolds

        tracer = None
        if args.spans:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        for level in plan.get("meshes", ()):
            manifolds.icosphere(level)
        setup = time.perf_counter() - t0 - sampler.spent(setup_mark)[0]

        mark = sampler.mark()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        scenarios = run_plan(cli, plan, args.seed, tracer)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        spent_wall, spent_cpu = sampler.spent(mark)
        wall_scale, cpu_scale = sampler.scales(mark)
        # set-up takes two or three ticks, too few to give its own speed,
        # so it is scaled by the speed over the whole worker
        setup_scale = sampler.scales(setup_mark)[0]
        wall -= spent_wall
        cpu -= spent_cpu

    out = {
        "setup_s": setup * setup_scale,
        "wall_s": wall * wall_scale,
        "cpu_s": cpu * cpu_scale,
        "raw_setup_s": setup,
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "speed_samples": len(sampler.wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(s["attempted"] for s in scenarios),
        "failed": sum(s["failed"] for s in scenarios),
        "scenarios": scenarios,
        "meta": {"python": sys.version.split()[0], "numpy": np.__version__,
                 "blas": _blas()},
    }
    if tracer is not None:
        tracer.uninstall()
        out["totals"] = tracer.totals()
        out["absent"] = tracer.absent
        tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
