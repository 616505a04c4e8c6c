#!/usr/bin/env python3
"""Benchmark of dualctl, driven through its public API on one process.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-fine --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

An untraced run (``--trace 0``) repeats the workload's unit of work for
``--seconds`` seconds with nothing wrapped and reports the end-to-end metrics.
A traced run (``--trace 1``) reports the per-layer metrics from whole passes
over a fixed set of units: first with only the run_experiment stage hooks,
then with each unit run untraced and again with every traced function of the
package wrapped (see ``tracer.py``).  Every unit's output is compared with the
reference output of its input.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result, with
the host stamp and, for traced runs, the spans, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

from calibration import REFERENCE_S, calibration_s  # noqa: E402
from tracer import STAGE_OF_EVENT, TRACED, StageClock, Tracer, installed_wrappers  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Outcome,
    compare,
    input_order,
    load_references,
    run_cli,
    run_mc,
)

# Set-ups per run, spread over the run; each is a fresh interpreter, and the
# median is reported.
SETUP_REPS = 11
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import dualctl\n"
    "dualctl.parse_config(sys.argv[1]).build_grid()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "run_s_p50": "s",
    "peak_rss_mb": "MiB",
}

# End-to-end metrics that carry no bound, so they are reported unscaled with
# the per-layer metrics (and printed by every run): the run-time tail follows
# the host's slow stretches more than the calibration can correct, j_m and
# failed_frac are pinned by the references and 0 on some workloads, and trace
# I/O happens on one workload only.
WORKLOAD_UNITS = {
    "e2e.run_s_tail": "s",
    "e2e.j_m": "index",
    "e2e.failed_frac": "fraction",
    "e2e.trace_io_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.share"] = "fraction"
    units.update({
        "harness.iterations": "count",
        "harness.failed_runs": "count",
        "harness.useful_iter_frac": "fraction",
        "harness.trace_bytes": "bytes",
    })
    units.update({f"stage.{s}": "ns/iter" for s in STAGE_OF_EVENT.values()})
    units["trace.overhead"] = "ratio"
    units.update(WORKLOAD_UNITS)
    return units


def import_program():
    """Import dualctl from the checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dualctl", "__init__.py")):
        raise SystemExit(f"error: no dualctl sources under {src}")
    sys.path.insert(0, src)
    import dualctl
    import dualctl.cli  # not imported by the package itself

    if not os.path.abspath(dualctl.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported dualctl from {dualctl.__file__}, not from {src}")
    return dualctl


def assert_untraced(dualctl) -> None:
    left = installed_wrappers(dualctl)
    if left or dualctl.harness.bayes_step is not dualctl.learner.bayes_step:
        raise RuntimeError(f"tracing wrappers are still installed: {left}")


def measure_setup(config: str) -> float:
    """Import dualctl, parse_config and build_grid in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, config],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Session:
    """One benchmark run: the program, the workload, its references and scratch space.

    Every unit run is counted in ``attempted``; ``outcomes`` keeps the ones that
    returned and ``errors`` the ones that raised.
    """

    def __init__(self, dualctl, workload, seed: int, tmpdir: str):
        self.dualctl = dualctl
        self.workload = workload
        self.seed = seed
        self.tmpdir = tmpdir
        self.config = os.path.join(ROOT, workload.config)
        self.references = load_references(workload)
        self.order = input_order(workload, seed)
        self.cfg = dualctl.parse_config(self.config) if workload.kind == "mc" else None
        self.attempted = 0
        self.outcomes: list[Outcome] = []
        self.errors: list[str] = []

    def unit(self, inp: int, tracer=None, cfg=None) -> Outcome | None:
        """Run one unit and check it; None when it raised."""
        self.attempted += 1
        try:
            if self.workload.kind == "mc":
                outcome = run_mc(self.dualctl, cfg or self.cfg, inp, self.workload.batch)
            else:
                outcome = run_cli(self.dualctl, ROOT, self.workload, inp, self.tmpdir, tracer)
        except Exception:  # a failed operation: counted and reported, the run goes on
            self.errors.append(f"input {inp}: {traceback.format_exc(limit=3)}")
            return None
        reference = self.references.get(inp)
        if reference is None:
            outcome.mismatches.append(f"no reference output for input {inp}")
        else:
            outcome.mismatches += compare(outcome.observed, reference)
        self.outcomes.append(outcome)
        return outcome

    def passes(self, inputs, seconds: float) -> None:
        """Whole passes over the inputs until ``seconds`` have passed."""
        deadline = perf_counter() + seconds
        while True:
            for inp in inputs:
                self.unit(inp)
            if perf_counter() >= deadline:
                return

    @property
    def failed(self) -> int:
        return len(self.errors) + sum(1 for o in self.outcomes if o.mismatches)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def untraced(session: Session, seconds: float):
    """Units for ``seconds`` seconds, with set-ups spread over the run.

    The calibration loop runs just before and after each unit, and the unit's
    times are scaled by REFERENCE_S over the mean of those two loop times.
    """
    assert_untraced(session.dualctl)
    setup, outcomes = [], []  # set-up times; (outcome, scale)
    busy = 0.0  # time in units; set-ups and calibration do not count
    cal = None  # the last calibration time, if nothing ran since
    for inp in itertools.cycle(session.order):
        while len(setup) < SETUP_REPS and len(setup) * seconds <= busy * SETUP_REPS:
            setup.append(measure_setup(session.config))
            cal = None
        if busy >= seconds:
            break
        if cal is None:
            cal = calibration_s()
        t0 = perf_counter()
        outcome = session.unit(inp)
        busy += perf_counter() - t0
        before, cal = cal, calibration_s()
        if outcome is not None:
            outcomes.append((outcome, REFERENCE_S / ((before + cal) / 2)))
    if not outcomes:
        return None, {}
    plain = [o for o, _ in outcomes]
    raw_runs = [t for o in plain for t in o.run_s]
    metrics = {
        # Set-up runs in another interpreter, which the calibration does not track.
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(o.wall_s * k for o, k in outcomes),
        "runs_per_s": statistics.median(o.runs / (o.wall_s * k) for o, k in outcomes),
        "run_s_p50": statistics.median(t * k for o, k in outcomes for t in o.run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = workload_metrics(plain, plain)
    info.update({
        "units": len(plain),
        "runs": sum(o.runs for o in plain),
        "run_s_tail_percentile": tail(raw_runs)[1],
        "run_s_samples": len(raw_runs),
        "raw": {
            "wall_s": statistics.median(o.wall_s for o in plain),
            "runs_per_s": statistics.median(o.runs / o.wall_s for o in plain),
            "run_s_p50": statistics.median(raw_runs),
        },
        "scales": [k for _, k in outcomes],
        "setup_samples_s": setup,
        "unit_walls_s": [o.wall_s for o in plain],
        "run_samples_s": raw_runs,
    })
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, info


def workload_metrics(checked: list[Outcome], untraced_units: list[Outcome]) -> dict[str, float]:
    """j_m and failed_frac over ``checked``; times over untraced units."""
    j = [v for o in checked for v in o.j_values]
    return {
        "e2e.run_s_tail": tail([t for o in untraced_units for t in o.run_s])[0],
        "e2e.j_m": statistics.fmean(j),
        "e2e.failed_frac": sum(o.failed_runs for o in checked) / sum(o.runs for o in checked),
        "e2e.trace_io_s": statistics.median(o.io_s for o in untraced_units),
    }


def traced(session: Session, seconds: float):
    dualctl = session.dualctl
    workload = session.workload
    inputs = session.order[: workload.traced_units]

    # Stage times, with only the run_experiment hooks installed.
    assert_untraced(dualctl)
    clock = StageClock()
    hooked = Tracer(dualctl)
    hooked.install_hooks(clock)
    try:
        session.passes(inputs, seconds / 3)
    finally:
        hooked.uninstall()

    # Per-function times, in whole passes.  Each unit runs untraced and then
    # with every traced function wrapped, so the overhead compares neighbours
    # in time.  An mc unit parses its config first, so the set-up functions
    # are traced too; the CLI parses its own.
    tracer = Tracer(dualctl)
    plain, wrapped, pass_counts = [], [], []
    setup_s = 0.0
    deadline = perf_counter() + 2 * seconds / 3
    with tracer.span("workload", workload=workload.name, seed=session.seed):
        while not pass_counts or perf_counter() < deadline:
            before_pass = tracer.snapshot()
            for inp in inputs:
                assert_untraced(dualctl)
                outcome = session.unit(inp)
                if outcome is not None:
                    plain.append(outcome)
                tracer.install()
                try:
                    cfg = None
                    if workload.kind == "mc":
                        with tracer.span("setup") as span:
                            cfg = dualctl.parse_config(session.config)
                            cfg.build_grid()
                        setup_s += span["end"] - span["start"]
                    with tracer.span("unit", input=inp, run=len(pass_counts)):
                        outcome = session.unit(inp, tracer, cfg)
                finally:
                    tracer.uninstall()
                if outcome is not None:
                    wrapped.append(outcome)
            pass_counts.append(
                [n - n0 for (n, _), (n0, _) in zip(tracer.snapshot(), before_pass)]
            )
    assert_untraced(dualctl)
    if any(counts != pass_counts[0] for counts in pass_counts):
        session.errors.append("call counts differ between traced passes of the same inputs")
    if not wrapped or not plain:
        return None, {}

    passes = len(pass_counts)
    traced_wall = setup_s + sum(o.wall_s for o in wrapped)
    metrics = {}
    for (name, (_, self_s)), calls in zip(tracer.stats.items(), pass_counts[0]):
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s / passes
        metrics[f"{name}.share"] = self_s / traced_wall
    metrics["harness.iterations"] = tracer.iterations // passes
    metrics["harness.failed_runs"] = tracer.failed_runs // passes
    metrics["harness.useful_iter_frac"] = tracer.useful_iterations / tracer.iterations
    metrics["harness.trace_bytes"] = tracer.trace_bytes // passes
    for stage, ns in clock.ns_per_iteration().items():
        metrics[f"stage.{stage}"] = ns
    metrics["trace.overhead"] = sum(o.wall_s for o in wrapped) / sum(o.wall_s for o in plain)
    # j_m and failed_frac from the first pass only, so they repeat bit for bit.
    metrics.update(workload_metrics(wrapped[: len(inputs)], plain))
    units = per_layer_units()
    info = {
        "units_per_pass": len(inputs),
        "traced_passes": passes,
        "traced_wall_s": traced_wall,
        "spans": relative_spans(tracer.spans),
    }
    return {k: (v, units[k]) for k, v in metrics.items()}, info


def relative_spans(spans: list[dict]) -> list[dict]:
    t0 = spans[0]["start"]
    return [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in spans]


def host_stamp(dualctl) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(session: Session, trace: int, metrics: dict, info: dict, host: dict) -> dict:
    """Print the metrics and the check result; write the full result to OUT_DIR."""
    mismatches = [f"input {o.input}: {m}" for o in session.outcomes for m in o.mismatches]
    correct = not mismatches and not session.errors
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(
        f"workload {session.workload.name} seed {session.seed} trace {trace}: "
        f"{session.attempted} units, {session.failed} failed, "
        f"correctness check {'passed' if correct else 'FAILED'}"
    )
    for problem in (mismatches + session.errors)[:10]:
        print(f"  mismatch: {problem}")
    for name, (value, unit) in metrics.items():
        raw = info.get("raw", {}).get(name)
        print(f"  {name:44s} {value:.6g} {unit}" + (f"  (unscaled {raw:.6g})" if raw else ""))
    if trace == 0:
        for name, unit in WORKLOAD_UNITS.items():
            print(f"  {name:44s} {info[name]:.6g} {unit}")
        print(
            f"  e2e.run_s_tail is p{info['run_s_tail_percentile']:.1f} of "
            f"{info['run_s_samples']} run times; {info['runs']} runs in {info['units']} units; "
            f"wall_s, runs_per_s and run_s_p50 scaled to the calibration speed "
            f"by a median factor of {statistics.median(info['scales']):.3f}"
        )
    print(f"  host {json.dumps(host)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{session.workload.name}-seed{session.seed}-trace{trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(
            {"workload": session.workload.name, "seed": session.seed, "trace": trace,
             "host": host, "result": result, "mismatches": mismatches,
             "errors": session.errors, **info},
            fh, indent=1,
        )
    return result


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    dualctl = import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        session = Session(dualctl, WORKLOADS[workload], seed, tmpdir)
        measure = traced if trace else untraced
        metrics, info = measure(session, seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if metrics is None:
        print("error: no unit of work completed", file=sys.stderr)
        print("\n".join(session.errors), file=sys.stderr)
        return 1
    result = report(session, trace, metrics, info, host_stamp(dualctl))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own interpreter, one after the other."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
