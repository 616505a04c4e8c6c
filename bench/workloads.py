"""Workloads of the dualctl benchmark: inputs from a seed, one unit of work, checks.

A workload is a list of inputs and a unit of work run on one input: a Monte
Carlo batch, or one ``dualctl run`` through the CLI followed by reading its
trace back.  The workload seed only picks the order in which a run visits the
inputs, so every input has a reference output, taken from the reference code
by ``make_references.py`` and stored under ``references/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import warnings
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

# Equivalence tolerance of the ROADMAP: outputs may move by 1e-12 (relative
# for large values); argmax paths, failure indices and reset counts must not.
TOLERANCE = 1e-12

# case4 seeds whose single run completes on the reference code.  Seed 5
# diverges (control denominator ~7e-13 after a reset) and writes no trace, so
# this workload, which times a run and its trace I/O, leaves it out.  The
# divergence defect stays measured: mc-coarse always includes a diverging run.
CASE4_SEEDS = (0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc": a monte_carlo batch per unit; "cli": one CLI run and a trace read
    config: str  # relative to the checkout root
    inputs: tuple[int, ...]  # mc: seed_base of each batch; cli: run seed
    traced_units: int  # units in one traced pass
    batch: int = 1  # closed-loop runs per unit


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-fine",
            "mc",
            "configs/case3-eps005.yaml",
            tuple(range(0, 400, 10)),
            traced_units=1,
            batch=10,
        ),
        Workload(
            "mc-coarse",
            "mc",
            "configs/case3-eps02.yaml",
            # Every batch of seeds base..base+9 holds seed 10, which diverges.
            tuple(range(1, 11)),
            traced_units=6,
            batch=10,
        ),
        Workload(
            "run-trace-case4",
            "cli",
            "configs/case4.yaml",
            CASE4_SEEDS,
            traced_units=4,
        ),
    )
}


def input_order(workload: Workload, seed: int) -> list[int]:
    """The inputs in the order a run with this workload seed visits them."""
    return random.Random(seed).sample(workload.inputs, len(workload.inputs))


def argmax_digest(trace) -> str:
    return hashlib.sha256(",".join(map(str, trace.argmax_t)).encode()).hexdigest()


def reference_path(workload: Workload) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload.name}.json")


def load_references(workload: Workload) -> dict[int, dict]:
    with open(reference_path(workload)) as fh:
        data = json.load(fh)
    return {entry["input"]: entry for entry in data["entries"]}


@dataclass
class Outcome:
    """One unit of work: its timings, what it produced and how that compared."""

    input: int
    wall_s: float  # the timed body
    run_s: list[float]  # one time per closed-loop run that has one
    runs: int  # closed-loop runs attempted
    failed_runs: int
    j_values: list[float]  # j_index of each completed run
    io_s: float = 0.0  # write_trace + read_trace
    observed: dict = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)


def run_mc(dualctl, cfg, seed_base: int, runs: int) -> Outcome:
    """One Monte Carlo batch of ``runs`` runs from seed_base, on one process."""
    with warnings.catch_warnings():
        # monte_carlo warns about the runs it excludes; the outcome counts them.
        warnings.simplefilter("ignore")
        t0 = perf_counter()
        result = dualctl.harness.monte_carlo(cfg, runs=runs, seed_base=seed_base, jobs=1)
        wall = perf_counter() - t0
    return Outcome(
        input=seed_base,
        wall_s=wall,
        run_s=[t.wall_time for t in result.traces],
        runs=result.requested,
        failed_runs=len(result.failures),
        j_values=list(result.metrics.j_values),
        observed={
            "j_m": result.metrics.j_m,
            "failures": [index for index, _ in result.failures],
            "argmax_sha256": [argmax_digest(t) for t in result.traces],
        },
    )


def run_cli(dualctl, root: str, workload: Workload, seed: int, tmpdir: str, tracer=None) -> Outcome:
    """``dualctl run`` with full posteriors and a trace file, then read_trace.

    Untraced, the trace I/O time is read_trace plus a timed write_trace of the
    trace read back, whose bytes must equal the CLI's file.  Traced, it is the
    write and read spans, and the trace read back must equal the RunTrace the
    CLI wrote, field by field.
    """
    path = os.path.join(tmpdir, "trace.csv")
    argv = [
        "run", "--config", os.path.join(root, workload.config), "--seed", str(seed),
        "--full-posteriors", "--out", path,
    ]
    io_before = tracer.io_s if tracer else 0.0
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        t0 = perf_counter()
        status = dualctl.cli.main(argv)
        t1 = perf_counter()
        back = dualctl.harness.read_trace(path) if status == 0 else None
        t2 = perf_counter()
    outcome = Outcome(
        input=seed, wall_s=t2 - t0, run_s=[t1 - t0], runs=1, failed_runs=int(status != 0),
        j_values=[],
    )
    if back is None:
        outcome.mismatches.append(f"dualctl run exited {status}: {log.getvalue().strip()}")
        return outcome
    if tracer is None:
        copy = os.path.join(tmpdir, "rewritten.csv")
        t3 = perf_counter()
        dualctl.harness.write_trace(back, copy)
        outcome.io_s = (t2 - t1) + (perf_counter() - t3)
        if not _same_bytes(path, copy):
            outcome.mismatches.append("trace read back and written again differs from the CLI's file")
    else:
        outcome.io_s = tracer.io_s - io_before
        differing = _differing_fields(tracer.last_written, back)
        if differing:
            outcome.mismatches.append(f"trace read back differs from the trace written in {differing}")
    outcome.j_values = [dualctl.harness.run_metrics(back).j_index]
    outcome.observed = {
        "j_index": outcome.j_values[0],
        "resets": sum(back.reset),
        "argmax_sha256": argmax_digest(back),
        "y": back.y,
        "u": back.u,
    }
    return outcome


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _differing_fields(written, back) -> list[str]:
    if written is None:
        return ["<no trace was written>"]
    names = [f for f in vars(written) if f != "wall_time"]  # wall_time is not persisted
    return [f for f in names if getattr(written, f) != getattr(back, f)]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def compare(observed: dict, reference: dict) -> list[str]:
    """Differences between a unit's outputs and the reference outputs."""
    problems = []
    for key, want in reference.items():
        if key == "input":
            continue
        got = observed.get(key)
        if isinstance(want, float):
            if got is None or not _close(got, want):
                problems.append(f"{key}: {got!r} != reference {want!r}")
        elif key in ("y", "u"):
            if got is None or len(got) != len(want):
                problems.append(f"{key}: length {None if got is None else len(got)} != {len(want)}")
                continue
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w)]
            if bad:
                i = bad[0]
                problems.append(
                    f"{key}: {len(bad)} values differ beyond {TOLERANCE}, "
                    f"first at row {i + 1}: {got[i]!r} != {want[i]!r}"
                )
        elif got != want:
            problems.append(f"{key}: {got!r} != reference {want!r}")
    return problems
