#!/usr/bin/env python3
"""Compare two checkouts with alternating pairs of benchmark runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --seed 13 \
        --seconds 30 --out BENCH_7.json

Each pair runs the unchanged ``bench/run.py --workload all --trace 0`` once in
each checkout; even pairs run the parent first, odd pairs the change.  Then
every workload gets three traced passes per side, alternating in the same way,
to show where per-layer time moved: one unscaled traced pass on a 2-core host
can move by a third from the next one.  The output file holds every run
(without its sample lists), one summary per workload and end-to-end metric
(medians, quartiles, pairs won, whether the change stays within the bound
``BENCHMARK.json`` fixes and whether it gains by more than the parent's
interquartile range), every traced pass with the per-side median of each
self time and stage timer, and the host stamp of the parent's first run.

Both directories must be checkouts with a commit, such as ``git worktree add
DIR COMMIT`` makes; a ``git archive`` tree is refused before the first run.
The output records each side's ``git rev-parse HEAD``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# Per-unit and per-run sample lists of a result file; they are nine tenths of
# its size and the summary reads none of them.
SAMPLE_LISTS = ("run_samples_s", "unit_walls_s", "scales")
TRACED_PASSES = 3
TRACED_SECONDS = 10


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile, interpolated between order statistics."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: dict, end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric, parent against change.

    ``runs[side]`` is a list, one entry per pair, of ``{workload: result}``,
    where a result is the file ``bench/run.py`` writes to ``.bench_out/``.
    """
    pairs = len(runs["parent"])
    summary = {}
    for workload in runs["parent"][0]:
        def values(side, name):
            return [r[workload]["result"]["metrics"][name]["value"] for r in runs[side]]

        rows = {}
        for spec in end_to_end:
            name, bound = spec["name"], spec["bound"]
            if name not in runs["parent"][0][workload]["result"]["metrics"]:
                continue
            # sign > 0 when a larger value is better.
            sign = 1.0 if spec["better"] == "higher" else -1.0
            parent, change = values("parent", name), values("change", name)
            p_med, c_med = statistics.median(parent), statistics.median(change)
            p_q = quartiles(parent)
            rows[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": bound,
                "parent_median": p_med,
                "parent_quartiles": p_q,
                "change_median": c_med,
                "change_quartiles": quartiles(change),
                "change_rel": (c_med - p_med) / p_med,
                "change_wins": f"{sum(sign * (c - p) > 0 for p, c in zip(parent, change))}"
                f"/{pairs}",
                "within_bound": sign * (c_med - p_med) >= -bound * p_med,
                "gain_beyond_parent_iqr": sign * (c_med - p_med) > p_q[1] - p_q[0],
            }
        rows["correct"] = all(r[workload]["result"]["correct"] for side in SIDES for r in runs[side])
        summary[workload] = rows
    return summary


def traced_medians(passes: list[dict]) -> dict:
    """Median over traced passes of every ``.self_s`` and ``stage.*`` metric.

    ``passes`` holds what :func:`run_traced` returns, one entry per pass.
    """
    names = [n for n in passes[0]["metrics"] if n.endswith(".self_s") or n.startswith("stage.")]
    return {n: statistics.median(p["metrics"][n] for p in passes) for n in names}


def _bench(checkout: str, args: list[str], timeout: float) -> str:
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=checkout, capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: bench/run.py {' '.join(args)} failed:\n{done.stderr}")
    return done.stdout


def _result_file(checkout: str, workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(checkout, ".bench_out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def slim(result: dict) -> dict:
    """A result file without its sample lists."""
    return {k: v for k, v in result.items() if k not in SAMPLE_LISTS}


def checkout_commit(checkout: str) -> str:
    """The commit ``checkout`` is at, from ``git rev-parse HEAD`` in it.

    Git does not look above ``checkout`` for a repository, so a tree unpacked
    by ``git archive`` inside another repository is refused too.
    """
    parent = os.path.dirname(os.path.abspath(checkout))
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": parent},
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{checkout}: not a checkout with a commit (git rev-parse HEAD failed); "
            "make each side with `git worktree add DIR COMMIT`"
        )
    return done.stdout.strip()


def run_pair(checkout: str, seed: int, seconds: float) -> dict:
    args = ["--workload", "all", "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # Each workload runs in its own interpreter for up to 900 s.
    verdicts = json.loads(_bench(checkout, args, 3 * 900 + 60).strip().splitlines()[-1])
    return {name: slim(_result_file(checkout, name, seed, 0)) for name in verdicts}


def run_traced(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    _bench(checkout, args, 900)
    full = _result_file(checkout, workload, seed, 1)
    return {
        "host": full["host"],
        "correct": full["result"]["correct"],
        "metrics": {k: v["value"] for k, v in full["result"]["metrics"].items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2: quartiles need two runs per side")
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    commits = {side: checkout_commit(dirs[side]) for side in SIDES}

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_pair(dirs[side], args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} {side} done", file=sys.stderr, flush=True)
    traced = {
        "command": f"python3 bench/run.py --workload WORKLOAD --seed {args.seed} "
        f"--seconds {TRACED_SECONDS} --trace 1",
        "passes": TRACED_PASSES,
        "order": "alternating: even passes run the parent first, odd passes the change first",
        "note": "unscaled; the per-side medians of self times and stage timers show "
        "where the saving sits",
        "workloads": {},
    }
    for workload in runs["parent"][0]:
        passes = {side: [] for side in SIDES}
        for i in range(TRACED_PASSES):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                passes[side].append(run_traced(dirs[side], workload, args.seed, TRACED_SECONDS))
            print(f"traced {workload} {i + 1}/{TRACED_PASSES} done", file=sys.stderr, flush=True)
        traced["workloads"][workload] = {
            **passes,
            "median": {side: traced_medians(passes[side]) for side in SIDES},
        }

    with open(os.path.join(args.parent_dir, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    out = {
        "command": f"python3 bench/run.py --workload all --seed {args.seed} "
        f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "alternating: even pairs run the parent first, odd pairs the change first",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "host": next(iter(runs["parent"][0].values()))["host"],
        "summary": summarize(runs, end_to_end),
        "runs": runs,
        "traced": traced,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps(out["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
