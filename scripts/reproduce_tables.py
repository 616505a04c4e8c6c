"""Re-run the bundled case studies and print the resolution-sweep tables.

Writes one closed-loop trace per case study (plot-ready CSV), then sweeps the
candidate-grid resolution with Monte Carlo batches for the multiplicative and
additive disturbance channels. Each sweep prints a table of the tracking
index J_M against the admissible error, together with an optimal-control
baseline that knows the true disturbances.

Absolute wall times depend on the host; only their growth with the candidate
count is meaningful.
"""

import argparse
import os

from dualctl import monte_carlo, parse_config, run_experiment, run_metrics, write_trace

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "..", "configs")

MULTIPLICATIVE_SWEEP = [
    (0.05, "case3-eps005"),
    (0.075, "case3-eps0075"),
    (0.1, "case3-eps01"),
    (0.2, "case3-eps02"),
]
ADDITIVE_SWEEP = [
    (0.05, "case3g-eps005"),
    (0.1, "case3g-eps01"),
    (0.2, "case3g-eps02"),
    (0.4, "case3g-eps04"),
]


def _config(name):
    return parse_config(os.path.join(CONFIG_DIR, f"{name}.yaml"))


def run_case_traces(out_dir: str) -> None:
    print("single-run case studies")
    for name in ("case1", "case2", "case4"):
        cfg = _config(name)
        trace = run_experiment(cfg, collect_posteriors=True)
        m = run_metrics(trace)
        path = os.path.join(out_dir, f"{name}_trace.csv")
        write_trace(trace, path)
        print(
            f"  {name}: grid {trace.grid_size}, J {m.j_index:.5f}, "
            f"resets {sum(trace.reset)}, wall {trace.wall_time:.2f}s -> {path}"
        )
    print()


def run_sweep(title: str, sweep, runs: int, jobs: int) -> None:
    print(f"resolution sweep: {title}")
    print(f"  {'eps':>6}  {'candidates':>10}  {'J_M':>9}  {'J_std':>9}  {'median wall [s]':>15}")
    for eps, name in sweep:
        cfg = _config(name)
        result = monte_carlo(cfg, runs=runs, jobs=jobs)
        m = result.metrics
        note = f"  ({len(result.failures)} run(s) diverged and were excluded)" if result.failures else ""
        print(
            f"  {eps:>6}  {cfg.build_grid().size:>10}  {m.j_m:>9.5f}  "
            f"{m.j_std:>9.5f}  {m.median_wall_time:>15.3f}{note}"
        )
    finest = _config(sweep[0][1])
    baseline = monte_carlo(finest, runs=runs, controller="optimal", jobs=jobs).metrics
    print(f"  optimal-control baseline (true disturbances known): J_M {baseline.j_m:.5f}")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=100, help="Monte Carlo batch size per grid")
    ap.add_argument("--jobs", type=int, default=4, help="parallel workers per batch")
    ap.add_argument("--out-dir", default=os.path.join(HERE, "..", "results"))
    ap.add_argument("--skip-traces", action="store_true", help="only run the Monte Carlo sweeps")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    if not args.skip_traces:
        run_case_traces(args.out_dir)
    run_sweep("multiplicative channels (alpha, beta)", MULTIPLICATIVE_SWEEP, args.runs, args.jobs)
    run_sweep("additive channel (gamma)", ADDITIVE_SWEEP, args.runs, args.jobs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
