"""Command line front end.

Subcommands:
  partition   show the candidate grid implied by interval/tolerance settings
  train       fit surrogate output weights from a CSV of recorded samples
  run         simulate one closed-loop experiment and optionally save a trace
  mc          run a Monte Carlo batch and report the averaged tracking index
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .config import CHANNELS, check_grid_size, parse_config
from .errors import DualctlError
from .grid import BoundedInterval, partition_interval
from .harness import (
    CONTROLLER_KINDS,
    POSTERIOR_SUFFIX,
    _parse_cell,
    monte_carlo,
    run_experiment,
    run_metrics,
    write_trace,
)
from .rbf import geometry, save_network, train_offline


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated numbers, got {text!r}")


def _print_partition(name: str, interval: BoundedInterval) -> int:
    mids = partition_interval(interval)
    print(
        f"{name}: [{interval.lower}, {interval.upper}] eps={interval.admissible_error} "
        f"-> {mids.count} candidates, sub-interval {mids.sub_interval_length:.6g}"
    )
    print("  midpoints: " + " ".join(f"{m:.6g}" for m in mids.midpoints))
    return mids.count


def _cmd_partition(args) -> int:
    interval_flags = (args.lower, args.upper, args.eps)
    if args.config:
        if interval_flags != (None, None, None):
            print("partition: --config cannot be combined with --lower/--upper/--eps", file=sys.stderr)
            return 2
        cfg = parse_config(args.config)
        total = 1
        for name in CHANNELS:
            total *= _print_partition(name, getattr(cfg, name).interval)
        print(f"grid: {total} candidates, uniform prior {1.0 / total:.6g}")
    else:
        if None in interval_flags:
            print("partition: pass --config or all of --lower/--upper/--eps", file=sys.stderr)
            return 2
        interval = BoundedInterval(args.lower, args.upper, args.eps)
        check_grid_size([interval], "interval")
        _print_partition("interval", interval)
    return 0


def _read_samples(path):
    with open(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DualctlError(f"{path}: empty sample file")
        if sorted(reader.fieldnames) != ["u", "x", "y"]:
            raise DualctlError(f"{path}: need exactly the columns x, u, y; got {reader.fieldnames}")
        states, inputs, outputs = [], [], []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if None in row.values() or None in row:
                raise DualctlError(f"{where}: expected the 3 fields x, u, y")
            states.append(_parse_cell(float, row["x"], f"{where}, column x"))
            inputs.append(_parse_cell(float, row["u"], f"{where}, column u"))
            outputs.append(_parse_cell(float, row["y"], f"{where}, column y"))
    return states, inputs, outputs


def _cmd_train(args) -> int:
    states, inputs, outputs = _read_samples(args.data)
    f_geom = geometry(args.f_centers, args.f_width2)
    g_geom = geometry(args.g_centers, args.g_width2)
    net, rms = train_offline(states, inputs, outputs, f_geom, g_geom, ridge=args.ridge)
    save_network(net, args.out, comment=args.comment)
    print(f"fit {f_geom.size}+{g_geom.size} weights on {len(inputs)} samples, residual rms {rms:.6g}")
    print(f"wrote {args.out}")
    return 0


def _check_writable(path: str, directory: str) -> None:
    """Fail before any simulation when output ``path`` cannot be made in ``directory``."""
    if not os.path.isdir(directory):
        raise NotADirectoryError(f"{path}: {directory} is not an existing directory")
    if not os.access(directory, os.W_OK):
        raise PermissionError(f"{path}: directory {directory} is not writable")


def _cmd_run(args) -> int:
    if args.full_posteriors and not args.out:
        print("run: --full-posteriors needs --out", file=sys.stderr)
        return 2
    cfg = parse_config(args.config)
    if args.out:
        _check_writable(args.out, os.path.dirname(os.path.abspath(args.out)))
    trace = run_experiment(
        cfg,
        controller=args.controller,
        seed=args.seed,
        collect_posteriors=args.full_posteriors,
    )
    m = run_metrics(trace)
    resets = [k for k, r in zip(trace.k, trace.reset) if r]
    print(
        f"{trace.name}: {len(trace)} rows, controller={trace.controller}, seed={trace.seed}"
    )
    print(f"j_index={m.j_index:.6g} rms={m.rms:.6g} mean_abs={m.mean_abs:.6g}")
    print(f"resets={len(resets)}" + (f" at k={resets}" if resets else ""))
    print(
        f"final argmax_t={trace.argmax_t[-1]} (max_pi={trace.max_pi[-1]:.6g}), "
        f"wall={trace.wall_time:.3f}s"
    )
    if args.out:
        write_trace(trace, args.out)
        sidecar = f" and {args.out}{POSTERIOR_SUFFIX}" if args.full_posteriors else ""
        print(f"wrote {args.out}{sidecar}")
    return 0


def _cmd_mc(args) -> int:
    if args.save_traces and not args.out_dir:
        print("mc: --save-traces needs --out-dir", file=sys.stderr)
        return 2
    cfg = parse_config(args.config)
    if args.out_dir:
        # The directory is made after the batch; its nearest existing
        # ancestor must allow that.
        existing = os.path.abspath(args.out_dir)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        _check_writable(args.out_dir, existing)
    result = monte_carlo(
        cfg,
        runs=args.runs,
        seed_base=args.seed_base,
        controller=args.controller,
        jobs=args.jobs,
    )
    m = result.metrics
    print(
        f"{result.name}: {len(result.traces)}/{result.requested} runs ok, "
        f"controller={result.controller}, seed_base={result.seed_base}"
    )
    print(
        f"J_M={m.j_m:.6g} std={m.j_std:.6g} mean_abs={m.mean_abs:.6g} "
        f"median_wall={m.median_wall_time:.3f}s"
    )
    if result.failures:
        print(f"failed runs: {[i for i, _ in result.failures]}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        summary = os.path.join(args.out_dir, "summary.csv")
        with open(summary, "w") as fh:
            fh.write("run,seed,j_index\n")
            # A run keeps its batch index, the one "failed runs:" reports.
            for trace, j in zip(result.traces, m.j_values):
                fh.write(f"{trace.seed - result.seed_base},{trace.seed},{j!r}\n")
        if args.save_traces:
            for trace in result.traces:
                name = f"run{trace.seed - result.seed_base:03d}.csv"
                write_trace(trace, os.path.join(args.out_dir, name))
        print(f"wrote {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dualctl", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("partition", help="show candidate grids for intervals")
    pp.add_argument("--config", help="experiment document; shows all three channels")
    pp.add_argument("--lower", type=float)
    pp.add_argument("--upper", type=float)
    pp.add_argument("--eps", type=float, help="admissible identification error")
    pp.set_defaults(fn=_cmd_partition)

    pt = sub.add_parser("train", help="fit surrogate output weights from samples")
    pt.add_argument("--data", required=True, help="CSV with columns x,u,y")
    pt.add_argument("--f-centers", type=_float_list, required=True)
    pt.add_argument("--f-width2", type=float, required=True, help="shared squared width of f bases")
    pt.add_argument("--g-centers", type=_float_list, required=True)
    pt.add_argument("--g-width2", type=float, required=True, help="shared squared width of g bases")
    pt.add_argument("--ridge", type=float, default=0.0)
    pt.add_argument("--comment", default=None, help="comment line stored in the parameter file")
    pt.add_argument("--out", required=True)
    pt.set_defaults(fn=_cmd_train)

    pr = sub.add_parser("run", help="simulate one closed-loop experiment")
    pr.add_argument("--config", required=True)
    pr.add_argument("--controller", choices=CONTROLLER_KINDS, default="proposed")
    pr.add_argument("--seed", type=int, default=None, help="override the document seed")
    pr.add_argument("--out", help="write the trace CSV here")
    pr.add_argument(
        "--full-posteriors", action="store_true",
        help="also write every row's candidate posteriors to OUT.pi.npy (float64); needs --out",
    )
    pr.set_defaults(fn=_cmd_run)

    pm = sub.add_parser("mc", help="run a Monte Carlo batch")
    pm.add_argument("--config", required=True)
    pm.add_argument("--runs", type=int, required=True)
    pm.add_argument("--seed-base", type=int, default=None)
    pm.add_argument("--controller", choices=CONTROLLER_KINDS, default="proposed")
    pm.add_argument("--jobs", type=int, default=1)
    pm.add_argument("--out-dir", help="write summary.csv (and traces) here")
    pm.add_argument("--save-traces", action="store_true", help="one trace per run; needs --out-dir")
    pm.set_defaults(fn=_cmd_mc)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DualctlError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
