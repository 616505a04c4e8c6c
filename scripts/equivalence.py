#!/usr/bin/env python3
"""Check that two checkouts of dualctl produce the same closed-loop traces.

    python3 scripts/equivalence.py PARENT_DIR CHANGE_DIR [--limit N]

Each checkout runs the same 700 units in a subprocess of its own, importing
``dualctl`` from its ``src`` and reading its own ``configs``.  A unit is one
``run_experiment`` call with full posteriors:

- case3-eps005 seeds 0-399, case3-eps02 0-99 and case3g-eps04 0-99, each with
  the config's ``mc_randomize`` channels;
- case3-eps02 0-19 without them; case4 0-12; case1 and case2 0-4;
- case1 0-4 with ``mc_randomize``, and a case1 copy with a full initial
  covariance (every cross entry nonzero) 0-4;
- a case3-eps005 copy with the full initial covariance, seeds 0-9 with
  ``mc_randomize``: its posterior locks, so the general covariance rescale
  runs with most candidates saturated at the cap;
- case1 and case3-eps005 copies with the identity initial covariance whose
  every cross entry is ``-0.0``, seeds 0-4 with ``mc_randomize``: a diagonal
  state whose cross entries are negative zeros;
- case1 copies with a zero initial covariance: noise variance 1e-10, seeds
  0-4, where every Bayes step takes the log domain, and noise variance 0,
  seeds 0-1, which fail on the zero prediction variance at iteration 2;
- a case4 copy whose train plant has ``params`` ``{"c_m": 0.007}``, seeds 0-4,
  so a train plant with a parameter off its default runs;
- the optimal controller on case1, case2 and case4 0-4.

Every ``RunTrace`` field except ``wall_time`` is compared by the sha256 of its
``repr``, so signed zeros and the last bit count.  A failed run is compared by
the iteration and message of its ``RunError``.  The script also prints the
sha256 of the ``write_trace`` output of case1 seed 0 (``mc_randomize``) and of
case4 seed 0, both with full posteriors, for each side: the CSV's bytes
followed by those of its posterior sidecar, so the posterior bytes are covered
too.  It prints, for each side, the sha256 of the ``save_config`` YAML of
every ``configs/*.yaml`` as well, with the network path made relative to the
checkout (the config holds it as an absolute path), so a change in the
written documents is reported too.  It exits 0 when every unit and every sum
match, 1 otherwise.
``--limit N`` runs the first N units only, for a quick check.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

FULL_COVARIANCE = ((0.04, 0.01, -0.005), (0.01, 0.09, 0.02), (-0.005, 0.02, 0.01))
ZERO_COVARIANCE = ((0.0,) * 3,) * 3
NEGATIVE_ZERO_CROSS = ((1.0, -0.0, -0.0), (-0.0, 1.0, -0.0), (-0.0, -0.0, 1.0))
# Variant name -> (initial covariance or None to keep it, PlantModel fields to replace).
VARIANTS = {
    "fullcov": (FULL_COVARIANCE, {}),
    "zerocov/noise1e-10": (ZERO_COVARIANCE, {"noise_variance": 1e-10}),
    "zerocov/noise0": (ZERO_COVARIANCE, {"noise_variance": 0.0}),
    "negzero": (NEGATIVE_ZERO_CROSS, {}),
    "trainparams": (None, {"params": {"c_m": 0.007}}),
}
# (config stem, controller, seeds, randomize with the config's mc_randomize,
# variant name or False for the config as it is)
GROUPS = (
    ("case3-eps005", "proposed", range(400), True, False),
    ("case3-eps02", "proposed", range(100), True, False),
    ("case3g-eps04", "proposed", range(100), True, False),
    ("case3-eps02", "proposed", range(20), False, False),
    ("case4", "proposed", range(13), False, False),
    ("case1", "proposed", range(5), False, False),
    ("case2", "proposed", range(5), False, False),
    ("case1", "proposed", range(5), True, False),
    ("case1", "proposed", range(5), False, "fullcov"),
    ("case3-eps005", "proposed", range(10), True, "fullcov"),
    ("case1", "proposed", range(5), True, "negzero"),
    ("case3-eps005", "proposed", range(5), True, "negzero"),
    ("case1", "proposed", range(5), False, "zerocov/noise1e-10"),
    ("case1", "proposed", range(2), False, "zerocov/noise0"),
    ("case4", "proposed", range(5), False, "trainparams"),
    ("case1", "optimal", range(5), False, False),
    ("case2", "optimal", range(5), False, False),
    ("case4", "optimal", range(5), False, False),
)
# (config stem, seed, randomize) of the trace files whose sha256 is printed.
TRACE_FILES = (("case1", 0, True), ("case4", 0, False))
# (label, side key) of the file sums: write_trace outputs and save_config outputs.
SUMS = (("write_trace", "files"), ("save_config", "configs"))
SKIPPED_FIELDS = ("wall_time",)


def units() -> list[tuple]:
    """Every unit as ``(config stem, controller, seed, randomize, variant)``."""
    return [
        (stem, controller, seed, randomize, variant)
        for stem, controller, seeds, randomize, variant in GROUPS
        for seed in seeds
    ]


def unit_key(unit) -> str:
    stem, controller, seed, randomize, variant = unit
    key = f"{stem}/{controller}/{seed}" + ("/mc" if randomize else "")
    return key + (f"/{variant}" if variant else "")


def digest(trace) -> dict[str, str]:
    """sha256 of the repr of every compared ``RunTrace`` field."""
    return {
        field.name: hashlib.sha256(repr(getattr(trace, field.name)).encode()).hexdigest()
        for field in dataclasses.fields(trace)
        if field.name not in SKIPPED_FIELDS
    }


def run_unit(root: str, unit, configs: dict) -> dict:
    """The digest of one unit's trace, or its failure's iteration and message."""
    from dualctl import RunError, parse_config, run_experiment

    stem, controller, seed, randomize, variant = unit
    if stem not in configs:
        configs[stem] = parse_config(os.path.join(root, "configs", f"{stem}.yaml"))
    cfg = configs[stem]
    if variant:
        covariance, plant = VARIANTS[variant]
        cfg = dataclasses.replace(cfg, plant=dataclasses.replace(cfg.plant, **plant))
        if covariance is not None:
            cfg = dataclasses.replace(cfg, initial_covariance=covariance)
    try:
        trace = run_experiment(
            cfg,
            controller=controller,
            seed=seed,
            collect_posteriors=True,
            randomize=cfg.mc_randomize if randomize else (),
        )
    except RunError as exc:
        return {"failure": [exc.iteration, str(exc)]}
    return {"fields": digest(trace)}


def trace_file_sums(root: str) -> dict[str, str]:
    """sha256 of the files ``write_trace`` makes for each of ``TRACE_FILES``.

    Each trace is written alone into a fresh directory, and the digest covers
    the bytes of every file there in name order: the CSV, then the posterior
    sidecar ``trace.csv.pi.npy`` where the checkout writes one.
    """
    from dualctl import parse_config, run_experiment, write_trace

    sums = {}
    with tempfile.TemporaryDirectory() as tmp:
        for stem, seed, randomize in TRACE_FILES:
            cfg = parse_config(os.path.join(root, "configs", f"{stem}.yaml"))
            trace = run_experiment(
                cfg,
                seed=seed,
                collect_posteriors=True,
                randomize=cfg.mc_randomize if randomize else (),
            )
            out = tempfile.mkdtemp(dir=tmp)
            write_trace(trace, os.path.join(out, "trace.csv"))
            digest = hashlib.sha256()
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    digest.update(fh.read())
            sums[f"{stem}/{seed}" + ("/mc" if randomize else "")] = digest.hexdigest()
    return sums


def config_file_sums(root: str) -> dict[str, str]:
    """sha256 of the ``save_config`` output of every ``configs/*.yaml``, by stem.

    The network path is made relative to ``root`` first, so two checkouts of
    the same tree give the same sums.
    """
    from dualctl import parse_config, save_config

    sums = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(glob.glob(os.path.join(root, "configs", "*.yaml"))):
            cfg = parse_config(path)
            cfg = dataclasses.replace(cfg, network_file=os.path.relpath(cfg.network_file, root))
            out = os.path.join(tmp, "config.yaml")
            save_config(cfg, out)
            stem = os.path.splitext(os.path.basename(path))[0]
            with open(out, "rb") as fh:
                sums[stem] = hashlib.sha256(fh.read()).hexdigest()
    return sums


def side(root: str, limit: int | None) -> dict:
    """Every unit, trace file and config file of one checkout (run inside its subprocess)."""
    configs: dict = {}
    return {
        "units": {unit_key(u): run_unit(root, u, configs) for u in units()[:limit]},
        "files": trace_file_sums(root),
        "configs": config_file_sums(root),
    }


def compare(parent: dict, change: dict) -> list[str]:
    """One line per unit, field, trace file or config file that differs between the sides."""
    problems = []
    for key in sorted(set(parent["units"]) | set(change["units"])):
        a, b = parent["units"].get(key), change["units"].get(key)
        if a is None or b is None:
            problems.append(f"{key}: run on one side only")
        elif "failure" in a or "failure" in b:
            if a != b:
                problems.append(f"{key}: parent {a.get('failure')}, change {b.get('failure')}")
        else:
            for field, value in a["fields"].items():
                if b["fields"].get(field) != value:
                    problems.append(f"{key}: field {field} differs")
    for label, key in SUMS:
        for name, value in parent.get(key, {}).items():
            if change.get(key, {}).get(name) != value:
                problems.append(f"{label} {name}: sha256 differs")
    return problems


def _launch(root: str, limit: int | None) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, os.path.abspath(__file__), "--side", root]
    if limit is not None:
        command += ["--limit", str(limit)]
    return subprocess.Popen(command, env=env, cwd=root, stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("dirs", nargs="*", metavar="DIR", help="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--limit", type=int, default=None, help="run the first N units only")
    parser.add_argument("--side", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        json.dump(side(os.path.abspath(args.side), args.limit), sys.stdout)
        return 0
    if len(args.dirs) != 2:
        parser.error("expected PARENT_DIR and CHANGE_DIR")
    roots = [os.path.abspath(d) for d in args.dirs]
    # One subprocess per side, run side by side.
    procs = [_launch(root, args.limit) for root in roots]
    outputs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("a side failed to run", file=sys.stderr)
        return 1
    parent, change = (json.loads(out) for out in outputs)
    failures = {
        key: value["failure"]
        for key, value in parent["units"].items()
        if "failure" in value
    }
    for label, key in SUMS:
        for name, value in parent[key].items():
            print(f"{label} {name}: parent {value}, change {change[key].get(name)}")
    for key, (iteration, message) in failures.items():
        print(f"parent failure {key} at {iteration}: {message}")
    problems = compare(parent, change)
    for line in problems:
        print(line)
    print(
        f"{len(parent['units'])} units, {len(failures)} failures in the parent, "
        f"{len(problems)} differences"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
