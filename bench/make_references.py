#!/usr/bin/env python3
"""Record the reference outputs of every benchmark input.

    python3 bench/make_references.py [workload ...]

Run this only on the code the references are meant to pin (they were taken
from the package as first published).  A later change must reproduce them
within the equivalence tolerance; regenerating them would hide a change in
behaviour from the benchmark's correctness check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import OUT_DIR, ROOT, git_commit, import_program
from workloads import TOLERANCE, WORKLOADS, reference_path, run_cli, run_mc


def record(dualctl, workload, tmpdir: str) -> dict:
    cfg = dualctl.parse_config(os.path.join(ROOT, workload.config)) if workload.kind == "mc" else None
    entries = []
    for inp in workload.inputs:
        if workload.kind == "mc":
            outcome = run_mc(dualctl, cfg, inp, workload.batch)
        else:
            outcome = run_cli(dualctl, ROOT, workload, inp, tmpdir)
        if outcome.mismatches:
            raise RuntimeError(f"{workload.name} input {inp}: {outcome.mismatches}")
        entries.append({"input": inp, **outcome.observed})
        print(f"{workload.name} input {inp}: {outcome.failed_runs}/{outcome.runs} runs failed")
    return {
        "workload": workload.name,
        "config": workload.config,
        "commit": git_commit(),
        "tolerance": TOLERANCE,
        "entries": entries,
    }


def main(names) -> int:
    dualctl = import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        for name in names or WORKLOADS:
            data = record(dualctl, WORKLOADS[name], tmpdir)
            with open(reference_path(WORKLOADS[name]), "w") as fh:
                json.dump(data, fh, indent=0)
                fh.write("\n")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
