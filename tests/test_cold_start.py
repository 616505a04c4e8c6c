"""Cold start: importing dualctl, parsing a config and building its grid load no numpy.

numpy is a runtime dependency, but only the functions that simulate, read or
write posterior sidecars, average a batch or train a network import it. The
check runs in a fresh interpreter, since this test process has loaded numpy
long before.
"""

import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

_SCRIPT = """
import contextlib, glob, io, sys
from dataclasses import replace

import dualctl
from dualctl import cli

configs = sorted(glob.glob("configs/*.yaml"))
assert configs
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
    for path in configs:
        cfg = dualctl.parse_config(path)
        cfg.build_grid()
        cfg.build_schedule()
        assert cli.main(["partition", "--config", path]) == 0, path
assert "numpy" not in sys.modules, "numpy loaded before any run"

trace = dualctl.run_experiment(replace(dualctl.parse_config("configs/case1.yaml"), iterations=5))
assert len(trace) == 5
assert "numpy" in sys.modules, "a run did not load numpy"
print("ok")
"""


def test_import_parse_and_partition_do_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=_ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
