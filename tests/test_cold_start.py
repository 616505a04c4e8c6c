"""Cold start: importing dualctl, parsing a config and building its grid load no numpy.

numpy is a runtime dependency, but only the functions that simulate, read or
write posterior sidecars, average a batch or train a network import it.
``import dualctl`` loads none of the package's modules, and parsing loads
none of the run engine (``harness``, ``learner``, ``controller``) nor the CLI.
The checks run in a fresh interpreter, since this test process has loaded
numpy and every module long before.
"""

import os
import subprocess
import sys

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

_SCRIPT = """
import contextlib, glob, io, sys
from dataclasses import replace

import dualctl

loaded = sorted(m for m in sys.modules if m.startswith("dualctl."))
assert not loaded, f"import dualctl loaded {loaded}"

configs = sorted(glob.glob("configs/*.yaml"))
assert configs
for path in configs:
    cfg = dualctl.parse_config(path)
    cfg.build_grid()
engine = {"dualctl.harness", "dualctl.learner", "dualctl.controller", "dualctl.cli"}
assert not engine & set(sys.modules), f"parsing loaded {sorted(engine & set(sys.modules))}"

from dualctl import cli

with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
    for path in configs:
        cfg = dualctl.parse_config(path)
        cfg.build_grid()
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


def test_every_export_resolves_from_its_module():
    import dualctl

    assert len(dualctl.__all__) == len(set(dualctl.__all__)) == 56
    for name, module in dualctl._EXPORTS.items():
        assert getattr(dualctl, name) is getattr(sys.modules[f"dualctl.{module}"], name)
        assert name not in vars(dualctl), f"{name} was stored in the package"
    assert set(dualctl.__all__) <= set(dir(dualctl))
    namespace = {}
    exec("from dualctl import *", namespace)
    assert set(dualctl.__all__) <= set(namespace)
    assert dualctl.harness is sys.modules["dualctl.harness"]
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dualctl.no_such_name
