"""The README's Python example runs as written, from the repository root.

It runs in a fresh interpreter that imports ``dualctl`` from ``src``, so an
API change that breaks the documented example fails here.
"""

import os
import re
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _python_blocks() -> list[str]:
    with open(os.path.join(_ROOT, "README.md")) as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.DOTALL | re.MULTILINE)


def test_the_readme_python_example_runs():
    (example,) = _python_blocks()
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", example], cwd=_ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # It prints the run's J index and wall time.
    j_index, wall_time = map(float, done.stdout.split())
    assert 0.0 < j_index < 1.0 and wall_time > 0.0
