"""The package has no runtime dependencies: importing its entry points
must not pull numpy (or anything else outside the standard library that
costs start-up time) into the process."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_entry_points_do_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.cli, repro.harness, repro.faults, sys; "
         "assert 'numpy' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
