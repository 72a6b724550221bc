"""The demos run to the end: each script exits 0 in a fresh process,
started in an empty directory so that what it writes lands there."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("command", ["pulse_absorption.py 9",
                                     "frequency_solve.py 9",
                                     "identity_suite.py"])
def test_demo_exits_0(tmp_path, command):
    script, *args = command.split()
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)]
                          + args, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if script == "identity_suite.py":
        # the demo exits 0 whatever the checks say; their verdict is the
        # exit code it prints
        assert "exit code: 0" in done.stdout
        assert (tmp_path / "demos_out" / "manifest.txt").is_file()
