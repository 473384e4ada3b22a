"""The CLI's start-up imports only what its commands run: scipy.stats,
which no command needs, stays out of sys.modules.

Each check runs in a fresh interpreter, since other tests import
scipy.stats into this one; it reads the gaussctm this suite imports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaussctm

SRC = Path(gaussctm.__file__).resolve().parents[1]
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def assert_no_scipy_stats(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint('scipy.stats' in sys.modules)\n"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "False", done.stdout


def test_import_leaves_scipy_stats_out():
    assert_no_scipy_stats("import gaussctm, gaussctm.cli")


@pytest.mark.parametrize("command, config", [
    ("throughput", "throughput.ini"),
    ("route-choice", "route_choice.ini"),
    ("control", "control.ini"),
    ("network", "network_symmetric.ini"),
    ("network", "network_asymmetric.ini"),
    ("validate", "validate.ini"),
])
def test_dry_run_leaves_scipy_stats_out(tmp_path, command, config):
    argv = [command, "--config", str(CONFIGS / config),
            "--out", str(tmp_path / "out.csv"), "--dry-run"]
    assert_no_scipy_stats(f"import gaussctm.cli\n"
                          f"assert gaussctm.cli.main({argv!r}) == 0")
    assert not (tmp_path / "out.csv").exists()
