"""Every command loads only what it runs.  No gaussctm module imports
scipy when it is itself imported: each function that calls scipy
imports it.  So `import gaussctm.cli`, and a whole `network` run, which
calls no scipy function, load no scipy module at all; scipy.stats, which
no command needs, stays out of every dry run.

Each check runs in a fresh interpreter, since other tests import scipy
into this one; it reads the gaussctm this suite imports."""

import ast
import configparser
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaussctm

SRC = Path(gaussctm.__file__).resolve().parents[1]
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_fresh(code):
    """The last line that `code` prints in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def assert_no_scipy_stats(code):
    loaded = run_fresh(code + "\nimport sys\nprint('scipy.stats' in sys.modules)\n")
    assert loaded == "False", loaded


def scipy_modules(code):
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    return json.loads(run_fresh(
        code + "\nimport json, sys\nprint(json.dumps(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"))


def _import_time_imports(tree):
    """The import statements that run when the module is imported: all
    but those inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted((SRC / "gaussctm").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    offenders = []
    for node in _import_time_imports(ast.parse(path.read_text(), str(path))):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if node.level == 0 else [])
        if any(name.split(".")[0] == "scipy" for name in names):
            offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_import_loads_no_scipy():
    assert scipy_modules("import gaussctm, gaussctm.cli") == []


def test_network_run_loads_no_scipy(tmp_path):
    cfg = configparser.ConfigParser()
    cfg.read(CONFIGS / "network_symmetric.ini")
    cfg["network"]["horizon_s"] = "100"  # samples at 0, 50 and 100 s
    config, out = tmp_path / "network.ini", tmp_path / "out.csv"
    with open(config, "w") as fh:
        cfg.write(fh)
    argv = ["network", "--config", str(config), "--out", str(out)]
    assert scipy_modules(f"import gaussctm.cli\n"
                         f"assert gaussctm.cli.main({argv!r}) == 0") == []
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    times = sorted({float(r["time_s"]) for r in rows})
    assert times == [0.0, 50.0, 100.0]
    assert len(rows) == 3 * len({r["cell"] for r in rows}) == 3 * 34


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
