"""Module boundaries: no package module imports another module's private
names, the command line loads no scipy, and no command loads numpy.ma."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import binfactor

PACKAGE = Path(binfactor.__file__).parent


def test_no_cross_module_private_imports():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "binfactor"
            ):
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders, offenders


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would also cost the
    # command line about 0.3 s of start-up on every run.
    code = "import sys, binfactor.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_commands_load_no_numpy_ma(tmp_path):
    # numpy 2 imports numpy.ma on the first np.unique without return_inverse
    # or np.median, which costs every command about 15 ms; numpy 1 imports
    # it with numpy itself, so the check is against the state after import.
    rng = np.random.default_rng(0)
    z = rng.standard_normal((60, 1))
    data = (z @ rng.uniform(0.4, 0.9, (1, 6)) + 0.6 * rng.standard_normal((60, 6)) > 0)
    np.savetxt(tmp_path / "y.csv", data.astype(int), fmt="%d", delimiter=",")
    code = f"""
import contextlib, io, os, sys
from binfactor.cli import main
os.chdir({str(tmp_path)!r})
loaded = ["numpy.ma" in sys.modules]
commands = [
    ["fit", "--data", "y.csv", "--d", "1", "--out", "m.json", "--threads", "1"],
    ["score", "--data", "y.csv", "--model", "m.json", "--out", "s.csv", "--threads", "1"],
    ["simulate", "--p", "6", "--n", "60", "--d", "1", "--reps", "2", "--out", "x.csv",
     "--threads", "1"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append("numpy.ma" in sys.modules)
print(loaded)
"""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    before, *after = ast.literal_eval(run.stdout.strip())
    assert after == [before] * 3, dict(zip(["fit", "score", "simulate"], after))
