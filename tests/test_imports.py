"""Module boundaries: no package module imports another module's private
names, and the command line loads no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
