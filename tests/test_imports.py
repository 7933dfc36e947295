"""Module boundaries: no package module imports another module's private
names, the package loads no scipy, no command loads numpy.ma, the lazy
namespace keeps its names, each command loads only its own modules (and
no numpy.polynomial), and only the process entry freezes the garbage
collector."""

import ast
import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import binfactor

PACKAGE = Path(binfactor.__file__).parent
ENV = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}

# The public names of the package namespace when ``__init__`` imported
# every submodule eagerly: the lazy namespace must keep each of them.
PUBLIC_NAMES = [
    "BinaryMatrix", "CheckResult", "DataFormatError", "EigenDecomposition",
    "EigengapWarning", "FactorModel", "InversionResult", "LatentScores",
    "MarginalSummary", "MetricsRecord", "ModelFormatError", "RHO_CLAMP", "ScoreConfig",
    "SimScenario", "TetrachoricMatrix", "TrueModel", "bvn_boundary_value", "bvn_upper_tail",
    "bvn_upper_tail_batch", "bvn_upper_tail_drho", "estimate_scores", "estimate_tetrachoric",
    "fit_from_tetrachoric", "fit_model", "gaussian", "generate_dataset",
    "generate_true_model", "inclusion_mask", "joint_frequency_matrix", "leading_subspace",
    "map_slices", "marginal_frequencies", "metric_max_err", "metric_med_err",
    "metric_subspace", "model_io", "moments", "noise_variances", "parallel",
    "population_probabilities", "population_sigma", "population_subspace_discrepancy",
    "read_binary_matrix", "read_model", "reconstruct", "run_grid", "run_replications",
    "run_selfcheck", "scores", "select_tau_threshold", "selfcheck", "sign_normalize",
    "simulate", "spectral", "std_normal_cdf", "std_normal_pdf", "std_normal_quantile",
    "subspace_discrepancy", "sym_eigen", "tetrachoric_from_probabilities",
    "tetrachoric_invert", "tetrachoric_invert_batch", "thresholds", "usable_cpus",
    "write_metrics", "write_model", "write_scores",
]


def _tiny_data(path):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((60, 1))
    data = (z @ rng.uniform(0.4, 0.9, (1, 6)) + 0.6 * rng.standard_normal((60, 6)) > 0)
    np.savetxt(path, data.astype(int), fmt="%d", delimiter=",")


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
    # command line about 0.3 s of start-up on every run.  The command line
    # imports its commands' modules only when they run, so every submodule
    # is imported here.
    code = (
        "import importlib, pkgutil, sys, binfactor\n"
        "for m in pkgutil.iter_modules(binfactor.__path__):\n"
        "    importlib.import_module(f'binfactor.{m.name}')\n"
        "print([len([m for m in sys.modules if m.startswith('binfactor.')]),"
        " [m for m in sys.modules if m.split('.')[0] == 'scipy']])"
    )
    run = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    n_modules, scipy_modules = ast.literal_eval(run.stdout.strip())
    assert n_modules == len(list(PACKAGE.glob("[!_]*.py")))
    assert scipy_modules == []


def test_commands_load_no_numpy_ma(tmp_path):
    # numpy 2 imports numpy.ma on the first np.unique without return_inverse
    # or np.median, which costs every command about 15 ms; numpy 1 imports
    # it with numpy itself, so the check is against the state after import.
    _tiny_data(tmp_path / "y.csv")
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
    run = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    before, *after = ast.literal_eval(run.stdout.strip())
    assert after == [before] * 3, dict(zip(["fit", "score", "simulate"], after))


def test_import_loads_no_submodule_and_keeps_names():
    code = """
import sys, binfactor
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("binfactor", "numpy"))
public = [n for n in dir(binfactor) if not n.startswith("_")]
for name in binfactor.__all__:
    getattr(binfactor, name)
print([loaded, public, sorted(binfactor.__all__),
       [n for n in dir(binfactor) if not n.startswith("_")], binfactor.__dict__["__version__"]])
"""
    run = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded, public, all_names, public_after_use, version = ast.literal_eval(run.stdout)
    assert loaded == ["binfactor"]
    assert public == all_names == public_after_use == PUBLIC_NAMES
    assert version == "0.1.0"

    # The benchmark times a bare ``python -c "import binfactor"``, with
    # site on: it may add only the package and what ``import importlib``
    # adds in the same interpreter state.
    added = {}
    for statement in ("import importlib", "import binfactor"):
        code = f"import sys; before = set(sys.modules); {statement}; print(sorted(set(sys.modules) - before))"
        run = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        added[statement] = set(ast.literal_eval(run.stdout.strip()))
    assert added["import binfactor"] - {"binfactor"} <= added["import importlib"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        binfactor.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from binfactor import no_such_name  # noqa: F401


# For each command, the modules it runs on and the modules it must not load.
# Only writing a scores table loads the renderer.
RUNS_ON = {
    "fit": {"spectral"}, "score": {"scores", "render"}, "simulate": {"simulate"},
    "selfcheck": {"selfcheck"},
}
NOT_LOADED = {
    "fit": {"render", "scores", "simulate", "selfcheck"},
    "score": {"simulate", "selfcheck"},
    "simulate": {"render", "selfcheck"},
    "selfcheck": {"model_io", "moments", "render", "scores", "simulate", "spectral"},
}


def test_each_command_loads_only_its_modules(tmp_path):
    # A sitecustomize hook reports the loaded binfactor modules at exit, so
    # the commands run exactly as ``python -m binfactor.cli`` runs them.
    _tiny_data(tmp_path / "y.csv")
    # It also reports whether numpy.polynomial and statistics are loaded;
    # numpy 1 imports numpy.polynomial itself, so a bare ``import numpy``
    # under the same hook is the baseline.
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        "import atexit, sys\n"
        "atexit.register(lambda: print('LOADED', [sorted(m.split('.')[1] for m in sys.modules"
        " if m.startswith('binfactor.')), [m for m in ('numpy.polynomial', 'statistics')"
        " if m in sys.modules]]))\n"
    )
    env = {**ENV, "PYTHONPATH": os.pathsep.join([str(hook), str(PACKAGE.parent)])}

    def loaded_by(argv):
        run = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        line = next(ln for ln in run.stdout.splitlines() if ln.startswith("LOADED "))
        modules, others = ast.literal_eval(line[len("LOADED "):])
        return set(modules), set(others)

    numpy_alone = loaded_by(["-c", "import numpy"])[1]
    commands = {
        "fit": ["--data", "y.csv", "--d", "1", "--out", "m.json", "--threads", "1"],
        "score": ["--data", "y.csv", "--model", "m.json", "--out", "s.csv", "--threads", "1"],
        "simulate": ["--p", "6", "--n", "60", "--d", "1", "--reps", "1", "--out", "x.csv",
                     "--threads", "1"],
        "selfcheck": [],
    }
    for command, flags in commands.items():
        loaded, others = loaded_by(["-m", "binfactor.cli", command, *flags])
        assert RUNS_ON[command] <= loaded, (command, sorted(loaded))
        assert not loaded & NOT_LOADED[command], (command, sorted(loaded))
        # The quadrature rule is held as literals, and only Phi^-1 needs
        # statistics, which scoring never calls.
        assert "numpy.polynomial" not in others - numpy_alone, command
        if command == "score":
            assert "statistics" not in others - numpy_alone


def test_only_the_process_entry_freezes_the_collector(tmp_path):
    # ``main`` leaves the collector to its caller; the process entry that
    # ``-m`` and the console script run freezes it before the exit.
    from binfactor.cli import main

    _tiny_data(tmp_path / "y.csv")
    argv = ["fit", "--data", str(tmp_path / "y.csv"), "--d", "1",
            "--out", str(tmp_path / "m.json"), "--threads", "1"]
    before = gc.get_freeze_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert gc.get_freeze_count() == before

    code = f"""
import contextlib, gc, io, runpy, sys
sys.argv = ["binfactor", *{argv!r}]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("binfactor.cli", run_name="__main__")
    except SystemExit as exc:
        exit_code = exc.code
print([exit_code, gc.get_freeze_count()])
"""
    run = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    exit_code, frozen = ast.literal_eval(run.stdout.strip())
    assert exit_code == 0 and frozen > 0
