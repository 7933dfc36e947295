"""Benchmark for binfactor: times its CLI commands and traces its layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 25 --trace 0

Workloads are ``fit-wide``, ``score-tall`` and ``simulate-desk`` (see
perfbench/README.md).  With ``--trace 0`` the run repeats the workload's
command, one fresh process per pass, for about ``--seconds`` seconds and
reports the end-to-end metrics named in BENCHMARK.json.  With ``--trace 1`` it
runs the command once, replays the same work in-process with a span around
every call into a layer, writes the spans to ``.perfbench/traces/`` and
reports the per-layer metrics.  Either way the outputs are checked first; a
failed check exits with status 1 and prints no result.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

SETUP_REPEATS = 3
# A run stops after this many CLI passes that exit with an error.
MAX_FAILED_PASSES = 3

# Why a per-layer metric reads 0 on a workload that makes no call into it.
ABSENT_REASONS = {
    "simulate.": "only simulate-desk runs Monte Carlo replications",
    "model_io.read_csv": "simulate-desk generates its data and reads no CSV",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run unwinds like an exception, so the CLI child it is
    # waiting on is killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "binfactor" / "__init__.py").is_file():
        print(f"error: {root} holds no binfactor sources (src/binfactor)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import binfactor

    if Path(binfactor.__file__).resolve().parent != (root / "src" / "binfactor").resolve():
        print(f"error: imported binfactor from {binfactor.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    run_id = uuid.uuid4().hex[:12]
    work = root / ".perfbench" / f"run-{run_id}"
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args, root, work, run_id, spec)
    except checks.CheckFailed as exc:
        print(f"check failed on {args.workload} (seed {args.seed}): {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(workload_cls, args, root: Path, work: Path, run_id: str, spec: dict) -> dict:
    import checks
    from spans import Tracer
    from workloads import Context, diagnose

    ctx = Context(root, work, args.seed)
    wl = workload_cls(ctx)
    env = environment(root, args.seed)
    print(f"env: {json.dumps(env)}")

    setup_s, import_s = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - start
        probe = ctx.run(["-c", "import binfactor"], "import.log")
        if probe.returncode:
            raise checks.CheckFailed(f"import binfactor failed:\n{ctx.log_tail('import.log')}")
        setup_s.append(elapsed + probe.wall_s)
        import_s.append(probe.wall_s)

    passes, attempted, failed, errors = [], 0, 0, 0
    start = time.perf_counter()
    while True:
        p = ctx.cli(wl.argv())
        attempted += wl.ops_per_pass
        if p.returncode:
            errors += 1
            failed += wl.ops_per_pass
            print(f"pass exited with {p.returncode}:\n{ctx.log_tail()}", file=sys.stderr)
            if errors >= MAX_FAILED_PASSES:
                break
        else:
            wl.check_pass()
            failed += wl.failed_ops()
            passes.append(p)
        if args.trace and passes:
            break
        # Start another pass while it is expected to end no later than half
        # a pass after the measuring time, so runs average --seconds.
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.wall_s for q in passes) if passes else 0.0
        if passes and elapsed + typical / 2 > args.seconds:
            break
    if not passes:
        raise checks.CheckFailed(f"every pass of {wl.name} exited with an error")
    wall_s = statistics.median(p.wall_s for p in passes)

    untraced = Tracer(run_id, enabled=False)
    if wl.replay_in_untraced_run or args.trace:
        wl.replay(untraced)

    if not args.trace:
        accuracy = wl.accuracy(untraced)
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            **accuracy,
        }
        print(f"{wl.name}: {len(passes)} passes, walls {[round(p.wall_s, 4) for p in passes]} s")
        print("  not compared between runs (see perfbench/README.md):")
        print(f"  {'fail_frac':32s} {failed / attempted:.6g} 1 ({failed}/{attempted})")
        print(f"  {'sigma_max_err':32s} {accuracy['sigma_max_err']:.6g} 1")
        print(f"  {'subspace_d':32s} {accuracy['subspace_d']:.6g} 1")
        if "nonconverged_rows" in accuracy:
            print(f"  {'nonconverged_rows':32s} {accuracy['nonconverged_rows']} count per pass")
        return result(metrics, spec["end_to_end"], attempted, failed)

    # Both timed replays follow the warm-up replay above, so neither pays
    # first-call costs; their difference is the tracing overhead.
    tr = Tracer(run_id)
    walls = {}
    for traced, tracer in ((True, tr), (False, untraced)):
        start = time.perf_counter()
        with tracer.span("pass"):
            wl.replay(tracer)
        walls[traced] = time.perf_counter() - start
    for fit in wl.fits:
        diagnose(tr, fit, args.seed)
    wl.accuracy(tr)
    metrics = layer_metrics(tr)
    metrics.update(wl.traced_extras(wall_s))
    metrics["cli.import_s"] = statistics.median(import_s)
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    print(f"{wl.name}: CLI pass {wall_s:.3f} s, replay traced {walls[True]:.3f} s, "
          f"untraced {walls[False]:.3f} s")
    for name in [m["name"] for m in spec["per_layer"]]:
        if name not in metrics:
            metrics[name] = 0.0
            reason = next((r for k, r in ABSENT_REASONS.items() if name.startswith(k)),
                          f"{wl.name} makes no call into this layer")
            print(f"absent on {wl.name}: {name} reads 0 ({reason})")
    trace_path = root / ".perfbench" / "traces" / f"{wl.name}-seed{args.seed}-{run_id}.json"
    tr.dump(trace_path, {"workload": wl.name, "seed": args.seed, "env": env, "metrics": metrics})
    print(f"spans written to {trace_path.relative_to(root)}")
    return result(metrics, spec["per_layer"], attempted, failed)


def layer_metrics(tr) -> dict[str, float]:
    """Per-layer figures from the spans; a layer with no spans is left out."""
    out: dict[str, float] = {}
    values = tr.counter_values
    if tr.durations("gaussian.invert"):
        invert_s = tr.total("gaussian.invert")
        iters = [i for batch in values("gaussian.invert_sample", "iterations") for i in batch]
        out.update({
            "gaussian.invert_s": invert_s,
            "gaussian.invert_us_per_pair": 1e6 * invert_s / sum(values("gaussian.invert", "pairs")),
            "gaussian.invert_iters_mean": statistics.fmean(iters),
            "gaussian.invert_iters_max": max(iters),
            "moments.marginals_s": tr.total("moments.marginals"),
            "moments.joint_s": tr.total("moments.joint"),
            "moments.pair_clamps": sum(values("gaussian.invert", "pair_clamps")),
            "spectral.eigen_s": tr.total("spectral.eigen"),
            "spectral.noise_s": tr.total("spectral.noise"),
            "spectral.fit_s": tr.total("spectral.fit"),
            "spectral.tau2_floored": sum(values("spectral.fit", "tau2_floored")),
            "spectral.negative_eigvals": sum(values("spectral.eigen", "negative_eigvals")),
            "spectral.eigengap": statistics.median(values("spectral.eigen", "eigengap")),
        })
    if tr.durations("scores.estimate"):
        row_iters = sum(values("scores.estimate", "row_iters"))
        estimate_s = tr.total("scores.estimate")
        out.update({
            "scores.estimate_s": estimate_s,
            "scores.row_iters": row_iters,
            "scores.us_per_row_iter": 1e6 * estimate_s / row_iters,
            "scores.iter_max": max(values("scores.estimate", "iter_max")),
            "scores.nonconverged": sum(values("scores.estimate", "nonconverged")),
        })
    if tr.durations("model_io.read_csv"):
        read_s = tr.total("model_io.read_csv")
        out["model_io.read_csv_s"] = read_s
        cells = sum(values("model_io.read_csv", "cells"))
        out["model_io.read_csv_ns_per_cell"] = 1e9 * read_s / cells
    out["model_io.write_s"] = tr.total("model_io.write")
    if tr.durations("simulate.replication"):
        out["simulate.replication_s"] = tr.median("simulate.replication")
        out["simulate.generate_s"] = tr.total("simulate.generate")
    return out


def result(metrics: dict, declared: list[dict], attempted: int, failed: int) -> dict:
    """The final JSON line: exactly the declared metrics, each with its unit."""
    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print("  compared between runs:")
    for m in declared:
        print(f"  {m['name']:32s} {float(metrics[m['name']]):.6g} {m['unit']}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }


def environment(root: Path, seed: int) -> dict:
    """Machine, library and source versions recorded with every result."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 - loads scipy's BLAS so it can be inspected

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": source_digest(root / "src" / "binfactor"),
        "seed": seed,
    }


def source_digest(package: Path) -> str:
    """SHA-256 over the package sources, to name the code that was measured."""
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


if __name__ == "__main__":
    sys.exit(main())
