"""Command-line interface: fit, score, simulate, selfcheck.

Exit codes: 0 on success, 1 on a runtime failure, 2 on invalid input or
flags.  Every command is deterministic given its flags and seed; the fit,
score and simulate outputs are byte-identical across runs and across
``--threads`` settings.  ``simulate`` runs its whole grid in one call of
``run_grid`` and writes the metrics CSV once, after the last replication.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import model_io
from .parallel import usable_cpus
from .scores import ScoreConfig, estimate_scores, inclusion_mask
from .selfcheck import format_report, run_selfcheck
from .simulate import SimScenario, run_grid
from .spectral import TAU2_FLOOR, fit_model

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


# Preset (p, n) grids for ``simulate --grid``; "desk" is also the default.
_GRIDS = {
    "desk": ([20, 50], [1000, 2000, 4000]),
    "full": ([50, 80, 100], [4000 + 2000 * r for r in range(6)]),
}


class _UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; pass that through.
        return int(exc.code or 0)
    try:
        threads = getattr(args, "threads", 1)
        if threads < 1:
            raise _UsageError(f"--threads must be at least 1, got {threads}")
        out = getattr(args, "out", None)
        if out is not None and (
            not out or os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")
        ):
            raise _UsageError(f"--out must name a file in an existing directory: {out}")
        return args.func(args)
    except (_UsageError, model_io.DataFormatError, model_io.ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binfactor",
        description="Latent factor models for high-dimensional binary data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a factor model to a binary CSV")
    fit.add_argument("--data", required=True, help="input CSV of 0/1 entries")
    fit.add_argument("--d", required=True, type=int, help="number of latent factors")
    fit.add_argument("--out", required=True, help="output model file")
    _add_threads(fit, "tetrachoric pair chunks")
    fit.set_defaults(func=_cmd_fit)

    score = sub.add_parser("score", help="estimate latent factors for each sample")
    score.add_argument("--data", required=True, help="input CSV of 0/1 entries")
    score.add_argument("--model", required=True, help="fitted model file")
    score.add_argument("--out", required=True, help="output scores CSV")
    score.add_argument("--m", type=float, default=90.0,
                       help="percent of components included in the likelihood (default 90)")
    score.add_argument("--grad-tol", type=float, default=1e-8,
                       help="gradient-norm stopping tolerance (default 1e-8)")
    score.add_argument("--max-iter", type=int, default=100,
                       help="iteration cap per sample (default 100)")
    _add_threads(score, "row shards and render the output rows")
    score.set_defaults(func=_cmd_score)

    sim = sub.add_parser("simulate", help="run the Monte Carlo study")
    desk_p, desk_n = (",".join(map(str, v)) for v in _GRIDS["desk"])
    sim.add_argument("--p", type=_int_list, default=desk_p,
                     help=f"feature dimensions, comma separated (default {desk_p})")
    sim.add_argument("--n", type=_int_list, default=desk_n,
                     help=f"sample sizes, comma separated (default {desk_n})")
    sim.add_argument("--d", type=int, default=2, help="factor dimension (default 2)")
    sim.add_argument("--reps", type=int, default=50, help="replications per scenario")
    sim.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sim.add_argument("--out", required=True, help="output metrics CSV")
    sim.add_argument("--grid", choices=list(_GRIDS), default=None,
                     help="preset (p, n) grid; overrides --p/--n")
    sim.add_argument("--m", type=float, default=90.0,
                     help="scoring inclusion percentage (default 90)")
    sim.add_argument("--grad-tol", type=float, default=1e-8)
    _add_threads(sim, "replications")
    sim.add_argument("--timings", action="store_true",
                     help="include wall-clock stage times in the CSV (not byte-reproducible)")
    sim.set_defaults(func=_cmd_simulate)

    check = sub.add_parser("selfcheck", help="run the numerical verification battery")
    check.set_defaults(func=_cmd_selfcheck)
    return parser


def _add_threads(parser: argparse.ArgumentParser, units: str) -> None:
    parser.add_argument("--threads", type=int, default=usable_cpus(),
                        help=f"worker processes that run the {units}; the output is "
                             "identical at any count (default: the usable CPUs)")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")
    return values


def _cmd_fit(args) -> int:
    y = model_io.read_binary_matrix(args.data)
    if not 1 <= args.d <= y.p:
        raise _UsageError(f"--d must be between 1 and p={y.p}, got {args.d}")
    model = fit_model(y, args.d, args.threads)
    model_io.write_model(model, args.out)
    eig = ", ".join(f"{v:.6g}" for v in model.eigvals)
    print(f"fitted model: p={model.p} n={y.n} d={model.d}")
    print(f"leading eigenvalues: {eig}")
    print(
        f"clamped marginals: {model.meta['marginal_clamps']}, "
        f"clamped pairs: {model.meta['pair_clamps']}, "
        f"floored noise variances: {model.meta['tau2_floored']}"
    )
    print(f"model written to {args.out}")
    return EXIT_OK


def _cmd_score(args) -> int:
    try:
        cfg = ScoreConfig(m_percent=args.m, grad_tol=args.grad_tol, max_iter=args.max_iter)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    y = model_io.read_binary_matrix(args.data)
    model = model_io.read_model(args.model)
    if model.p != y.p:
        raise _UsageError(f"model expects p={model.p} features, data has p={y.p}")
    scores = estimate_scores(y, model, cfg, threads=args.threads)
    model_io.write_scores(scores, args.out, threads=args.threads)
    n_conv = int(scores.converged.sum())
    k = int(inclusion_mask(model, cfg.m_percent).sum())
    print(f"scored {scores.n} samples (d={model.d}); converged: {n_conv}/{scores.n}")
    print(f"components in the likelihood: {k} of {model.p}")
    if k == 0:
        floored = int((model.tau2_hat <= TAU2_FLOOR).sum())
        print(
            f"warning: no component enters the likelihood, so every score is 0: "
            f"floored noise variances: {floored} of {model.p} (at or below "
            f"{TAU2_FLOOR:g}), and a floored component is left out at any --m",
            file=sys.stderr,
        )
    print(f"scores written to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    ps, ns = _GRIDS[args.grid] if args.grid else (args.p, args.n)
    try:
        scenarios = [
            SimScenario(d=args.d, p=p, n=n, reps=args.reps, seed=args.seed)
            for p in ps
            for n in ns
        ]
        cfg = ScoreConfig(m_percent=args.m, grad_tol=args.grad_tol)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    for scn in scenarios:
        print(f"running {scn.label} ({scn.reps} replications)", file=sys.stderr)
    records = run_grid(scenarios, score_config=cfg, threads=args.threads)
    model_io.write_metrics(records, args.out, include_timings=args.timings)
    failures = sum(1 for r in records if r.error)
    print(f"wrote {len(records)} metric rows to {args.out} ({failures} failed replications)")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    results = run_selfcheck()
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
