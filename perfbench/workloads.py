"""The benchmark's three workloads and the in-process replays that trace them.

Each workload times its CLI command in a fresh process per pass, then
replays the same work in this process through binfactor's public functions,
with a span around each call into a layer.  A traced run alternates replays
with the tracer on and off; the difference of their walls is the tracing
overhead.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import binfactor as bf
import checks
from inputs import make_dataset, write_csv
from spans import Tracer

# Column pairs per correlation matrix whose inversions are re-run for the
# iteration counts and checked against scipy.
PAIR_SAMPLE = 200


@dataclass
class Pass:
    """One CLI command run in its own process."""

    wall_s: float
    rss_mb: float
    returncode: int


@dataclass
class Fit:
    """What the moment and spectral layers produced for one data matrix."""

    y: bf.BinaryMatrix
    joint: np.ndarray
    ms: bf.MarginalSummary
    tetra: bf.TetrachoricMatrix
    model: bf.FactorModel


class Context:
    """Per-run settings shared by the workloads."""

    # A child process still running this long after the run began is
    # killed, so that a hung command cannot hold the run past its limit.
    DEADLINE_S = 150.0

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + self.DEADLINE_S

    def run(self, args: list[str], log_name: str) -> Pass:
        """Run ``python <args>`` and measure its wall time and peak RSS."""
        with open(self.work / log_name, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], env=self.env, cwd=self.work,
                stdout=log, stderr=subprocess.STDOUT,
            )
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Pass(wall, usage.ru_maxrss / 1024.0, proc.returncode)

    def cli(self, args: list[str]) -> Pass:
        return self.run(["-m", "binfactor.cli", *args], "cli.log")

    def log_tail(self, log_name: str = "cli.log") -> str:
        return (self.work / log_name).read_text(errors="replace")[-2000:]


def fit_layers(tr: Tracer, y: bf.BinaryMatrix, d: int) -> Fit:
    """The fit pipeline of ``binfactor fit``, one span per layer call.

    ``tetrachoric_from_probabilities`` on the data's own frequencies gives
    the same correlation matrix as ``estimate_tetrachoric``; the workloads
    check that by comparing the resulting model with the CLI's bit for bit.
    """
    with tr.span("moments.marginals"):
        p_marginal = bf.marginal_frequencies(y)
    with tr.span("moments.joint"):
        joint = bf.joint_frequency_matrix(y)
    with tr.span("gaussian.invert") as counters:
        ms, tetra = bf.tetrachoric_from_probabilities(p_marginal, joint, n=y.n)
    counters.update(pairs=y.p * (y.p - 1) // 2, pair_clamps=len(tetra.clamp_flags))
    with tr.span("spectral.fit") as counters:
        model = bf.fit_from_tetrachoric(ms, tetra, d, meta={"n": y.n})
    counters.update(tau2_floored=model.meta["tau2_floored"])
    return Fit(y, joint, ms, tetra, model)


def score_layer(tr: Tracer, y: bf.BinaryMatrix, model: bf.FactorModel) -> bf.LatentScores:
    with tr.span("scores.estimate") as counters:
        scores = bf.estimate_scores(y, model, bf.ScoreConfig())
    counters.update(
        row_iters=int(scores.iterations.sum()),
        iter_max=int(scores.iterations.max()),
        nonconverged=int(np.count_nonzero(~scores.converged)),
    )
    return scores


def diagnose(tr: Tracer, fit: Fit, seed: int) -> None:
    """Spectral and inversion counters for one fit (traced run only).

    Re-inverts a fixed seeded sample of pairs for the iteration counts and
    checks each result against the matrix entry and against scipy.
    """
    d = fit.model.d
    with tr.span("spectral.eigen") as counters:
        eig = bf.sym_eigen(fit.tetra.sigma)
    counters.update(
        eigengap=float(eig.values[d - 1] - eig.values[d]),
        negative_eigvals=int(np.count_nonzero(eig.values < 0.0)),
    )
    with tr.span("spectral.noise"):
        bf.noise_variances(fit.tetra.sigma, bf.leading_subspace(eig, d))
    pairs = checks.sample_pairs(fit.model.p, fit.tetra.clamp_flags, PAIR_SAMPLE, seed)
    c_hat, joint = fit.ms.c_hat, fit.joint
    with tr.span("gaussian.invert_sample") as counters:
        results = [bf.tetrachoric_invert(c_hat[a], c_hat[b], joint[a, b]) for a, b in pairs]
    counters.update(iterations=[r.iterations for r in results])
    for (a, b), res in zip(pairs, results):
        if res.rho_hat != fit.tetra.sigma[a, b]:
            raise checks.CheckFailed(f"pair ({a}, {b}) inverts to {res.rho_hat!r} alone "
                                     f"but to {fit.tetra.sigma[a, b]!r} in the matrix")
    checks.check_tetrachoric(fit.tetra.sigma, c_hat, joint, pairs)


class Workload:
    """One benchmark workload: set-up, the timed CLI pass, and its replay."""

    name = ""
    # Operations in one pass, the unit of ``attempted`` and ``failed``.
    ops_per_pass = 1
    # Whether an untraced run needs the replay for its correctness checks.
    replay_in_untraced_run = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.first_output: bytes | None = None
        self.fits: list[Fit] = []

    def setup(self) -> None:
        """Make the inputs; called several times, each time timed."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def output_path(self) -> Path:
        raise NotImplementedError

    def failed_ops(self) -> int:
        """Failed operations in the pass that just ended without an error."""
        return 0

    def check_pass(self) -> None:
        """Every pass must write the same bytes as the first."""
        out = self.output_path().read_bytes()
        if self.first_output is None:
            self.first_output = out
        checks.check_same_bytes(f"{self.name} output", out, self.first_output)

    def replay(self, tr: Tracer) -> None:
        raise NotImplementedError

    def accuracy(self, tr: Tracer) -> dict[str, float]:
        """Check the outputs and return the accuracy figures of the run."""
        raise NotImplementedError

    def traced_extras(self, threaded_wall_s: float) -> dict[str, float]:
        """Per-layer figures that need another CLI run (traced run only)."""
        return {}


class FitWide(Workload):
    """``binfactor fit`` on n=2000, p=150, d=3: 11,175 tetrachoric inversions."""

    name = "fit-wide"
    N, P, D = 2000, 150, 3

    def setup(self):
        seed = self.ctx.seed
        self.data = make_dataset([seed, 1, 0], [seed, 1, 1], self.N, self.P, self.D)
        self.csv = self.ctx.work / "fit-wide.csv"
        write_csv(self.data.y, self.csv)

    def argv(self):
        return ["fit", "--data", str(self.csv), "--d", str(self.D),
                "--out", str(self.output_path())]

    def output_path(self):
        return self.ctx.work / "model.json"

    def replay(self, tr):
        with tr.span("model_io.read_csv") as counters:
            y = bf.read_binary_matrix(self.csv)
        counters.update(cells=y.n * y.p)
        fit = fit_layers(tr, y, self.D)
        with tr.span("model_io.write"):
            bf.write_model(fit.model, self.ctx.work / "replay-model.json")
        self.fits = [fit]

    def accuracy(self, tr):
        checks.check_same_bytes(
            "CLI model", self.first_output, (self.ctx.work / "replay-model.json").read_bytes()
        )
        fit = self.fits[0]
        pairs = checks.sample_pairs(self.P, fit.tetra.clamp_flags, PAIR_SAMPLE, self.ctx.seed)
        checks.check_tetrachoric(fit.tetra.sigma, fit.ms.c_hat, fit.joint, pairs)
        # Scoring the same rows with the fitted model is outside the fit
        # command; it gives the reconstruction error of the fitted loadings.
        scores = score_layer(tr, fit.y, fit.model)
        p99, worst = checks.sigma_errors(fit.tetra.sigma, self.data.b)
        return {
            "sigma_p99_err": p99,
            "sigma_max_err": worst,
            "subspace_d": bf.subspace_discrepancy(self.data.b, fit.model.b_hat),
            "recon_med_err": checks.recon_med_err(
                fit.model.b_hat, scores.z_hat, self.data.b, self.data.z
            ),
        }


class ScoreTall(Workload):
    """``binfactor score`` on n=100,000, p=50, d=2 with a model fitted in set-up."""

    name = "score-tall"
    N, P, D = 100_000, 50, 2
    ops_per_pass = N
    replay_in_untraced_run = False
    # The median reconstruction error is near 0.20 at this size; above this
    # the scores are wrong, not merely noisy.
    RECON_CEILING = 0.3

    def setup(self):
        # The model is fitted once on a fixed training sample, as a user fits
        # once and scores new data; the seed draws the samples to score.
        # Fitting on the scored data itself would make the fit's accuracy
        # figures vary by a fifth between seeds at p=50.
        self.train = make_dataset([0, 2, 0], [0, 2, 1], self.N, self.P, self.D)
        self.data = make_dataset([0, 2, 0], [self.ctx.seed, 2, 2], self.N, self.P, self.D)
        self.csv = self.ctx.work / "score-tall.csv"
        write_csv(self.data.y, self.csv)
        self.model_path = self.ctx.work / "model.json"
        self.fit_model(Tracer("", enabled=False))

    def fit_model(self, tr: Tracer) -> None:
        fit = fit_layers(tr, bf.BinaryMatrix(self.train.y), self.D)
        with tr.span("model_io.write"):
            bf.write_model(fit.model, self.model_path)
        self.fits = [fit]

    def argv(self):
        return ["score", "--data", str(self.csv), "--model", str(self.model_path),
                "--out", str(self.output_path())]

    def output_path(self):
        return self.ctx.work / "scores.csv"

    def failed_ops(self):
        table = checks.read_scores(self.output_path().read_text(), self.N, self.D)
        return checks.failed_rows(table)

    def replay(self, tr):
        """The set-up fit followed by the score command."""
        self.fit_model(tr)
        with tr.span("model_io.read_csv") as counters:
            y = bf.read_binary_matrix(self.csv)
        counters.update(cells=y.n * y.p)
        with tr.span("model_io.read_model"):
            model = bf.read_model(self.model_path)
        scores = score_layer(tr, y, model)
        with tr.span("model_io.write"):
            bf.write_scores(scores, self.ctx.work / "replay-scores.csv")

    def accuracy(self, tr):
        replayed = self.ctx.work / "replay-scores.csv"
        if replayed.exists():
            checks.check_same_bytes("CLI scores", self.first_output, replayed.read_bytes())
        table = checks.read_scores(self.first_output.decode(), self.N, self.D)
        fit = self.fits[0]
        # Printed with every run, and traced as scores.nonconverged.
        nonconverged = int(np.count_nonzero(table[:, -1] == 0.0))
        recon = checks.recon_med_err(fit.model.b_hat, table[:, : self.D], self.data.b, self.data.z)
        if not recon < self.RECON_CEILING:
            raise checks.CheckFailed(f"recon_med_err {recon} is not below {self.RECON_CEILING}")
        p99, worst = checks.sigma_errors(fit.tetra.sigma, self.train.b)
        return {
            "sigma_p99_err": p99,
            "sigma_max_err": worst,
            "subspace_d": bf.subspace_discrepancy(self.train.b, fit.model.b_hat),
            "recon_med_err": recon,
            "nonconverged_rows": nonconverged,
        }


class SimulateDesk(Workload):
    """``binfactor simulate --grid desk --d 2 --threads 2``: many small problems."""

    name = "simulate-desk"
    D, REPS, THREADS = 2, 2, 2
    PS, NS = (20, 50), (1000, 2000, 4000)
    ops_per_pass = len(PS) * len(NS) * REPS

    def setup(self):
        self.csv = self.ctx.work / "metrics.csv"

    def argv(self, threads: int | None = None):
        return ["simulate", "--grid", "desk", "--d", str(self.D),
                "--threads", str(threads or self.THREADS), "--reps", str(self.REPS),
                "--seed", str(self.ctx.seed), "--out", str(self.output_path())]

    def output_path(self):
        return self.csv

    def failed_ops(self):
        checks.read_metrics(self.output_path().read_text(), self.ops_per_pass)
        return 0

    def replay(self, tr):
        """Serial replication loop of ``run_replications`` through public calls."""
        seed, d = self.ctx.seed, self.D
        cfg = bf.ScoreConfig()
        records, self.fits, self.true_b = [], [], []
        for p in self.PS:
            for n in self.NS:
                scn = bf.SimScenario(d=d, p=p, n=n, reps=self.REPS, seed=seed)
                with tr.span("simulate.generate"):
                    tm = bf.generate_true_model(scn, np.random.default_rng([seed, 0]))
                for r in range(self.REPS):
                    with tr.span("simulate.replication"):
                        with tr.span("simulate.generate"):
                            rng = np.random.default_rng([seed, 1, r])
                            y, z, _ = bf.generate_dataset(tm, n, rng)
                        fit = fit_layers(tr, y, d)
                        with tr.span("spectral.basis"):
                            basis = bf.leading_subspace(bf.sym_eigen(fit.tetra.sigma), d)
                        scores = score_layer(tr, y, fit.model)
                        with tr.span("simulate.metrics"):
                            records.append(bf.MetricsRecord(
                                scenario=scn.label,
                                rep=r,
                                max_err=bf.metric_max_err(fit.tetra, tm),
                                subspace_d=bf.metric_subspace(tm.b, basis),
                                med_err=bf.metric_med_err(fit.model, scores, tm, z),
                                # No public function computes tau_err; this is
                                # the formula of the package's replication loop.
                                tau_err=float(np.mean(np.abs(fit.model.tau2_hat - tm.tau2))),
                            ))
                    self.fits.append(fit)
                    self.true_b.append(tm.b)
        with tr.span("model_io.write"):
            bf.write_metrics(records, self.ctx.work / "replay-metrics.csv")

    def accuracy(self, tr):
        checks.check_same_bytes(
            "threaded CLI metrics CSV",
            self.first_output,
            (self.ctx.work / "replay-metrics.csv").read_bytes(),
        )
        records = checks.read_metrics(self.first_output.decode(), self.ops_per_pass)
        med = {k: statistics.median(float(r[k]) for r in records)
               for k in ("max_err", "subspace_d", "med_err")}
        p99 = [checks.sigma_errors(f.tetra.sigma, b)[0] for f, b in zip(self.fits, self.true_b)]
        return {
            "sigma_p99_err": statistics.median(p99),
            "sigma_max_err": med["max_err"],
            "subspace_d": med["subspace_d"],
            "recon_med_err": med["med_err"],
        }

    def traced_extras(self, threaded_wall_s):
        serial = self.ctx.cli(self.argv(threads=1))
        if serial.returncode:
            raise checks.CheckFailed(f"simulate --threads 1 failed:\n{self.ctx.log_tail()}")
        checks.check_same_bytes("serial CLI metrics CSV", self.csv.read_bytes(), self.first_output)
        return {"simulate.parallel_efficiency": serial.wall_s / (self.THREADS * threaded_wall_s)}


WORKLOADS = {w.name: w for w in (FitWide, ScoreTall, SimulateDesk)}
