"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines stream.  The Monte Carlo criteria share their replication runs
through module-scoped fixtures; everything is pinned to one seed, so the
whole suite is reproducible bit for bit.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

import binfactor as bf
from binfactor.cli import main as cli_main
from binfactor.scores import _evaluate, _inclusion

SEED = 20260808
REPS = 50


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} — {detail}")


def med(records, field):
    return float(np.median([getattr(r, field) for r in records]))


def run_grid(d, p, n):
    scn = bf.SimScenario(d=d, p=p, n=n, reps=REPS, seed=SEED)
    return bf.run_replications(scn, threads=4)


@pytest.fixture(scope="module")
def grid_p20():
    """d=2, p=20 records for n in {1000, 2000, 4000}, plus wall time."""
    t0 = time.perf_counter()
    recs = {n: run_grid(2, 20, n) for n in (1000, 2000, 4000)}
    return recs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def p50_n4000_d2():
    t0 = time.perf_counter()
    recs = run_grid(2, 50, 4000)
    return recs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def d1_pairs():
    return {p: run_grid(1, p, 4000) for p in (20, 50)}


def test_criterion_1_kernel_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in np.concatenate([[-0.99], np.arange(-0.9, 0.91, 0.1), [0.99]]):
        exact = 0.25 + math.asin(rho) / (2.0 * math.pi)
        worst = max(worst, abs(bf.bvn_upper_tail(0.0, 0.0, float(rho)) - exact))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-9 and wall < 1.0
    report(1, ok, f"quadrant closed form: max |error| = {worst:.3e} "
                  f"(tol 1e-9), runtime {wall:.2f}s (< 1s)")
    assert ok


def mp_drho(c1, c2, r):
    """Closed-form d ell / d rho in mpmath arithmetic:

    exp(-(c1^2 - 2 rho c1 c2 + c2^2) / (2 (1 - rho^2))) / (2 pi sqrt(1 - rho^2)).

    Written out here rather than taken from ``bf.bvn_upper_tail_drho``: the
    round-trip allowance grows as the derivative shrinks, so it must not
    rest on the program it judges.
    """
    one_minus = 1 - r * r
    quad = c1 * c1 - 2 * r * c1 * c2 + c2 * c2
    return mp.exp(-quad / (2 * one_minus)) / (2 * mp.pi * mp.sqrt(one_minus))


def ell_drho(c1, c2, rho):
    """d ell / d rho at 30 digits, the condition of the inversion at rho."""
    with mp.workdps(30):
        return float(mp_drho(mp.mpf(c1), mp.mpf(c2), mp.mpf(rho)))


def boundary_gap(c1, c2, rho):
    """Exact |ell(c1, c2; rho) - ell(c1, c2; sign(rho))| from a 30-digit oracle.

    Integrates the closed-form derivative from the boundary nearer rho.
    """
    with mp.workdps(30):
        c1, c2 = mp.mpf(c1), mp.mpf(c2)
        return float(abs(mp.quad(lambda r: mp_drho(c1, c2, r),
                                 [mp.sign(rho), mp.mpf(rho)])))


def test_criterion_2_inversion_round_trip():
    t0 = time.perf_counter()
    cells = []
    for c1 in (-1.5, -0.5, 0.0, 0.5, 1.5):
        for c2 in (-1.5, -0.5, 0.0, 0.5, 1.5):
            for k in range(20):
                rho = round(-0.95 + 0.1 * k, 2)
                p = bf.bvn_upper_tail(c1, c2, rho)
                cells.append((c1, c2, rho, p, bf.tetrachoric_invert(c1, c2, p)))
    wall = time.perf_counter() - t0

    # A float64 p fixes rho only to within ulp(p) / ell'(rho) (Higham 2002,
    # section 1.6); each cell is allowed 1e-8 plus two such ulps: half an
    # ulp for the rounding of p and the rest for the kernel's own noise.
    # Where the exact gap between ell and its boundary value is below half
    # an ulp of p, p rounds onto the boundary and no rho is recoverable;
    # the documented response there is the clamp, with the boundary's sign.
    # The oracle runs only where the rounding alone spans more than 1e-6.
    worst = worst_ratio = 0.0
    failures = []
    clamp_cells = []
    for c1, c2, rho, p, res in cells:
        err = abs(res.rho_hat - rho)
        rounding = math.ulp(p) / ell_drho(c1, c2, rho)
        if rounding > 1e-6 and boundary_gap(c1, c2, rho) < 0.5 * math.ulp(p):
            clamp_cells.append((c1, c2, rho))
            if not res.clamped or res.rho_hat != math.copysign(1.0 - bf.RHO_CLAMP, rho):
                failures.append(
                    f"(c1={c1}, c2={c2}, rho={rho}): p rounds onto its boundary "
                    f"value but rho_hat = {res.rho_hat!r}, clamped = {res.clamped}"
                )
            continue
        allowance = 1e-8 + 2.0 * rounding
        worst = max(worst, err)
        worst_ratio = max(worst_ratio, err / allowance)
        if res.clamped or err > allowance:
            failures.append(
                f"(c1={c1}, c2={c2}, rho={rho}): error {err:.2e}, allowance "
                f"{allowance:.2e}, clamped = {res.clamped}"
            )
    ok = not failures and wall < 5.0
    detail = (
        f"round trip over {len(cells)} grid cells: worst |rho_hat - rho| = "
        f"{worst:.3e}, worst error / allowance = {worst_ratio:.3f} "
        f"(allowance 1e-8 + 2 ulp(p) / ell'(rho)); {len(clamp_cells)} cells "
        f"clamp where p rounds onto its boundary value {clamp_cells}; "
        f"runtime {wall:.2f}s (< 5s)"
    )
    if failures:
        detail += f" — {len(failures)} cells fail: " + "; ".join(failures)
    report(2, ok, detail)
    assert ok, detail


def test_criterion_3_noise_free_identifiability():
    scn = bf.SimScenario(d=2, p=50, n=1000, reps=1, seed=SEED)
    tm = bf.generate_true_model(scn, np.random.default_rng([SEED, 0]))
    sigma = bf.population_sigma(tm)
    p_marg, p_joint = bf.population_probabilities(tm)
    _, tetra = bf.tetrachoric_from_probabilities(p_marg, p_joint)
    err = np.abs(tetra.sigma - sigma)
    np.fill_diagonal(err, 0.0)
    worst = float(err.max())
    ok = worst <= 1e-7
    report(3, ok, f"exact-probability injection (p=50, d=2): max entrywise "
                  f"|sigma_hat - sigma| = {worst:.3e} (tol 1e-7)")
    assert ok


def test_criterion_4_population_subspace_trend():
    vals = []
    for p in (20, 50, 100):
        scn = bf.SimScenario(d=2, p=p, n=1000, reps=1, seed=SEED)
        tm = bf.generate_true_model(scn, np.random.default_rng([SEED, 0]))
        vals.append(bf.population_subspace_discrepancy(tm))
    ok = vals[0] > vals[1] > vals[2]
    report(4, ok, "population discrepancy over p in {20, 50, 100}: "
                  + " > ".join(f"{v:.6f}" for v in vals)
                  + f" strictly decreasing: {ok}")
    assert ok


def test_criterion_5_max_err_trend(grid_p20):
    recs, wall = grid_p20
    medians = [med(recs[n], "max_err") for n in (1000, 2000, 4000)]
    ratio = medians[2] / medians[0]
    decreasing = medians[0] > medians[1] > medians[2]
    ok = decreasing and ratio <= 0.6 and wall < 300.0
    report(5, ok, f"median MaxErr over n in {{1000, 2000, 4000}} (p=20, d=2, R={REPS}): "
                  + " > ".join(f"{m:.4f}" for m in medians)
                  + f"; ratio n4000/n1000 = {ratio:.3f} (<= 0.6); "
                  f"grid runtime {wall:.0f}s (< 300s)")
    assert ok


def test_criterion_6_subspace_trend(grid_p20, p50_n4000_d2):
    recs, wall20 = grid_p20
    recs50, wall50 = p50_n4000_d2
    medians = [med(recs[n], "subspace_d") for n in (1000, 2000, 4000)]
    in_n = medians[0] > medians[1] > medians[2]
    d_p20, d_p50 = medians[2], med(recs50, "subspace_d")
    in_p = d_p50 < d_p20
    wall = wall20 + wall50
    ok = in_n and in_p and wall < 600.0
    report(6, ok, f"median subspace discrepancy in n (p=20): "
                  + " > ".join(f"{m:.5f}" for m in medians)
                  + f"; in p at n=4000: p20 {d_p20:.5f} > p50 {d_p50:.5f}; "
                  f"total runtime {wall:.0f}s (< 600s)")
    assert ok


def test_criterion_7_med_err_pairs(grid_p20, p50_n4000_d2, d1_pairs):
    recs_d2_p20 = grid_p20[0][4000]
    recs_d2_p50 = p50_n4000_d2[0]
    results = {}
    ok = True
    for d, (lo, hi) in {1: (d1_pairs[20], d1_pairs[50]),
                        2: (recs_d2_p20, recs_d2_p50)}.items():
        wins = sum(1 for a, b in zip(hi, lo) if a.med_err < b.med_err)
        results[d] = wins
        ok = ok and wins >= 0.8 * REPS
    report(7, ok, "median reconstruction error, p=50 beats p=20 in paired reps: "
                  + ", ".join(f"d={d}: {w}/{REPS}" for d, w in results.items())
                  + f" (need >= {int(0.8 * REPS)})")
    assert ok


def test_criterion_8_noise_variance_trend(grid_p20):
    recs, _ = grid_p20
    medians = [med(recs[n], "tau_err") for n in (1000, 2000, 4000)]
    ok = medians[0] > medians[1] > medians[2]
    report(8, ok, "median mean |tau2_hat - tau2| over n (p=20, d=2): "
                  + " > ".join(f"{m:.5f}" for m in medians)
                  + f" strictly decreasing: {ok}")
    assert ok


def kernel_rows(z, model, m_percent, y):
    """Log-likelihood, gradient and information of each point ``z[i]``
    against data row ``y[i]``, through the scoring kernel."""
    incl = _inclusion(model, m_percent)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)[:, incl.mask]
    return _evaluate(z, y, np.arange(len(z)), incl, model.p)


def test_criterion_9_optimizer_correctness():
    rng = np.random.default_rng(SEED)
    fd_worst = 0.0
    path_ok = True
    grad_ok = True
    restart_worst = 0.0
    h = 1e-6
    for _ in range(100):
        seed = int(rng.integers(0, 2**31))
        scn = bf.SimScenario(d=2, p=10, n=4, reps=1, seed=seed)
        tm = bf.generate_true_model(scn, np.random.default_rng([seed, 0]))
        y, _, _ = bf.generate_dataset(tm, 4, np.random.default_rng([seed, 1]))
        model = bf.FactorModel(
            d=2, p=10, c_hat=tm.c, b_hat=tm.b, tau2_hat=tm.tau2,
            eigvals=np.ones(2),
        )
        m_percent = 90.0

        # Analytic gradient vs centered finite differences.  The difference
        # of two log-likelihoods carries ~ulp/(2h) = 5e-11 of rounding
        # noise, so components whose gradient is below ~1e-5 need the small
        # absolute floor for the comparison to measure the formula rather
        # than float rounding.
        z = rng.standard_normal(2)
        y_row = y.data[:1]
        grad = kernel_rows(z[None, :], model, m_percent, y_row)[1][0]
        for k in range(2):
            dz = np.zeros(2)
            dz[k] = h
            fd = (
                kernel_rows((z + dz)[None, :], model, m_percent, y_row)[0][0]
                - kernel_rows((z - dz)[None, :], model, m_percent, y_row)[0][0]
            ) / (2 * h)
            allowed = 1e-5 * abs(grad[k]) + 1e-9
            fd_worst = max(fd_worst, abs(fd - grad[k]) / allowed)

        # Newton path monotone, converged rows stationary.  The ascent is
        # deterministic and rows are independent, so a run capped at k steps
        # stops where the uncapped run is after k steps.
        scores = bf.estimate_scores(y, model)
        states = [np.zeros((4, 2))] + [
            bf.estimate_scores(y, model, bf.ScoreConfig(max_iter=k)).z_hat
            for k in range(1, int(scores.iterations.max()) + 1)
        ]
        path = np.stack([kernel_rows(s, model, m_percent, y.data)[0] for s in states])
        path_ok = path_ok and bool(np.all(np.diff(path, axis=0) >= -1e-12))
        grad_ok = grad_ok and bool(
            np.all(scores.grad_norms[scores.converged] <= 1e-8)
        )

        # restart agreement where the information matrix is well conditioned
        cfg = bf.ScoreConfig(grad_tol=1e-11)
        a = bf.estimate_scores(y, model, cfg)
        z0 = rng.standard_normal((4, 2))
        norms = np.linalg.norm(z0, axis=1, keepdims=True)
        z0 = np.where(norms > 3.0, z0 * (3.0 / norms), z0)
        b = bf.estimate_scores(y, model, cfg, z0=z0)
        lam_min = np.linalg.eigvalsh(kernel_rows(a.z_hat, model, m_percent, y.data)[2]).min(axis=1)
        for i in range(4):
            if not (a.converged[i] and b.converged[i]):
                continue
            if lam_min[i] < 1e-4:
                continue
            restart_worst = max(
                restart_worst, float(np.linalg.norm(a.z_hat[i] - b.z_hat[i]))
            )
    ok = fd_worst <= 1.0 and path_ok and grad_ok and restart_worst <= 1e-6
    report(9, ok, f"100 instances (p=10, d=2): gradient-vs-FD worst error = "
                  f"{fd_worst:.3f} of the 1e-5 rel + 1e-9 abs allowance; "
                  f"likelihood path monotone: {path_ok}; "
                  f"converged gradient norms <= 1e-8: {grad_ok}; "
                  f"restart agreement worst {restart_worst:.2e} (tol 1e-6)")
    assert ok


def test_criterion_10_simulate_determinism(tmp_path):
    args = ["simulate", "--p", "12", "--n", "400", "--d", "2",
            "--reps", "3", "--seed", str(SEED)]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli_main(args + ["--threads", "1", "--out", str(paths[0])]) == 0
    assert cli_main(args + ["--threads", "1", "--out", str(paths[1])]) == 0
    assert cli_main(args + ["--threads", "4", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    report(10, ok, f"simulate CSV byte-identical across reruns and thread counts: {ok} "
                   f"({len(blobs[0])} bytes)")
    assert ok
