"""Simulation laboratory tests: generation, metrics, replication runner."""

import dataclasses

import numpy as np
import pytest

from binfactor.moments import estimate_tetrachoric
from binfactor.scores import LatentScores
from binfactor.simulate import (
    MetricsRecord,
    SimScenario,
    TrueModel,
    generate_dataset,
    generate_true_model,
    metric_max_err,
    metric_med_err,
    metric_subspace,
    population_probabilities,
    population_sigma,
    population_subspace_discrepancy,
    run_grid,
    run_replications,
)
from binfactor.spectral import FactorModel


def scenario(**kw):
    base = dict(d=2, p=12, n=400, reps=2, seed=99)
    base.update(kw)
    return SimScenario(**base)


class TestScenario:
    def test_label(self):
        assert scenario().label == "d2_p12_n400"

    @pytest.mark.parametrize("kw", [
        dict(d=0), dict(p=1, d=2), dict(n=0), dict(reps=0), dict(p=1, d=1), dict(seed=-1),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            scenario(**kw)


class TestGenerateTrueModel:
    def test_row_normalization_exact(self):
        tm = generate_true_model(scenario(p=30), np.random.default_rng(1))
        np.testing.assert_allclose(np.sum(tm.b**2, axis=1) + tm.tau2, 1.0, atol=1e-12)

    def test_parameter_ranges(self):
        tm = generate_true_model(scenario(p=200), np.random.default_rng(2))
        assert np.all((tm.tau2 > 0.2) & (tm.tau2 < 0.8))
        assert np.all((tm.c > -1.0) & (tm.c < 1.0))

    def test_deterministic_given_seed(self):
        a = generate_true_model(scenario(), np.random.default_rng([7, 0]))
        b = generate_true_model(scenario(), np.random.default_rng([7, 0]))
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.tau2, b.tau2)
        np.testing.assert_array_equal(a.c, b.c)

    def test_nested_across_p(self):
        small = generate_true_model(scenario(p=10), np.random.default_rng([5, 0]))
        large = generate_true_model(scenario(p=40), np.random.default_rng([5, 0]))
        np.testing.assert_array_equal(small.b, large.b[:10])
        np.testing.assert_array_equal(small.tau2, large.tau2[:10])
        np.testing.assert_array_equal(small.c, large.c[:10])


class TestGenerateDataset:
    def test_shapes(self):
        tm = generate_true_model(scenario(), np.random.default_rng(4))
        y, z, e = generate_dataset(tm, 50, np.random.default_rng(5))
        assert y.data.shape == (50, 12)
        assert z.shape == (50, 2)
        assert e.shape == (50, 12)

    def test_nested_across_n(self):
        tm = generate_true_model(scenario(), np.random.default_rng(6))
        y1, z1, _ = generate_dataset(tm, 100, np.random.default_rng([6, 1, 0]))
        y4, z4, _ = generate_dataset(tm, 400, np.random.default_rng([6, 1, 0]))
        np.testing.assert_array_equal(y1.data, y4.data[:100])
        np.testing.assert_array_equal(z1, z4[:100])

    def test_latent_variance_near_one(self):
        tm = generate_true_model(scenario(p=3, d=1), np.random.default_rng(7))
        _, _, e = generate_dataset(tm, 100_000, np.random.default_rng(8))
        assert np.var(e[:, 0]) == pytest.approx(1.0, abs=0.05)

    def test_marginals_match_thresholds(self):
        tm = generate_true_model(scenario(p=8), np.random.default_rng(9))
        n = 20_000
        y, _, _ = generate_dataset(tm, n, np.random.default_rng(12))
        from binfactor.gaussian import std_normal_cdf

        target = np.asarray(std_normal_cdf(-tm.c))
        freq = y.data.mean(axis=0)
        se = np.sqrt(target * (1 - target) / n)
        assert np.all(np.abs(freq - target) <= 3.0 * se)

    def test_no_loading_gives_independent_columns(self):
        tm = TrueModel(
            b=np.zeros((6, 2)),
            tau2=np.full(6, 0.5),
            c=np.zeros(6),
        )
        y, _, _ = generate_dataset(tm, 20_000, np.random.default_rng(11))
        _, tetra = estimate_tetrachoric(y)
        off = tetra.sigma[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05


class TestPopulationQuantities:
    def test_sigma_unit_diagonal_when_normalized(self):
        tm = generate_true_model(scenario(p=15), np.random.default_rng(12))
        sigma = population_sigma(tm)
        np.testing.assert_allclose(np.diag(sigma), 1.0, atol=1e-12)
        np.testing.assert_array_equal(sigma, sigma.T)

    def test_probabilities_are_probabilities(self):
        tm = generate_true_model(scenario(p=6), np.random.default_rng(13))
        p_marg, p_joint = population_probabilities(tm)
        assert np.all((p_marg > 0) & (p_marg < 1))
        assert np.all((p_joint >= 0) & (p_joint <= 1))
        np.testing.assert_array_equal(p_joint, p_joint.T)

    def test_population_discrepancy_small(self):
        tm = generate_true_model(scenario(p=40), np.random.default_rng(14))
        val = population_subspace_discrepancy(tm)
        assert 0.0 <= val < 0.05


class TestMetrics:
    def _model_scores(self, tm, z):
        p, d = tm.b.shape
        model = FactorModel(
            d=d, p=p, c_hat=tm.c, b_hat=tm.b, tau2_hat=tm.tau2, eigvals=np.ones(d)
        )
        n = z.shape[0]
        scores = LatentScores(
            z_hat=z,
            iterations=np.zeros(n, dtype=int),
            grad_norms=np.zeros(n),
            converged=np.ones(n, dtype=bool),
        )
        return model, scores

    def test_max_err_zero_on_truth(self):
        tm = generate_true_model(scenario(), np.random.default_rng(15))
        assert metric_max_err(population_sigma(tm), tm) == 0.0

    def test_max_err_single_perturbation(self):
        tm = generate_true_model(scenario(), np.random.default_rng(16))
        sigma = population_sigma(tm).copy()
        sigma[3, 7] += 0.1
        assert metric_max_err(sigma, tm) == pytest.approx(0.1, abs=1e-12)

    def test_max_err_matches_double_loop(self):
        tm = generate_true_model(scenario(p=7), np.random.default_rng(17))
        sigma = population_sigma(tm) + np.random.default_rng(18).normal(0, 0.01, (7, 7))
        sigma = 0.5 * (sigma + sigma.T)
        true = tm.b @ tm.b.T
        worst = max(
            abs(sigma[j1, j2] - true[j1, j2])
            for j1 in range(7)
            for j2 in range(7)
            if j1 != j2
        )
        assert metric_max_err(sigma, tm) == pytest.approx(worst, abs=1e-15)

    def test_subspace_metric_endpoints(self):
        tm = generate_true_model(scenario(), np.random.default_rng(19))
        q, _ = np.linalg.qr(tm.b)
        assert metric_subspace(tm.b, q) <= 1e-10

    def test_med_err_zero_on_truth(self):
        tm = generate_true_model(scenario(), np.random.default_rng(20))
        z = np.random.default_rng(21).standard_normal((30, 2))
        model, scores = self._model_scores(tm, z)
        assert metric_med_err(model, scores, tm, z) == 0.0

    def test_med_err_single_row(self):
        tm = generate_true_model(scenario(), np.random.default_rng(22))
        z_true = np.random.default_rng(23).standard_normal((1, 2))
        z_est = z_true + 0.5
        model, scores = self._model_scores(tm, z_est)
        expected = float(
            np.linalg.norm((z_est - z_true) @ tm.b.T) / np.sqrt(tm.b.shape[0])
        )
        assert metric_med_err(model, scores, tm, z_true) == pytest.approx(expected, abs=1e-12)

    def test_med_err_matches_row_oracle(self):
        tm = generate_true_model(scenario(), np.random.default_rng(24))
        rng = np.random.default_rng(25)
        z_true = rng.standard_normal((9, 2))
        z_est = z_true + rng.normal(0, 0.3, size=(9, 2))
        model, scores = self._model_scores(tm, z_est)
        rows = [
            float(np.linalg.norm(tm.b @ z_est[i] - tm.b @ z_true[i]))
            for i in range(9)
        ]
        expected = float(np.median(rows)) / np.sqrt(tm.b.shape[0])
        assert metric_med_err(model, scores, tm, z_true) == pytest.approx(expected, abs=1e-12)


class TestRunReplications:
    def test_deterministic_across_calls(self):
        recs1 = run_replications(scenario())
        recs2 = run_replications(scenario())
        for a, b in zip(recs1, recs2):
            assert dataclasses.replace(a, timings={}) == dataclasses.replace(b, timings={})

    def test_deterministic_across_threads(self):
        recs1 = run_replications(scenario(reps=4))
        recs2 = run_replications(scenario(reps=4), threads=4)
        for a, b in zip(recs1, recs2):
            assert (a.max_err, a.subspace_d, a.med_err, a.tau_err) == (
                b.max_err,
                b.subspace_d,
                b.med_err,
                b.tau_err,
            )

    def test_records_in_replication_order(self):
        recs = run_replications(scenario(reps=3), threads=2)
        assert [r.rep for r in recs] == [0, 1, 2]

    def test_metrics_finite_and_positive(self):
        recs = run_replications(scenario())
        for r in recs:
            assert r.error is None
            for v in (r.max_err, r.subspace_d, r.med_err, r.tau_err):
                assert np.isfinite(v) and v >= 0.0
            assert set(r.timings) == {
                "t_generate",
                "t_tetrachoric",
                "t_spectral",
                "t_scores",
            }


# Three scenarios of 1, 3 and 2 replications: on two workers the second
# one's slices (jobs 1, 3 and 5) cross both scenario boundaries.
GRID = [
    scenario(p=10, reps=1),
    scenario(p=12, reps=3, seed=5),
    scenario(d=1, p=8, reps=2, seed=6),
]
GRID_ORDER = [(scn.label, r) for scn in GRID for r in range(scn.reps)]


def without_timings(records):
    return [dataclasses.replace(r, timings={}) for r in records]


class TestRunGrid:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_per_scenario_runs(self, threads):
        expected = [r for scn in GRID for r in run_replications(scn)]
        records = run_grid(GRID, threads=threads)
        assert [(r.scenario, r.rep) for r in records] == GRID_ORDER
        assert without_timings(records) == without_timings(expected)

    def test_empty_grid(self):
        assert run_grid([]) == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_replication_keeps_its_place(self, monkeypatch, threads):
        import binfactor.simulate as simulate_mod

        real = simulate_mod._run_one

        def flaky(scn, tm, r, score_config):
            if scn == GRID[1] and r == 1:
                raise RuntimeError("boom")
            return real(scn, tm, r, score_config)

        monkeypatch.setattr(simulate_mod, "_run_one", flaky)
        records = run_grid(GRID, threads=threads)
        assert [(r.scenario, r.rep) for r in records] == GRID_ORDER
        failed = records[GRID_ORDER.index((GRID[1].label, 1))]
        assert failed.error == "RuntimeError: boom"
        assert np.isnan([failed.max_err, failed.subspace_d, failed.med_err, failed.tau_err]).all()
        rest = [r for r in records if r is not failed]
        assert all(r.error is None and np.isfinite(r.med_err) for r in rest)


class TestMetricsRecord:
    def test_error_record_shape(self):
        rec = MetricsRecord(
            scenario="x", rep=0, max_err=float("nan"), subspace_d=float("nan"),
            med_err=float("nan"), tau_err=float("nan"), error="boom",
        )
        assert rec.error == "boom"
