"""CLI tests: exit codes, file outputs, determinism across runs and threads."""

import contextlib
import csv
import json

import numpy as np
import pytest

from binfactor.cli import main
from binfactor.model_io import read_binary_matrix, read_model, write_scores
from binfactor.scores import ScoreConfig, estimate_scores, inclusion_mask
from binfactor.simulate import SimScenario, generate_dataset, generate_true_model
from binfactor.spectral import EigengapWarning


@pytest.fixture
def data_csv(tmp_path):
    scn = SimScenario(d=2, p=10, n=100, reps=1, seed=3)
    tm = generate_true_model(scn, np.random.default_rng([3, 0]))
    y, _, _ = generate_dataset(tm, 100, np.random.default_rng([3, 1, 0]))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(str(v) for v in row) for row in y.data) + "\n")
    return path


class TestFit:
    def test_happy_path(self, tmp_path, data_csv, capsys):
        out = tmp_path / "model.json"
        code = main(["fit", "--data", str(data_csv), "--d", "2", "--out", str(out)])
        assert code == 0
        assert out.exists()
        model = read_model(out)
        assert (model.p, model.d) == (10, 2)
        stdout = capsys.readouterr().out
        assert "p=10" in stdout and "n=100" in stdout
        assert "eigenvalues" in stdout

    def test_d_too_large(self, tmp_path, data_csv):
        code = main(["fit", "--data", str(data_csv), "--d", "11",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_missing_file(self, tmp_path):
        code = main(["fit", "--data", str(tmp_path / "none.csv"), "--d", "2",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_bad_cell(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,2\n")
        code = main(["fit", "--data", str(bad), "--d", "1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("kind", ["directory", "invalid utf-8", "missing"])
    def test_unreadable_data(self, tmp_path, capsys, kind):
        data = tmp_path / "data.csv"
        if kind == "directory":
            data.mkdir()
        elif kind == "invalid utf-8":
            data.write_bytes(b"0,1\n1,\xff\n")
        code = main(["fit", "--data", str(data), "--d", "1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert str(data) in capsys.readouterr().err


class TestScore:
    def _fit(self, tmp_path, data_csv):
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data_csv), "--d", "2",
                     "--out", str(model_path)]) == 0
        return model_path

    def test_happy_path(self, tmp_path, data_csv):
        model_path = self._fit(tmp_path, data_csv)
        out = tmp_path / "scores.csv"
        code = main(["score", "--data", str(data_csv), "--model", str(model_path),
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 101  # header + one row per sample
        assert lines[0].startswith("z_1,z_2,")

    def test_p_mismatch(self, tmp_path, data_csv):
        model_path = self._fit(tmp_path, data_csv)
        narrow = tmp_path / "narrow.csv"
        rows = [ln.split(",")[:9] for ln in data_csv.read_text().splitlines()]
        narrow.write_text("\n".join(",".join(r) for r in rows) + "\n")
        code = main(["score", "--data", str(narrow), "--model", str(model_path),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_m_hundred(self, tmp_path, data_csv):
        model_path = self._fit(tmp_path, data_csv)
        out = tmp_path / "scores.csv"
        code = main(["score", "--data", str(data_csv), "--model", str(model_path),
                     "--out", str(out), "--m", "100"])
        assert code == 0

    @pytest.mark.parametrize("layout", ["transposed", "flat"])
    def test_misshapen_b_hat(self, tmp_path, data_csv, capsys, layout):
        model_path = self._fit(tmp_path, data_csv)
        doc = json.loads(model_path.read_text())
        b = np.array(doc["b_hat"])
        doc["b_hat"] = (b.T if layout == "transposed" else b.ravel()).tolist()
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        code = main(["score", "--data", str(data_csv), "--model", str(model_path),
                     "--out", str(out)])
        assert code == 2
        assert "b_hat has shape" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_m(self, tmp_path, data_csv):
        model_path = self._fit(tmp_path, data_csv)
        code = main(["score", "--data", str(data_csv), "--model", str(model_path),
                     "--out", str(tmp_path / "s.csv"), "--m", "0"])
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_grad_tol(self, tmp_path, data_csv, tol):
        model_path = self._fit(tmp_path, data_csv)
        out = tmp_path / "s.csv"
        code = main(["score", "--data", str(data_csv), "--model", str(model_path),
                     "--out", str(out), "--grad-tol", tol])
        assert code == 2
        assert not out.exists()

    def test_max_iter_one_is_the_library_table(self, tmp_path, data_csv):
        model_path = self._fit(tmp_path, data_csv)
        out, expected = tmp_path / "s.csv", tmp_path / "expected.csv"
        code = main(["score", "--data", str(data_csv), "--model", str(model_path),
                     "--out", str(out), "--max-iter", "1"])
        assert code == 0
        scores = estimate_scores(read_binary_matrix(data_csv), read_model(model_path),
                                 ScoreConfig(max_iter=1))
        write_scores(scores, expected)
        assert out.read_bytes() == expected.read_bytes()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(int(row["iterations"]) <= 1 for row in rows)
        # One step leaves rows short of the tolerance, so the cap really bit.
        assert any(row["converged"] == "0" for row in rows)

    def test_max_iter_zero_rejected_before_reading(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        missing = tmp_path / "missing.csv"
        code = main(["score", "--data", str(missing), "--model", str(tmp_path / "m.json"),
                     "--out", str(out), "--max-iter", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "max_iter" in err and str(missing) not in err
        assert not out.exists()


class TestThreads:
    """``fit`` and ``score`` write the same bytes at any ``--threads``."""

    def test_fit_and_score_byte_identical(self, tmp_path, data_csv, sparse_data, monkeypatch):
        from binfactor import gaussian, model_io, scores

        # Small units make several of each, so two workers really split the
        # work.  Dense: p = 10 has 45 pairs in chunks of 8, and a budget of
        # 18 cells makes blocks of 2 rows of the 9 included columns.
        # Sparse, 2.6% ones: 4,950 pairs (2,346 never co-occur) in chunks of
        # 512, and 2,048 cells make blocks of 22 rows of the 90 included.
        sparse_csv = tmp_path / "sparse.csv"
        np.savetxt(sparse_csv, sparse_data(1.5, 2.5, 100, 2000).data, fmt="%d", delimiter=",")
        for data, units in ((data_csv, (8, 18, 16)), (sparse_csv, (512, 2048, 256))):
            monkeypatch.setattr(gaussian, "_CHUNK_PAIRS", units[0])
            monkeypatch.setattr(scores, "_CELL_BUDGET", units[1])
            monkeypatch.setattr(model_io, "_SCORE_CHUNK_ROWS", units[2])
            outputs = []
            for threads in ("1", "2"):
                model, table = tmp_path / f"m{threads}.json", tmp_path / f"s{threads}.csv"
                assert main(["fit", "--data", str(data), "--d", "2", "--out", str(model),
                             "--threads", threads]) == 0
                assert main(["score", "--data", str(data), "--model", str(model),
                             "--out", str(table), "--threads", threads]) == 0
                outputs.append((model.read_bytes(), table.read_bytes()))
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", [
        ["fit", "--d", "2"], ["score", "--model", "missing.json"],
    ])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_rejected_before_reading(self, tmp_path, capsys, command, threads):
        out = tmp_path / "out"
        code = main([*command, "--data", str(tmp_path / "missing.csv"), "--out", str(out),
                     "--threads", threads])
        assert code == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_default_is_the_usable_cpus(self):
        from binfactor.cli import _build_parser
        from binfactor.parallel import usable_cpus

        parser = _build_parser()
        for argv in (["fit", "--data", "x", "--d", "1", "--out", "o"],
                     ["score", "--data", "x", "--model", "m", "--out", "o"],
                     ["simulate", "--out", "o"]):
            assert parser.parse_args(argv).threads == usable_cpus()


def _degenerate_case(case):
    """(data, d) for one degenerate input, derived from 300 x 6 model data."""
    scn = SimScenario(d=2, p=6, n=300, reps=1, seed=5)
    tm = generate_true_model(scn, np.random.default_rng([5, 0]))
    y = generate_dataset(tm, 300, np.random.default_rng([5, 1, 0]))[0].data.copy()
    d = 2
    if case == "constant column":
        y[:, 0] = 1
    elif case == "duplicated column":
        y[:, 1] = y[:, 0]
    elif case == "complemented column":
        y[:, 1] = 1 - y[:, 0]
    elif case == "p=2":
        y, d = y[:, :2], 1
    elif case == "d=p":
        d = 6
    elif case == "n=1":
        y = y[:1]
    elif case == "all zero":
        y = np.zeros_like(y)
    elif case.startswith("not PSD"):
        # Mutually exclusive first three columns: three clamped pairs and
        # lambda_min(Sigma) = -1.
        y[:, :3] = np.eye(3, dtype=y.dtype)[np.arange(300) % 3]
        d = 6 if case == "not PSD, d=p" else 2
    return y, d


class TestDegenerateInputs:
    @pytest.mark.parametrize("case", [
        "constant column", "duplicated column", "complemented column",
        "p=2", "d=p", "n=1", "all zero", "not PSD", "not PSD, d=p",
    ])
    def test_fit_then_score_is_finite_and_repeatable(self, tmp_path, capsys, case):
        y, d = _degenerate_case(case)
        data = tmp_path / "data.csv"
        data.write_text("\n".join(",".join(map(str, row)) for row in y) + "\n")
        model_path = tmp_path / "model.json"
        # One row, or no variation at all, leaves Sigma-hat without a gap at d.
        gapless = case in ("n=1", "all zero")
        with pytest.warns(EigengapWarning) if gapless else contextlib.nullcontext():
            assert main(["fit", "--data", str(data), "--d", str(d), "--out", str(model_path)]) == 0
        model = read_model(model_path)
        for values in (model.c_hat, model.b_hat, model.tau2_hat, model.eigvals):
            assert np.isfinite(values).all()
        if case == "not PSD, d=p":
            assert model.meta["negative_eigvals"] == 1
        capsys.readouterr()
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(["score", "--data", str(data), "--model", str(model_path),
                         "--out", str(out)]) == 0
        # At d = p every noise variance is floored, so no component enters
        # the likelihood: the summary says so, and a warning names --m and
        # the floored variances.  The exit status and the table are as usual.
        captured = capsys.readouterr()
        p = y.shape[1]
        if case in ("d=p", "not PSD, d=p"):
            assert captured.out.count(f"components in the likelihood: 0 of {p}\n") == 2
            assert captured.err.count("warning: no component enters the likelihood") == 2
            assert "--m" in captured.err
            assert f"floored noise variances: {p} of {p}" in captured.err
        else:
            k = int(inclusion_mask(model, 90.0).sum())
            assert k > 0
            assert captured.out.count(f"components in the likelihood: {k} of {p}\n") == 2
            assert "warning" not in captured.err
        table = np.loadtxt(outs[0], delimiter=",", skiprows=1, ndmin=2)
        z_hat = table[:, :d]
        assert z_hat.shape == y.shape[:1] + (d,)
        assert np.isfinite(z_hat).all()
        # Noise variances on the 1e-10 floor (three for "not PSD") are left
        # out of the likelihood, so no row stalls at their rounding.
        assert (table[:, -1] == 1).all()
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestSimulate:
    def test_smoke_row_count(self, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["simulate", "--p", "12", "--n", "300", "--d", "2",
                     "--reps", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("scenario,rep,")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--p", "12", "--n", "300", "--d", "2",
                "--reps", "3", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_across_threads(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--p", "12", "--n", "300", "--d", "2",
                "--reps", "4", "--seed", "7"]
        assert main(args + ["--threads", "1", "--out", str(a)]) == 0
        assert main(args + ["--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_cross_product(self, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["simulate", "--p", "10,12", "--n", "200,300", "--d", "1",
                     "--reps", "2", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 9  # header + 4 scenarios x 2 reps
        scenarios = {ln.split(",")[0] for ln in lines[1:]}
        assert scenarios == {"d1_p10_n200", "d1_p10_n300", "d1_p12_n200", "d1_p12_n300"}

    def test_zero_reps_rejected(self, tmp_path):
        code = main(["simulate", "--p", "12", "--n", "300", "--reps", "0",
                     "--seed", "1", "--out", str(tmp_path / "m.csv")])
        assert code == 2

    def test_full_grid_preset_scenarios(self, tmp_path, monkeypatch):
        # The full-scale grid takes hours; capture the scenario list instead.
        seen = []

        def stub(scenarios, score_config=None, threads=1):
            seen.extend(scenarios)
            return []

        import binfactor.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_grid", stub)
        code = main(["simulate", "--grid", "full", "--reps", "1", "--seed", "1",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 0
        assert {s.p for s in seen} == {50, 80, 100}
        assert {s.n for s in seen} == {4000, 6000, 8000, 10000, 12000, 14000}

    def test_default_grid_is_desk(self, tmp_path, monkeypatch):
        seen = []

        def stub(scenarios, score_config=None, threads=1):
            seen.extend(scenarios)
            return []

        import binfactor.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_grid", stub)
        args = ["simulate", "--reps", "1", "--seed", "1", "--out", str(tmp_path / "m.csv")]
        assert main(args + ["--grid", "desk"]) == 0
        desk = list(seen)
        seen.clear()
        assert main(args) == 0
        assert seen == desk
        assert [(s.p, s.n) for s in desk] == [
            (20, 1000), (20, 2000), (20, 4000), (50, 1000), (50, 2000), (50, 4000),
        ]

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--p", "1", "--d", "1"],
        ["--grad-tol", "nan"],
        ["--grad-tol", "inf"],
    ])
    def test_invalid_request_rejected_before_running(self, tmp_path, capsys, flags):
        out = tmp_path / "m.csv"
        code = main(["simulate", "--p", "12", "--n", "300", "--reps", "1",
                     "--out", str(out), *flags])
        assert code == 2
        assert "running" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--p", "a"], "expected comma-separated integers: 'a'"),
        (["--threads", "0"], "--threads must be at least 1"),
    ])
    def test_bad_list_or_threads_rejected(self, tmp_path, capsys, flags, message):
        out = tmp_path / "m.csv"
        code = main(["simulate", "--n", "300", "--reps", "1", "--out", str(out), *flags])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_failed_replication_is_written(self, tmp_path, capsys, monkeypatch):
        import binfactor.simulate as simulate_mod

        real = simulate_mod.estimate_scores
        calls = []

        def flaky(y, model, cfg):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return real(y, model, cfg)

        monkeypatch.setattr(simulate_mod, "estimate_scores", flaky)
        out = tmp_path / "metrics.csv"
        code = main(["simulate", "--p", "12", "--n", "300", "--d", "2", "--reps", "3",
                     "--seed", "7", "--threads", "1", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        metrics = [[float(r[k]) for k in ("max_err", "subspace_d", "med_err", "tau_err")]
                   for r in rows]
        assert [r["rep"] for r in rows] == ["0", "1", "2"]
        assert rows[1]["error"] == "RuntimeError: boom"
        assert np.isnan(metrics[1]).all()
        assert np.isfinite([metrics[0], metrics[2]]).all()
        assert [r["error"] for r in (rows[0], rows[2])] == ["", ""]
        assert "(1 failed replications)" in capsys.readouterr().out

    def test_timings_flag_adds_columns(self, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["simulate", "--p", "12", "--n", "200", "--d", "1",
                     "--reps", "1", "--seed", "2", "--out", str(out), "--timings"])
        assert code == 0
        assert "t_tetrachoric" in out.read_text().splitlines()[0]


class TestOutDirectory:
    """An --out that is empty, is a directory or lies in a missing one is
    reported before the command does any work."""

    def _refuse(self, monkeypatch, name):
        import binfactor.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} must not run")

        monkeypatch.setattr(cli_mod, name, refuse)

    def _check(self, capsys, argv, out):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and str(out) in err

    def test_fit(self, tmp_path, data_csv, capsys, monkeypatch):
        self._refuse(monkeypatch, "fit_model")
        self._check(capsys, ["fit", "--data", str(data_csv), "--d", "2"],
                    tmp_path / "nodir" / "m.json")

    def test_score(self, tmp_path, data_csv, capsys, monkeypatch):
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data_csv), "--d", "2", "--out", str(model_path)]) == 0
        self._refuse(monkeypatch, "estimate_scores")
        self._check(capsys, ["score", "--data", str(data_csv), "--model", str(model_path)],
                    tmp_path / "nodir" / "s.csv")

    def test_simulate(self, tmp_path, capsys, monkeypatch):
        self._refuse(monkeypatch, "run_grid")
        self._check(capsys, ["simulate", "--p", "12", "--n", "300", "--reps", "1"],
                    tmp_path / "nodir" / "m.csv")

    def _argv(self, tmp_path, data_csv, monkeypatch, command):
        """The flags of ``command`` bar --out, with every stage refused."""
        argv = {
            "fit": ["fit", "--data", str(data_csv), "--d", "2"],
            "score": ["score", "--data", str(data_csv), "--model", str(tmp_path / "model.json")],
            "simulate": ["simulate", "--p", "12", "--n", "300", "--reps", "1"],
        }[command]
        if command == "score":
            assert main(["fit", "--data", str(data_csv), "--d", "2",
                         "--out", str(tmp_path / "model.json")]) == 0
        for name in ("fit_model", "estimate_scores", "run_grid"):
            self._refuse(monkeypatch, name)
        return argv

    @pytest.mark.parametrize("command", ["fit", "score", "simulate"])
    def test_out_is_a_directory(self, tmp_path, data_csv, capsys, monkeypatch, command):
        argv = self._argv(tmp_path, data_csv, monkeypatch, command)
        out = tmp_path / "out"
        out.mkdir()
        self._check(capsys, argv, out)

    @pytest.mark.parametrize("command", ["fit", "score", "simulate"])
    def test_out_is_empty(self, tmp_path, data_csv, capsys, monkeypatch, command):
        argv = self._argv(tmp_path, data_csv, monkeypatch, command)
        self._check(capsys, argv, "")


class TestRuntimeFailure:
    def test_exits_one_with_message(self, tmp_path, data_csv, capsys, monkeypatch):
        import binfactor.cli as cli_mod

        def broken(y, d, threads=1):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "fit_model", broken)
        code = main(["fit", "--data", str(data_csv), "--d", "2",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "runtime failure: RuntimeError: boom" in capsys.readouterr().err


class TestSelfcheck:
    def test_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "quadrant closed form" in out
        assert "FAIL" not in out

    def test_tolerance_injection_fails(self, capsys, monkeypatch):
        import binfactor.selfcheck as selfcheck_mod

        failing = ("injected failure", lambda: 1.0, 0.0)
        monkeypatch.setattr(selfcheck_mod, "_CHECKS", [*selfcheck_mod._CHECKS, failing])
        assert main(["selfcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestParsing:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_no_command(self):
        assert main([]) == 2
