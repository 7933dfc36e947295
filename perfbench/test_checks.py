"""Tests of the benchmark's own correctness checks and input generator.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from inputs import make_dataset, write_csv  # noqa: E402


def _exact_tetrachoric(p=6, seed=3):
    """A correlation matrix with thresholds and the joint tail it implies."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-0.7, 0.7, size=(p, 2))
    sigma = b @ b.T
    np.fill_diagonal(sigma, 1.0)
    c = rng.uniform(-1.0, 1.0, size=p)
    joint = np.empty((p, p))
    for j1 in range(p):
        for j2 in range(p):
            rho = sigma[j1, j2]
            joint[j1, j2] = multivariate_normal.cdf(
                [-c[j1], -c[j2]], cov=[[1.0, rho], [rho, 1.0]]
            ) if j1 != j2 else 0.0
    return sigma, c, joint


def test_exact_correlations_pass():
    sigma, c, joint = _exact_tetrachoric()
    pairs = checks.sample_pairs(6, frozenset(), 100, seed=0)
    assert len(pairs) == 15
    assert checks.check_tetrachoric(sigma, c, joint, pairs) <= checks.TAIL_TOL


def test_perturbed_sigma_fails():
    sigma, c, joint = _exact_tetrachoric()
    pairs = checks.sample_pairs(6, frozenset(), 100, seed=0)
    sigma[1, 4] += 1e-6
    sigma[4, 1] += 1e-6
    with pytest.raises(checks.CheckFailed, match=r"pair \(1, 4\)"):
        checks.check_tetrachoric(sigma, c, joint, pairs)


def test_asymmetric_sigma_fails():
    sigma, c, joint = _exact_tetrachoric()
    sigma[0, 1] += 1e-12
    with pytest.raises(checks.CheckFailed, match="symmetric"):
        checks.check_tetrachoric(sigma, c, joint, [(0, 1)])


def test_sample_skips_clamped_pairs():
    pairs = checks.sample_pairs(5, frozenset({(0, 1), (2, 3)}), 100, seed=1)
    assert (0, 1) not in pairs and (2, 3) not in pairs and len(pairs) == 8


def _scores_text(n=4, d=2):
    lines = ["z_1,z_2,iterations,grad_norm,converged"]
    lines += [f"{0.1 * i},{-0.2 * i},{3 + i},1e-10,1" for i in range(n)]
    return "\n".join(lines) + "\n"


def test_only_rows_stopped_far_from_optimum_fail():
    lines = _scores_text(n=3).split("\n")
    lines[1] = lines[1].replace("1e-10,1", "1.04e-08,0")  # stalled at rounding
    lines[2] = lines[2].replace("1e-10,1", "0.003,0")  # stopped far from optimum
    table = checks.read_scores("\n".join(lines), 3, 2)
    assert checks.failed_rows(table) == 1


def test_scores_file_parses():
    table = checks.read_scores(_scores_text(), 4, 2)
    assert table.shape == (4, 5)
    with pytest.raises(checks.CheckFailed, match="3 complete rows"):
        checks.read_scores(_scores_text(n=3), 4, 2)


@pytest.mark.parametrize("cut", [1, 10, 40])
def test_truncated_scores_file_fails(cut):
    text = _scores_text()
    with pytest.raises(checks.CheckFailed):
        checks.read_scores(text[:-cut], 4, 2)


def test_scores_file_with_bad_value_fails():
    text = _scores_text().replace("1e-10,1\n", "1e-10,nan\n", 1)
    with pytest.raises(checks.CheckFailed):
        checks.read_scores(text, 4, 2)


METRICS = (
    checks.METRICS_HEADER + "\n"
    "d2_p20_n1000,0,0.13,0.016,0.31,0.03,\n"
    "d2_p20_n1000,1,0.14,0.013,0.32,0.07,\n"
)


def test_metrics_csv_parses():
    assert len(checks.read_metrics(METRICS, 2)) == 2


def test_changed_metrics_csv_fails():
    changed = METRICS.replace("0.016", "0.017")
    checks.check_same_bytes("metrics", METRICS.encode(), METRICS.encode())
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_same_bytes("metrics", changed.encode(), METRICS.encode())


def test_metrics_csv_with_error_row_fails():
    failed = METRICS.replace("0.07,\n", "nan,LinAlgError: singular\n")
    with pytest.raises(checks.CheckFailed, match="failed"):
        checks.read_metrics(failed, 2)
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.read_metrics(METRICS, 3)


def test_generator_is_seeded_and_csv_matches_reader(tmp_path):
    a = make_dataset([5, 1, 0], [5, 1, 1], 50, 8, 2)
    b = make_dataset([5, 1, 0], [5, 1, 1], 50, 8, 2)
    c = make_dataset([6, 1, 0], [6, 1, 1], 50, 8, 2)
    assert np.array_equal(a.y, b.y) and not np.array_equal(a.y, c.y)
    assert np.allclose(np.sum(a.b**2, axis=1) + a.tau2, 1.0)
    path = tmp_path / "y.csv"
    write_csv(a.y, path)
    assert np.array_equal(np.loadtxt(path, delimiter=",", dtype=np.uint8), a.y)
