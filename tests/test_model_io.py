"""File format tests: data CSV parsing, model round trips, metrics output."""

import csv
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binfactor.model_io import (
    DataFormatError,
    ModelFormatError,
    read_binary_matrix,
    read_model,
    write_metrics,
    write_model,
    write_scores,
)
from binfactor.moments import BinaryMatrix
from binfactor.scores import LatentScores
from binfactor.simulate import MetricsRecord
from binfactor.spectral import FactorModel


def make_model(seed=0, p=5, d=2):
    rng = np.random.default_rng(seed)
    return FactorModel(
        d=d,
        p=p,
        c_hat=rng.standard_normal(p),
        b_hat=rng.standard_normal((p, d)),
        tau2_hat=rng.uniform(0.1, 0.9, p),
        eigvals=np.sort(rng.uniform(0.5, 4.0, d))[::-1],
        meta={"n": 123, "seed": 7, "marginal_clamps": 0},
    )


class TestReadBinaryMatrix:
    def test_plain(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1\n1,1\n")
        y = read_binary_matrix(f)
        assert (y.n, y.p) == (2, 2)
        np.testing.assert_array_equal(y.data, [[0, 1], [1, 1]])
        assert y.column_names is None

    def test_header_detected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n0,1\n")
        y = read_binary_matrix(f)
        assert (y.n, y.p) == (1, 2)
        assert y.column_names == ("a", "b")

    def test_non_binary_cell_located(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,2\n")
        with pytest.raises(DataFormatError, match=r"\(1, 2\)"):
            read_binary_matrix(f)

    def test_ragged_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1\n1\n")
        with pytest.raises(DataFormatError, match="row 2"):
            read_binary_matrix(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(DataFormatError):
            read_binary_matrix(f)

    def test_header_only(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n")
        with pytest.raises(DataFormatError):
            read_binary_matrix(f)

    def test_whitespace_tolerated(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(" 0 ,1\n1, 0\n")
        y = read_binary_matrix(f)
        np.testing.assert_array_equal(y.data, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("text, data, names", [
        ("0,1\n1,1\n", [[0, 1], [1, 1]], None),
        ("a,b\n0,1\n", [[0, 1]], ("a", "b")),
        ('"a","b"\r\n0,1\r\n', [[0, 1]], ("a", "b")),
    ])
    def test_byte_order_mark_dropped(self, tmp_path, text, data, names):
        # A kept BOM made a headerless first row non-numeric, so it was
        # read as column names and the sample was lost.
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode("utf-8-sig"))
        y = read_binary_matrix(f)
        np.testing.assert_array_equal(y.data, data)
        assert y.column_names == names

    def test_non_ascii_cell_located(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes("a,b\n0,\u00e9\n".encode("utf-8"))
        with pytest.raises(DataFormatError, match=r"cell \(2, 2\) is '\u00e9'"):
            read_binary_matrix(f)


def read_by_cell(path):
    """Reference reader: the csv module and one test per cell.

    Returns (data, names), or the message of the DataFormatError that
    ``read_binary_matrix`` must raise.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [[cell.strip() for cell in row] for row in csv.reader(fh) if row]
    if not rows:
        return f"{path}: file contains no data"
    names, start = None, 0
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        names, start = tuple(rows[0]), 1
        if len(rows) == 1:
            return f"{path}: header present but no data rows"
    width = len(rows[start])
    data = np.empty((len(rows) - start, width), dtype=np.uint8)
    for i, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            return f"{path}: row {i + 1} has {len(row)} cells, expected {width}"
        for j, cell in enumerate(row):
            if cell not in ("0", "1"):
                return f"{path}: cell ({i + 1}, {j + 1}) is {cell!r}, expected 0 or 1"
            data[i - start, j] = int(cell)
    try:
        y = BinaryMatrix(data, column_names=names)
    except ValueError as exc:
        return f"{path}: {exc}"
    return y.data, y.column_names


def read_outcome(path):
    try:
        y = read_binary_matrix(path)
    except DataFormatError as exc:
        return str(exc)
    return y.data, y.column_names


class TestReadCells:
    """The bulk reader accepts and rejects exactly what the cell reader does."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a,b\n+1,0\n", "cell (2, 1) is '+1', expected 0 or 1"),
            ("a,b\n01,0\n", "cell (2, 1) is '01', expected 0 or 1"),
            ("a,b\n0,1.0\n", "cell (2, 2) is '1.0', expected 0 or 1"),
            ("a,b\n0,1\n2,0\n", "cell (3, 1) is '2', expected 0 or 1"),
            ("+1,0\n0,1\n", "cell (1, 1) is '+1', expected 0 or 1"),
            ("a,b\n\n0,1\n\n\n1,0\n\n", ([[0, 1], [1, 0]], ("a", "b"))),
            ("0,1\n\n1,x\n", "cell (2, 2) is 'x', expected 0 or 1"),
            ("a,b\r\n0,1\r\n1,0\r\n", ([[0, 1], [1, 0]], ("a", "b"))),
            ("0,1\r1,1\r", ([[0, 1], [1, 1]], None)),
            ('"1",0\n0,"1"\n', ([[1, 0], [0, 1]], None)),
            ('"a","b"\n1,0', ([[1, 0]], ("a", "b"))),
            ("0,1\n2,0\n1\n", "cell (2, 1) is '2', expected 0 or 1"),
            ("0,1\n  \n", "row 2 has 1 cells, expected 2"),
            ("0,1,\n1,0,\n", "cell (2, 3) is '', expected 0 or 1"),
        ],
    )
    def test_cases(self, tmp_path, text, expected):
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode())
        outcome = read_outcome(f)
        if isinstance(expected, str):
            assert outcome == f"{f}: {expected}"
        else:
            np.testing.assert_array_equal(outcome[0], expected[0])
            assert outcome[1] == expected[1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["0", "1", ",", "\n", "\r\n", "\r", '"', " ", "2", "a", "+"]),
                    max_size=24))
    def test_matches_cell_reader(self, pieces):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            with open(path, "w", newline="") as fh:
                fh.write("".join(pieces))
            expected = read_by_cell(path)
            outcome = read_outcome(path)
        if isinstance(expected, str):
            assert outcome == expected
        else:
            np.testing.assert_array_equal(outcome[0], expected[0])
            assert outcome[0].dtype == np.uint8
            assert outcome[1] == expected[1]


class TestModelRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.json"
        write_model(model, path)
        back = read_model(path)
        np.testing.assert_array_equal(back.c_hat, model.c_hat)
        np.testing.assert_array_equal(back.b_hat, model.b_hat)
        np.testing.assert_array_equal(back.tau2_hat, model.tau2_hat)
        np.testing.assert_array_equal(back.eigvals, model.eigvals)
        assert back.meta == model.meta
        assert (back.d, back.p) == (model.d, model.p)

    def test_unknown_version_rejected(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.json"
        write_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="format_version"):
            read_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.json"
        write_model(model, path)
        path.write_text(path.read_text()[: 40])
        with pytest.raises(ModelFormatError):
            read_model(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format_version": 1, "kind": "other"}')
        with pytest.raises(ModelFormatError):
            read_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            read_model(tmp_path / "nope.json")

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        write_model(make_model(), path)
        doc = json.loads(path.read_text())
        del doc["c_hat"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="malformed"):
            read_model(path)

    @pytest.mark.parametrize(
        "changes",
        [
            {"c_hat": [float("nan"), 0.0, 0.0, 0.0, 0.0]},
            {"b_hat": [[float("inf"), 0.0]] + [[0.1, 0.1]] * 4},
            {"tau2_hat": [float("nan"), 0.5, 0.5, 0.5, 0.5]},
            {"eigvals": [float("inf"), 1.0]},
            {"tau2_hat": [-0.1, 0.5, 0.5, 0.5, 0.5]},
            {"d": 0, "b_hat": [[]] * 5, "eigvals": []},
            {"d": 6, "b_hat": [[0.1] * 6] * 5, "eigvals": [1.0] * 6},
            {"eigvals": [2.0, 1.0, 0.5]},
            {"d": 2.5},
            {"d": "2"},
            {"p": 6.9, "c_hat": [0.1] * 6, "b_hat": [[0.1, 0.1]] * 6, "tau2_hat": [0.5] * 6},
            {"c_hat": ["0.1", 0.0, 0.0, 0.0, 0.0]},
        ],
        ids=["nan c_hat", "inf b_hat", "nan tau2", "inf eigvals", "negative tau2",
             "d=0", "d>p", "eigvals length", "float d", "string d", "float p",
             "string c_hat"],
    )
    def test_corrupt_fields_rejected(self, tmp_path, changes):
        path = tmp_path / "m.json"
        write_model(make_model(), path)
        doc = json.loads(path.read_text())
        doc.update(changes)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            read_model(path)


class TestWriteMetrics:
    def _records(self, k):
        return [
            MetricsRecord(
                scenario="d2_p4_n100",
                rep=i,
                max_err=0.1 * (i + 1),
                subspace_d=0.01,
                med_err=0.3,
                tau_err=0.05,
                timings={"t_generate": 0.1, "t_tetrachoric": 0.2, "t_spectral": 0.0, "t_scores": 0.1},
            )
            for i in range(k)
        ]

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scenario,rep,max_err")

    def test_two_records_three_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(self._records(2), path)
        assert len(path.read_text().splitlines()) == 3

    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "m.csv"
        recs = self._records(2)
        write_metrics(recs, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["max_err"]) == recs[0].max_err
        assert int(row["rep"]) == 0
        assert row["error"] == ""

    def test_error_with_comma_and_newline_keeps_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        message = 'ValueError: model has p=3 but data has p=4, cannot score\n"second" line'
        failed = MetricsRecord(
            scenario="d2_p4_n100",
            rep=1,
            max_err=float("nan"),
            subspace_d=float("nan"),
            med_err=float("nan"),
            tau_err=float("nan"),
            error=message,
        )
        write_metrics([*self._records(1), failed], path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert len(reader.fieldnames) == 7
        assert [len(row) for row in rows] == [7, 7]
        assert all(None not in row for row in rows)
        assert rows[0]["error"] == ""
        assert rows[1]["error"] == message
        assert rows[1]["rep"] == "1"

    def test_error_with_lone_carriage_return_keeps_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        failed = MetricsRecord(
            scenario="d2_p4_n100",
            rep=1,
            max_err=float("nan"),
            subspace_d=float("nan"),
            med_err=float("nan"),
            tau_err=float("nan"),
            error="OSError: bad\rthing",
        )
        write_metrics([failed, *self._records(1)], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [len(row) for row in rows] == [7, 7]
        assert all(None not in row for row in rows)
        assert rows[0]["error"] == "OSError: bad\rthing"
        assert rows[1]["error"] == ""

    def test_timings_opt_in(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(self._records(1), path, include_timings=True)
        header = path.read_text().splitlines()[0]
        assert "t_tetrachoric" in header

    def test_default_excludes_timings(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(self._records(1), path)
        assert "t_tetrachoric" not in path.read_text()


class TestWriteScores:
    def test_layout(self, tmp_path):
        scores = LatentScores(
            z_hat=np.array([[0.5, -1.0], [1.5, 2.0], [1e-07, 1e16]]),
            iterations=np.array([3, 4, 0]),
            grad_norms=np.array([1e-9, 2e-9, 0.1]),
            converged=np.array([True, False, True]),
        )
        path = tmp_path / "s.csv"
        write_scores(scores, path)
        assert path.read_text() == (
            "z_1,z_2,iterations,grad_norm,converged\n"
            "0.5,-1.0,3,1e-09,1\n"
            "1.5,2.0,4,2e-09,0\n"
            "1e-07,1e+16,0,0.1,1\n"
        )


class TestAtomicity:
    def test_no_partial_file_on_bad_directory(self, tmp_path):
        with pytest.raises(OSError):
            write_metrics([], tmp_path / "missing" / "m.csv")
        assert not (tmp_path / "missing").exists()

    def test_temporary_file_removed_when_rename_fails(self, tmp_path):
        target = tmp_path / "model.json"
        target.mkdir()
        with pytest.raises(OSError):
            write_model(make_model(), target)
        assert [entry.name for entry in tmp_path.iterdir()] == ["model.json"]
