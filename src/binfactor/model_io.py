"""File formats: binary data CSV, fitted model files, metrics and scores.

All writes go through a temp-file-plus-rename so a partial file never
appears at the destination.  Numbers are rendered with shortest
round-trip decimal representation (Python ``repr``), which reproduces
every float bit-exactly on reload.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from typing import Iterable

import numpy as np

from .moments import BinaryMatrix
from .scores import LatentScores
from .simulate import MetricsRecord
from .spectral import FactorModel

MODEL_FORMAT_VERSION = 1

METRICS_COLUMNS = ["scenario", "rep", "max_err", "subspace_d", "med_err", "tau_err", "error"]
TIMING_COLUMNS = ["t_generate", "t_tetrachoric", "t_spectral", "t_scores"]


class DataFormatError(ValueError):
    """A data file does not conform to the expected CSV layout."""


class ModelFormatError(ValueError):
    """A model file is missing, corrupt, or has an unsupported version."""


def read_binary_matrix(path) -> BinaryMatrix:
    """Parse a CSV of 0/1 entries; a non-numeric first row is a header.

    Raises ``DataFormatError`` naming the (1-based) row and column of the
    first offending cell, or the row where the width changes.  Rows count
    from the first non-blank line, and blank lines are skipped.  Cells may
    be quoted or padded with whitespace.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    parsed = _parse_plain(text)
    if parsed is None:
        parsed = _parse_cells(path, text)
    names, data = parsed
    try:
        return BinaryMatrix(data, column_names=names)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _parse_plain(text: str):
    """(names, data) of a file whose data lines are exactly ``0,1,...,0``,
    read as one byte array; None for any other file, which ``_parse_cells``
    then reads or rejects."""
    text = text.replace("\r\n", "\n")
    head, _, rest = text.partition("\n")
    # Quotes and lone carriage returns need the csv module's rules.
    if not head or '"' in head or "\r" in text:
        return None
    cells = [cell.strip() for cell in head.split(",")]
    names = None if all(_is_number(cell) for cell in cells) else tuple(cells)
    body = (text if names is None else rest).removesuffix("\n") + "\n"
    try:
        raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    line = body.index("\n") + 1  # two bytes per cell
    if line % 2 or raw.size % line:
        return None
    grid = raw.reshape(-1, line)
    data = grid[:, ::2] - np.uint8(ord("0"))
    separators = np.frombuffer(b"," * (line // 2 - 1) + b"\n", dtype=np.uint8)
    if (data > 1).any() or (grid[:, 1::2] != separators).any():
        return None
    return names, data


def _parse_cells(path, text: str):
    """(names, data) of any CSV, cell by cell, or the located error."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = [[cell.strip() for cell in row] for row in reader if row]
    if not rows:
        raise DataFormatError(f"{path}: file contains no data")

    names = None
    start = 0
    if not all(_is_number(cell) for cell in rows[0]):
        names = tuple(rows[0])
        start = 1
        if len(rows) == 1:
            raise DataFormatError(f"{path}: header present but no data rows")

    body = rows[start:]
    width = len(body[0])
    ragged = next((i for i, row in enumerate(body) if len(row) != width), len(body))
    cells = np.array(body[:ragged], dtype=str)
    ok = (cells == "0") | (cells == "1")
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise DataFormatError(
            f"{path}: cell ({start + i + 1}, {j + 1}) is {str(cells[i, j])!r}, expected 0 or 1"
        )
    if ragged < len(body):
        raise DataFormatError(
            f"{path}: row {start + ragged + 1} has {len(body[ragged])} cells, expected {width}"
        )
    return names, (cells == "1").astype(np.uint8)


def write_model(model: FactorModel, path) -> None:
    """Persist a fitted model as a versioned JSON document."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "binfactor-model",
        "d": int(model.d),
        "p": int(model.p),
        "c_hat": [float(v) for v in model.c_hat],
        "tau2_hat": [float(v) for v in model.tau2_hat],
        "b_hat": [[float(v) for v in row] for row in model.b_hat],
        "eigvals": [float(v) for v in model.eigvals],
        "meta": model.meta,
    }
    _atomic_write(path, json.dumps(doc, indent=1) + "\n")


def read_model(path) -> FactorModel:
    """Load a model file written by ``write_model``; round trips bit-exactly."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"{path}: cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "binfactor-model":
        raise ModelFormatError(f"{path}: not a binfactor model file")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format_version {version!r} "
            f"(this build reads version {MODEL_FORMAT_VERSION})"
        )
    try:
        d, p = int(doc["d"]), int(doc["p"])
        model = FactorModel(
            d=d,
            p=p,
            c_hat=np.asarray(doc["c_hat"], dtype=float),
            b_hat=np.asarray(doc["b_hat"], dtype=float).reshape(p, d),
            tau2_hat=np.asarray(doc["tau2_hat"], dtype=float),
            eigvals=np.asarray(doc["eigvals"], dtype=float),
            meta=dict(doc.get("meta", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc
    if model.c_hat.shape != (p,) or model.tau2_hat.shape != (p,):
        raise ModelFormatError(f"{path}: field lengths do not match p={p}")
    return model


def write_metrics(
    records: Iterable[MetricsRecord],
    path,
    append: bool = False,
    include_timings: bool = False,
) -> None:
    """Write metric records as CSV.

    Stage timings vary run to run, so they are excluded unless asked for:
    the default output is byte-identical across repeated runs of the same
    seeded experiment.  With ``append`` the existing rows are kept and the
    header is not repeated.
    """
    columns = METRICS_COLUMNS + (TIMING_COLUMNS if include_timings else [])
    lines = []
    existing = ""
    if append and os.path.exists(path):
        with open(path) as fh:
            existing = fh.read()
        if existing and not existing.endswith("\n"):
            existing += "\n"
    if not existing:
        lines.append(",".join(columns))
    for rec in records:
        row = [
            rec.scenario,
            str(rec.rep),
            _fmt(rec.max_err),
            _fmt(rec.subspace_d),
            _fmt(rec.med_err),
            _fmt(rec.tau_err),
            rec.error or "",
        ]
        if include_timings:
            row.extend(_fmt(rec.timings.get(k, float("nan"))) for k in TIMING_COLUMNS)
        lines.append(",".join(row))
    content = existing + "\n".join(lines) + "\n"
    _atomic_write(path, content)


def write_scores(scores: LatentScores, path) -> None:
    """Write latent scores plus convergence columns as CSV."""
    d = scores.z_hat.shape[1]
    header = [f"z_{k + 1}" for k in range(d)] + ["iterations", "grad_norm", "converged"]
    lines = [",".join(header)]
    for i in range(scores.n):
        row = [_fmt(v) for v in scores.z_hat[i]]
        row.append(str(int(scores.iterations[i])))
        row.append(_fmt(scores.grad_norms[i]))
        row.append(str(int(scores.converged[i])))
        lines.append(",".join(row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _fmt(value: float) -> str:
    return repr(float(value))


def _atomic_write(path, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
