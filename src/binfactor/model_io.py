"""File formats: binary data CSV, fitted model files, metrics and scores.

All writes go through a temp-file-plus-rename so a partial file never
appears at the destination; the umask sets the file's mode, as for
``open``.  Floats are written as Python ``repr`` writes them, the
shortest decimal that reads back to the same float, so every float
round-trips bit-exactly; the scores table renders them in numpy with the
same bytes (``render``).
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .moments import BinaryMatrix
from .parallel import map_slices
from .spectral import FactorModel

if TYPE_CHECKING:  # annotations only: fit loads neither module
    from .scores import LatentScores
    from .simulate import MetricsRecord

MODEL_FORMAT_VERSION = 1

METRICS_COLUMNS = ["scenario", "rep", "max_err", "subspace_d", "med_err", "tau_err", "error"]
# The stages a replication times, in order: the keys of ``MetricsRecord.timings``.
TIMING_COLUMNS = ["t_generate", "t_tetrachoric", "t_spectral", "t_scores"]

# Score rows rendered per chunk of ``write_scores``, the unit of its workers.
_SCORE_CHUNK_ROWS = 16384


class DataFormatError(ValueError):
    """A data file does not conform to the expected CSV layout."""


class ModelFormatError(ValueError):
    """A model file is missing, corrupt, or has an unsupported version."""


def read_binary_matrix(path) -> BinaryMatrix:
    """Parse a UTF-8 CSV of 0/1 entries; a non-numeric first row is a header.

    A leading byte order mark is dropped, so it cannot turn the first row
    into column names.  Raises ``DataFormatError`` for a file that cannot
    be opened or decoded, and names the (1-based) row and column of the
    first offending cell or the row where the width changes.  Rows count
    from the first non-blank line; blank lines are skipped, and cells may
    be quoted or space-padded.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read data file: {exc}") from exc
    parsed = _parse_plain(raw)
    if parsed is None:
        try:
            text = raw.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: cannot read data file: {exc}") from exc
        parsed = _parse_cells(path, text)
    names, data = parsed
    try:
        return BinaryMatrix(data, column_names=names)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _parse_plain(raw: bytes):
    """(names, data) of a file whose data lines are exactly ``0,1,...,0``,
    read from its bytes as one array; None for any other file, which
    ``_parse_cells`` then decodes and reads or rejects."""
    raw = raw.removeprefix(codecs.BOM_UTF8)
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    # Lone carriage returns and quotes need the csv module's rules, and
    # other bytes than ASCII the decoder's.
    if b"\r" in raw or not raw.isascii():
        return None
    if not raw.endswith(b"\n"):
        raw += b"\n"
    end = raw.index(b"\n")
    head = raw[:end]
    if not head or b'"' in head:
        return None
    cells = [cell.strip() for cell in head.decode("ascii").split(",")]
    names = None if all(_is_number(cell) for cell in cells) else tuple(cells)
    start = 0 if names is None else end + 1
    if start == len(raw):
        return None
    line = raw.index(b"\n", start) + 1 - start  # two bytes per cell
    if line % 2 or (len(raw) - start) % line:
        return None
    # Each cell and the separator after it, read as one little-endian
    # 16-bit number, less that of "0," ("0\n" at the end of a line) is 0
    # or 1 for the cells "0" and "1" and larger for any other pair.
    zeros = np.full(line // 2, ord(",") << 8 | ord("0"), dtype="<u2")
    zeros[-1] = ord("\n") << 8 | ord("0")
    data = np.frombuffer(raw, dtype="<u2", offset=start).reshape(-1, line // 2) - zeros
    if data.max() > 1:
        return None
    return names, data.astype(np.uint8)


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
    """Load a model file written by ``write_model``; round trips bit-exactly.

    Raises ``ModelFormatError`` unless d and p are integers with
    1 <= d <= p, each field has its shape (p,) for ``c_hat`` and
    ``tau2_hat``, (p, d) for ``b_hat`` and (d,) for ``eigvals``, every
    entry is a finite number and every noise variance is non-negative.
    """
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
        d, p = doc["d"], doc["p"]
        if type(d) is not int or type(p) is not int:
            raise TypeError(f"d and p must be integers, got d={d!r}, p={p!r}")
        fields = {}
        shapes = {"c_hat": (p,), "b_hat": (p, d), "tau2_hat": (p,), "eigvals": (d,)}
        for name, shape in shapes.items():
            # JSON numbers only: bools, strings and nulls are not coerced.
            values = np.asarray(doc[name], dtype=object)
            if values.shape != shape:
                raise ValueError(f"{name} has shape {values.shape}, expected {shape}")
            if not all(type(v) in (int, float) for v in values.flat):
                raise TypeError(f"{name} holds an entry that is not a number")
            fields[name] = values.astype(float)
            if not np.isfinite(fields[name]).all():
                raise ValueError(f"{name} holds a non-finite value")
        model = FactorModel(d=d, p=p, meta=dict(doc.get("meta", {})), **fields)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from exc
    if not 1 <= d <= p:
        raise ModelFormatError(f"{path}: need 1 <= d <= p, got d={d}, p={p}")
    if (model.tau2_hat < 0.0).any():
        raise ModelFormatError(f"{path}: tau2_hat holds a negative variance")
    return model


def write_metrics(
    records: Iterable[MetricsRecord],
    path,
    include_timings: bool = False,
) -> None:
    """Write metric records as CSV.

    Stage timings vary run to run, so they are excluded unless asked for:
    the default output is byte-identical across repeated runs of the same
    seeded experiment.  A message holding a comma, a quote, a newline or a
    carriage return is quoted, so every row keeps the header's columns.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    # Before Python 3.12 a lone carriage return is quoted only if the line
    # terminator holds one, so a row whose message does is quoted whole.
    quote_all = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(METRICS_COLUMNS + (TIMING_COLUMNS if include_timings else []))
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
        (quote_all if "\r" in row[6] else writer).writerow(row)
    _atomic_write(path, out.getvalue())


def write_scores(scores: LatentScores, path, threads: int = 1) -> None:
    """Write latent scores plus convergence columns as CSV.

    Each float is written as Python ``repr`` writes it (see ``render``).
    The rows are rendered in fixed chunks of ``_SCORE_CHUNK_ROWS`` on up to
    ``threads`` worker processes (see ``parallel``); the bytes are the same
    at any count.
    """
    from .render import csv_rows  # only writing scores loads the renderer

    d = scores.z_hat.shape[1]
    header = [f"z_{k + 1}" for k in range(d)] + ["iterations", "grad_norm", "converged"]
    z_hat = np.asarray(scores.z_hat, dtype=float)
    columns = [z_hat[:, k] for k in range(d)] + [
        np.asarray(scores.iterations).astype(np.int64),
        np.asarray(scores.grad_norms, dtype=float),
        np.asarray(scores.converged).astype(np.int64),
    ]
    chunks = map_slices(
        lambda s: csv_rows([c[s] for c in columns]), len(z_hat), _SCORE_CHUNK_ROWS, threads
    )
    _atomic_write(path, b"".join([(",".join(header) + "\n").encode(), *chunks]))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _fmt(value: float) -> str:
    return repr(float(value))


def _atomic_write(path, content: str | bytes) -> None:
    """Write ``content`` to a new file beside ``path``, then rename it there.

    The file is created with mode 0o666 less the umask, as ``open`` would
    create it (``tempfile.mkstemp`` would give 0o600 whatever the umask).
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb" if isinstance(content, bytes) else "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
