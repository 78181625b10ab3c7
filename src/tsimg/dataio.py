"""File ingestion and persistence: ETT-style CSV, flat labeled-window CSV,
16-bit PGM images, binary parameter checkpoints, and results CSV rows."""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

from .errors import (
    CorruptFileError,
    EmptyFileError,
    InconsistentWidthError,
    IoError,
    LabelNotIntegerError,
    NonNumericCellError,
    ParseError,
    VersionMismatchError,
)
from .alignment import check_images
from .series import MultivariateSeries, WindowSample

CHECKPOINT_MAGIC = b"TSIMGCKPT"
CHECKPOINT_VERSION = 1


def load_ett_csv(path: str) -> MultivariateSeries:
    """ETT-style layout: header row, leading timestamp column, then numeric
    variate columns. Rows become time steps in file order."""
    rows = _read_rows(path)
    header = rows[0]
    data_rows = rows[1:]
    if not data_rows:
        raise EmptyFileError(f"{path}: no data rows")
    cols = []
    for line_no, row in enumerate(data_rows, start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}")
        cols.append([_number(cell, path, line_no) for cell in row[1:]])
    values = np.asarray(cols, dtype=np.float64).T  # (d, T)
    return MultivariateSeries(values, variate_names=header[1:])


def load_labeled_windows_csv(path: str, d: int = 1) -> list[WindowSample]:
    """Flat export: one row = flattened (d x T) sample followed by an
    integer label in the last cell."""
    rows = _read_rows(path)
    data_rows = [r for r in rows if r]
    if not data_rows:
        raise EmptyFileError(f"{path}: empty file")
    width = len(data_rows[0])
    samples = []
    for line_no, row in enumerate(data_rows, start=1):
        if len(row) != width:
            raise InconsistentWidthError(
                f"{path}: line {line_no}: width {len(row)} != {width}")
        try:
            label = int(row[-1])
        except ValueError:
            raise LabelNotIntegerError(
                f"{path}: line {line_no}: label {row[-1]!r} is not an integer") from None
        flat = np.array([_number(c, path, line_no) for c in row[:-1]], dtype=np.float64)
        if flat.size % d != 0:
            raise InconsistentWidthError(
                f"{path}: line {line_no}: {flat.size} values not divisible by d={d}")
        samples.append(WindowSample(lookback=flat.reshape(d, -1), class_label=label))
    return samples


def _number(cell: str, path: str, line_no: int) -> float:
    """A finite numeric CSV cell; anything else raises NonNumericCellError
    citing the file and line."""
    try:
        v = float(cell)
    except ValueError:
        raise NonNumericCellError(
            f"{path}: line {line_no}: non-numeric cell {cell!r}") from None
    if not math.isfinite(v):
        raise NonNumericCellError(f"{path}: line {line_no}: NaN/Inf cell")
    return v


def _read_rows(path: str) -> list[list[str]]:
    p = Path(path)
    try:
        with p.open(newline="") as fh:
            return [row for row in csv.reader(fh)]
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from None


# --- PGM ----------------------------------------------------------------

def write_pgm(img: np.ndarray, path: str) -> None:
    """Plain (P2) 16-bit PGM of a checked 2-D image; pixels min-max scaled
    to [0, 65535], the original range recorded in a header comment."""
    p = check_images(img[None])[0]
    lo, hi = float(p.min()), float(p.max())
    if hi == lo:
        scaled = np.zeros_like(p, dtype=np.int64)
    else:
        scaled = np.rint((p - lo) / (hi - lo) * 65535).astype(np.int64)
    lines = ["P2",
             f"# range {lo!r} {hi!r}",
             f"{p.shape[1]} {p.shape[0]}",
             "65535"]
    lines += [" ".join(str(v) for v in row) for row in scaled]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from None


def read_pgm(path: str) -> np.ndarray:
    """Read back a file written by :func:`write_pgm`, restoring the
    original dynamic range from the header comment."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "P2":
        raise ParseError(f"{path}: not a plain PGM file")
    lo = hi = None
    body = []
    dims = None
    maxval = None
    for ln in lines[1:]:
        if ln.startswith("#"):
            parts = ln.split()
            if len(parts) == 4 and parts[1] == "range":
                lo, hi = float(parts[2]), float(parts[3])
            continue
        if dims is None:
            w, h = ln.split()
            dims = (int(h), int(w))
        elif maxval is None:
            maxval = int(ln)
        else:
            body.extend(int(v) for v in ln.split())
    if dims is None or maxval is None or len(body) != dims[0] * dims[1]:
        raise ParseError(f"{path}: malformed PGM body")
    arr = np.asarray(body, dtype=np.float64).reshape(dims)
    if lo is not None and hi is not None and hi > lo:
        arr = arr / maxval * (hi - lo) + lo
    elif lo is not None:
        arr = np.full(dims, lo)
    return check_images(arr[None])[0]


# --- checkpoints --------------------------------------------------------

def save_checkpoint(params: dict, path: str) -> None:
    """Versioned binary container: magic, version byte, record count, then
    (name, shape, row-major float64 data) records and a trailing record
    count for the corruption check."""
    tensors = {k: v for k, v in params.items() if isinstance(v, np.ndarray)}
    try:
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<BI", CHECKPOINT_VERSION, len(tensors)))
            for name in sorted(tensors):
                arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
                nb = name.encode()
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
                fh.write(arr.tobytes())
            fh.write(struct.pack("<I", len(tensors)))
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from None


def load_checkpoint(path: str) -> dict:
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from None
    off = len(CHECKPOINT_MAGIC)
    if blob[:off] != CHECKPOINT_MAGIC:
        raise CorruptFileError(f"{path}: bad magic")
    try:
        version, count = struct.unpack_from("<BI", blob, off)
        off += 5
        if version != CHECKPOINT_VERSION:
            raise VersionMismatchError(
                f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
        params = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + nlen].decode()
            off += nlen
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}q", blob, off)
            off += 8 * ndim
            size = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f8", count=size, offset=off).copy()
            off += 8 * size
            params[name] = arr.reshape(shape)
        (trailer,) = struct.unpack_from("<I", blob, off)
        off += 4
        if trailer != count or off != len(blob):
            raise CorruptFileError(f"{path}: length check failed")
    except (struct.error, ValueError):
        raise CorruptFileError(f"{path}: truncated file") from None
    return params


# --- results CSV --------------------------------------------------------

RESULT_FIELDS = ("experiment_id", "axis_value", "mse", "mae", "accuracy",
                 "n_value", "seconds")


def write_result_rows(path: str, rows: list[dict]) -> None:
    """Results table with the fixed experiment row schema; fields a row
    lacks are left empty."""
    try:
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
            w.writeheader()
            for row in rows:
                w.writerow({k: row.get(k, "") for k in RESULT_FIELDS})
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from None


def write_history_csv(path: str, history) -> None:
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "train_loss", "val_metric", "seconds"])
            for rec in history:
                w.writerow([rec.epoch, repr(rec.train_loss), repr(rec.val_metric),
                            repr(rec.seconds)])
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from None
