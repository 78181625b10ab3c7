"""File ingestion and persistence: ETT-style CSV, flat labeled-window CSV,
16-bit PGM images, parameter checkpoints (numpy .npz archives whose
members zip checks by CRC-32), and results CSV rows."""

from __future__ import annotations

import csv
import io
import math
import zipfile
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

# the first bytes of a checkpoint in the binary format before .npz archives
OLD_CHECKPOINT_MAGIC = b"TSIMGCKPT"


def load_ett_csv(path: str) -> MultivariateSeries:
    """ETT-style layout: header row, leading timestamp column, then numeric
    variate columns. Rows become time steps in file order."""
    rows = _read_rows(path)
    if len(rows) < 2:   # an empty file has no header row either
        raise EmptyFileError(f"{path}: no data rows")
    header, data_rows = rows[0], rows[1:]
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
    numbered = [(line_no, r) for line_no, r in enumerate(_read_rows(path), start=1) if r]
    if not numbered:
        raise EmptyFileError(f"{path}: empty file")
    width = len(numbered[0][1])
    samples = []
    for line_no, row in numbered:     # a blank line keeps its number but holds no sample
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
    """A numpy .npz archive: one stored ``<name>.npy`` member (.npy 1.0,
    float64) per tensor in sorted name order, each with zip's fixed 1980
    timestamp, so equal parameters give equal bytes; zip keeps their CRC-32s."""
    try:
        with zipfile.ZipFile(path, "w") as zf:
            for name in sorted(params):
                with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w") as fh:
                    np.lib.format.write_array(fh, np.asarray(params[name], dtype=np.float64),
                                              version=(1, 0), allow_pickle=False)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from None


def load_checkpoint(path: str) -> dict:
    """The float64 tensors, by name, of a :func:`save_checkpoint` archive.
    A file in the binary format used before .npz archives raises
    VersionMismatchError (retrain its run). A non-zip file, a failed CRC-32,
    a compressed, encrypted, repeated or non-.npy member, or data that is not
    .npy 1.0 C-order '<f8' filling its header's shape (checked before an
    array is made) raises CorruptFileError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from None
    if blob.startswith(OLD_CHECKPOINT_MAGIC):
        raise VersionMismatchError(f"{path}: a checkpoint in the binary format used "
                                   "before .npz archives; retrain the run")
    params = {}
    try:
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            for info in zf.infolist():
                name = info.filename.removesuffix(".npy")
                if name == info.filename or name in params or info.compress_type:
                    raise ValueError(f"{info.filename!r}: repeated, compressed or not .npy")
                fh = io.BytesIO(member := zf.read(info))    # zf.read checks the CRC-32
                version = np.lib.format.read_magic(fh)
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
                if version != (1, 0) or fortran or dtype != "<f8" or min(shape, default=0) < 0:
                    raise ValueError(f"{info.filename!r}: not .npy 1.0 C-order '<f8' data")
                params[name] = np.frombuffer(member, "<f8", offset=fh.tell()).reshape(shape).copy()
    except (zipfile.BadZipFile, EOFError, ValueError, RuntimeError, NotImplementedError) as e:
        raise CorruptFileError(f"{path}: {e}") from None
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
