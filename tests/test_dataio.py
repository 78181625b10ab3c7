import csv
import re

import numpy as np
import pytest

from tsimg.dataio import (
    RESULT_FIELDS,
    load_ett_csv,
    load_labeled_windows_csv,
    load_checkpoint,
    read_pgm,
    save_checkpoint,
    write_history_csv,
    write_pgm,
    write_result_rows,
)
from tsimg.errors import (
    CorruptFileError,
    EmptyFileError,
    InconsistentWidthError,
    IoError,
    LabelNotIntegerError,
    NonNumericCellError,
    ParseError,
    ShapeMismatchError,
    VersionMismatchError,
)
from tsimg.models import TASKS, ModelConfig, init_params
from tsimg.training import EpochRecord


# --- ETT-style CSV -------------------------------------------------------

def _write(path, text):
    path.write_text(text)
    return str(path)


def test_load_ett_csv_basic(tmp_path):
    p = _write(tmp_path / "d.csv",
               "date,HUFL,HULL\n2016-07-01,5.8,2.0\n2016-07-02,5.6,2.1\n")
    s = load_ett_csv(p)
    assert s.variate_names == ["HUFL", "HULL"]
    assert s.values.shape == (2, 2)
    assert np.array_equal(s.values[0], [5.8, 5.6])


def test_load_ett_csv_errors_cite_line(tmp_path):
    p = _write(tmp_path / "d.csv", "date,a\nt0,1\nt1,oops\n")
    with pytest.raises(NonNumericCellError, match="line 3"):
        load_ett_csv(p)
    p2 = _write(tmp_path / "e.csv", "date,a\nt0,1,9\n")
    with pytest.raises(ParseError, match="line 2"):
        load_ett_csv(p2)
    p3 = _write(tmp_path / "f.csv", "date,a\n")
    with pytest.raises(EmptyFileError):
        load_ett_csv(p3)
    with pytest.raises(IoError):
        load_ett_csv(str(tmp_path / "missing.csv"))


def test_load_ett_csv_rejects_nan(tmp_path):
    p = _write(tmp_path / "d.csv", "date,a\nt0,nan\n")
    with pytest.raises(NonNumericCellError):
        load_ett_csv(p)


# --- labeled windows -----------------------------------------------------

def test_load_labeled_windows(tmp_path):
    p = _write(tmp_path / "w.csv", "1,2,3,4,0\n5,6,7,8,1\n")
    samples = load_labeled_windows_csv(p, d=2)
    assert len(samples) == 2
    assert samples[0].class_label == 0
    assert np.array_equal(samples[1].lookback, [[5.0, 6.0], [7.0, 8.0]])


def test_load_labeled_windows_errors(tmp_path):
    p = _write(tmp_path / "w.csv", "1,2,x\n")
    with pytest.raises(LabelNotIntegerError):
        load_labeled_windows_csv(p)
    p2 = _write(tmp_path / "w2.csv", "1,2,0\n1,2,3,0\n")
    with pytest.raises(InconsistentWidthError, match="line 2"):
        load_labeled_windows_csv(p2)
    p3 = _write(tmp_path / "w3.csv", "1,2,3,0\n")
    with pytest.raises(InconsistentWidthError):
        load_labeled_windows_csv(p3, d=2)  # 3 values not divisible by 2


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_load_labeled_windows_rejects_nan_and_inf(tmp_path, cell):
    p = _write(tmp_path / "w.csv", "1,2,3,0\n" + f"1,{cell},3,1\n" + "4,5,6,0\n")
    with pytest.raises(NonNumericCellError, match=re.escape(f"{p}: line 2: NaN/Inf cell")):
        load_labeled_windows_csv(p)


# --- PGM -----------------------------------------------------------------

def test_pgm_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.normal(size=(9, 13)) * 4.0 - 1.0
    path = str(tmp_path / "img.pgm")
    write_pgm(img, path)
    back = read_pgm(path)
    span = img.max() - img.min()
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= span / 65535


def test_pgm_constant_image(tmp_path):
    img = np.full((4, 6), -2.5)
    path = str(tmp_path / "c.pgm")
    write_pgm(img, path)
    assert np.all(read_pgm(path) == -2.5)


def test_pgm_refuses_images_it_cannot_write_or_read_back(tmp_path):
    path = str(tmp_path / "x.pgm")
    for bad in (np.array([[0.0, np.inf]]), np.array([[np.nan]]), np.zeros(4), np.zeros((0, 3))):
        with pytest.raises(ShapeMismatchError):
            write_pgm(bad, path)
    _write(tmp_path / "nan.pgm", "P2\n# range nan nan\n2 1\n65535\n0 0\n")
    with pytest.raises(ShapeMismatchError):
        read_pgm(str(tmp_path / "nan.pgm"))


def test_pgm_rejects_garbage(tmp_path):
    p = _write(tmp_path / "bad.pgm", "P5\n2 2\n255\n")
    with pytest.raises(ParseError):
        read_pgm(p)
    p2 = _write(tmp_path / "short.pgm", "P2\n3 3\n65535\n1 2 3\n")
    with pytest.raises(ParseError):
        read_pgm(p2)


# --- checkpoints ---------------------------------------------------------

def _params():
    rng = np.random.default_rng(1)
    return {"embed_w": rng.normal(size=(12, 4)),
            "bias": rng.normal(size=4),
            "pos": rng.normal(size=(3, 4))}


def test_checkpoint_bitwise_round_trip(tmp_path):
    params = _params()
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert set(back) == set(params)
    for k in params:
        assert np.array_equal(back[k], params[k])
        assert back[k].dtype == np.float64


@pytest.mark.parametrize("task", TASKS)
def test_float32_model_round_trips_exactly(tmp_path, task):
    # checkpoints hold float64, which every float32 value widens to exactly
    params = init_params(ModelConfig(arch="minimae", task=task, image_size=16, patch_size=8,
                                     embed_dim=8, num_heads=2, horizon=5, num_classes=3), 3)
    f32 = np.finfo(np.float32)
    params["pos"][0, :4] = [f32.max, f32.smallest_subnormal, -0.0, -f32.tiny]
    path = tmp_path / "ck.bin"
    save_checkpoint(params, str(path))
    back = load_checkpoint(str(path))
    assert set(back) == set(params)
    for k, p in params.items():
        assert back[k].dtype == np.float64 and np.array_equal(back[k], p)
        assert back[k].astype(np.float32).tobytes() == p.tobytes(), k
    save_checkpoint({k: p.astype(np.float64) for k, p in params.items()},
                    str(tmp_path / "ck64.bin"))
    assert path.read_bytes() == (tmp_path / "ck64.bin").read_bytes()


def test_checkpoint_truncation_detected(tmp_path):
    path = str(tmp_path / "ck.bin")
    save_checkpoint(_params(), path)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-5])
    with pytest.raises(CorruptFileError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    path = str(tmp_path / "ck.bin")
    save_checkpoint(_params(), path)
    blob = bytearray(open(path, "rb").read())
    blob[9] = 77  # version byte follows the 9-byte magic
    open(path, "wb").write(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    p = _write(tmp_path / "ck.bin", "not a checkpoint at all")
    with pytest.raises(CorruptFileError):
        load_checkpoint(p)


# --- results / history CSV ----------------------------------------------

def test_write_result_rows_replaces_the_table(tmp_path):
    path = str(tmp_path / "r.csv")
    write_result_rows(path, [{"experiment_id": "e1", "axis_value": 24, "mse": 0.5}])
    write_result_rows(path, [{"experiment_id": "e1", "axis_value": 48, "mse": 0.25},
                             {"experiment_id": "e1", "axis_value": 96}])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RESULT_FIELDS)
    assert len(rows) == 3
    assert rows[1][:3] == ["e1", "48", "0.25"]
    assert rows[2][1:3] == ["96", ""]


def test_write_history_csv_round_trips_floats(tmp_path):
    path = str(tmp_path / "h.csv")
    rec = EpochRecord(epoch=0, train_loss=1 / 3, val_metric=0.1, seconds=2.5)
    write_history_csv(path, [rec])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "val_metric", "seconds"]
    assert float(rows[1][1]) == rec.train_loss
