import csv
import io
import re
import struct
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

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


def test_load_ett_csv_empty_file_names_the_file(tmp_path):
    # an empty file has no header row either
    p = _write(tmp_path / "empty.csv", "")
    with pytest.raises(EmptyFileError, match=re.escape(f"{p}: no data rows")):
        load_ett_csv(p)


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


def test_load_labeled_windows_errors_cite_the_file_line_past_blank_lines(tmp_path):
    p = _write(tmp_path / "w.csv", "1,2,0\n\n1,x,1\n")
    with pytest.raises(NonNumericCellError, match=re.escape(f"{p}: line 3: non-numeric")):
        load_labeled_windows_csv(p)
    p2 = _write(tmp_path / "w2.csv", "\n1,2,0\n\n\n1,2,3,0\n")
    with pytest.raises(InconsistentWidthError, match=re.escape(f"{p2}: line 5: width 4 != 3")):
        load_labeled_windows_csv(p2)
    assert [w.class_label for w in load_labeled_windows_csv(
        _write(tmp_path / "w3.csv", "\n1,2,0\n\n3,4,1\n\n"))] == [0, 1]


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


def test_old_format_checkpoint_asks_for_a_retrain(tmp_path):
    # the binary layout before .npz archives: magic, version byte, record
    # count, records, trailing count; here one (2,) tensor named "b"
    old = (b"TSIMGCKPT" + struct.pack("<BI", 1, 1) + struct.pack("<H", 1) + b"b"
           + struct.pack("<Bq", 1, 2) + np.ones(2).tobytes() + struct.pack("<I", 1))
    path = tmp_path / "ck.bin"
    path.write_bytes(old)
    with pytest.raises(VersionMismatchError, match="retrain the run"):
        load_checkpoint(str(path))


def data_offset(path, name: str) -> int:
    """Where the bytes of member `name` of a stored zip at `path` start: after
    its local header, whose fixed 30 bytes end in the name and extra lengths."""
    with zipfile.ZipFile(path) as zf:
        start = zf.getinfo(name).header_offset
    blob = Path(path).read_bytes()
    name_len, extra_len = struct.unpack_from("<HH", blob, start + 26)
    return start + 30 + name_len + extra_len


def test_flipped_tensor_byte_is_caught(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(_params(), str(path))
    with zipfile.ZipFile(path) as zf:
        size = zf.getinfo("pos.npy").file_size
    blob = bytearray(path.read_bytes())
    blob[data_offset(path, "pos.npy") + size - 4] ^= 0x01   # inside pos's last value
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFileError, match="Bad CRC-32 for file 'pos.npy'"):
        load_checkpoint(str(path))


def _archive(path, members) -> str:
    """A stored zip of (name, .npy bytes) members, as save_checkpoint writes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)       # zipfile warns on a repeated name
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in members:
                zf.writestr(zipfile.ZipInfo(name), data)
    return str(path)


def _npy(arr, version=(1, 0), **header) -> bytes:
    """`arr` in .npy format `version`, its 1.0 header's fields overridden by `header`."""
    fh = io.BytesIO()
    if header:
        np.lib.format.write_array_header_1_0(
            fh, {**np.lib.format.header_data_from_array_1_0(arr), **header})
        fh.write(arr.tobytes())
    else:
        np.lib.format.write_array(fh, arr, version=version, allow_pickle=True)
    return fh.getvalue()


def _relabelled(member: bytes, major: int) -> bytes:
    """A .npy 1.0 member whose magic claims format `major`.0 (its seventh byte)."""
    return member[:6] + bytes([major]) + member[7:]


def test_header_that_overstates_its_data_allocates_nothing(tmp_path):
    path = _archive(tmp_path / "ck.bin", [("pos.npy", _npy(np.ones(1), shape=(2 ** 40,)))])
    with pytest.raises(CorruptFileError, match="cannot reshape"):
        load_checkpoint(path)


@pytest.mark.parametrize("members, reason", [
    ([("obj.npy", _npy(np.array([1.0, None], dtype=object)))], "C-order '<f8'"),
    ([("f32.npy", _npy(np.ones(4, dtype=np.float32)))], "C-order '<f8'"),
    # 8-byte values that are not little-endian float64
    ([("big.npy", _npy(np.ones(3, dtype=">f8")))], "C-order '<f8'"),
    ([("int.npy", _npy(np.arange(3)))], "C-order '<f8'"),
    ([("fortran.npy", _npy(np.asfortranarray(np.ones((2, 3)))))], "C-order '<f8'"),
    ([("neg.npy", _npy(np.ones(2), shape=(-1,)))], "C-order '<f8'"),
    # the 1.0 header reader fails on a 2.0 header, with a message that
    # depends on the numpy and Python versions
    ([("v2.npy", _npy(np.ones(2), version=(2, 0)))], None),
    ([("v2.npy", _relabelled(_npy(np.ones(2)), 2))], "not .npy 1.0"),
    ([("same.npy", _npy(np.ones(2))), ("same.npy", _npy(np.zeros(2)))], "repeated"),
    ([("pos.bin", _npy(np.ones(2)))], "not .npy"),
    ([("short.npy", _npy(np.ones(2))[:-3])], "multiple of element size"),
], ids=["object", "float32", "big-endian", "int64", "fortran", "negative-dim", "version-2",
        "1.0-layout-labelled-2.0", "repeated", "not-npy", "short-data"])
def test_malformed_members_are_refused(tmp_path, members, reason):
    with pytest.raises(CorruptFileError, match=reason):
        load_checkpoint(_archive(tmp_path / "ck.bin", members))


def test_compressed_member_is_refused(tmp_path):
    path = tmp_path / "ck.npz"
    np.savez_compressed(path, pos=np.ones(3))
    with pytest.raises(CorruptFileError, match="compressed"):
        load_checkpoint(str(path))


_tensors = st.dictionaries(
    st.text(st.characters(exclude_characters="\x00"), max_size=12),
    st.one_of(arrays(np.float64, array_shapes(min_dims=0, min_side=0, max_side=4),
                     elements=st.floats(width=64)),
              arrays(np.float32, array_shapes(min_dims=0, min_side=0, max_side=4),
                     elements=st.floats(width=32))),
    max_size=4)


@given(_tensors)
@example({"f64": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324]),
          "f32": np.array([np.float32(1e-45), -np.float32(0.0), np.nan], dtype=np.float32),
          "": np.float64(2.0), "empty/x": np.zeros((0, 3))})
def test_checkpoint_round_trip_is_bitwise_and_resaves_the_same_bytes(params):
    # width-64 and width-32 floats include NaN, +-inf, -0.0 and subnormals
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "ck.bin", Path(tmp) / "again.bin"
        save_checkpoint(params, str(path))
        back = load_checkpoint(str(path))
        assert back.keys() == params.keys()
        for k, v in params.items():
            want = np.asarray(v, dtype=np.float64)
            assert back[k].dtype == np.float64 and back[k].shape == want.shape
            assert back[k].tobytes() == want.tobytes(), k
        save_checkpoint(back, str(again))
        assert again.read_bytes() == path.read_bytes()


def test_checkpoint_bytes_do_not_depend_on_insertion_order(tmp_path):
    params = _params()
    save_checkpoint(params, str(tmp_path / "a.bin"))
    save_checkpoint(dict(reversed(params.items())), str(tmp_path / "b.bin"))
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_np_load_reads_a_checkpoint(tmp_path):
    params = _params()
    save_checkpoint(params, str(tmp_path / "ck.bin"))
    with np.load(tmp_path / "ck.bin") as f:
        assert sorted(f.files) == sorted(params)
        assert all(np.array_equal(f[k], params[k]) for k in params)


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
