import json
import os

import numpy as np
import pytest

from test_dataio import data_offset
from tsimg.cli import main
from tsimg.dataio import save_checkpoint
from tsimg.evaluation import metric_mse
from tsimg.imaging import IMAGING_METHODS
from tsimg.models import ModelConfig, init_params
from tsimg.series import gen_periodic


@pytest.fixture
def ett_csv(tmp_path):
    x = gen_periodic(12, 300, "composite", seed=0, noise_std=0.02)
    lines = ["date,a"] + [f"t{i},{float(v)!r}" for i, v in enumerate(x)]
    p = tmp_path / "series.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


@pytest.fixture
def labeled_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(12):
        label = i % 2
        x = gen_periodic(6 if label else 12, 32, "sine", seed=i, noise_std=0.05)
        rows.append(",".join(repr(float(v)) for v in x) + f",{label}")
    p = tmp_path / "labeled.csv"
    p.write_text("\n".join(rows) + "\n")
    return str(p)


def test_render_writes_pgm(ett_csv, tmp_path, capsys):
    out = tmp_path / "img.pgm"
    rc = main(["render", "--input", ett_csv, "--method", "uvh",
               "--L", "12", "--out", str(out)])
    assert rc == 0
    assert out.exists() and out.with_suffix(".csv").exists()
    assert "method=uvh" in capsys.readouterr().out


@pytest.mark.parametrize("method", IMAGING_METHODS)
def test_render_every_method_agrees_on_its_size(method, ett_csv, tmp_path, capsys):
    out = tmp_path / f"{method}.pgm"
    rc = main(["render", "--input", ett_csv, "--method", method, "--window", "96",
               "--out", str(out)])
    assert rc == 0
    printed = dict(kv.split("=") for kv in capsys.readouterr().out.split()[1:])
    header = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    width, height = map(int, header[1].split())
    sidecar = np.loadtxt(out.with_suffix(".csv"), delimiter=",", ndmin=2)
    assert header[0] == "P2" and len(header) == 3 + height
    assert (int(printed["height"]), int(printed["width"])) == (height, width)
    assert sidecar.shape == (height, width) and np.all(np.isfinite(sidecar))


def test_render_refuses_an_overflowing_image(tmp_path, capsys):
    # pairwise distances of a 1e200-scale series overflow to inf
    p = tmp_path / "big.csv"
    x = gen_periodic(8, 64, "sine") * 1e200
    p.write_text("date,a\n" + "".join(f"t{i},{float(v)!r}\n" for i, v in enumerate(x)))
    out = tmp_path / "rp.pgm"
    with np.errstate(over="ignore"):
        rc = main(["render", "--input", str(p), "--method", "rp", "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert "NaN/Inf" in capsys.readouterr().err


@pytest.mark.parametrize("method, flags", [
    ("filterbank", ["--hop", "0"]), ("stft", ["--hop", "0"]),
    ("stft", ["--window-len", "0"]), ("filterbank", ["--window-len", "0"]),
    ("rp", ["--embed-dim", "0"]), ("rp", ["--delay", "0"]), ("rp", ["--delay", "-1"]),
    ("uvh", ["--window", "0"]), ("mvh", ["--window", "-200"])])
def test_render_nonpositive_transform_option_is_runtime_error(method, flags, ett_csv,
                                                              tmp_path, capsys):
    out = tmp_path / "img.pgm"
    rc = main(["render", "--input", ett_csv, "--method", method, "--window", "100",
               "--out", str(out), *flags])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("window", ["301", "5000"])
def test_render_window_longer_than_the_series_is_runtime_error(window, ett_csv, tmp_path,
                                                               capsys):
    out = tmp_path / "img.pgm"
    rc = main(["render", "--input", ett_csv, "--method", "uvh", "--L", "12",
               "--window", window, "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err == f"error: window must be in [1, 300], got {window}\n"


def test_render_missing_input_is_runtime_error(tmp_path):
    rc = main(["render", "--input", str(tmp_path / "nope.csv"),
               "--method", "gaf", "--out", str(tmp_path / "o.pgm")])
    assert rc == 1


def test_usage_error_exit_2():
    assert main(["render", "--method", "gaf"]) == 2   # missing required flags
    assert main(["frobnicate"]) == 2                  # unknown subcommand


def test_routing_violation_exit_2(ett_csv, tmp_path):
    rc = main(["train", "--task", "forecast-reconstruct", "--imaging", "gaf",
               "--arch", "minimae", "--input", ett_csv,
               "--out", str(tmp_path / "run")])
    assert rc == 2


def _train_linear(ett_csv, run_dir):
    return main(["train", "--task", "forecast-linear", "--imaging", "uvh",
                 "--arch", "wolvm", "--input", ett_csv, "--out", run_dir,
                 "--lookback", "24", "--horizon", "4", "--seg-len", "12",
                 "--image-size", "16", "--patch-size", "8",
                 "--embed-dim", "8", "--heads", "2", "--epochs", "2",
                 "--seed", "0"])


def test_train_then_eval_forecast(ett_csv, tmp_path, capsys):
    run = str(tmp_path / "run")
    assert _train_linear(ett_csv, run) == 0
    for name in ("checkpoint.bin", "config.json", "history.csv",
                 "resolved_config.txt"):
        assert (tmp_path / "run" / name).exists(), name
    capsys.readouterr()
    out_csv = str(tmp_path / "eval.csv")
    rc = main(["eval", "--run", run, "--input", ett_csv, "--out", out_csv])
    assert rc == 0
    assert "mse=" in capsys.readouterr().out
    assert os.path.exists(out_csv)


@pytest.mark.parametrize("other", [
    dict(arch="wolvm", task="forecast_linear", image_size=16, horizon=4),
    dict(arch="minimae", task="forecast_reconstruct", image_size=16, embed_dim=16),
    dict(arch="minimae", task="forecast_reconstruct", image_size=32),
])
def test_eval_rejects_checkpoint_of_another_model(ett_csv, tmp_path, capsys, other):
    run = tmp_path / "run"
    assert main(["train", "--task", "forecast-reconstruct", "--imaging", "uvh",
                 "--arch", "minimae", "--input", ett_csv, "--out", str(run),
                 "--lookback", "24", "--horizon", "4", "--seg-len", "12",
                 "--image-size", "16", "--patch-size", "8", "--embed-dim", "8",
                 "--heads", "2", "--epochs", "1", "--seed", "0"]) == 0
    cfg = ModelConfig(**{"patch_size": 8, "embed_dim": 8, "num_heads": 2, **other})
    save_checkpoint(init_params(cfg, 0), str(run / "checkpoint.bin"))
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--input", ett_csv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint does not fit the model")


def test_eval_refuses_a_checkpoint_with_a_flipped_data_byte(ett_csv, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train_linear(ett_csv, str(run)) == 0
    ckpt = run / "checkpoint.bin"
    blob = bytearray(ckpt.read_bytes())
    blob[data_offset(ckpt, "pos.npy") + 200] ^= 0x01      # inside pos's values
    ckpt.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--input", ett_csv]) == 1
    assert "Bad CRC-32 for file 'pos.npy'" in capsys.readouterr().err


def test_eval_asks_to_retrain_a_checkpoint_in_the_old_format(ett_csv, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train_linear(ett_csv, str(run)) == 0
    (run / "checkpoint.bin").write_bytes(b"TSIMGCKPT" + bytes(9))   # an empty old-format file
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--input", ett_csv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "retrain the run" in err


def test_eval_refuses_a_three_channel_reconstruct_checkpoint(ett_csv, tmp_path, capsys):
    # a forecast-reconstruct run saved while that model was three channels
    # wide: embed_w (3 * P * P, D), dec_w (D, 3 * P * P); such runs are retrained
    run = tmp_path / "run"
    assert main(["train", "--task", "forecast-reconstruct", "--imaging", "uvh",
                 "--arch", "minimae", "--input", ett_csv, "--out", str(run),
                 "--lookback", "24", "--horizon", "4", "--seg-len", "12",
                 "--image-size", "16", "--patch-size", "8", "--embed-dim", "8",
                 "--heads", "2", "--epochs", "1", "--seed", "0"]) == 0
    cfg = ModelConfig(arch="minimae", task="forecast_reconstruct", image_size=16,
                      patch_size=8, embed_dim=8, num_heads=2, horizon=4)
    old = init_params(cfg, 0)
    old.update(embed_w=np.zeros((192, 8)), dec_w=np.zeros((8, 192)), dec_b=np.zeros(192))
    save_checkpoint(old, str(run / "checkpoint.bin"))
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--input", ett_csv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint does not fit the model")
    for diff in ("dec_b: (192,) vs (64,)", "dec_w: (8, 192) vs (8, 64)",
                 "embed_w: (192, 8) vs (64, 8)"):
        assert diff in err


def test_eval_with_perturbation(ett_csv, tmp_path, capsys):
    run = str(tmp_path / "run")
    assert _train_linear(ett_csv, run) == 0
    rc = main(["eval", "--run", run, "--input", ett_csv,
               "--perturb", "sf-all", "--seed", "3"])
    assert rc == 0
    assert "perturb=sf-all" in capsys.readouterr().out


@pytest.mark.parametrize("task, imaging", [("forecast-linear", "mvh"),
                                           ("forecast-linear", "uvh"),
                                           ("forecast-reconstruct", "mvh")])
def test_forecast_run_records_the_variates_of_its_series(tmp_path, capsys, task, imaging):
    cols = [gen_periodic(12, 300, w, seed=v, noise_std=0.02) + v
            for v, w in enumerate(("sine", "composite", "sawtooth"))]
    p = tmp_path / "three.csv"
    p.write_text("date,a,b,c\n" + "".join(
        f"t{t},{','.join(repr(float(c[t])) for c in cols)}\n" for t in range(300)))
    run = tmp_path / "run"
    assert main(["train", "--task", task, "--imaging", imaging, "--arch", "wolvm",
                 "--input", str(p), "--out", str(run), "--lookback", "24", "--horizon", "4",
                 "--seg-len", "12", "--image-size", "16", "--patch-size", "8",
                 "--embed-dim", "8", "--heads", "2", "--epochs", "1", "--seed", "0"]) == 0
    meta = json.loads((run / "config.json").read_text())
    assert meta["d"] == 3                              # not the --d default of 1
    assert main(["eval", "--run", str(run), "--input", str(p)]) == 0


def test_train_prints_the_best_epoch_not_the_last(ett_csv, tmp_path, capsys):
    # at lr 0.03 this run's validation loss falls for three epochs, then rises
    run = tmp_path / "run"
    rc = main(["train", "--task", "forecast-linear", "--imaging", "uvh",
               "--arch", "wolvm", "--input", ett_csv, "--out", str(run),
               "--lookback", "24", "--horizon", "4", "--seg-len", "12",
               "--image-size", "16", "--patch-size", "8", "--embed-dim", "8",
               "--heads", "2", "--epochs", "4", "--patience", "4", "--lr", "0.03",
               "--seed", "0"])
    assert rc == 0
    printed = dict(kv.split("=") for kv in capsys.readouterr().out.split()[1:])
    rows = (run / "history.csv").read_text().splitlines()[1:]
    val = [float(row.split(",")[2]) for row in rows]
    best = val.index(min(val))
    assert len(val) == 4 and best < 3 and val[-1] > val[best]
    assert printed["best"] == repr(val[best]) and printed["best_epoch"] == str(best)


def test_train_classify(labeled_csv, tmp_path, capsys):
    run = str(tmp_path / "crun")
    rc = main(["train", "--task", "classify", "--imaging", "gaf",
               "--arch", "wolvm", "--input", labeled_csv, "--out", run,
               "--image-size", "16", "--patch-size", "8", "--embed-dim", "8",
               "--heads", "2", "--epochs", "2", "--seed", "0"])
    assert rc == 0
    meta = json.loads((tmp_path / "crun" / "config.json").read_text())
    assert meta["model"]["task"] == "classify"
    assert meta["model"]["num_classes"] == 2
    assert meta["d"] == 1                              # classify keeps --d
    capsys.readouterr()
    rc = main(["eval", "--run", run, "--input", labeled_csv])
    assert rc == 0
    assert "accuracy=" in capsys.readouterr().out


def test_classify_eval_refuses_split_val(labeled_csv, tmp_path, capsys):
    # a classify eval scores every row of --input, so a val split is not there
    run = str(tmp_path / "crun")
    assert main(["train", "--task", "classify", "--imaging", "gaf", "--arch", "wolvm",
                 "--input", labeled_csv, "--out", run, "--image-size", "16",
                 "--patch-size", "8", "--embed-dim", "8", "--heads", "2",
                 "--epochs", "1"]) == 0
    capsys.readouterr()
    rc = main(["eval", "--run", run, "--input", labeled_csv, "--split", "val"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "--split val" in captured.err and "held-out CSV" in captured.err


def test_empty_input_csv_exits_1_naming_the_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rc = main(["render", "--input", str(empty), "--method", "uvh",
               "--out", str(tmp_path / "img.pgm")])
    assert rc == 1 and f"error: {empty}: no data rows" in capsys.readouterr().err


def test_sweep_segment_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--kind", "segment", "--synthetic-period", "12",
               "--synthetic-length", "600", "--lookback", "48",
               "--horizon", "12", "--stride", "16", "--L", "12", "--k", "6",
               "--i-values", "6,12", "--image-size", "16", "--patch-size", "8",
               "--embed-dim", "8", "--heads", "2", "--epochs", "1",
               "--seed", "0", "--out", out])
    assert rc == 0
    text = (tmp_path / "sweep" / "sweep.csv").read_text()
    assert text.count("segment_sweep") == 2
    assert "cells=2" in capsys.readouterr().out


def test_failed_runs_leave_no_run_record(tmp_path, capsys):
    # a bad i is refused before any cell trains; a 59-step series holds no
    # training window; neither run writes a file
    sweep_out, train_out = tmp_path / "sweep", tmp_path / "train"
    rc = main(["sweep", "--kind", "segment", "--i-values", "6,12,0", "--synthetic-length",
               "600", "--epochs", "1", "--out", str(sweep_out)])
    assert rc == 1 and "i, k must be >= 1, got i=0" in capsys.readouterr().err
    short = tmp_path / "short.csv"
    short.write_text("date,a\n" + "".join(f"t{i},{np.sin(i):.6f}\n" for i in range(59)))
    rc = main(["train", "--task", "forecast-reconstruct", "--arch", "minimae",
               "--imaging", "uvh", "--input", str(short), "--out", str(train_out)])
    assert rc == 1 and "input series too short" in capsys.readouterr().err
    assert not sweep_out.exists() and not train_out.exists()


def test_train_refuses_a_uvh_horizon_that_eval_would(tmp_path, capsys):
    # seg-len 1 puts a 100-step horizon in 100 UVH columns, past the cap of
    # 64: train stops before it trains, where eval used to, and writes no checkpoint
    long = tmp_path / "long.csv"
    x = gen_periodic(12, 1300, "sine", seed=0)
    long.write_text("date,a\n" + "".join(f"t{i},{float(v)!r}\n" for i, v in enumerate(x)))
    run = tmp_path / "run"
    rc = main(["train", "--task", "forecast-reconstruct", "--arch", "minimae",
               "--imaging", "uvh", "--input", str(long), "--out", str(run),
               "--lookback", "24", "--horizon", "100", "--seg-len", "1",
               "--image-size", "16", "--patch-size", "8", "--embed-dim", "8",
               "--heads", "2", "--epochs", "1"])
    assert rc == 1 and "horizon 100 needs 100 columns (max 64)" in capsys.readouterr().err
    assert not (run / "checkpoint.bin").exists()


def test_sweep_lookback_is_deterministic_and_reports_skips(tmp_path, capsys):
    # C10 pins segment sweeps; look-back sweeps run through the same cell loop
    texts, skips = [], []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = main(["sweep", "--kind", "lookback", "--lengths", "48,96,5000",
                   "--synthetic-length", "1200", "--epochs", "1", "--patience", "1",
                   "--stride", "16", "--image-size", "16", "--embed-dim", "8",
                   "--heads", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        skips.append([ln for ln in capsys.readouterr().err.splitlines()
                      if ln.startswith("skip ")])
        texts.append((out / "sweep.csv").read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].count(b"lookback_sweep") == 2
    assert skips[0] == skips[1] == [
        "skip lookback=5000: series too short for this look-back length"]
    header, row = texts[0].decode().splitlines()[:2]
    assert header.split(",")[5] == "n_value" and row.split(",")[5] == ""


def test_lemma_subcommand(tmp_path, capsys):
    out_csv = str(tmp_path / "lemma.csv")
    rc = main(["lemma", "--k", "4", "--i-max", "8", "--out", out_csv])
    assert rc == 0
    assert capsys.readouterr().out.count("match=True") == 8
    assert os.path.exists(out_csv)


def test_config_file_flags_win(ett_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 6          # overridden by the explicit flag below\n"
                   "height = 32\n")
    out = tmp_path / "img.pgm"
    rc = main(["--config", str(cfg), "render", "--input", ett_csv,
               "--method", "uvh", "--L", "12", "--out", str(out)])
    assert rc == 0
    # --L 12 beat the config file: a period-12 series stacks into 12 rows
    from tsimg.dataio import read_pgm
    assert read_pgm(str(out)).shape[0] == 12


def test_config_file_applies_when_flag_absent(ett_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    # render has no --kind, and the subcommand comes from the command line: both skipped
    cfg.write_text("kind = segment\ncommand = sweep\nL = 6\n")
    out = tmp_path / "img.pgm"
    rc = main(["--config", str(cfg), "render", "--input", ett_csv,
               "--method", "uvh", "--out", str(out)])
    assert rc == 0
    from tsimg.dataio import read_pgm
    assert read_pgm(str(out)).shape[0] == 6


def test_config_file_loses_to_a_flag_however_spelt(ett_csv, tmp_path, monkeypatch):
    import tsimg.cli as cli
    from tsimg.dataio import read_pgm
    from tsimg.training import EpochRecord
    monkeypatch.setattr(cli, "train", lambda cfg, params, *_: (
        params, [EpochRecord(epoch=0, train_loss=1.0, val_metric=1.0, seconds=0.0)]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seg_len = 12\nL = 6\n")
    run = tmp_path / "run"
    assert main(["--config", str(cfg), "train", "--task", "forecast-linear",
                 "--imaging", "uvh", "--arch", "wolvm", "--input", ett_csv,
                 "--out", str(run), "--lookback", "24", "--horizon", "4",
                 "--image-size", "16", "--embed-dim", "8", "--heads", "2",
                 "--seg-len", "6"]) == 0
    assert json.loads((run / "config.json").read_text())["seg_len"] == 6
    out = tmp_path / "img.pgm"
    assert main(["--config", str(cfg), "render", "--input", ett_csv,
                 "--method", "uvh", "--L=12", "--out", str(out)]) == 0
    assert read_pgm(str(out)).shape[0] == 12


@pytest.mark.parametrize("config,env,argv", [
    ("height = abc", None, ["render", "--input", "x.csv", "--method", "lineplot", "--out", "o"]),
    ("L = 12.5", None, ["render", "--input", "x.csv", "--method", "uvh", "--out", "o"]),
    ("split = train", None, ["eval", "--run", "r", "--input", "x.csv"]),
    ("perturb = foo", None, ["eval", "--run", "r", "--input", "x.csv"]),
    (None, "abc", ["train", "--task", "classify", "--arch", "wolvm", "--imaging", "gaf",
                   "--input", "x.csv", "--out", "o"]),
    (None, "abc", ["eval", "--run", "r", "--input", "x.csv"]),
    (None, "abc", ["sweep", "--kind", "segment", "--out", "o"]),
    (None, None, ["sweep", "--kind", "segment", "--i-values", "1,x", "--out", "o"]),
    (None, None, ["sweep", "--kind", "lookback", "--lengths", "48,", "--out", "o"]),
], ids=["height-abc", "L-float", "split-choice", "perturb-choice", "seed-env-train",
        "seed-env-eval", "seed-env-sweep", "i-values", "lengths"])
def test_bad_config_env_or_list_value_is_usage_error(tmp_path, monkeypatch, capsys,
                                                     config, env, argv):
    monkeypatch.chdir(tmp_path)
    if env is not None:
        monkeypatch.setenv("TSIMG_SEED", env)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv = ["--config", "run.cfg", *argv]
    assert main(argv) == 2
    assert "error: argument --" in capsys.readouterr().err
    assert os.listdir(tmp_path) == (["run.cfg"] if config else [])


def test_config_string_value_stays_a_string(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("out = 7\n")
    assert main(["--config", "run.cfg", "lemma", "--k", "2", "--i-max", "3"]) == 0
    assert (tmp_path / "7").read_text().count("lemma") == 3


def test_resolved_config_reproduces_the_run(ett_csv, tmp_path):
    required = ["train", "--task", "forecast-reconstruct", "--imaging", "uvh",
                "--arch", "minimae", "--input", ett_csv]
    assert main([*required, "--out", str(tmp_path / "run1"), "--lookback", "24",
                 "--horizon", "4", "--seg-len", "12", "--image-size", "16",
                 "--embed-dim", "8", "--heads", "2", "--lr", "0.003",
                 "--epochs", "2", "--seed", "5"]) == 0
    assert main(["--config", str(tmp_path / "run1" / "resolved_config.txt"), *required,
                 "--out", str(tmp_path / "run2")]) == 0
    runs = [tmp_path / "run1", tmp_path / "run2"]
    ckpts = [(r / "checkpoint.bin").read_bytes() for r in runs]
    assert ckpts[0] == ckpts[1]
    lines = [(r / "resolved_config.txt").read_text().splitlines() for r in runs]
    differ = [(a, b) for a, b in zip(*lines) if a != b]
    assert len(lines[0]) == len(lines[1])
    assert differ == [(f"out = {runs[0]}", f"out = {runs[1]}")]


def test_seed_env_default(ett_csv, tmp_path, monkeypatch):
    monkeypatch.setenv("TSIMG_SEED", "17")
    run = str(tmp_path / "run")
    rc = main(["train", "--task", "forecast-linear", "--imaging", "uvh",
               "--arch", "wolvm", "--input", ett_csv, "--out", run,
               "--lookback", "24", "--horizon", "4", "--seg-len", "12",
               "--image-size", "16", "--patch-size", "8", "--embed-dim", "8",
               "--heads", "2", "--epochs", "1"])
    assert rc == 0
    meta = json.loads((tmp_path / "run" / "config.json").read_text())
    assert meta["seed"] == 17


# --- forecast runs through both layouts and both frameworks ---------------

@pytest.fixture
def ett_csv2(tmp_path):
    a = gen_periodic(12, 400, "composite", seed=0, noise_std=0.02)
    b = 2.0 * gen_periodic(8, 400, "sine", seed=1, noise_std=0.02) + 1.0
    lines = ["date,a,b"] + [f"t{i},{float(u)!r},{float(v)!r}"
                            for i, (u, v) in enumerate(zip(a, b))]
    p = tmp_path / "series2.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


@pytest.mark.parametrize("task,imaging,horizon", [
    ("forecast-linear", "mvh", 8),        # one head forecasts both variates
    ("forecast-reconstruct", "mvh", 4),
    ("forecast-reconstruct", "uvh", 4),
])
def test_train_then_eval_forecast_layouts(ett_csv2, tmp_path, capsys, task, imaging, horizon):
    run = tmp_path / "run"
    assert main(["train", "--task", task, "--imaging", imaging, "--arch", "minimae",
                 "--input", ett_csv2, "--out", str(run), "--lookback", "24",
                 "--horizon", "4", "--image-size", "16", "--patch-size", "8",
                 "--embed-dim", "8", "--heads", "2", "--epochs", "2", "--seed", "0"]) == 0
    model = json.loads((run / "config.json").read_text())["model"]
    assert ModelConfig(**model) == ModelConfig(
        arch="minimae", task=task.replace("-", "_"), image_size=16, patch_size=8,
        embed_dim=8, num_heads=2, horizon=horizon)
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--input", ett_csv2]) == 0
    out = capsys.readouterr().out
    mse = float(out.split("mse=")[1].split()[0])
    assert np.isfinite(mse)


def test_eval_forecasts_with_the_trained_float32_model(ett_csv2, tmp_path, monkeypatch, capsys):
    # the checkpoint holds the float32 model widened to float64; eval casts
    # it back, so its forecasts are those of the model train returned
    import tsimg.cli as cli
    from tsimg import pipeline
    trained, seen = [], []

    def keep_model(*args):
        out = cli.training.train(*args)
        trained.append({k: p.copy() for k, p in out[0].items()})
        return out

    def keep_forecasts(*args, **kw):
        seen.append((args, kw, forecast(*args, **kw)))
        return seen[-1][2]

    forecast = pipeline.forecast_windows
    monkeypatch.setattr(cli, "train", keep_model)
    monkeypatch.setattr(pipeline, "forecast_windows", keep_forecasts)
    run = tmp_path / "run"
    assert main(["train", "--task", "forecast-reconstruct", "--imaging", "uvh",
                 "--arch", "minimae", "--input", ett_csv2, "--out", str(run),
                 "--lookback", "24", "--horizon", "4", "--image-size", "16",
                 "--patch-size", "8", "--embed-dim", "8", "--heads", "2",
                 "--epochs", "2", "--seed", "0"]) == 0
    assert main(["eval", "--run", str(run), "--input", ett_csv2]) == 0
    (model,), ((args, kw, pred),) = trained, seen
    assert all(p.dtype == np.float32 for p in model.values())
    assert all(p.dtype == np.float32 for p in args[3].values())
    want = forecast(*args[:3], model, *args[4:], **kw)
    assert pred.dtype == want.dtype and pred.tobytes() == want.tobytes()
    truth = cli._load_forecast_windows(ett_csv2, 24, 4)[2][1]
    assert f"mse={metric_mse(want, truth)!r}" in capsys.readouterr().out


# --- config.json comes from outside the program ---------------------------

@pytest.mark.parametrize("text,why", [
    ("{not json", "malformed run config: Expecting property name"),
    ("\xff\xfe", "malformed run config: 'utf-8' codec"),
    ('["model"]', "not a JSON object"),
    ('{"imaging": "uvh", "seg_len": null, "lookback": 24, "horizon": 4, "d": 1}',
     "missing field(s) model"),
    ('{"model": {"arch": "wolvm"}, "imaging": "uvh", "lookback": 24, "horizon": 4, "d": 1}',
     "missing field(s) seg_len"),
    ('{"model": {"arch": "wolvm", "depth": 3}, "imaging": "uvh", "seg_len": null, '
     '"lookback": 24, "horizon": 4, "d": 1}', "unexpected keyword argument 'depth'"),
    ('{"model": [1], "imaging": "uvh", "seg_len": null, "lookback": 24, "horizon": 4, "d": 1}',
     "malformed run config"),
    ('{"model": {"patch_size": 0}, "imaging": "uvh", "seg_len": null, "lookback": 24, '
     '"horizon": 4, "d": 1}', "malformed run config: ModelConfig sizes must be >= 1, "
                              "got patch_size=0"),
    ('{"model": {"arch": "wolvm"}, "imaging": "uvh", "seg_len": "12", "lookback": 24, '
     '"horizon": 4, "d": 1}', "seg_len must be null or an int >= 1, got '12'"),
    ('{"model": {"arch": "wolvm"}, "imaging": "uvh", "seg_len": 0, "lookback": 24, '
     '"horizon": 4, "d": 1}', "seg_len must be null or an int >= 1, got 0"),
    ('{"model": {"arch": "wolvm"}, "imaging": "uvh", "seg_len": null, "lookback": 96.5, '
     '"horizon": 4, "d": 1}', "lookback must be an int >= 1, got 96.5"),
    ('{"model": {"arch": "wolvm"}, "imaging": "uvh", "seg_len": null, "lookback": 24, '
     '"horizon": true, "d": 1}', "horizon must be an int >= 1, got True"),
    ('{"model": {"arch": "wolvm"}, "imaging": "uvh", "seg_len": null, "lookback": 24, '
     '"horizon": 4, "d": -2}', "d must be an int >= 1, got -2"),
    ('{"model": {"arch": "wolvm"}, "imaging": 3, "seg_len": null, "lookback": 24, '
     '"horizon": 4, "d": 1}', "imaging must be one of"),
    ('{"model": {"arch": "wolvm"}, "imaging": "polar", "seg_len": null, "lookback": 24, '
     '"horizon": 4, "d": 1}', "imaging must be one of"),
], ids=["not-json", "not-utf8", "json-list", "no-model", "no-seg-len", "unknown-field",
        "model-not-object", "zero-patch", "seg-len-str", "seg-len-zero", "lookback-float",
        "horizon-bool", "d-negative", "imaging-int", "imaging-unknown"])
def test_eval_malformed_config_is_runtime_error(ett_csv, tmp_path, capsys, text, why):
    run = tmp_path / "run"
    run.mkdir()
    (run / "config.json").write_text(text, encoding="latin-1")
    assert main(["eval", "--run", str(run), "--input", ett_csv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / 'config.json'}: ") and why in err


# --- training defaults live in TrainConfig --------------------------------

@pytest.mark.parametrize("task,imaging,flags,expected", [
    ("forecast-linear", "uvh", [], (20, 3)),
    ("forecast-reconstruct", "mvh", [], (20, 3)),
    ("classify", "gaf", [], (30, 8)),
    ("classify", "gaf", ["--epochs", "5"], (5, 8)),
    ("forecast-linear", "uvh", ["--patience", "1"], (20, 1)),
])
def test_train_config_defaults(ett_csv, labeled_csv, tmp_path, monkeypatch,
                               task, imaging, flags, expected):
    import tsimg.cli as cli
    from tsimg.training import EpochRecord
    seen = []

    def spy(model_cfg, params, train_data, val_data, tc):
        seen.append((tc.max_epochs, tc.patience))
        return params, [EpochRecord(epoch=0, train_loss=1.0, val_metric=1.0, seconds=0.0)]

    monkeypatch.setattr(cli, "train", spy)
    data = labeled_csv if task == "classify" else ett_csv
    assert main(["train", "--task", task, "--imaging", imaging, "--arch", "wolvm",
                 "--input", data, "--out", str(tmp_path / "run"), "--lookback", "24",
                 "--horizon", "4", "--seg-len", "12", "--image-size", "16",
                 "--patch-size", "8", "--embed-dim", "8", "--heads", "2", *flags]) == 0
    assert seen == [expected]


def test_train_zero_epochs_is_runtime_error(ett_csv, tmp_path, capsys):
    assert main(["train", "--task", "forecast-linear", "--imaging", "uvh",
                 "--arch", "wolvm", "--input", ett_csv, "--out", str(tmp_path / "run"),
                 "--lookback", "24", "--horizon", "4", "--image-size", "16",
                 "--embed-dim", "8", "--heads", "2", "--epochs", "0"]) == 1
    assert "max_epochs" in capsys.readouterr().err
