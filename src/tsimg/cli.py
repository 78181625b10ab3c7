"""Subcommand front-end binding the library into the experiment recipes.

Exit codes: 0 success, 1 runtime failure, 2 usage error, such as a bad flag or
config-file value. Diagnostics go to stderr; stdout carries machine-readable
summaries only. An option takes its flag, else its `--config` line (parsed as
that flag), else `TSIMG_SEED` (for `--seed`) or the built-in default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import dataio, evaluation, imaging, models, pipeline, series, training
from .errors import ParseError, RoutingError, ShapeMismatchError, TsimgError
from .models import ModelConfig, init_params
from .training import TrainConfig, train

TASK_FLAGS = {"classify": "classify",
              "forecast-linear": "forecast_linear",
              "forecast-reconstruct": "forecast_reconstruct"}
PERTURB_FLAGS = {"sf-all": "sf_all", "sf-half": "sf_half",
                 "ex-half": "ex_half", "masking": "masking"}


def _int_list(text: str) -> str:
    """`text` itself, once each comma-separated item has parsed as an int."""
    [int(v) for v in text.split(",")]  # a ValueError here is argparse's usage error
    return text


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tsimg",
                                description="time-series imaging experiment toolkit")
    p.add_argument("--config", help="key = value config file; flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("render", help="image one series with one method")
    r.add_argument("--input", required=True)
    r.add_argument("--method", required=True, choices=imaging.IMAGING_METHODS)
    r.add_argument("--variate", type=int, default=0)
    r.add_argument("--out", required=True)
    r.add_argument("--window", type=int, help="use only the first N steps")
    r.add_argument("--L", type=int)
    r.add_argument("--window-len", type=int)
    r.add_argument("--hop", type=int)
    r.add_argument("--n-filters", type=int, default=32)
    r.add_argument("--num-scales", type=int, default=32)
    r.add_argument("--embed-dim", type=int, default=1)
    r.add_argument("--delay", type=int, default=1)
    r.add_argument("--height", type=int, default=64)
    r.add_argument("--width", type=int, default=64)

    t = sub.add_parser("train", help="train one model")
    t.add_argument("--task", required=True, choices=sorted(TASK_FLAGS))
    t.add_argument("--arch", required=True, choices=models.ARCHS)
    t.add_argument("--imaging", required=True, choices=imaging.IMAGING_METHODS)
    t.add_argument("--input", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--d", type=int, default=1, help="variates per labeled sample")
    t.add_argument("--lookback", type=int, default=96)
    t.add_argument("--horizon", type=int, default=24)
    t.add_argument("--seg-len", type=int, help="UVH segment length (default: FFT)")
    t.add_argument("--image-size", type=int, default=64)
    t.add_argument("--patch-size", type=int, default=8)
    t.add_argument("--embed-dim", type=int, default=64)
    t.add_argument("--heads", type=int, default=4)
    t.add_argument("--lr", type=float, default=1e-4)
    t.add_argument("--batch-size", type=int, default=32)
    t.add_argument("--epochs", type=int)
    t.add_argument("--patience", type=int)
    t.add_argument("--seed", type=int, default=os.environ.get("TSIMG_SEED", "0"))

    e = sub.add_parser("eval", help="evaluate a trained run on the test split")
    e.add_argument("--run", required=True, help="output directory of `tsimg train`")
    e.add_argument("--input", required=True)
    e.add_argument("--split", default="test", choices=["test", "val"],
                   help="forecast runs only: a classify eval scores every row of --input, "
                        "so give it a held-out CSV")
    e.add_argument("--perturb", choices=sorted(PERTURB_FLAGS))
    e.add_argument("--seed", type=int, default=os.environ.get("TSIMG_SEED", "0"))
    e.add_argument("--out")

    s = sub.add_parser("sweep", help="segment-length or look-back sweep")
    s.add_argument("--kind", required=True, choices=["segment", "lookback"])
    s.add_argument("--input", help="ETT-style CSV (default: synthetic periodic)")
    s.add_argument("--variate", type=int, default=0)
    s.add_argument("--synthetic-period", type=int, default=24)
    s.add_argument("--synthetic-length", type=int, default=4000)
    s.add_argument("--waveform", default="composite")
    s.add_argument("--noise", type=float, default=0.05)
    s.add_argument("--lookback", type=int, default=96)
    s.add_argument("--horizon", type=int, default=24)
    s.add_argument("--stride", type=int, default=8)
    s.add_argument("--L", type=int, default=24)
    s.add_argument("--k", type=int, default=6)
    s.add_argument("--i-values", type=_int_list, default="1,2,3,4,5,6,7,8,9,10,11,12")
    s.add_argument("--lengths", type=_int_list, default="48,96,192,336,720,1152,1728,2304")
    s.add_argument("--arch", default="minimae", choices=models.ARCHS)
    s.add_argument("--image-size", type=int, default=32)
    s.add_argument("--patch-size", type=int, default=8)
    s.add_argument("--embed-dim", type=int, default=32)
    s.add_argument("--heads", type=int, default=4)
    s.add_argument("--lr", type=float, default=1e-3)
    s.add_argument("--batch-size", type=int, default=32)
    s.add_argument("--epochs", type=int, default=5)
    s.add_argument("--patience", type=int, default=5)
    s.add_argument("--seed", type=int, default=os.environ.get("TSIMG_SEED", "0"))
    s.add_argument("--out", required=True)

    l = sub.add_parser("lemma", help="verify the segment-reoccurrence closed form")
    l.add_argument("--k", type=int, required=True)
    l.add_argument("--i-max", type=int, required=True)
    l.add_argument("--out")

    return p


def _with_config_lines(argv: list[str], args: argparse.Namespace) -> list[str]:
    """`argv` with the config file's `key = value` lines as `--key=value` right after the
    subcommand, so given flags win; other keys and `None` (unset in a run record) are skipped."""
    tokens = []
    text = Path(args.config).read_text()
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TsimgError(f"{args.config}: line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in ("command", "config") and hasattr(args, dest) and value != "None":
            tokens.append(f"--{dest.replace('_', '-')}={value}")
    at = 0
    while argv[at].startswith("-"):  # only --config, as `--config=X` or `--config X`, comes first
        at += 1 if "=" in argv[at] else 2
    return argv[:at + 1] + tokens + argv[at + 1:]


def _write_run_metadata(out_dir: Path, args: argparse.Namespace) -> None:
    """The run record: every option but `--config`, sorted, then the version."""
    out_dir.mkdir(parents=True, exist_ok=True)
    items = [(k, v) for k, v in sorted(vars(args).items()) if k != "config"]
    lines = [f"{k.replace('_', '-')} = {v}" for k, v in items + [("version", __version__)]]
    (out_dir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


# --- subcommand bodies --------------------------------------------------

def cmd_render(args) -> int:
    mts = dataio.load_ett_csv(args.input)
    if not 0 <= args.variate < mts.d:
        raise TsimgError(f"variate {args.variate} outside [0, {mts.d})")
    if args.window is not None and not 1 <= args.window <= mts.length:
        raise TsimgError(f"window must be in [1, {mts.length}], got {args.window}")
    window = (mts.values if args.method == "mvh" else mts.values[args.variate])[..., :args.window]
    img = pipeline.image_for_method(
        args.method, window, L=args.L, window_len=args.window_len, hop=args.hop,
        n_filters=args.n_filters, num_scales=args.num_scales,
        embed_dim=args.embed_dim, delay=args.delay,
        height=args.height, width=args.width)
    dataio.write_pgm(img, args.out)
    sidecar = Path(args.out).with_suffix(".csv")
    np.savetxt(sidecar, img, delimiter=",")
    print(f"render method={args.method} height={img.shape[0]} width={img.shape[1]} "
          f"out={args.out}")
    return 0


def _load_forecast_windows(path: str, lookback: int, horizon: int) -> list:
    """Standardized train/val/test (look-backs, targets) stacks of an ETT CSV,
    (n, d, lookback) and (n, d, horizon); a split too short gives n = 0."""
    mts = dataio.load_ett_csv(path)
    splits = series.standardize_by_train(*series.chronological_split(mts))[:3]
    return [series.window_stacks(split, lookback, horizon) for split in splits]


def cmd_train(args) -> int:
    task = TASK_FLAGS[args.task]
    models.validate_routing(task, args.imaging)
    out_dir = Path(args.out)
    given = {k: v for k, v in (("max_epochs", args.epochs), ("patience", args.patience))
             if v is not None}
    make_tc = TrainConfig.for_classification if task == "classify" else TrainConfig
    tc = make_tc(learning_rate=args.lr, batch_size=args.batch_size, seed=args.seed, **given)
    cfg = ModelConfig(arch=args.arch, task=task, image_size=args.image_size,
                      patch_size=args.patch_size, embed_dim=args.embed_dim,
                      num_heads=args.heads)

    if task == "classify":
        raw = dataio.load_labeled_windows_csv(args.input, d=args.d)
        cfg = dataclasses.replace(cfg, num_classes=max(w.class_label for w in raw) + 1,
                                  num_variates=1 if args.imaging == "mvh" else args.d)
        samples = [pipeline.build_classify_sample(w, args.imaging, cfg, L=args.seg_len)
                   for w in raw]
        rng = np.random.default_rng(args.seed)
        order = rng.permutation(len(samples))
        n_train = max(1, int(0.7 * len(samples)))
        n_val = max(1, int(0.1 * len(samples)))
        train_s = [samples[i] for i in order[:n_train]]
        val_s = [samples[i] for i in order[n_train:n_train + n_val]]
    else:
        tr, va, _ = _load_forecast_windows(args.input, args.lookback, args.horizon)
        if not len(tr[0]) or not len(va[0]):
            raise TsimgError("input series too short for the requested windows")
        # the linear head of an MVH window forecasts all d variates at once
        flat = task == "forecast_linear" and args.imaging == "mvh"
        cfg = dataclasses.replace(cfg, horizon=args.horizon * (tr[0].shape[1] if flat else 1))
        train_s, val_s = (pipeline.forecast_samples(*split, args.imaging, cfg, args.seg_len)
                          for split in (tr, va))
    params = init_params(cfg, seed=args.seed)
    params, history = train(cfg, params, train_s, val_s, tc)
    _write_run_metadata(out_dir, args)
    dataio.save_checkpoint(params, str(out_dir / "checkpoint.bin"))
    meta = {"model": dataclasses.asdict(cfg),
            "imaging": args.imaging, "seg_len": args.seg_len,
            "lookback": args.lookback, "horizon": args.horizon,
            "d": args.d if task == "classify" else tr[0].shape[1], "seed": args.seed}
    (out_dir / "config.json").write_text(json.dumps(meta, indent=2) + "\n")
    dataio.write_history_csv(str(out_dir / "history.csv"), history)
    best = training.best_epoch(history, cfg.task)
    print(f"train task={task} arch={args.arch} imaging={args.imaging} epochs={len(history)} "
          f"best={best.val_metric!r} best_epoch={best.epoch} out={out_dir}")
    return 0


RUN_FIELDS = ("model", "imaging", "seg_len", "lookback", "horizon", "d")


def _is_count(v) -> bool:
    """An int >= 1 that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _read_run_config(path: Path) -> tuple[dict, ModelConfig]:
    """A run's config.json and its ModelConfig. The file comes from outside
    the program, so a malformed one raises ParseError."""
    try:
        meta = json.loads(path.read_text())
    except ValueError as e:
        raise ParseError(f"{path}: malformed run config: {e}") from e
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: not a JSON object")
    missing = [k for k in RUN_FIELDS if k not in meta]
    if missing:
        raise ParseError(f"{path}: missing field(s) {', '.join(missing)}")
    if not (isinstance(meta["imaging"], str) and meta["imaging"] in imaging.IMAGING_METHODS):
        raise ParseError(f"{path}: imaging must be one of {', '.join(imaging.IMAGING_METHODS)}, "
                         f"got {meta['imaging']!r}")
    for k in ("seg_len", "lookback", "horizon", "d"):
        if not (_is_count(meta[k]) or (k == "seg_len" and meta[k] is None)):
            kind = "null or an int >= 1" if k == "seg_len" else "an int >= 1"
            raise ParseError(f"{path}: {k} must be {kind}, got {meta[k]!r}")
    try:
        return meta, ModelConfig(**meta["model"])
    except (ValueError, TypeError, TsimgError) as e:
        raise ParseError(f"{path}: malformed run config: {e}") from e


def _fit_checkpoint(params: dict, cfg: ModelConfig) -> dict:
    """The checkpoint's tensors in the model's dtype, that of init_params(cfg).
    A checkpoint must hold exactly the tensors, in the same shapes, that
    init_params(cfg) makes; any other belongs to a different model."""
    init = init_params(cfg)
    expected = {k: v.shape for k, v in init.items()}
    found = {k: v.shape for k, v in params.items()}
    if found != expected:
        diff = "; ".join(f"{k}: {found.get(k)} vs {expected.get(k)}"
                         for k in sorted(expected.keys() | found.keys())
                         if found.get(k) != expected.get(k))
        raise ShapeMismatchError(
            f"checkpoint does not fit the model in config.json (checkpoint vs config): {diff}")
    return {k: v.astype(init[k].dtype) for k, v in params.items()}


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    meta, cfg = _read_run_config(run_dir / "config.json")
    if cfg.task == "classify" and args.split == "val":
        print("error: --split val: a classify eval scores every row of --input; "
              "give it a held-out CSV instead", file=sys.stderr)
        return 2
    params = _fit_checkpoint(dataio.load_checkpoint(str(run_dir / "checkpoint.bin")), cfg)
    mode = (evaluation.PerturbMode(PERTURB_FLAGS[args.perturb], seed=args.seed)
            if args.perturb else None)

    def maybe_perturb(block: np.ndarray) -> np.ndarray:
        if mode is None:
            return block
        return evaluation.perturb(series.MultivariateSeries(block), mode).values

    rows = []
    if cfg.task == "classify":
        raw = dataio.load_labeled_windows_csv(args.input, d=meta["d"])
        preds, labels = [], []
        for w in raw:
            sample = pipeline.build_classify_sample(
                series.WindowSample(lookback=maybe_perturb(w.lookback),
                                    class_label=w.class_label),
                meta["imaging"], cfg, L=meta["seg_len"])
            preds.append(models.predict_class(sample.patch_seqs, params, cfg))
            labels.append(w.class_label)
        acc = evaluation.metric_accuracy(preds, labels)
        rows.append({"experiment_id": "eval", "accuracy": repr(acc)})
        print(f"eval accuracy={acc!r} perturb={args.perturb}")
    else:
        _, va, te = _load_forecast_windows(args.input, meta["lookback"], meta["horizon"])
        lookbacks, truth = te if args.split == "test" else va
        if not len(lookbacks):
            raise TsimgError("no evaluation windows for this split")
        lookbacks = np.stack([maybe_perturb(lb) for lb in lookbacks])
        pred = pipeline.forecast_windows(lookbacks, meta["imaging"], meta["horizon"], params,
                                         cfg, seg_len=meta["seg_len"])
        mse = evaluation.metric_mse(pred, truth)
        mae = evaluation.metric_mae(pred, truth)
        rows.append({"experiment_id": "eval", "mse": repr(mse), "mae": repr(mae)})
        print(f"eval mse={mse!r} mae={mae!r} perturb={args.perturb}")
    if args.out:
        dataio.write_result_rows(args.out, rows)
    return 0


def cmd_sweep(args) -> int:
    out_dir = Path(args.out)
    if args.input:
        mts = dataio.load_ett_csv(args.input)
        x = mts.values[args.variate]
    else:
        x = series.gen_periodic(args.synthetic_period, args.synthetic_length,
                                args.waveform, seed=args.seed, noise_std=args.noise)
    task = evaluation.ForecastTask(series=x, lookback=args.lookback,
                                   horizon=args.horizon, stride=args.stride)
    mc = ModelConfig(arch=args.arch, task="forecast_reconstruct",
                     image_size=args.image_size, patch_size=args.patch_size,
                     embed_dim=args.embed_dim, num_heads=args.heads,
                     horizon=args.horizon)
    tc = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                     max_epochs=args.epochs, patience=args.patience, seed=args.seed)
    segment = args.kind == "segment"
    values = [int(v) for v in (args.i_values if segment else args.lengths).split(",")]
    res = (evaluation.segment_sweep(task, mc, tc, args.L, args.k, values) if segment
           else evaluation.lookback_sweep(task, mc, tc, values, seg_len=args.L))
    for H, reason in res.skipped:
        print(f"skip lookback={H}: {reason}", file=sys.stderr)
    # timing goes to stderr: the results CSV must be byte-identical across
    # same-seed runs; a look-back row leaves its n_value empty
    n_values = res.n_values or [""] * len(res.axis)
    rows = [{"experiment_id": f"{args.kind}_sweep", "axis_value": a, "mse": repr(m),
             "mae": repr(ma), "n_value": n}
            for a, m, ma, n in zip(res.axis, res.mse, res.mae, n_values)]
    _write_run_metadata(out_dir, args)
    dataio.write_result_rows(str(out_dir / "sweep.csv"), rows)
    print(f"cell seconds: {' '.join(f'{s:.3f}' for s in res.seconds)}",
          file=sys.stderr)
    print(f"sweep kind={args.kind} cells={len(rows)} out={out_dir / 'sweep.csv'}")
    return 0


def cmd_lemma(args) -> int:
    if args.k < 1 or args.i_max < 1:
        raise TsimgError("k and i-max must be >= 1")
    L = args.k * 4
    rows = []
    for i in range(1, args.i_max + 1):
        closed = evaluation.reoccurrence_n(i, args.k)
        brute = evaluation.reoccurrence_brute_force(i, args.k, L)
        rows.append({"experiment_id": "lemma", "axis_value": i,
                     "n_value": closed, "accuracy": int(closed == brute)})
        print(f"i={i} k={args.k} n_closed={closed} n_brute={brute} "
              f"match={closed == brute}")
    if args.out:
        dataio.write_result_rows(args.out, rows)
    if any(r["accuracy"] != 1 for r in rows):
        raise TsimgError("closed form disagrees with simulation")
    return 0


COMMANDS = {"render": cmd_render, "train": cmd_train, "eval": cmd_eval,
            "sweep": cmd_sweep, "lemma": cmd_lemma}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # required flags must be given on the command line
        if args.config:
            args = parser.parse_args(_with_config_lines(argv, args))
        return COMMANDS[args.command](args)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    except TsimgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, RoutingError) else 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
