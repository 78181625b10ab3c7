"""Metrics, temporal perturbations, segment-reoccurrence math, and the
segment-length / look-back sweep experiments."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivByZeroError,
    NonIntegerSegmentError,
    NonPositiveError,
    ShapeMismatchError,
    TooShortError,
)
from .models import ModelConfig, init_params
from .pipeline import build_reconstruct_sample, predict_forecast
from .series import MultivariateSeries, gen_periodic
from .training import TrainConfig, train


# --- metrics ------------------------------------------------------------

def metric_mse(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeMismatchError(f"shapes {pred.shape} vs {truth.shape}")
    d = pred - truth
    return float(np.mean(d * d))


def metric_mae(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeMismatchError(f"shapes {pred.shape} vs {truth.shape}")
    return float(np.mean(np.abs(pred - truth)))


def metric_accuracy(preds: list[int], labels: list[int]) -> float:
    if len(preds) != len(labels):
        raise ShapeMismatchError("preds/labels length mismatch")
    if not preds:
        from .errors import TsimgError
        raise TsimgError("accuracy of empty input is undefined")
    return sum(int(p == l) for p, l in zip(preds, labels)) / len(preds)


# --- perturbations ------------------------------------------------------

PERTURB_KINDS = ("sf_all", "sf_half", "ex_half", "masking")


@dataclass
class PerturbMode:
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PERTURB_KINDS:
            raise ShapeMismatchError(f"unknown perturbation {self.kind!r}")


def perturb(series: MultivariateSeries, mode: PerturbMode) -> MultivariateSeries:
    """Apply one of the four temporal perturbations.

    All variates are perturbed jointly (same permutation / same masked
    positions) so that only the time-step identity is destroyed.
    """
    T = series.length
    if T < 2:
        raise TooShortError("perturbation needs T >= 2")
    v = series.values.copy()
    rng = np.random.default_rng(mode.seed)
    if mode.kind == "sf_all":
        v = v[:, rng.permutation(T)]
    elif mode.kind == "sf_half":
        half = T // 2
        idx = np.arange(T)
        idx[:half] = rng.permutation(half)
        v = v[:, idx]
    elif mode.kind == "ex_half":
        # odd T: the middle element travels with the first half
        first = math.ceil(T / 2)
        v = np.concatenate([v[:, first:], v[:, :first]], axis=1)
    else:  # masking: zero out floor(T/2) positions (post-standardization mean)
        idx = rng.choice(T, size=T // 2, replace=False)
        v[:, idx] = 0.0
    return MultivariateSeries(v, series.variate_names)


def performance_drop(base_metric: float, perturbed_metric: float,
                     better: str = "lower") -> float:
    """Relative degradation in percent, direction-aware."""
    if base_metric == 0.0:
        raise DivByZeroError("base metric is zero")
    if better == "higher":
        return (base_metric - perturbed_metric) / base_metric * 100.0
    if better == "lower":
        return (perturbed_metric - base_metric) / base_metric * 100.0
    raise ShapeMismatchError(f"better must be 'higher' or 'lower', got {better!r}")


# --- segment reoccurrence (closed form + simulation oracle) -------------

def reoccurrence_n(i: int, k: int) -> int:
    """Smallest number of length-(i/k)L segments before a segment of a
    perfectly period-L series reoccurs: k / gcd(i, k)."""
    if i < 1 or k < 1:
        raise NonPositiveError(f"i, k must be >= 1, got i={i}, k={k}")
    return k // math.gcd(i, k)


def reoccurrence_brute_force(i: int, k: int, L: int) -> int:
    """Direct simulation: cut a perfect-period-L sine into length-(i/k)L
    segments and find the smallest n with segment s == segment s+n."""
    if i < 1 or k < 1 or L < 1:
        raise NonPositiveError(f"i, k, L must be >= 1")
    if (i * L) % k != 0:
        raise NonIntegerSegmentError(
            f"(i*L) = {i * L} not divisible by k = {k}; pick L a multiple of k")
    seg = (i * L) // k
    n_max = k + 1
    # enough data for several reference segments plus the search range
    length = seg * (n_max + 8)
    length = max(length, 4 * L)
    length = seg * -(-length // seg)
    x = gen_periodic(L, length, waveform="sine")
    segments = x.reshape(-1, seg)
    n_segments = segments.shape[0]
    n_ref = min(4, n_segments - n_max)
    for n in range(1, n_max + 1):
        ok = all(np.array_equal(segments[s], segments[s + n])
                 for s in range(max(1, n_ref)))
        if ok:
            return n
    raise NonIntegerSegmentError("no reoccurrence found (non-periodic input?)")


# --- sweeps -------------------------------------------------------------

@dataclass
class ForecastTask:
    """Univariate forecasting dataset for the sweep experiments."""

    series: np.ndarray
    lookback: int
    horizon: int
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    stride: int = 1


@dataclass
class SweepResult:
    axis: list
    mse: list[float]
    mae: list[float]
    normalized_mse: list[float] = field(default_factory=list)
    n_values: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    zero_length_estimate: float | None = None
    skipped: list[tuple] = field(default_factory=list)


def _split_windows(task: ForecastTask):
    """Chronological train/val/test window lists of (lookback, target)."""
    x = np.asarray(task.series, dtype=np.float64)
    T = x.size
    n_train = int(T * task.ratios[0])
    n_val = int(T * task.ratios[1])
    blocks = (x[:n_train], x[n_train:n_train + n_val], x[n_train + n_val:])
    out = []
    for b in blocks:
        wins = []
        limit = b.size - task.lookback - task.horizon
        for s in range(0, limit + 1, task.stride):
            wins.append((b[s:s + task.lookback],
                         b[s + task.lookback:s + task.lookback + task.horizon]))
        out.append(wins)
    return out


def _train_eval_reconstruct(task: ForecastTask, seg_len: int,
                            model_cfg: ModelConfig, train_cfg: TrainConfig,
                            seed: int) -> tuple[float, float]:
    """Train a framework-(d) forecaster with the given segment length and
    return test (MSE, MAE) of the recovered forecasts."""
    train_w, val_w, test_w = _split_windows(task)
    if not train_w or not val_w or not test_w:
        raise ShapeMismatchError("task series too short for the requested windows")
    cfg = ModelConfig(arch=model_cfg.arch, task="forecast_reconstruct",
                      image_size=model_cfg.image_size,
                      patch_size=model_cfg.patch_size,
                      embed_dim=model_cfg.embed_dim,
                      num_heads=model_cfg.num_heads,
                      horizon=task.horizon)
    train_s = [build_reconstruct_sample(lb, tg, seg_len, cfg) for lb, tg in train_w]
    val_s = [build_reconstruct_sample(lb, tg, seg_len, cfg) for lb, tg in val_w]
    params = init_params(cfg, seed=seed)
    tc = TrainConfig(learning_rate=train_cfg.learning_rate,
                     batch_size=train_cfg.batch_size,
                     max_epochs=train_cfg.max_epochs,
                     patience=train_cfg.patience, seed=seed)
    params, _ = train(cfg, params, train_s, val_s, tc)
    preds, truths = [], []
    for lb, tg in test_w:
        preds.append(predict_forecast(lb, seg_len, task.horizon, params, cfg))
        truths.append(tg)
    pred = np.stack(preds)
    truth = np.stack(truths)
    return metric_mse(pred, truth), metric_mae(pred, truth)


def minmax_normalize(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0 for _ in values]
    return [(v - lo) / (hi - lo) for v in values]


def segment_sweep(task: ForecastTask, model_cfg: ModelConfig,
                  train_cfg: TrainConfig, L: int, k: int,
                  i_values: list[int]) -> SweepResult:
    """Train/evaluate the mask-reconstruction forecaster once per segment
    length (i/k)*L; reports raw and min-max-normalized MSE, the
    reoccurrence n per segment length, and the paper-style zero-length
    estimate (mean of the MSEs at L and 2L when both are swept)."""
    axis, mses, maes, ns, secs = [], [], [], [], []
    for idx, i in enumerate(i_values):
        if (i * L) % k != 0:
            raise NonIntegerSegmentError(f"(i*L) % k != 0 for i={i}, k={k}, L={L}")
        seg = (i * L) // k
        t0 = time.perf_counter()
        mse, mae = _train_eval_reconstruct(task, seg, model_cfg, train_cfg,
                                           seed=train_cfg.seed ^ idx)
        secs.append(time.perf_counter() - t0)
        axis.append(seg)
        mses.append(mse)
        maes.append(mae)
        ns.append(reoccurrence_n(i, k))
    norm = minmax_normalize(mses)
    zero_est = None
    by_i = dict(zip(i_values, mses))
    if k in by_i and 2 * k in by_i:
        zero_est = (by_i[k] + by_i[2 * k]) / 2.0
    return SweepResult(axis=axis, mse=mses, mae=maes, normalized_mse=norm,
                       n_values=ns, seconds=secs, zero_length_estimate=zero_est)


def lookback_sweep(task: ForecastTask, model_cfg: ModelConfig,
                   train_cfg: TrainConfig, lengths: list[int],
                   seg_len: int | None = None) -> SweepResult:
    """One train/eval per look-back length; lengths too long for the data
    are skipped with a recorded reason."""
    if sorted(lengths) != list(lengths):
        raise ShapeMismatchError("lengths must be increasing")
    axis, mses, maes, secs, skipped = [], [], [], [], []
    for idx, H in enumerate(lengths):
        sub = ForecastTask(series=task.series, lookback=H, horizon=task.horizon,
                           ratios=task.ratios, stride=task.stride)
        splits = _split_windows(sub)
        if any(not w for w in splits):
            skipped.append((H, "series too short for this look-back length"))
            continue
        seg = seg_len
        if seg is None:
            from .imaging import detect_period
            seg = detect_period(np.asarray(task.series)[:H]).chosen_L
        t0 = time.perf_counter()
        mse, mae = _train_eval_reconstruct(sub, seg, model_cfg, train_cfg,
                                           seed=train_cfg.seed ^ idx)
        secs.append(time.perf_counter() - t0)
        axis.append(H)
        mses.append(mse)
        maes.append(mae)
    return SweepResult(axis=axis, mse=mses, mae=maes,
                       normalized_mse=minmax_normalize(mses) if mses else [],
                       seconds=secs, skipped=skipped)
