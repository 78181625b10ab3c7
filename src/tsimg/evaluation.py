"""Metrics, temporal perturbations, segment-reoccurrence math, and the
segment-length / look-back sweep experiments, whose cells split a task with
:func:`split_windows` and reach the model only through the pipeline's
``forecast_samples`` and ``forecast_windows``."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DivByZeroError,
    EmptyResultError,
    NonIntegerSegmentError,
    NonPositiveError,
    ShapeMismatchError,
    TooShortError,
)
from .models import ModelConfig, init_params
from .pipeline import forecast_samples, forecast_windows, uvh_seg_len
from .series import MultivariateSeries, chronological_split, gen_periodic, window_stacks
from .training import TrainConfig, train


# --- metrics ------------------------------------------------------------

def _error(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """pred - truth, as float64 arrays of one non-empty shape."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeMismatchError(f"shapes {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise EmptyResultError("a metric of empty input is undefined")
    return pred - truth


def metric_mse(pred: np.ndarray, truth: np.ndarray) -> float:
    d = _error(pred, truth)
    return float((d * d).sum() / d.size)     # np.mean's own sum and divide


def metric_mae(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.abs(_error(pred, truth))))


def metric_accuracy(preds: list[int], labels: list[int]) -> float:
    if len(preds) != len(labels):
        raise ShapeMismatchError("preds/labels length mismatch")
    if len(preds) == 0:
        raise EmptyResultError("accuracy of empty input is undefined")
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


def split_windows(task: ForecastTask) -> list:
    """Chronological train/val/test (look-backs, targets) stacks of
    :func:`~tsimg.series.window_stacks`, (n, 1, lookback) and (n, 1, horizon)
    read-only views; a block too short for one window gives n = 0."""
    return [window_stacks(block, task.lookback, task.horizon, task.stride)
            for block in chronological_split(MultivariateSeries(task.series), task.ratios)]


def _train_eval_reconstruct(splits: list, seg_len: int,
                            model_cfg: ModelConfig, train_cfg: TrainConfig,
                            seed: int) -> tuple[float, float]:
    """Train a framework-(d) forecaster with the given segment length on
    the train/val/test `splits` of :func:`split_windows` and return test
    (MSE, MAE) of the recovered forecasts. Every window of the cell shares
    one image geometry, so each split is built, and the test split
    forecast, by one stacked call."""
    if not all(len(lb) for lb, _ in splits):
        raise ShapeMismatchError("task series too short for the requested windows")
    test_lb, truth = splits[2]
    horizon = truth.shape[2]
    cfg = replace(model_cfg, task="forecast_reconstruct", horizon=horizon)
    train_s, val_s = (forecast_samples(*split, "uvh", cfg, seg_len) for split in splits[:2])
    params = init_params(cfg, seed=seed)
    params, _ = train(cfg, params, train_s, val_s, replace(train_cfg, seed=seed))
    pred = forecast_windows(test_lb, "uvh", horizon, params, cfg, seg_len)
    return metric_mse(pred, truth), metric_mae(pred, truth)


def minmax_normalize(values: list[float]) -> list[float]:
    lo, hi = min(values, default=0.0), max(values, default=0.0)
    if hi == lo:
        return [0.0 for _ in values]
    return [(v - lo) / (hi - lo) for v in values]


def _sweep(cells, model_cfg: ModelConfig, train_cfg: TrainConfig) -> SweepResult:
    """The one sweep loop. Cell i, an (axis value, splits, segment length)
    triple or None when skipped, trains with seed ``train_cfg.seed ^ i`` and
    is timed from sample building through its test metrics."""
    res = SweepResult(axis=[], mse=[], mae=[])
    for idx, cell in enumerate(cells):
        if cell is None:
            continue
        value, splits, seg = cell
        t0 = time.perf_counter()
        mse, mae = _train_eval_reconstruct(splits, seg, model_cfg, train_cfg,
                                           seed=train_cfg.seed ^ idx)
        res.seconds.append(time.perf_counter() - t0)
        res.axis.append(value)
        res.mse.append(mse)
        res.mae.append(mae)
    res.normalized_mse = minmax_normalize(res.mse)
    return res


def segment_sweep(task: ForecastTask, model_cfg: ModelConfig,
                  train_cfg: TrainConfig, L: int, k: int,
                  i_values: list[int]) -> SweepResult:
    """Train/evaluate the mask-reconstruction forecaster once per segment
    length (i/k)*L; reports raw and min-max-normalized MSE, the
    reoccurrence n per segment length, and the paper-style zero-length
    estimate (mean of the MSEs at L and 2L when both are swept). Every i
    is checked (i >= 1, (i*L) % k == 0), and an empty list refused, before any split or cell."""
    if not i_values:
        raise EmptyResultError("segment_sweep needs at least one i value")
    ns = [reoccurrence_n(i, k) for i in i_values]    # every i and k >= 1, before any cell
    if any((i * L) % k for i in i_values):
        raise NonIntegerSegmentError(f"(i*L) % k != 0 for some i in {i_values}, k={k}, L={L}")
    splits = split_windows(task)
    res = _sweep([(i * L // k, splits, i * L // k) for i in i_values], model_cfg, train_cfg)
    by_i = dict(zip(i_values, res.mse))
    zero_est = (by_i[k] + by_i[2 * k]) / 2.0 if k in by_i and 2 * k in by_i else None
    return replace(res, n_values=ns, zero_length_estimate=zero_est)


def lookback_sweep(task: ForecastTask, model_cfg: ModelConfig,
                   train_cfg: TrainConfig, lengths: list[int],
                   seg_len: int | None = None) -> SweepResult:
    """One train/eval per look-back length; lengths too long for the data
    are skipped with a recorded reason."""
    if not lengths:
        raise EmptyResultError("lookback_sweep needs at least one length")
    if any(a >= b for a, b in zip(lengths, lengths[1:])):
        raise ShapeMismatchError(f"lengths must be strictly increasing, got {list(lengths)}")
    split_by_H = [(H, split_windows(replace(task, lookback=H))) for H in lengths]
    cells = [(H, splits, uvh_seg_len(np.asarray(task.series)[:H], seg_len))
             if all(len(lb) for lb, _ in splits) else None for H, splits in split_by_H]
    return replace(_sweep(cells, model_cfg, train_cfg),
                   skipped=[(H, "series too short for this look-back length")
                            for H, cell in zip(lengths, cells) if cell is None])
