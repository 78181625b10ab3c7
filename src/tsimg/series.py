"""Time-series containers, windowing, split standardization and synthetic
generators.

A univariate series is a plain 1-D float64 ndarray. Multivariate series are
wrapped in :class:`MultivariateSeries` so variate names and the (d, T)
orientation travel with the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .alignment import standardize_stack
from .errors import (
    EmptyResultError,
    InvalidPeriodError,
    ShapeMismatchError,
    UnstableCoefficientError,
)


@dataclass
class MultivariateSeries:
    """d variates observed over T time steps, stored as a (d, T) matrix."""

    values: np.ndarray
    variate_names: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[None, :]
        if self.values.ndim != 2 or 0 in self.values.shape:
            raise ShapeMismatchError(f"expected a non-empty (d, T) matrix, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ShapeMismatchError("series contains NaN/Inf")
        if self.variate_names is not None and len(self.variate_names) != self.values.shape[0]:
            raise ShapeMismatchError("variate_names length != d")

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass
class WindowSample:
    """One sliding-window sample: a look-back block plus either a forecast
    target or a class label (exactly one of the two)."""

    lookback: np.ndarray                 # (d, H)
    target: np.ndarray | None = None     # (d, T') for forecasting
    class_label: int | None = None       # for classification

    def __post_init__(self):
        if (self.target is None) == (self.class_label is None):
            raise ShapeMismatchError("exactly one of target/class_label must be set")


@dataclass
class SplitStats:
    """Per-variate mean/std computed on the training split only."""

    mean: np.ndarray                     # (d,)
    std: np.ndarray                      # (d,)
    degenerate: np.ndarray               # bool (d,), True where train is constant


def window_stacks(series: MultivariateSeries, lookback: int, horizon: int,
                  stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Every stride-th contiguous window of a series as (n, d, lookback)
    look-backs and (n, d, horizon) targets, read-only views into its values
    (nothing is copied); n = 0 when the series is shorter than lookback + horizon."""
    if lookback < 1 or horizon < 0 or stride < 1:
        raise ShapeMismatchError("lookback >= 1, horizon >= 0, stride >= 1 required")
    v = series.values
    n = max(0, (series.length - lookback - horizon) // stride + 1)
    strides = (stride * v.strides[1],) + v.strides
    return tuple(as_strided(v[:, start:], (n, series.d, width), strides, writeable=False)
                 for start, width in ((0, lookback), (lookback, horizon)))


def slide_windows(series: MultivariateSeries, lookback: int, horizon: int,
                  stride: int = 1) -> list[WindowSample]:
    """:func:`window_stacks` as a list of (d, lookback) / (d, horizon) views;
    raises EmptyResultError when the series is shorter than lookback + horizon."""
    lookbacks, targets = window_stacks(series, lookback, horizon, stride)
    if len(lookbacks) == 0:
        raise EmptyResultError(
            f"series length {series.length} < lookback {lookback} + horizon {horizon}")
    return [WindowSample(lookback=lb, target=tg) for lb, tg in zip(lookbacks, targets)]


def chronological_split(series: MultivariateSeries,
                        ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
                        ) -> tuple[MultivariateSeries, MultivariateSeries, MultivariateSeries]:
    """Chronological train/val/test blocks of a series; EmptyResultError names an empty one."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ShapeMismatchError("split ratios must sum to 1")
    T = series.length
    cuts = (0, int(T * ratios[0]), int(T * ratios[0]) + int(T * ratios[1]), T)
    for name, start, stop in zip(("train", "val", "test"), cuts, cuts[1:]):
        if stop <= start:
            raise EmptyResultError(f"a {T}-step series split {ratios} leaves {name} empty")
    return tuple(MultivariateSeries(series.values[:, start:stop].copy(), series.variate_names)
                 for start, stop in zip(cuts, cuts[1:]))


def standardize_by_train(train: MultivariateSeries, val: MultivariateSeries,
                         test: MultivariateSeries,
                         ) -> tuple[MultivariateSeries, MultivariateSeries,
                                    MultivariateSeries, SplitStats]:
    """Per-variate z-score of all three splits using train statistics: the
    rule of :func:`~tsimg.alignment.standardize_stack` for each train
    variate, applied to val and test. A variate constant over train maps to
    all zeros and is flagged in SplitStats; its stored mean is its first
    train value, so ``z * std + mean`` gives the constant back exactly. A
    non-constant variate with no finite scale raises ShapeMismatchError.
    """
    if not (train.d == val.d == test.d):
        raise ShapeMismatchError("splits disagree on number of variates")
    train_z, mean, std, degenerate = standardize_stack(train.values[:, None])
    mean[degenerate] = train.values[degenerate, 0]
    safe_std = np.where(degenerate, 1.0, std)

    def transform(s: MultivariateSeries) -> MultivariateSeries:
        z = (s.values - mean[:, None]) / safe_std[:, None]
        z[degenerate, :] = 0.0
        return MultivariateSeries(z, s.variate_names)

    return (MultivariateSeries(train_z[:, 0], train.variate_names), transform(val), transform(test),
            SplitStats(mean=mean, std=std, degenerate=degenerate))


def gen_periodic(period: int, length: int, waveform: str = "sine",
                 seed: int = 0, noise_std: float = 0.0) -> np.ndarray:
    """Generate a perfectly periodic series plus optional Gaussian noise.

    With noise_std=0 the output satisfies x[t] == x[t + period] exactly.
    waveform is one of {"sine", "sawtooth", "composite"}.
    """
    if period < 1 or period > length:
        raise InvalidPeriodError(f"period {period} outside [1, {length}]")
    t = np.arange(length)
    phase = (t % period).astype(np.float64) / period
    if waveform == "sine":
        base = np.sin(2 * np.pi * phase)
    elif waveform == "sawtooth":
        base = 2.0 * phase - 1.0
    elif waveform == "composite":
        base = (np.sin(2 * np.pi * phase)
                + 0.5 * np.sin(4 * np.pi * phase)
                + 0.25 * np.cos(6 * np.pi * phase))
    else:
        raise ShapeMismatchError(f"unknown waveform {waveform!r}")
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        base = base + rng.normal(0.0, noise_std, size=length)
    return base


def gen_ar1(phi: float, length: int, seed: int = 0) -> np.ndarray:
    """AR(1) process x[t] = phi * x[t-1] + eps with unit-variance Gaussian
    innovations; deterministic given the seed."""
    if abs(phi) >= 1.0:
        raise UnstableCoefficientError(f"|phi| must be < 1, got {phi}")
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, 1.0, size=length)
    x = np.empty(length)
    prev = 0.0
    for t in range(length):
        prev = phi * prev + eps[t]
        x[t] = prev
    return x
