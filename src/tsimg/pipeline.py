"""End-to-end glue: imaging dispatch, sample builders for the three task
frameworks, and the mask-reconstruction forecast pipeline.

A forecast split is (n, d, H) look-backs plus (n, d, T') targets, with two
entry points routed by task and layout: :func:`forecast_samples` (its
training samples, one :class:`~tsimg.models.Samples` stack) and
:func:`forecast_windows` (an (n, d, horizon) forecast).

The mask-reconstruction core is stacked and has one image layout: an MVH
image is the UVH layout at segment length L = 1.
:func:`build_reconstruct_samples` and :func:`predict_forecasts` take n
(d, H) windows that share one L and one horizon and resize, standardize,
patchify and mask them as (n, ., .) arrays, with one model pass per
forecast stack; the entry points call them once per split at L = 1 under
MVH and once per segment length on (m, 1, H) rows under UVH.
:func:`build_reconstruct_sample`, :func:`predict_forecast` and their
``_mvh`` twins are the n = 1 case. A UVH geometry whose horizon needs
more than MAX_HORIZON_COLS columns is refused before samples or forecasts
are built; MVH horizons are not capped.

Images are float64 arrays, checked once per stack by
:func:`~tsimg.alignment.check_images` where a non-finite value can first
appear: on :func:`image_for_method`'s output and on the stacks of the
reconstruction core. Every path cuts patches with one
:func:`~tsimg.alignment.patchify`; classify and linear images are resized one
by one, then aligned as one stack in those models' three channels. The
reconstruction model is one channel wide, so its patches stay gray.
"""

from __future__ import annotations

import math

import numpy as np

from . import imaging
from .alignment import (
    build_forecast_mask,
    check_images,
    patchify,
    replicate_channels,
    resize_bilinear,
    resize_stack,
    standardize_stack,
    unpatchify,
)
from .errors import HorizonTooLongError, InvalidLError, RoutingError, ShapeMismatchError
from .models import (
    ClassifySample,
    ForecastSample,
    ModelConfig,
    ParamSet,
    ReconstructSample,
    Samples,
    forward_reconstruct_gray,
    predict_linear,
    validate_routing,
)
from .series import MultivariateSeries, WindowSample

MAX_HORIZON_COLS = 64


def uvh_seg_len(lookback: np.ndarray, seg_len: int | None) -> int:
    """The UVH segment length: `seg_len` when given, else the FFT period."""
    return imaging.detect_period(lookback).chosen_L if seg_len is None else seg_len


def image_for_method(method: str, window: np.ndarray, *, L: int | None = None,
                     embed_dim: int = 1, delay: int = 1, window_len: int | None = None,
                     hop: int | None = None, num_scales: int = 32, n_filters: int = 32,
                     height: int = 64, width: int = 64) -> np.ndarray:
    """Render one look-back window with the named imaging method, as a
    checked non-empty, finite image.

    `window` is a non-empty, finite (H,) array for univariate methods and
    (d, H) for mvh. For uvh, L defaults to the FFT-detected dominant period.
    Each method reads only its own options; a misspelt one raises TypeError.
    """
    x = np.asarray(window, dtype=np.float64)  # each method checks its own series
    if method != "mvh" and x.ndim != 1:
        raise ShapeMismatchError(f"method {method!r} expects a univariate window")
    render = {"mvh": lambda: imaging.mvh(MultivariateSeries(np.atleast_2d(x))),
              "uvh": lambda: imaging.uvh(x, uvh_seg_len(x, L)),
              "gaf": lambda: imaging.gaf(x)[0],
              "rp": lambda: imaging.recurrence_plot(x, embed_dim, delay),
              "stft": lambda: imaging.stft_spectrogram(x, window_len, hop),
              "wavelet": lambda: imaging.wavelet_scalogram(x, num_scales),
              "filterbank": lambda: imaging.filterbank_spectrogram(x, window_len, hop, n_filters),
              "lineplot": lambda: imaging.lineplot_raster(x, height, width)}
    if method not in render:
        raise ShapeMismatchError(f"unknown imaging method {method!r}")
    return check_images(render[method]()[None])[0]


def _per_image(stack: np.ndarray, method: str) -> np.ndarray:
    """The parts of an (n, d, T) stack imaged apiece, in window-then-variate
    order: each (d, T) window under mvh, else each (T,) row."""
    return stack if method == "mvh" else stack.reshape(-1, stack.shape[-1])


def _patches(xs: np.ndarray, method: str, cfg: ModelConfig, L: int | None = None) -> np.ndarray:
    """Framework-(b)/(c) input of n rows (a split's images, say): each imaged and
    resized on its own, then standardized, patched and replicated as one stack."""
    S = cfg.image_size
    imgs = np.stack([resize_bilinear(image_for_method(method, x, L=L), S, S) for x in xs])
    return replicate_channels(patchify(standardize_stack(imgs)[0], cfg.patch_size))


def build_classify_sample(window: WindowSample, method: str, cfg: ModelConfig,
                          L: int | None = None) -> ClassifySample:
    """Image each variate independently (single shared image for mvh)."""
    xs = _per_image(window.lookback[None], method)
    return ClassifySample(patch_seqs=_patches(xs, method, cfg, L), label=window.class_label)


# --- framework (d): mask-reconstruction forecasting -----------------------
#
# The core works on a stack of n (d, H) look-backs that share one image
# geometry: one segment length L and one horizon. Each variate's UVH columns
# are stacked as rows, so an MVH image is the UVH layout at L = 1, and UVH
# passes its rows as d = 1 windows of one segment length. The per-window
# functions are the core's n = 1 case.

def _stacks(ndim: int, *arrays) -> list:
    """The arrays as float64 stacks of n >= 1 windows of `ndim` - 1 dims,
    alike and non-zero in every dim but the last (time)."""
    out = [np.asarray(a, dtype=np.float64) for a in arrays]
    shapes = [a.shape for a in out]
    if any(len(s) != ndim or s[:-1] != shapes[0][:-1] or 0 in s[:-1] for s in shapes):
        raise ShapeMismatchError(f"expected non-empty stacks of {ndim - 1}-D windows that "
                                 f"differ only in length, got shapes {shapes}")
    return out


def _with_horizon(lookbacks: np.ndarray, L: int, horizon: int,
                  values: np.ndarray | None = None):
    """Images of (n, d, H) look-backs plus appended horizon columns, as an
    (n, d * L, cols) stack, its look-back column count and its horizon
    column count: each variate's UVH image at segment length L, stacked
    as rows (at L = 1, the (d, H) window as it is).

    Horizon columns hold `values` ((n, d, T'), right-padded by repeating
    each row's final value) when given, else repeat the last look-back
    column as a neutral placeholder.
    """
    n, d, _ = lookbacks.shape
    lb = imaging.uvh_stack(lookbacks.reshape(n * d, -1), L)
    cols_h = math.ceil(horizon / L)
    if values is None:
        hz = np.repeat(lb[:, :, -1:], cols_h, axis=2)
    else:
        need = cols_h * L
        v = values.reshape(n * d, -1)
        if v.shape[1] < need:
            v = np.concatenate([v, np.repeat(v[:, -1:], need - v.shape[1], axis=1)], axis=1)
        hz = v[:, :need].reshape(n * d, cols_h, L).swapaxes(1, 2)
    return np.concatenate([lb, hz], axis=2).reshape(n, d * L, -1), lb.shape[2], cols_h


def _uvh(rows: np.ndarray, L: int, horizon: int) -> np.ndarray:
    """(m, H) UVH rows as the (m, 1, H) stack of the core, refused where
    the segment length L is not positive or leaves more than
    MAX_HORIZON_COLS horizon columns."""
    if L < 1:
        raise InvalidLError(f"L must be >= 1, got {L}")
    if math.ceil(horizon / L) > MAX_HORIZON_COLS:
        raise HorizonTooLongError(
            f"horizon {horizon} needs {math.ceil(horizon / L)} columns "
            f"(max {MAX_HORIZON_COLS})")
    return rows[:, None]


def build_reconstruct_samples(lookbacks: np.ndarray, targets: np.ndarray,
                              L: int, cfg: ModelConfig) -> Samples:
    """Framework-(d) training samples of (n, d, H) look-backs and their
    (n, d, T') targets at segment length L (1 for MVH).

    Each input image has placeholder horizon columns, each target image
    the true horizon. Resize both stacks to S x S, standardize each input
    image, scale each target by its input's statistics (so the loss lives
    in the model's input space), patchify (gray), and mask the patch
    columns past the look-back boundary. Returns the n samples as the
    stack it built: (n, N, P*P) gray patches and targets, and the one
    read-only mask broadcast to (n, N).
    """
    lookbacks, targets = _stacks(3, lookbacks, targets)
    in_stack, lb_cols, h_cols = _with_horizon(lookbacks, L, targets.shape[2])
    tgt_stack = _with_horizon(lookbacks, L, targets.shape[2], targets)[0]
    S, P = cfg.image_size, cfg.patch_size
    std, mu, sigma, degenerate = standardize_stack(resize_stack(check_images(in_stack), S, S))
    safe_sigma = np.where(degenerate, 1.0, sigma)[:, None, None]
    tgt_std = (resize_stack(check_images(tgt_stack), S, S) - mu[:, None, None]) / safe_sigma
    patches, tgt_patches = (patchify(check_images(x), P) for x in (std, tgt_std))
    mask_rows = build_forecast_mask(lb_cols, h_cols, S, P)
    return Samples(ReconstructSample, (patches, tgt_patches,
                                       np.broadcast_to(mask_rows, patches.shape[:2])))


def build_reconstruct_sample(lookback: np.ndarray, target: np.ndarray,
                             seg_len: int, cfg: ModelConfig) -> ReconstructSample:
    """UVH training sample of one (H,) look-back and its (T',) target."""
    rows = _uvh(np.reshape(lookback, (1, -1)), seg_len, np.size(target))
    return build_reconstruct_samples(rows, np.reshape(target, (1, 1, -1)), seg_len, cfg)[0]


def build_reconstruct_sample_mvh(lookback: np.ndarray, target: np.ndarray,
                                 cfg: ModelConfig) -> ReconstructSample:
    """MVH training sample of one (d, H) look-back and its (d, T') target."""
    return build_reconstruct_samples(np.atleast_2d(lookback)[None],
                                     np.atleast_2d(target)[None], 1, cfg)[0]


def predict_forecasts(lookbacks: np.ndarray, L: int, horizon: int,
                      params: ParamSet, cfg: ModelConfig) -> np.ndarray:
    """Framework-(d) forecasts of (n, d, H) look-backs at segment length L
    (1 for MVH): image, mask, reconstruct, invert; returns (n, d, horizon).

    Pipeline: each variate's uvh rows -> append ceil(horizon/L)
    placeholder columns -> resize to S x S -> standardize (recording
    mu/sigma) -> cut into gray P x P patches -> one masked reconstruction
    pass of the one-channel model over the stack -> de-standardize ->
    resize back -> unstack each variate -> its first `horizon` recovered
    values. A degenerate (constant) resized image has no scale to
    de-standardize with: it forecasts its constant without running the model.
    """
    lookbacks = _stacks(3, lookbacks)[0]
    stack, lb_cols, h_cols = _with_horizon(lookbacks, L, horizon)
    if cfg.task != "forecast_reconstruct":
        raise RoutingError(
            f"forecast reconstruction requires task 'forecast_reconstruct', got {cfg.task!r}")
    S, P = cfg.image_size, cfg.patch_size
    mask = build_forecast_mask(lb_cols, h_cols, S, P)
    resized = resize_stack(check_images(stack), S, S)
    std, mu, sigma, degenerate = standardize_stack(resized)
    if not degenerate.all():
        live = ~degenerate if degenerate.any() else slice(None)     # a slice copies nothing
        out = forward_reconstruct_gray(patchify(std[live], P), mask, params, cfg)
        resized[live] = (unpatchify(out, P) * sigma[live, None, None]
                         + mu[live, None, None])
        check_images(resized)
    n, d = lookbacks.shape[:2]
    back = resize_stack(resized, d * L, lb_cols + h_cols).reshape(n, d, L, -1)
    flat = back.swapaxes(2, 3).reshape(n, d, -1)      # each variate's columns unstacked in order
    return flat[:, :, lb_cols * L:lb_cols * L + horizon]


def predict_forecast(lookback: np.ndarray, L: int, horizon: int,
                     params: ParamSet, cfg: ModelConfig) -> np.ndarray:
    """UVH forecast of one (H,) look-back; returns (horizon,)."""
    return predict_forecasts(_uvh(np.reshape(lookback, (1, -1)), L, horizon),
                             L, horizon, params, cfg)[0, 0]


def predict_forecast_mvh(lookback: np.ndarray, horizon: int, params: ParamSet,
                         cfg: ModelConfig) -> np.ndarray:
    """MVH forecast of one (d, H) look-back; returns (d, horizon)."""
    return predict_forecasts(np.atleast_2d(lookback)[None], 1, horizon, params, cfg)[0]


# --- a forecast split, either framework ------------------------------------

def _by_seg_len(rows: np.ndarray, seg_len: int | None, run) -> list:
    """``run(idx, L)`` for the indices `idx` of the (H,) `rows` of each UVH
    segment length L (`seg_len` when given, else each row's FFT period):
    the (len(idx), ...) arrays it returns, each put back in row order."""
    lengths = np.array([uvh_seg_len(row, seg_len) for row in rows])
    out = None
    for L in np.unique(lengths):
        idx = np.flatnonzero(lengths == L)
        arrays = run(idx, int(L))
        if len(idx) == len(rows):
            return arrays                   # one segment length: already in row order
        if out is None:
            out = [np.empty((len(rows),) + a.shape[1:], a.dtype) for a in arrays]
        for o, a in zip(out, arrays):
            o[idx] = a
    return out


def forecast_samples(lookbacks: np.ndarray, targets: np.ndarray, method: str,
                     cfg: ModelConfig, seg_len: int | None = None) -> Samples:
    """Training samples of (n, d, H) look-backs and their (n, d, T') targets
    for `cfg.task`, in window-then-variate order.

    Under mvh each window is one image and one sample (a linear target is
    the flattened (d, T') block); any other method gives one sample per
    variate. `seg_len` is the UVH segment length; None takes each
    variate's FFT-detected period.
    """
    validate_routing(cfg.task, method)
    lookbacks, targets = _stacks(3, lookbacks, targets)
    if cfg.task == "forecast_reconstruct" and method == "mvh":
        return build_reconstruct_samples(lookbacks, targets, 1, cfg)
    rows, tgts = _per_image(lookbacks, method), _per_image(targets, method)
    if cfg.task != "forecast_reconstruct":
        return Samples(ForecastSample, (_patches(rows, method, cfg, seg_len),
                                        tgts.reshape(len(rows), -1)))
    return Samples(ReconstructSample, _by_seg_len(rows, seg_len, lambda idx, L: (
        build_reconstruct_samples(_uvh(rows[idx], L, tgts.shape[1]), tgts[idx][:, None],
                                  L, cfg).arrays)))


def forecast_windows(lookbacks: np.ndarray, method: str, horizon: int,
                     params: ParamSet, cfg: ModelConfig,
                     seg_len: int | None = None) -> np.ndarray:
    """Forecasts of (n, d, H) look-backs as an (n, d, horizon) array.

    Routed like :func:`forecast_samples`: mvh forecasts each window from
    one image, any other method each variate from its own.
    """
    validate_routing(cfg.task, method)
    lookbacks = _stacks(3, lookbacks)[0]
    if cfg.task == "forecast_reconstruct" and method == "mvh":
        return predict_forecasts(lookbacks, 1, horizon, params, cfg)
    rows = _per_image(lookbacks, method)
    if cfg.task == "forecast_reconstruct":
        out = _by_seg_len(rows, seg_len, lambda idx, L: [predict_forecasts(
            _uvh(rows[idx], L, horizon), L, horizon, params, cfg)[:, 0]])[0]
    else:   # one image per call: a matmul over more rows may round differently, and
        # a split's patches at once would hold three channels of every image
        out = np.stack([predict_linear(_patches(x[None], method, cfg, seg_len)[0], params, cfg)
                        for x in rows])
    return out.reshape(lookbacks.shape[:2] + (horizon,))
