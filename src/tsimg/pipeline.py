"""End-to-end glue: imaging dispatch, sample builders for the three task
frameworks, and the mask-reconstruction forecast pipeline.

A (d, H) forecast window has two entry points, both routed by task and
layout: :func:`forecast_samples` (training samples) and
:func:`forecast_window` (a (d, horizon) forecast).

The mask-reconstruction core is stacked: :func:`build_reconstruct_samples`
and :func:`predict_forecasts` (UVH, one segment length) and their ``_mvh``
twins take n windows that share one image geometry and resize,
standardize, patchify and mask them as (n, ., .) arrays, with one model
pass per forecast stack. :func:`build_reconstruct_sample`,
:func:`predict_forecast` and their ``_mvh`` twins are the n = 1 case.

Images are float64 arrays, checked once per stack by
:func:`~tsimg.alignment.check_images` where a non-finite value can first
appear: on :func:`image_for_method`'s output and on the stacks of the
reconstruction core. Every path cuts patches with one
:func:`~tsimg.alignment.patchify`; classify and linear samples hold them
replicated into the model's three channels, the rest keep them gray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import imaging
from .alignment import (
    build_forecast_mask,
    check_images,
    patchify,
    replicate_channels,
    resize_bilinear,
    resize_stack,
    standardize_image,
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
    x = np.asarray(window, dtype=np.float64)  # checked for uvh below; the rest check their own
    if method != "mvh" and x.ndim != 1:
        raise ShapeMismatchError(f"method {method!r} expects a univariate window")
    render = {"mvh": lambda: imaging.mvh(MultivariateSeries(np.atleast_2d(x))),
              "uvh": lambda: imaging.uvh(x, uvh_seg_len(imaging.check_series(x), L)),
              "gaf": lambda: imaging.gaf(x)[0],
              "rp": lambda: imaging.recurrence_plot(x, embed_dim, delay),
              "stft": lambda: imaging.stft_spectrogram(x, window_len, hop),
              "wavelet": lambda: imaging.wavelet_scalogram(x, num_scales),
              "filterbank": lambda: imaging.filterbank_spectrogram(x, window_len, hop, n_filters),
              "lineplot": lambda: imaging.lineplot_raster(x, height, width)}
    if method not in render:
        raise ShapeMismatchError(f"unknown imaging method {method!r}")
    return check_images(render[method]()[None])[0]


def _per_image(block: np.ndarray, method: str):
    """The parts of a (d, T) block imaged apiece: all of it under mvh, else each row."""
    return [block] if method == "mvh" else block


def _patches(x: np.ndarray, method: str, cfg: ModelConfig, L: int | None = None) -> np.ndarray:
    """Framework-(b)/(c) input: `x` imaged, then resized, standardized, cut
    into patches and replicated (the shared input alignment)."""
    img = resize_bilinear(image_for_method(method, x, L=L), cfg.image_size, cfg.image_size)
    return replicate_channels(patchify(standardize_image(img)[None], cfg.patch_size))[0]


def build_classify_sample(window: WindowSample, method: str, cfg: ModelConfig,
                          L: int | None = None) -> ClassifySample:
    """Image each variate independently (single shared image for mvh)."""
    seqs = [_patches(x, method, cfg, L) for x in _per_image(window.lookback, method)]
    return ClassifySample(patch_seqs=seqs, label=window.class_label)


def build_linear_sample(lookback: np.ndarray, target: np.ndarray, method: str,
                        cfg: ModelConfig, L: int | None = None) -> ForecastSample:
    return ForecastSample(patches=_patches(lookback, method, cfg, L),
                          target=np.asarray(target, dtype=np.float64).ravel())


# --- framework (d): mask-reconstruction forecasting -----------------------
#
# The core works on a stack of n windows that share one image geometry: n
# (H,) look-backs with one segment length under UVH, or n (d, H) ones under
# MVH, with one horizon. The per-window functions are its n = 1 case.

@dataclass
class ReconstructLayout:
    """Look-back and horizon columns of a framework-(d) image before resizing."""

    lookback_cols: int
    horizon_cols: int

    @property
    def total_cols(self) -> int:
        return self.lookback_cols + self.horizon_cols


def _stacks(ndim: int, *arrays) -> list:
    """The arrays as float64 stacks of n >= 1 windows of `ndim` - 1 dims,
    alike in every dim but the last (time)."""
    out = [np.asarray(a, dtype=np.float64) for a in arrays]
    shapes = [a.shape for a in out]
    if any(len(s) != ndim or s[:-1] != shapes[0][:-1] or s[0] < 1 for s in shapes):
        raise ShapeMismatchError(f"expected non-empty stacks of {ndim - 1}-D windows that "
                                 f"differ only in length, got shapes {shapes}")
    return out


def _uvh_with_horizon(lookbacks: np.ndarray, seg_len: int, horizon: int,
                      horizon_values: np.ndarray | None):
    """UVH images of (n, H) look-backs plus appended horizon columns, as an
    (n, seg_len, cols) stack and its layout.

    Horizon columns hold `horizon_values` ((n, T'), right-padded by
    repeating each row's final value) when given, else repeat the last
    look-back column as a neutral placeholder.
    """
    lb = imaging.uvh_stack(lookbacks, seg_len)
    cols_h = math.ceil(horizon / seg_len)
    if horizon_values is None:
        hz = np.repeat(lb[:, :, -1:], cols_h, axis=2)
    else:
        n, need = lookbacks.shape[0], cols_h * seg_len
        v = horizon_values
        if v.shape[1] < need:
            v = np.concatenate([v, np.repeat(v[:, -1:], need - v.shape[1], axis=1)], axis=1)
        hz = v[:, :need].reshape(n, cols_h, seg_len).swapaxes(1, 2)
    return np.concatenate([lb, hz], axis=2), ReconstructLayout(lb.shape[2], cols_h)


def _mvh_with_horizon(lookbacks: np.ndarray, horizon: int,
                      horizon_values: np.ndarray | None):
    """MVH images of (n, d, H) look-backs plus `horizon` time columns holding
    `horizon_values` ((n, d, horizon)) when given, else each look-back's
    last column repeated."""
    hz = (np.repeat(lookbacks[:, :, -1:], horizon, axis=2) if horizon_values is None
          else horizon_values)
    return (np.concatenate([lookbacks, hz], axis=2),
            ReconstructLayout(lookbacks.shape[2], horizon))


def _reconstruct_samples(in_stack: np.ndarray, tgt_stack: np.ndarray,
                         layout: ReconstructLayout, cfg: ModelConfig) -> list:
    """Framework-(d) training core shared by UVH and MVH.

    Resize both (n, h, w) stacks to S x S, standardize each input image,
    scale each target by its input's statistics (so the loss lives in the
    model's input space), patchify (gray), and mask the patch columns past
    the look-back boundary. The n samples are views into one stacked array
    each for gray patches and targets, and share one read-only mask.
    """
    S, P = cfg.image_size, cfg.patch_size
    std, mu, sigma, degenerate = standardize_stack(resize_stack(check_images(in_stack), S, S))
    safe_sigma = np.where(degenerate, 1.0, sigma)[:, None, None]
    tgt_std = (resize_stack(check_images(tgt_stack), S, S) - mu[:, None, None]) / safe_sigma
    patches, targets = (patchify(check_images(x), P) for x in (std, tgt_std))
    mask_rows = build_forecast_mask(layout.lookback_cols, layout.horizon_cols, S, P)
    return [ReconstructSample(patches=p, target_patches=t, mask_rows=mask_rows)
            for p, t in zip(patches, targets)]


def build_reconstruct_samples(lookbacks: np.ndarray, targets: np.ndarray,
                              seg_len: int, cfg: ModelConfig) -> list:
    """UVH training samples of (n, H) look-backs and their (n, T') targets,
    all with one segment length: each input image has placeholder horizon
    columns, each target image the true horizon."""
    lookbacks, targets = _stacks(2, lookbacks, targets)
    in_stack, layout = _uvh_with_horizon(lookbacks, seg_len, targets.shape[1], None)
    tgt_stack, _ = _uvh_with_horizon(lookbacks, seg_len, targets.shape[1], targets)
    return _reconstruct_samples(in_stack, tgt_stack, layout, cfg)


def build_reconstruct_sample(lookback: np.ndarray, target: np.ndarray,
                             seg_len: int, cfg: ModelConfig) -> ReconstructSample:
    """:func:`build_reconstruct_samples` of one (H,) look-back."""
    return build_reconstruct_samples(np.reshape(lookback, (1, -1)),
                                     np.reshape(target, (1, -1)), seg_len, cfg)[0]


def build_reconstruct_samples_mvh(lookbacks: np.ndarray, targets: np.ndarray,
                                  cfg: ModelConfig) -> list:
    """MVH training samples: each (d, H) look-back of an (n, d, H) stack is
    extended by T' horizon columns (one per future time step) and masked
    past the look-back boundary; `targets` is (n, d, T')."""
    lookbacks, targets = _stacks(3, lookbacks, targets)
    in_stack, layout = _mvh_with_horizon(lookbacks, targets.shape[2], None)
    tgt_stack, _ = _mvh_with_horizon(lookbacks, targets.shape[2], targets)
    return _reconstruct_samples(in_stack, tgt_stack, layout, cfg)


def build_reconstruct_sample_mvh(lookback: np.ndarray, target: np.ndarray,
                                 cfg: ModelConfig) -> ReconstructSample:
    """:func:`build_reconstruct_samples_mvh` of one (d, H) look-back."""
    return build_reconstruct_samples_mvh(np.atleast_2d(lookback)[None],
                                         np.atleast_2d(target)[None], cfg)[0]


def _reconstruct_horizons(stack: np.ndarray, layout: ReconstructLayout,
                          params: ParamSet, cfg: ModelConfig) -> np.ndarray:
    """Framework-(d) predict core shared by UVH and MVH.

    Resize each image of the (n, h, w) stack (look-back columns, then
    horizon columns) to S x S, standardize it, mask the patch columns past
    the look-back boundary, reconstruct them from the gray (n, N, P*P)
    patches with one :func:`forward_reconstruct_gray` pass, and return the
    de-standardized (n, S, S) images. A degenerate (constant) resized
    image has no scale to de-standardize with: it is returned as is, so
    its constant is the forecast, and the model does not see it.
    """
    if cfg.task != "forecast_reconstruct":
        raise RoutingError(
            f"forecast reconstruction requires task 'forecast_reconstruct', got {cfg.task!r}")
    S, P = cfg.image_size, cfg.patch_size
    mask = build_forecast_mask(layout.lookback_cols, layout.horizon_cols, S, P)
    resized = resize_stack(check_images(stack), S, S)
    std, mu, sigma, degenerate = standardize_stack(resized)
    if degenerate.all():
        return resized
    live = ~degenerate if degenerate.any() else slice(None)     # a slice copies nothing
    out = forward_reconstruct_gray(patchify(std[live], P), mask, params, cfg)
    resized[live] = (unpatchify(out, P) * sigma[live, None, None]
                     + mu[live, None, None])
    return check_images(resized)


def predict_forecasts(lookbacks: np.ndarray, L: int, horizon: int,
                      params: ParamSet, cfg: ModelConfig) -> np.ndarray:
    """Framework-(d) forecasts of (n, H) look-backs that share the segment
    length L: image, mask, reconstruct, invert; returns (n, horizon).

    Pipeline: uvh -> append ceil(horizon/L) placeholder columns -> resize
    to S x S -> standardize (recording mu/sigma) -> cut into gray P x P
    patches -> one masked reconstruction pass over the stack, with the
    model's three identical input channels folded into its weights ->
    de-standardize -> resize back -> unstack -> first `horizon` recovered
    values. A degenerate (constant) resized image forecasts its constant
    without running the model.
    """
    lookbacks = _stacks(2, lookbacks)[0]
    if L < 1:
        raise InvalidLError(f"L must be >= 1, got {L}")
    if math.ceil(horizon / L) > MAX_HORIZON_COLS:
        raise HorizonTooLongError(
            f"horizon {horizon} needs {math.ceil(horizon / L)} columns "
            f"(max {MAX_HORIZON_COLS})")
    in_stack, layout = _uvh_with_horizon(lookbacks, L, horizon, None)
    out = _reconstruct_horizons(in_stack, layout, params, cfg)
    back = resize_stack(out, L, layout.total_cols)
    flat = back.swapaxes(1, 2).reshape(back.shape[0], -1)    # columns unstacked in order
    start = flat.shape[1] - layout.horizon_cols * L           # the first horizon value
    return flat[:, start:start + horizon]


def predict_forecast(lookback: np.ndarray, L: int, horizon: int,
                     params: ParamSet, cfg: ModelConfig) -> np.ndarray:
    """:func:`predict_forecasts` of one (H,) look-back; returns (horizon,)."""
    return predict_forecasts(np.reshape(lookback, (1, -1)), L, horizon, params, cfg)[0]


def predict_forecasts_mvh(lookbacks: np.ndarray, horizon: int, params: ParamSet,
                          cfg: ModelConfig) -> np.ndarray:
    """MVH mask-reconstruction forecasts of (n, d, H) look-backs; returns
    (n, d, horizon).

    Each look-back gets `horizon` placeholder time columns and runs
    through the same core as :func:`predict_forecasts`; a forecast is the
    horizon columns of its image resized back to (d, H + horizon).
    """
    in_stack, layout = _mvh_with_horizon(_stacks(3, lookbacks)[0], horizon, None)
    out = _reconstruct_horizons(in_stack, layout, params, cfg)
    return resize_stack(out, in_stack.shape[1], layout.total_cols)[:, :, layout.lookback_cols:]


def predict_forecast_mvh(lookback: np.ndarray, horizon: int, params: ParamSet,
                         cfg: ModelConfig) -> np.ndarray:
    """:func:`predict_forecasts_mvh` of one (d, H) look-back; returns
    (d, horizon)."""
    return predict_forecasts_mvh(np.atleast_2d(lookback)[None], horizon, params, cfg)[0]


# --- one forecast window, either framework --------------------------------

def forecast_samples(window: WindowSample, method: str, cfg: ModelConfig,
                     seg_len: int | None = None) -> list:
    """Training samples of one (d, H) forecast window for `cfg.task`.

    Under mvh the whole window is one image and one sample (a linear
    target is the flattened (d, T') block); any other method gives one
    sample per variate. `seg_len` is the UVH segment length; None takes
    each variate's FFT-detected period.
    """
    validate_routing(cfg.task, method)
    pairs = zip(_per_image(window.lookback, method), _per_image(window.target, method))
    if cfg.task != "forecast_reconstruct":
        return [build_linear_sample(lb, tg, method, cfg, L=seg_len) for lb, tg in pairs]
    if method == "mvh":
        return [build_reconstruct_sample_mvh(window.lookback, window.target, cfg)]
    return [build_reconstruct_sample(lb, tg, uvh_seg_len(lb, seg_len), cfg)
            for lb, tg in pairs]


def forecast_window(lookback: np.ndarray, method: str, horizon: int,
                    params: ParamSet, cfg: ModelConfig,
                    seg_len: int | None = None) -> np.ndarray:
    """Forecast of one (d, H) look-back window as a (d, horizon) matrix.

    Routed like :func:`forecast_samples`: mvh forecasts the whole window
    from one image, any other method each variate from its own.
    """
    validate_routing(cfg.task, method)
    lookback = np.atleast_2d(np.asarray(lookback, dtype=np.float64))
    if cfg.task == "forecast_reconstruct":
        if method == "mvh":
            return predict_forecast_mvh(lookback, horizon, params, cfg)
        return np.stack([predict_forecast(lb, uvh_seg_len(lb, seg_len), horizon, params, cfg)
                         for lb in lookback])
    out = [predict_linear(_patches(x, method, cfg, seg_len), params, cfg)
           for x in _per_image(lookback, method)]
    return np.stack(out).reshape(lookback.shape[0], horizon)
