"""End-to-end glue: imaging dispatch, sample builders for the three task
frameworks, and the mask-reconstruction forecast pipeline.

A (d, H) forecast window has two entry points, both routed by task and
layout: :func:`forecast_samples` (training samples) and
:func:`forecast_window` (a (d, horizon) forecast).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import imaging
from .alignment import (
    build_forecast_mask,
    patchify,
    replicate_channels,
    resize_bilinear,
    standardize_image,
)
from .errors import HorizonTooLongError, RoutingError, ShapeMismatchError
from .imaging import GrayImage
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


def image_for_method(method: str, window: np.ndarray, L: int | None = None,
                     **kw) -> GrayImage:
    """Render one look-back window with the named imaging method.

    `window` is (H,) for univariate methods and (d, H) for mvh. For uvh,
    L defaults to the FFT-detected dominant period.
    """
    if method == "mvh":
        return imaging.mvh(MultivariateSeries(np.atleast_2d(window)))
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatchError(f"method {method!r} expects a univariate window")
    if method == "uvh":
        return imaging.uvh(x, uvh_seg_len(x, L))
    if method == "gaf":
        return imaging.gaf(x)[0]
    if method == "rp":
        return imaging.recurrence_plot(x, kw.get("embed_dim", 1), kw.get("delay", 1))
    if method == "stft":
        return imaging.stft_spectrogram(x, kw.get("window_len"), kw.get("hop"))
    if method == "wavelet":
        return imaging.wavelet_scalogram(x, kw.get("num_scales", 32))
    if method == "filterbank":
        return imaging.filterbank_spectrogram(
            x, kw.get("window_len"), kw.get("hop"), kw.get("n_filters", 32))
    if method == "lineplot":
        return imaging.lineplot_raster(x, kw.get("height", 64), kw.get("width", 64),
                                       kw.get("line_thickness", 1))
    raise ShapeMismatchError(f"unknown imaging method {method!r}")


def _per_image(block: np.ndarray, method: str):
    """The parts of a (d, T) block imaged apiece: all of it under mvh, else each row."""
    return [block] if method == "mvh" else block


def _patches(x: np.ndarray, method: str, cfg: ModelConfig, L: int | None = None,
             **kw) -> np.ndarray:
    """Framework-(b)/(c) input: `x` imaged, then resized, standardized,
    replicated and cut into patches (the shared input alignment)."""
    img = resize_bilinear(image_for_method(method, x, L=L, **kw), cfg.image_size, cfg.image_size)
    return patchify(replicate_channels(standardize_image(img)), cfg.patch_size).patches


def build_classify_sample(window: WindowSample, method: str, cfg: ModelConfig,
                          L: int | None = None, **kw) -> ClassifySample:
    """Image each variate independently (single shared image for mvh)."""
    seqs = [_patches(x, method, cfg, L, **kw) for x in _per_image(window.lookback, method)]
    return ClassifySample(patch_seqs=seqs, label=window.class_label)


def build_linear_sample(lookback: np.ndarray, target: np.ndarray, method: str,
                        cfg: ModelConfig, L: int | None = None, **kw) -> ForecastSample:
    return ForecastSample(patches=_patches(lookback, method, cfg, L, **kw),
                          target=np.asarray(target, dtype=np.float64).ravel())


# --- framework (d): mask-reconstruction forecasting -----------------------

@dataclass
class ReconstructLayout:
    """Look-back and horizon columns of a framework-(d) image before resizing."""

    lookback_cols: int
    horizon_cols: int

    @property
    def total_cols(self) -> int:
        return self.lookback_cols + self.horizon_cols


def _uvh_with_horizon(lookback: np.ndarray, seg_len: int, horizon: int,
                      horizon_values: np.ndarray | None):
    """UVH image of the look-back plus appended horizon columns.

    Horizon columns hold `horizon_values` (right-padded by repeating the
    final value) when given, else repeat the last look-back column as a
    neutral placeholder.
    """
    lb_img = imaging.uvh(lookback, seg_len)
    cols_h = math.ceil(horizon / seg_len)
    if horizon_values is None:
        hz = np.tile(lb_img.pixels[:, -1:], (1, cols_h))
    else:
        need = cols_h * seg_len
        v = np.asarray(horizon_values, dtype=np.float64)
        if v.size < need:
            v = np.concatenate([v, np.full(need - v.size, v[-1])])
        hz = v[:need].reshape(cols_h, seg_len).T
    full = np.concatenate([lb_img.pixels, hz], axis=1)
    return GrayImage(full), ReconstructLayout(lb_img.width, cols_h)


def _mvh_with_horizon(lookback: np.ndarray, horizon: int,
                      horizon_values: np.ndarray | None):
    """MVH image of the (d, H) look-back plus `horizon` time columns holding
    `horizon_values` when given, else the last look-back column repeated."""
    lookback = np.atleast_2d(np.asarray(lookback, dtype=np.float64))
    hz = (np.tile(lookback[:, -1:], (1, horizon)) if horizon_values is None
          else np.atleast_2d(np.asarray(horizon_values, dtype=np.float64)))
    full = np.concatenate([lookback, hz], axis=1)
    return GrayImage(full), ReconstructLayout(lookback.shape[1], horizon)


def _reconstruct_sample(in_img: GrayImage, tgt_img: GrayImage,
                        layout: ReconstructLayout, cfg: ModelConfig) -> ReconstructSample:
    """Framework-(d) training core shared by UVH and MVH.

    Resize both images to S x S, standardize the input, scale the target by
    the input's statistics (so the loss lives in the model's input space),
    replicate, patchify, and mask the patch columns past the look-back
    boundary.
    """
    S, P = cfg.image_size, cfg.patch_size
    in_res = resize_bilinear(in_img, S, S)
    tgt_res = resize_bilinear(tgt_img, S, S)
    std = standardize_image(in_res)
    mu, sigma = std.meta["mean"], std.meta["std"]
    safe_sigma = sigma if sigma > 0 else 1.0
    tgt_std = GrayImage((tgt_res.pixels - mu) / safe_sigma)
    in_patches = patchify(replicate_channels(std), P)
    tgt_patches = patchify(replicate_channels(tgt_std), P)
    mask = build_forecast_mask(layout.lookback_cols, layout.horizon_cols, S, P)
    return ReconstructSample(patches=in_patches.patches,
                             target_patches=tgt_patches.patches,
                             mask_rows=mask.row_mask(in_patches.patches.shape[0]))


def build_reconstruct_sample(lookback: np.ndarray, target: np.ndarray,
                             seg_len: int, cfg: ModelConfig) -> ReconstructSample:
    """UVH training sample: the input image has placeholder horizon
    columns, the target image the true horizon."""
    horizon = np.asarray(target).size
    in_img, layout = _uvh_with_horizon(lookback, seg_len, horizon, None)
    tgt_img, _ = _uvh_with_horizon(lookback, seg_len, horizon, target)
    return _reconstruct_sample(in_img, tgt_img, layout, cfg)


def build_reconstruct_sample_mvh(lookback: np.ndarray, target: np.ndarray,
                                 cfg: ModelConfig) -> ReconstructSample:
    """MVH training sample: the (d, H) matrix is extended by T' horizon
    columns (one per future time step) and masked past the look-back
    boundary."""
    horizon = np.atleast_2d(target).shape[1]
    in_img, layout = _mvh_with_horizon(lookback, horizon, None)
    tgt_img, _ = _mvh_with_horizon(lookback, horizon, target)
    return _reconstruct_sample(in_img, tgt_img, layout, cfg)


def _reconstruct_horizon(img: GrayImage, layout: ReconstructLayout,
                         params: ParamSet, cfg: ModelConfig) -> GrayImage:
    """Framework-(d) predict core shared by UVH and MVH.

    Resize `img` (look-back columns, then horizon columns) to S x S,
    standardize it, mask the patch columns past the look-back boundary,
    reconstruct them from the gray (N, P*P) patches with
    :func:`forward_reconstruct_gray`, and return the de-standardized S x S
    image. A degenerate (constant) resized image has no scale to
    de-standardize with: it is returned as is, so its constant is the
    forecast, and the model is not run.
    """
    if cfg.task != "forecast_reconstruct":
        raise RoutingError(
            f"forecast reconstruction requires task 'forecast_reconstruct', got {cfg.task!r}")
    S, P = cfg.image_size, cfg.patch_size
    resized = resize_bilinear(img, S, S)
    std = standardize_image(resized)
    if std.meta["degenerate"]:
        return resized
    g = S // P
    patches = std.pixels.reshape(g, P, g, P).swapaxes(1, 2).reshape(g * g, P * P)
    mask = build_forecast_mask(layout.lookback_cols, layout.horizon_cols, S, P)
    out = forward_reconstruct_gray(patches, mask, params, cfg)
    pixels = out.reshape(g, g, P, P).swapaxes(1, 2).reshape(S, S)
    return GrayImage(pixels * std.meta["std"] + std.meta["mean"])


def predict_forecast(lookback: np.ndarray, L: int, horizon: int,
                     params: ParamSet, cfg: ModelConfig,
                     max_horizon_cols: int = MAX_HORIZON_COLS) -> np.ndarray:
    """Framework-(d) forecast: image, mask, reconstruct, invert.

    Pipeline: uvh -> append ceil(horizon/L) placeholder columns -> resize
    to S x S -> standardize (recording mu/sigma) -> cut into gray P x P
    patches -> masked reconstruction, with the model's three identical
    input channels folded into its weights -> de-standardize -> resize
    back -> unstack -> first `horizon` recovered values. A degenerate
    (constant) resized image forecasts its constant without running the
    model.
    """
    lookback = np.asarray(lookback, dtype=np.float64)
    if math.ceil(horizon / L) > max_horizon_cols:
        raise HorizonTooLongError(
            f"horizon {horizon} needs {math.ceil(horizon / L)} columns "
            f"(max {max_horizon_cols})")
    in_img, layout = _uvh_with_horizon(lookback, L, horizon, None)
    out = _reconstruct_horizon(in_img, layout, params, cfg)
    back = resize_bilinear(out, L, layout.total_cols)
    flat_len = lookback.size + layout.horizon_cols * L
    values = imaging.uvh_inverse(back, flat_len)
    return values[lookback.size:lookback.size + horizon]


def predict_forecast_mvh(lookback: np.ndarray, horizon: int, params: ParamSet,
                         cfg: ModelConfig) -> np.ndarray:
    """MVH mask-reconstruction forecast; returns a (d, horizon) matrix.

    The (d, H) look-back gets `horizon` placeholder time columns and runs
    through the same core as :func:`predict_forecast`; the forecast is the
    horizon columns of the image resized back to (d, H + horizon).
    """
    in_img, layout = _mvh_with_horizon(lookback, horizon, None)
    out = _reconstruct_horizon(in_img, layout, params, cfg)
    back = resize_bilinear(out, in_img.height, layout.total_cols)
    return back.pixels[:, layout.lookback_cols:]


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
