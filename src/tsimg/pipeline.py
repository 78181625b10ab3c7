"""End-to-end glue: imaging dispatch, sample builders for the three task
frameworks, and the mask-reconstruction forecast pipeline."""

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
)
from .series import MultivariateSeries, WindowSample

MAX_HORIZON_COLS = 64


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
        if L is None:
            L = imaging.detect_period(x).chosen_L
        return imaging.uvh(x, L)
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


def align_image(img: GrayImage, cfg: ModelConfig):
    """Resize -> standardize -> replicate: the shared input alignment."""
    resized = resize_bilinear(img, cfg.image_size, cfg.image_size)
    std = standardize_image(resized)
    return replicate_channels(std)


def build_classify_sample(window: WindowSample, method: str, cfg: ModelConfig,
                          L: int | None = None, **kw) -> ClassifySample:
    """Image each variate independently (single shared image for mvh)."""
    if method == "mvh":
        imgs = [image_for_method("mvh", window.lookback)]
    else:
        imgs = [image_for_method(method, row, L=L, **kw) for row in window.lookback]
    seqs = [patchify(align_image(img, cfg), cfg.patch_size).patches for img in imgs]
    return ClassifySample(patch_seqs=seqs, label=window.class_label)


def build_linear_sample(lookback: np.ndarray, target: np.ndarray, method: str,
                        cfg: ModelConfig, L: int | None = None, **kw) -> ForecastSample:
    img = image_for_method(method, lookback, L=L, **kw)
    seq = patchify(align_image(img, cfg), cfg.patch_size)
    return ForecastSample(patches=seq.patches, target=np.asarray(target, dtype=np.float64))


# --- framework (d): UVH mask-reconstruction forecasting ------------------

@dataclass
class ReconstructLayout:
    """Geometry of one framework-(d) image before resizing."""

    seg_len: int
    lookback_cols: int
    horizon_cols: int
    pad: int

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
    layout = ReconstructLayout(seg_len=seg_len, lookback_cols=lb_img.width,
                               horizon_cols=cols_h, pad=lb_img.meta["pad"])
    return GrayImage(full), layout


def build_reconstruct_sample(lookback: np.ndarray, target: np.ndarray,
                             seg_len: int, cfg: ModelConfig) -> ReconstructSample:
    """Training sample: input image with placeholder horizon columns,
    target image with the true horizon, both standardized with the input's
    statistics so the loss lives in the model's input space."""
    horizon = np.asarray(target).size
    in_img, layout = _uvh_with_horizon(lookback, seg_len, horizon, None)
    tgt_img, _ = _uvh_with_horizon(lookback, seg_len, horizon, target)
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


def _reconstruct_horizon(img: GrayImage, lookback_cols: int, horizon_cols: int,
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
    mask = build_forecast_mask(lookback_cols, horizon_cols, S, P)
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
    out = _reconstruct_horizon(in_img, layout.lookback_cols, layout.horizon_cols, params, cfg)
    back = resize_bilinear(out, L, layout.total_cols)
    flat_len = lookback.size + layout.horizon_cols * L
    values = imaging.uvh_inverse(back, flat_len)
    return values[lookback.size:lookback.size + horizon]


# --- framework (d) on MVH (columns are time steps) -----------------------

def build_reconstruct_sample_mvh(lookback: np.ndarray, target: np.ndarray,
                                 cfg: ModelConfig) -> ReconstructSample:
    """MVH variant: the (d, H) matrix is extended by T' horizon columns
    (one per future time step) and masked past the look-back boundary."""
    lookback = np.atleast_2d(np.asarray(lookback, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    horizon = target.shape[1]
    placeholder = np.tile(lookback[:, -1:], (1, horizon))
    in_img = GrayImage(np.concatenate([lookback, placeholder], axis=1))
    tgt_img = GrayImage(np.concatenate([lookback, target], axis=1))
    S, P = cfg.image_size, cfg.patch_size
    in_res = resize_bilinear(in_img, S, S)
    tgt_res = resize_bilinear(tgt_img, S, S)
    std = standardize_image(in_res)
    mu, sigma = std.meta["mean"], std.meta["std"]
    safe_sigma = sigma if sigma > 0 else 1.0
    tgt_std = GrayImage((tgt_res.pixels - mu) / safe_sigma)
    in_patches = patchify(replicate_channels(std), P)
    tgt_patches = patchify(replicate_channels(tgt_std), P)
    mask = build_forecast_mask(lookback.shape[1], horizon, S, P)
    return ReconstructSample(patches=in_patches.patches,
                             target_patches=tgt_patches.patches,
                             mask_rows=mask.row_mask(in_patches.patches.shape[0]))


def predict_forecast_mvh(lookback: np.ndarray, horizon: int, params: ParamSet,
                         cfg: ModelConfig) -> np.ndarray:
    """MVH mask-reconstruction forecast; returns a (d, horizon) matrix.

    The (d, H) look-back gets `horizon` placeholder time columns and runs
    through the same core as :func:`predict_forecast`; the forecast is the
    horizon columns of the image resized back to (d, H + horizon).
    """
    lookback = np.atleast_2d(np.asarray(lookback, dtype=np.float64))
    d, H = lookback.shape
    placeholder = np.tile(lookback[:, -1:], (1, horizon))
    in_img = GrayImage(np.concatenate([lookback, placeholder], axis=1))
    out = _reconstruct_horizon(in_img, H, horizon, params, cfg)
    return resize_bilinear(out, d, H + horizon).pixels[:, H:H + horizon]
