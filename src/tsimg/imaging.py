"""The eight time-series-to-image transforms plus FFT period detection.

All transforms are deterministic and return a float64 2-D ndarray whose
row index is the vertical axis. Where a transform is used together with
its inverse downstream (UVH, GAF diagonal), the inverse lives next to it
here. The wavelet's Morlet daughter spectra and the filterbank's filters
come from small shape-keyed caches of read-only arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmbeddingTooLargeError,
    InvalidLError,
    LengthMismatchError,
    NonPositiveError,
    NotSquareError,
    SeriesTooShortError,
    ShapeMismatchError,
    WindowTooLongError,
)
from .series import MultivariateSeries

ROW_BLOCK = 32      # rows per temporary of a T x T image (GAF, recurrence plot)


@dataclass
class PeriodEstimate:
    """The dominant period of the FFT amplitude spectrum."""

    chosen_L: int
    degenerate: bool = False


@dataclass
class GafContext:
    """Look-back extrema used for the GAF min-max scaling; required to map
    reconstructed diagonal entries back to raw values."""

    min: float
    max: float
    degenerate: bool = False


def detect_period(x: np.ndarray) -> PeriodEstimate:
    """Dominant period of a non-empty, finite series via its FFT amplitude spectrum.

    Considers frequencies f in [1, T//2] (DC excluded), converts each to a
    period ceil(T/f), and picks the max-amplitude frequency. Amplitude ties
    break toward the lower frequency, i.e. the longer period. A flat
    spectrum (every amplitude <= 1e-8, as for a constant input) yields
    f=1, L=T with the degenerate flag set.
    """
    x = check_series(np.asarray(x, dtype=np.float64))
    T = x.size
    if T < 4:
        raise SeriesTooShortError(f"need T >= 4, got {T}")
    amps = np.abs(np.fft.rfft(x))[1:T // 2 + 1]  # f = 1 .. T//2
    top = amps.max()
    if top <= 1e-8:
        return PeriodEstimate(chosen_L=T, degenerate=True)
    # argmax takes the first maximum, so the lowest f among ties; quantize
    # to a relative 1e-9 so float noise cannot hide an exact-amplitude tie
    f = int((amps / top).round(9).argmax()) + 1
    return PeriodEstimate(chosen_L=math.ceil(T / f))


def uvh_stack(X: np.ndarray, L: int) -> np.ndarray:
    """Univariate heatmaps of the rows of an (n, T) stack: each row is
    left-padded to a multiple of L with its first value, then its length-L
    segments are stacked as columns, giving (n, L, ceil(T / L))."""
    if L < 1:
        raise InvalidLError(f"L must be >= 1, got {L}")
    n, T = X.shape
    cols = -(-T // L)  # ceil
    pad = cols * L - T
    padded = np.concatenate([np.repeat(X[:, :1], pad, axis=1), X], axis=1) if pad else X
    return padded.reshape(n, cols, L).swapaxes(1, 2)


def uvh(x: np.ndarray, L: int) -> np.ndarray:
    """:func:`uvh_stack` of one non-empty, finite series."""
    x = check_series(np.asarray(x, dtype=np.float64))
    return uvh_stack(x.reshape(1, -1), L)[0].copy()


def uvh_inverse(img: np.ndarray, original_length: int) -> np.ndarray:
    """Unstack UVH columns in order and drop the left pad."""
    total = img.size
    if total < original_length:
        raise LengthMismatchError(
            f"image holds {total} values < requested {original_length}")
    flat = img.T.reshape(-1)
    return flat[total - original_length:].copy()


def mvh(X: MultivariateSeries) -> np.ndarray:
    """Multivariate heatmap: the (d, T) matrix rendered directly."""
    return X.values.copy()


def gaf(x: np.ndarray) -> tuple[np.ndarray, GafContext]:
    """Gramian angular field (summation form).

    Min-max scales x to [0, 1], maps to angles phi = arccos(x_hat) and returns
    the T x T matrix cos(phi_i + phi_j), in one buffer. A constant input has
    no range; every x_hat is set to the midpoint 0.5 and the context flagged.
    """
    x = check_series(np.asarray(x, dtype=np.float64))
    lo, hi = float(x.min()), float(x.max())
    degenerate = hi == lo
    if degenerate:
        xh = np.full(x.size, 0.5)
    else:
        xh = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    comp = np.sqrt(np.clip(1.0 - xh * xh, 0.0, None))
    img = np.multiply.outer(xh, xh)
    for r in range(0, x.size, ROW_BLOCK):
        img[r:r + ROW_BLOCK] -= np.multiply.outer(comp[r:r + ROW_BLOCK], comp)
    return img, GafContext(min=lo, max=hi, degenerate=degenerate)


def gaf_diag_inverse(img: np.ndarray, ctx: GafContext) -> np.ndarray:
    """Recover values from the GAF diagonal: G_ii = 2*x_hat_i^2 - 1.

    Output is bounded by [ctx.min, ctx.max] by construction; diagonal
    entries outside [-1, 1] (reconstruction drift) are clamped first.
    """
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise NotSquareError(f"image has shape {img.shape}")
    diag = np.clip(np.diagonal(img), -1.0, 1.0)
    xh = np.sqrt((diag + 1.0) / 2.0)
    return ctx.min + xh * (ctx.max - ctx.min)


def recurrence_plot(x: np.ndarray, embed_dim: int = 1, delay: int = 1) -> np.ndarray:
    """Unthresholded recurrence plot: pairwise Euclidean distances between
    delay-embedded states, summed in row blocks into one (m, m) buffer."""
    x = check_series(np.asarray(x, dtype=np.float64))
    if embed_dim < 1 or delay < 1:
        raise NonPositiveError(f"embed_dim and delay must be >= 1, got {embed_dim} and {delay}")
    m = x.size - (embed_dim - 1) * delay
    if m < 1:
        raise EmbeddingTooLargeError(
            f"embedding (dim={embed_dim}, delay={delay}) leaves no states for T={x.size}")
    states = np.stack([x[j * delay:j * delay + m] for j in range(embed_dim)], axis=1)
    out = np.empty((m, m))
    for r in range(0, m, ROW_BLOCK):    # each distance is numpy's sum over its embed_dim squares
        d = states[r:r + ROW_BLOCK, None, :] - states[None, :, :]
        np.multiply(d, d, out=d).sum(axis=2, out=out[r:r + ROW_BLOCK])
    return np.sqrt(out, out=out)


def stft_spectrogram(x: np.ndarray, window_len: int | None = None,
                     hop: int | None = None) -> np.ndarray:
    """Hann-windowed magnitude spectrogram with log(1+|S|) compression.

    Rows are frequencies (window_len//2 + 1 of them), columns are frames.
    """
    return np.log1p(_stft_magnitude(x, window_len, hop))


def _stft_magnitude(x: np.ndarray, window_len: int | None, hop: int | None) -> np.ndarray:
    """Hann-windowed |rfft| of each frame, (bins, frames). The window
    defaults to min(64, T) steps and the hop to half the window."""
    x = check_series(np.asarray(x, dtype=np.float64))
    T = x.size
    if window_len is None:
        window_len = min(64, T)
    if hop is None:
        hop = max(1, window_len // 2)
    if window_len < 1 or hop < 1:
        raise NonPositiveError(f"window_len and hop must be >= 1, got {window_len} and {hop}")
    if window_len > T:
        raise WindowTooLongError(f"window {window_len} > series length {T}")
    win = np.hanning(window_len)
    n_frames = (x.size - window_len) // hop + 1
    frames = np.stack([x[i * hop:i * hop + window_len] * win for i in range(n_frames)])
    return np.abs(np.fft.rfft(frames, axis=1)).T


MORLET_W0 = 6.0    # centre frequency of the scalogram's Morlet wavelet


def morlet_fourier_period(scale: float, w0: float = MORLET_W0) -> float:
    """Equivalent Fourier period of a Morlet wavelet at a given scale."""
    return 4.0 * np.pi * scale / (w0 + np.sqrt(2.0 + w0 * w0))


def wavelet_scales(T: int, num_scales: int) -> np.ndarray:
    """The Morlet scales of :func:`wavelet_scalogram`'s rows for a length-T
    series: geometric from Fourier period 2 up to period T / 2."""
    if num_scales < 1:
        raise ShapeMismatchError("num_scales >= 1 required")
    w0 = MORLET_W0
    s0 = 2.0 * (w0 + np.sqrt(2.0 + w0 * w0)) / (4.0 * np.pi)  # Fourier period 2
    max_scale = max(s0, T / morlet_fourier_period(1.0) / 2.0)
    if num_scales == 1:
        return np.array([s0])
    return s0 * (max_scale / s0) ** (np.arange(num_scales) / (num_scales - 1))


def wavelet_scalogram(x: np.ndarray, num_scales: int = 32) -> np.ndarray:
    """Morlet CWT magnitude; row j uses scale j of :func:`wavelet_scales`."""
    x = check_series(np.asarray(x, dtype=np.float64))
    # frequency-domain CWT: conv with the wavelet = product of spectra
    return np.abs(np.fft.ifft(np.fft.fft(x) * _morlet_daughters(x.size, num_scales), axis=1))


@functools.lru_cache(maxsize=8)
def _morlet_daughters(T: int, num_scales: int) -> np.ndarray:
    """Read-only complex (num_scales, T) conjugated daughter spectra."""
    scales = wavelet_scales(T, num_scales)[:, None]
    omega = 2.0 * np.pi * np.fft.fftfreq(T)
    # L2-normalized Morlet daughter in the frequency domain
    psi_hat = (np.pi ** -0.25) * np.sqrt(2 * np.pi * scales) * \
        np.exp(-0.5 * (scales * omega - MORLET_W0) ** 2) * (omega > 0)
    daughters = np.conj(psi_hat).astype(np.complex128)
    daughters.setflags(write=False)
    return daughters


@functools.lru_cache(maxsize=8)
def _triangular_filterbank(n_filters: int, n_bins: int) -> np.ndarray:
    """Read-only (n_filters, n_bins) triangular filters evenly spaced over
    the linear frequency bins."""
    points = np.linspace(0, n_bins - 1, n_filters + 2)[:, None]
    left, center, right = points[:-2], points[1:-1], points[2:]
    bins = np.arange(n_bins, dtype=np.float64)
    up = (bins - left) / np.maximum(center - left, 1e-12)
    down = (right - bins) / np.maximum(right - center, 1e-12)
    fb = np.clip(np.minimum(up, down), 0.0, None)
    fb.setflags(write=False)
    return fb


def filterbank_spectrogram(x: np.ndarray, window_len: int | None = None,
                           hop: int | None = None, n_filters: int = 32) -> np.ndarray:
    """Triangular filterbank energies over the STFT magnitudes,
    log-compressed; rows are filters."""
    if n_filters < 1:
        raise ShapeMismatchError("n_filters >= 1 required")
    mag = _stft_magnitude(x, window_len, hop)
    fb = _triangular_filterbank(n_filters, mag.shape[0])
    return np.log1p(fb @ mag)


def check_series(x: np.ndarray) -> np.ndarray:
    """`x` itself, once checked to be non-empty and finite."""
    if x.size == 0:
        raise ShapeMismatchError(f"expected a non-empty series, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ShapeMismatchError("series contains NaN/Inf")
    return x


def lineplot_raster(x: np.ndarray, height: int = 64, width: int = 64) -> np.ndarray:
    """Binary raster of the series line plot (top row = max value).

    Consecutive points are joined with Bresenham segments; a constant
    series draws a horizontal midline. Its range must not overflow.
    """
    x = check_series(np.asarray(x, dtype=np.float64))
    if height < 2 or width < 2:
        raise ShapeMismatchError("height, width >= 2 required")
    T = x.size
    lo, hi = float(x.min()), float(x.max())
    if not math.isfinite(hi - lo):
        raise ShapeMismatchError(f"series range [{lo}, {hi}] overflows")
    if hi == lo:
        rows = np.full(T, (height - 1) // 2)
    else:
        frac = (x - lo) / (hi - lo)
        rows = np.rint((1.0 - frac) * (height - 1)).astype(int)
    cols = np.rint(np.arange(T) * (width - 1) / max(T - 1, 1)).astype(int)
    points = np.stack([rows, cols])
    img = np.zeros((height, width))
    # a segment from each point to the next; the last point's is one pixel
    img[_segment_pixels(points, np.diff(points, append=points[:, -1:]))] = 1.0
    return img


def _segment_pixels(start: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the Bresenham segments from each (row, col) column of
    `start` to start + delta, both ends included. In closed form, pixel k of
    a segment of n = max(|dr|, |dc|) steps lies (2km + n - 1) // 2n steps
    along an axis of delta m, in its direction: k along the major axis."""
    n = np.abs(delta).max(axis=0)
    counts = n + 1
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    n_k = np.repeat(np.maximum(n, 1), counts)  # a zero-length segment has only k = 0
    d = np.repeat(delta, counts, axis=1)
    return tuple(np.repeat(start, counts, axis=1)
                 + np.sign(d) * ((2 * k * np.abs(d) + n_k - 1) // (2 * n_k)))


# canonical method names used by the CLI and routing checks
IMAGING_METHODS = ("lineplot", "mvh", "uvh", "stft", "wavelet", "filterbank",
                   "gaf", "rp")
VALUE_PRESERVING_METHODS = ("uvh", "mvh")
