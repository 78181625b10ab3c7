"""Input alignment: bilinear resize, per-image standardization,
patchification, 3-channel replication, and the forecast mask layout.

An image is a float64 2-D array and a stack of images one (n, H, W)
array; :func:`check_images` is the one check that a stack is non-empty and
finite. Resize and standardization work on stacks of images that share
one shape (:func:`resize_stack`, :func:`standardize_stack`);
:func:`resize_bilinear` and :func:`standardize_image` are their n = 1
case on one image. A patch is a plain float64 array: one :func:`patchify`
cuts an (n, S, S) stack into (n, N, P * P) gray patches, and
:func:`replicate_channels` makes the three identical channels that
classify and linear models take from them; the reconstruction model takes
them as they are. A forecast mask is a read-only bool (N,) array over them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import IndivisiblePatchError, NotSquareError, ShapeMismatchError


def check_images(stack: np.ndarray) -> np.ndarray:
    """`stack` itself, once checked to be an (n, H, W) stack of non-empty,
    finite images; raises ShapeMismatchError otherwise."""
    if stack.ndim != 3 or min(stack.shape) < 1:
        raise ShapeMismatchError(f"expected a stack of non-empty images, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise ShapeMismatchError("image contains NaN/Inf")
    return stack


@functools.lru_cache(maxsize=256)
def _axis_plan(n_out: int, n_in: int) -> tuple[np.ndarray, ...]:
    """Read-only (lo, hi, frac, 1 - frac) sampling arrays for one axis."""
    c = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    c = np.clip(c, 0.0, n_in - 1)
    lo = np.floor(c).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = c - lo
    plan = (lo, hi, frac, 1 - frac)
    for a in plan:
        a.setflags(write=False)
    return plan


def resize_stack(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an (n, H, W) stack of images to (n, out_h, out_w),
    with the half-pixel-center convention
    src = (dst + 0.5) * (in / out) - 0.5, clamped at the borders.

    Separable: columns are interpolated on every input row, then rows on
    that result. Each axis's sample positions and weights depend only on
    (out, in) and come from a bounded cache. Each output image is clamped
    to its input's [min, max], since rounding in a * (1 - f) + b * f can
    step 1 ulp outside it: a constant image stays exactly constant.
    Same-size resize is an exact identity.
    """
    if out_h < 1 or out_w < 1:
        raise ShapeMismatchError("output size must be >= 1")
    n, in_h, in_w = src.shape
    if (out_h, out_w) == (in_h, in_w):
        return src.copy()
    r0, r1, rf, rg = _axis_plan(out_h, in_h)
    c0, c1, cf, cg = _axis_plan(out_w, in_w)
    # take keeps every array C-contiguous, as standardize_stack's per-image
    # reductions need; each product is formed in place
    cols = _lerp(src.take(c0, axis=2), src.take(c1, axis=2), cg, cf)
    out = _lerp(cols.take(r0, axis=1), cols.take(r1, axis=1), rg[:, None], rf[:, None])
    flat = src.reshape(n, -1)       # min and max are exact in any order: one pass per image
    np.maximum(out, flat.min(axis=1)[:, None, None], out=out)
    return np.minimum(out, flat.max(axis=1)[:, None, None], out=out)


def _lerp(a: np.ndarray, b: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """a * wa + b * wb, computed in a's and b's buffers."""
    a *= wa
    b *= wb
    a += b
    return a


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """:func:`resize_stack` of one image."""
    return resize_stack(img[None], out_h, out_w)[0]


def standardize_stack(stack: np.ndarray):
    """Zero-mean, unit-std (population) standardization of each image of an
    (n, H, W) stack; returns (standardized, mean, std, degenerate), the
    last three of shape (n,).

    A degenerate image is a constant one: it becomes all zeros, its std
    reads 0 and its degenerate flag is set. Constancy is read from the
    pixel range, not from the std alone, because the rounded mean of a
    constant image can differ from the constant and leave a tiny nonzero
    std. A std that underflows to 0 is degenerate too. The stack is made
    C-contiguous first, so each image is reduced on its own as one run of
    H * W pixels, and its mean and std are bitwise those of the image
    standardized alone. A finite stack gives a finite result, or raises
    ShapeMismatchError: a non-degenerate image whose mean or std is not
    finite (its values overflow a float64 sum of squares) has no scale.
    """
    stack = np.ascontiguousarray(stack)
    n = stack.shape[0]
    flat = stack.reshape(n, -1)
    size = flat.shape[1]
    mu = flat.sum(axis=1) / size
    c = stack - mu[:, None, None]          # centred once for the std and the result
    sigma = np.sqrt((c * c).reshape(n, -1).sum(axis=1) / size)
    degenerate = (sigma == 0.0) | (flat.max(axis=1) == flat.min(axis=1))
    if degenerate.any():
        sigma[degenerate] = 0.0
        c[degenerate] = 0.0
        c /= np.where(degenerate, 1.0, sigma)[:, None, None]
    else:
        c /= sigma[:, None, None]
    # a mean that is not finite makes the std so too
    if not np.isfinite(sigma).all():
        raise ShapeMismatchError("std of a non-constant image or series is not finite")
    return c, mu, sigma, degenerate


def standardize_image(img: np.ndarray) -> np.ndarray:
    """The standardized image of :func:`standardize_stack` of one image."""
    return standardize_stack(img[None])[0][0]


def patchify(stack: np.ndarray, P: int) -> np.ndarray:
    """Cut each image of an (n, S, S) stack into non-overlapping P x P
    patches in row-major order: (n, N, P * P), each patch row-major."""
    n, S, W = stack.shape
    if S != W:
        raise NotSquareError(f"images are {S}x{W}")
    if S % P != 0:
        raise IndivisiblePatchError(f"image size {S} not divisible by patch size {P}")
    g = S // P
    return stack.reshape(n, g, P, g, P).swapaxes(2, 3).reshape(n, g * g, P * P)


def unpatchify(patches: np.ndarray, P: int) -> np.ndarray:
    """Exact inverse of :func:`patchify`: (n, N, P * P) -> (n, S, S)."""
    n, N, F = patches.shape
    g = math.isqrt(N)
    if g * g != N or F != P * P:
        raise ShapeMismatchError(
            f"{N} patches of {F} pixels do not tile a square image with P={P}")
    return patches.reshape(n, g, g, P, P).swapaxes(2, 3).reshape(n, g * P, g * P)


def replicate_channels(patches: np.ndarray) -> np.ndarray:
    """Three identical channels of (..., N, P * P) gray patches, as a
    classify or linear model's (..., N, 3 * P * P) input: each patch vector
    is channel-major, then row-major."""
    return np.concatenate([patches] * 3, axis=-1)


@functools.lru_cache(maxsize=256)
def build_forecast_mask(lookback_cols: int, horizon_cols: int, S: int, P: int) -> np.ndarray:
    """The read-only bool (N,) mask of the patches, in patchify order, whose
    column span intersects the horizon region: one cached array per set of sizes.

    The boundary column is the look-back/horizon split rescaled to the
    resized image width S, capped at S - 1 so that a horizon too narrow to
    survive the rescale still masks the last patch column: an empty mask
    would leave the model unused.
    """
    if lookback_cols < 1 or horizon_cols < 1:
        raise ShapeMismatchError("lookback_cols and horizon_cols must be >= 1")
    if S % P != 0:
        raise IndivisiblePatchError(f"S={S} not divisible by P={P}")
    total = lookback_cols + horizon_cols
    boundary = min(int(round(S * lookback_cols / total)), S - 1)
    g = S // P
    mask = np.zeros((g, g), dtype=bool)
    mask[:, boundary // P:] = True      # patch columns from the one holding the boundary
    mask = mask.reshape(-1)             # row-major: patch pr * g + pc
    mask.setflags(write=False)
    return mask
