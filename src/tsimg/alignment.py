"""Input alignment: bilinear resize, per-image standardization, 3-channel
replication, patchification, and the forecast mask layout."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndivisiblePatchError, NotSquareError, ShapeMismatchError
from .imaging import GrayImage


@dataclass
class AlignedImage:
    """Three identical channels of a standardized square image."""

    channels: np.ndarray          # (3, S, S)
    source_size: tuple[int, int]
    degenerate: bool = False

    @property
    def size(self) -> int:
        return self.channels.shape[1]


@dataclass
class PatchSequence:
    """Row-major sequence of flattened patches cut from an AlignedImage."""

    patches: np.ndarray           # (N, 3 * P * P)
    grid: tuple[int, int]
    patch_size: int

    def __post_init__(self):
        n = self.grid[0] * self.grid[1]
        if self.patches.shape != (n, 3 * self.patch_size ** 2):
            raise ShapeMismatchError(
                f"patches shape {self.patches.shape} inconsistent with "
                f"grid {self.grid}, P={self.patch_size}")


@dataclass
class ForecastMask:
    """Patches whose column span overlaps the horizon region of the image."""

    masked_patch_indices: frozenset[int]
    boundary_col: int

    def row_mask(self, n_patches: int) -> np.ndarray:
        m = np.zeros(n_patches, dtype=bool)
        m[list(self.masked_patch_indices)] = True
        return m


def resize_bilinear(img: GrayImage, out_h: int, out_w: int) -> GrayImage:
    """Bilinear resize with the half-pixel-center convention
    src = (dst + 0.5) * (in / out) - 0.5, clamped at the borders.

    Same-size resize is an exact identity; output values stay inside the
    input's value range.
    """
    if out_h < 1 or out_w < 1:
        raise ShapeMismatchError("output size must be >= 1")
    src = img.pixels
    in_h, in_w = src.shape
    if (out_h, out_w) == (in_h, in_w):
        return GrayImage(src.copy())

    def axis_coords(n_out, n_in):
        c = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        c = np.clip(c, 0.0, n_in - 1)
        lo = np.floor(c).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = c - lo
        return lo, hi, frac

    r0, r1, rf = axis_coords(out_h, in_h)
    c0, c1, cf = axis_coords(out_w, in_w)
    top = src[np.ix_(r0, c0)] * (1 - cf) + src[np.ix_(r0, c1)] * cf
    bot = src[np.ix_(r1, c0)] * (1 - cf) + src[np.ix_(r1, c1)] * cf
    return GrayImage(top * (1 - rf)[:, None] + bot * rf[:, None])


def standardize_image(img: GrayImage) -> GrayImage:
    """Zero-mean, unit-std (population) standardization of a whole image.

    Constant images become all zeros with meta["degenerate"] set.
    """
    p = img.pixels
    mu = p.mean()
    sigma = p.std()
    if sigma == 0.0:
        return GrayImage(np.zeros_like(p), meta={"degenerate": True,
                                                 "mean": float(mu), "std": 0.0})
    return GrayImage((p - mu) / sigma, meta={"degenerate": False,
                                             "mean": float(mu), "std": float(sigma)})


def replicate_channels(img: GrayImage) -> AlignedImage:
    """Duplicate a square gray image into three identical channels."""
    if img.height != img.width:
        raise NotSquareError(f"image is {img.height}x{img.width}")
    ch = np.broadcast_to(img.pixels, (3,) + img.pixels.shape).copy()
    return AlignedImage(channels=ch, source_size=(img.height, img.width),
                        degenerate=bool(img.meta.get("degenerate", False)))


def patchify(img: AlignedImage, P: int) -> PatchSequence:
    """Cut an aligned image into non-overlapping P x P patches in row-major
    order; each patch vector is channel-major, then row-major."""
    S = img.size
    if S % P != 0:
        raise IndivisiblePatchError(f"image size {S} not divisible by patch size {P}")
    g = S // P
    # (3, g, P, g, P) -> (g, g, 3, P, P) -> (g*g, 3*P*P)
    blocks = img.channels.reshape(3, g, P, g, P).transpose(1, 3, 0, 2, 4)
    return PatchSequence(patches=blocks.reshape(g * g, 3 * P * P).copy(),
                         grid=(g, g), patch_size=P)


def unpatchify(seq: PatchSequence) -> AlignedImage:
    """Exact inverse of :func:`patchify`."""
    g_r, g_c = seq.grid
    P = seq.patch_size
    blocks = seq.patches.reshape(g_r, g_c, 3, P, P).transpose(2, 0, 3, 1, 4)
    ch = blocks.reshape(3, g_r * P, g_c * P)
    if ch.shape[1] != ch.shape[2]:
        raise ShapeMismatchError("unpatchify produced a non-square image")
    return AlignedImage(channels=ch.copy(), source_size=(ch.shape[1], ch.shape[2]))


def aligned_to_gray(img: AlignedImage) -> GrayImage:
    """Collapse the three (identical-by-construction) channels to one."""
    return GrayImage(img.channels.mean(axis=0))


def build_forecast_mask(lookback_cols: int, horizon_cols: int, S: int, P: int) -> ForecastMask:
    """Mask every patch whose column span intersects the horizon region.

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
    masked = set()
    for pc in range(g):
        if (pc + 1) * P > boundary:  # column span [pc*P, (pc+1)*P) hits horizon
            masked.update(pr * g + pc for pr in range(g))
    return ForecastMask(masked_patch_indices=frozenset(masked), boundary_col=boundary)
