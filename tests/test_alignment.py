import numpy as np
import pytest

from tsimg.alignment import (
    build_forecast_mask,
    patchify,
    replicate_channels,
    resize_bilinear,
    standardize_image,
    unpatchify,
)
from tsimg.errors import IndivisiblePatchError, NotSquareError, ShapeMismatchError
from tsimg.imaging import GrayImage


def test_resize_same_size_identity():
    rng = np.random.default_rng(0)
    img = GrayImage(rng.normal(size=(4, 4)))
    out = resize_bilinear(img, 4, 4)
    assert np.max(np.abs(out.pixels - img.pixels)) <= 1e-12


def test_resize_stays_in_range():
    img = GrayImage(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = resize_bilinear(img, 4, 4)
    assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


def test_resize_constant_preserved():
    img = GrayImage(np.full((3, 5), 2.5))
    for h, w in ((7, 7), (2, 9), (64, 64)):
        assert np.all(resize_bilinear(img, h, w).pixels == 2.5)
    # unclamped, a * (1 - f) + a * f leaves this constant by 1 ulp
    v = -1.3420444532864415
    assert np.all(resize_bilinear(GrayImage(np.full((9, 11), v)), 24, 28).pixels == v)


def test_resize_range_bound_random():
    rng = np.random.default_rng(1)
    img = GrayImage(rng.normal(size=(6, 9)))
    out = resize_bilinear(img, 13, 4)
    assert out.pixels.min() >= img.pixels.min() - 1e-12
    assert out.pixels.max() <= img.pixels.max() + 1e-12


def test_standardize_image_basic():
    img = standardize_image(GrayImage(np.array([[1.0, 2.0], [3.0, 4.0]])))
    assert abs(img.pixels.mean()) <= 1e-9
    assert abs(img.pixels.std() - 1.0) <= 1e-9


def test_standardize_image_idempotent():
    rng = np.random.default_rng(2)
    once = standardize_image(GrayImage(rng.normal(3.0, 5.0, size=(8, 8))))
    twice = standardize_image(once)
    assert np.max(np.abs(twice.pixels - once.pixels)) <= 1e-9


def test_standardize_image_degenerate():
    out = standardize_image(GrayImage(np.full((4, 4), 7.0)))
    assert np.all(out.pixels == 0.0)
    assert out.meta["degenerate"]


@pytest.mark.parametrize("S", [32, 64])
@pytest.mark.parametrize("v", [0.1, 1 / 3, -1.3420444532864415])
def test_standardize_constant_with_inexact_mean_is_degenerate(S, v):
    # the rounded mean of these images differs from v, so their std is not 0
    out = standardize_image(GrayImage(np.full((S, S), v)))
    assert out.meta["degenerate"]
    assert np.all(out.pixels == 0.0)


def test_replicate_channels():
    patches = np.arange(32.0).reshape(2, 4, 4)         # 2 images of 4 gray 2x2 patches
    out = replicate_channels(patches)
    assert out.shape == (2, 4, 12)
    for c in range(3):
        assert np.array_equal(out[..., 4 * c:4 * (c + 1)], patches)


def test_patchify_not_square():
    with pytest.raises(NotSquareError):
        patchify(np.zeros((1, 4, 8)), 4)


def test_unpatchify_bad_geometry():
    with pytest.raises(ShapeMismatchError):
        unpatchify(np.zeros((1, 5, 4)), 2)             # 5 patches tile no square
    with pytest.raises(ShapeMismatchError):
        unpatchify(np.zeros((1, 4, 9)), 2)             # 9-pixel rows are not 2x2 patches


def test_patchify_counts_and_round_trip():
    rng = np.random.default_rng(3)
    for n, S, P in ((1, 4, 2), (3, 16, 8), (2, 64, 8), (1, 24, 6)):
        x = rng.normal(size=(n, S, S))
        patches = patchify(x, P)
        g = S // P
        assert patches.shape == (n, g * g, P * P)
        assert np.array_equal(unpatchify(patches, P), x)


def test_patchify_indivisible():
    with pytest.raises(IndivisiblePatchError):
        patchify(np.zeros((1, 6, 6)), 4)


def test_forecast_mask_symmetric_split():
    m = build_forecast_mask(lookback_cols=4, horizon_cols=4, S=64, P=8)
    assert m.boundary_col == 32
    assert len(m.masked_patch_indices) == 32  # right half of the 8x8 grid
    g = 8
    for idx in m.masked_patch_indices:
        assert idx % g >= 4


def test_forecast_mask_partial_patch_column():
    # boundary 26 falls inside patch column 3 -> that whole column masked
    m = build_forecast_mask(lookback_cols=4, horizon_cols=1, S=32, P=8)
    assert m.boundary_col == 26
    assert sorted(i % 4 for i in m.masked_patch_indices) == [3, 3, 3, 3]


def test_forecast_mask_monotone_in_horizon():
    prev = set()
    for hz in range(1, 8):
        m = build_forecast_mask(4, hz, 64, 8)
        assert prev <= set(m.masked_patch_indices)
        prev = set(m.masked_patch_indices)


def test_forecast_mask_zero_horizon_rejected():
    with pytest.raises(ShapeMismatchError):
        build_forecast_mask(4, 0, 64, 8)


def test_forecast_mask_narrow_horizon_masks_last_column():
    # 96 look-back columns and 1 horizon column round the boundary to S;
    # it is capped at S - 1, so the last patch column stays masked
    m = build_forecast_mask(lookback_cols=96, horizon_cols=1, S=32, P=8)
    assert m.boundary_col == 31
    assert sorted(m.masked_patch_indices) == [3, 7, 11, 15]
