import numpy as np
import pytest

from tsimg.alignment import (
    build_forecast_mask,
    check_images,
    patchify,
    replicate_channels,
    resize_bilinear,
    standardize_image,
    standardize_stack,
    unpatchify,
)
from tsimg.errors import IndivisiblePatchError, NotSquareError, ShapeMismatchError


def test_resize_same_size_identity():
    rng = np.random.default_rng(0)
    img = rng.normal(size=(4, 4))
    out = resize_bilinear(img, 4, 4)
    assert np.max(np.abs(out - img)) <= 1e-12


def test_resize_stays_in_range():
    out = resize_bilinear(np.array([[0.0, 1.0], [1.0, 0.0]]), 4, 4)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_resize_constant_preserved():
    img = np.full((3, 5), 2.5)
    for h, w in ((7, 7), (2, 9), (64, 64)):
        assert np.all(resize_bilinear(img, h, w) == 2.5)
    # unclamped, a * (1 - f) + a * f leaves this constant by 1 ulp
    v = -1.3420444532864415
    assert np.all(resize_bilinear(np.full((9, 11), v), 24, 28) == v)


def test_resize_range_bound_random():
    rng = np.random.default_rng(1)
    img = rng.normal(size=(6, 9))
    out = resize_bilinear(img, 13, 4)
    assert out.min() >= img.min() - 1e-12
    assert out.max() <= img.max() + 1e-12


def test_standardize_image_basic():
    img = standardize_image(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert abs(img.mean()) <= 1e-9
    assert abs(img.std() - 1.0) <= 1e-9


def test_standardize_image_idempotent():
    rng = np.random.default_rng(2)
    once = standardize_image(rng.normal(3.0, 5.0, size=(8, 8)))
    twice = standardize_image(once)
    assert np.max(np.abs(twice - once)) <= 1e-9


def test_standardize_image_degenerate():
    out, _, std, degenerate = standardize_stack(np.full((1, 4, 4), 7.0))
    assert np.all(out == 0.0)
    assert degenerate[0] and std[0] == 0.0


@pytest.mark.parametrize("S", [32, 64])
@pytest.mark.parametrize("v", [0.1, 1 / 3, -1.3420444532864415])
def test_standardize_constant_with_inexact_mean_is_degenerate(S, v):
    # the rounded mean of these images differs from v, so their std is not 0
    out, _, _, degenerate = standardize_stack(np.full((1, S, S), v))
    assert degenerate[0]
    assert np.all(out == 0.0)


def test_standardize_stack_refuses_an_overflowing_scale():
    # squares of 1e200-scale pixels overflow: the std reads inf, and dividing
    # by it would silently zero the image
    with np.errstate(over="ignore", invalid="ignore"):
        live = np.sin(np.arange(64.0)).reshape(8, 8)
        with pytest.raises(ShapeMismatchError):
            standardize_stack(np.stack([live, live * 1e200]))
        # a constant image has no scale to overflow, even when its mean does
        out, mu, _, degenerate = standardize_stack(np.full((1, 8, 8), 1e307))
    assert degenerate[0] and np.all(out == 0.0)


def test_check_images():
    stack = np.zeros((2, 3, 4))
    assert check_images(stack) is stack
    for bad in (np.zeros((3, 4)), np.zeros((0, 3, 4)), np.zeros((1, 0, 4)),
                np.full((1, 2, 2), np.nan), np.full((1, 2, 2), -np.inf)):
        with pytest.raises(ShapeMismatchError):
            check_images(bad)


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


def _masked_columns(m, g):
    """The patch columns a forecast mask covers; every column must be
    masked in all its g rows or in none."""
    grid = m.reshape(g, g)
    assert m.dtype == bool and not m.flags.writeable
    assert np.array_equal(grid, np.broadcast_to(grid[0], (g, g)))
    return np.flatnonzero(grid[0]).tolist()


def test_forecast_mask_symmetric_split():
    # boundary 32: the right half of the 8x8 grid
    m = build_forecast_mask(lookback_cols=4, horizon_cols=4, S=64, P=8)
    assert _masked_columns(m, 8) == [4, 5, 6, 7]


def test_forecast_mask_partial_patch_column():
    # boundary 26 falls inside patch column 3 -> that whole column masked
    m = build_forecast_mask(lookback_cols=4, horizon_cols=1, S=32, P=8)
    assert _masked_columns(m, 4) == [3]
    # boundary 24 is the edge of column 3: still only column 3
    assert _masked_columns(build_forecast_mask(3, 1, 32, 8), 4) == [3]


def test_forecast_mask_monotone_in_horizon():
    prev = np.zeros(64, dtype=bool)
    for hz in range(1, 8):
        m = build_forecast_mask(4, hz, 64, 8)
        assert not (prev & ~m).any()
        prev = m


def test_forecast_mask_zero_horizon_rejected():
    with pytest.raises(ShapeMismatchError):
        build_forecast_mask(4, 0, 64, 8)


def test_forecast_mask_narrow_horizon_masks_last_column():
    # 96 look-back columns and 1 horizon column round the boundary to S;
    # it is capped at S - 1, so the last patch column stays masked
    m = build_forecast_mask(lookback_cols=96, horizon_cols=1, S=32, P=8)
    assert np.flatnonzero(m).tolist() == [3, 7, 11, 15]
