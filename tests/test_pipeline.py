import numpy as np
import pytest

import tsimg.pipeline as pipeline
from tsimg.errors import HorizonTooLongError, RoutingError, ShapeMismatchError
from tsimg.models import ModelConfig, init_params
from tsimg.pipeline import (
    build_classify_sample,
    build_linear_sample,
    build_reconstruct_sample,
    build_reconstruct_sample_mvh,
    image_for_method,
    predict_forecast,
    predict_forecast_mvh,
)
from tsimg.series import WindowSample, gen_periodic


def test_image_for_method_dispatch():
    x = gen_periodic(8, 64, "sine")
    for method, kw in (("uvh", {}), ("gaf", {}), ("rp", {}),
                       ("stft", {"window_len": 16, "hop": 8}),
                       ("wavelet", {}),
                       ("filterbank", {"window_len": 16, "hop": 8,
                                       "n_filters": 4}),
                       ("lineplot", {})):
        img = image_for_method(method, x, **kw)
        assert img.pixels.ndim == 2
    with pytest.raises(ShapeMismatchError):
        image_for_method("polar", x)


def test_image_for_method_uvh_default_period():
    x = gen_periodic(8, 64, "sine")
    assert image_for_method("uvh", x).pixels.shape == (8, 8)


def test_build_classify_sample_per_variate():
    cfg = ModelConfig(arch="wolvm", task="classify", image_size=16,
                      patch_size=8, embed_dim=8, num_heads=2, num_classes=2,
                      num_variates=3)
    win = WindowSample(lookback=np.random.default_rng(0).normal(size=(3, 40)),
                       class_label=1)
    s = build_classify_sample(win, "gaf", cfg)
    assert len(s.patch_seqs) == 3
    assert s.patch_seqs[0].shape == (cfg.n_patches, cfg.patch_dim)
    s_mvh = build_classify_sample(win, "mvh", cfg)
    assert len(s_mvh.patch_seqs) == 1


def test_build_linear_sample_shapes():
    cfg = ModelConfig(arch="wolvm", task="forecast_linear", image_size=16,
                      patch_size=8, embed_dim=8, num_heads=2, horizon=4)
    s = build_linear_sample(gen_periodic(8, 64, "sine"), np.zeros(4), "uvh",
                            cfg, L=8)
    assert s.patches.shape == (cfg.n_patches, cfg.patch_dim)
    assert s.target.shape == (4,)


# --- stub-model exactness ------------------------------------------------
#
# With an identity "reconstruction" and odd integer resize factors the
# whole pipeline (image -> resize -> standardize -> patchify -> model ->
# invert everything) is exact, so the forecast must equal the placeholder:
# the last look-back segment repeated. On a perfectly periodic series that
# placeholder IS the true continuation.

STUB_CFG = ModelConfig(arch="minimae", task="forecast_reconstruct",
                       image_size=72, patch_size=8, embed_dim=8, num_heads=2,
                       horizon=24)


def _identity_model(monkeypatch):
    monkeypatch.setattr(pipeline, "forward_reconstruct",
                        lambda seq, mask, params, cfg: seq)


def test_predict_forecast_identity_stub_exact(monkeypatch):
    _identity_model(monkeypatch)
    L = 24
    lookback = gen_periodic(L, 168, "composite")  # 7 columns; 7+1=8 -> 72/8=9
    truth = gen_periodic(L, 168 + 24, "composite")[168:]
    params = init_params(STUB_CFG, 0)
    pred = predict_forecast(lookback, L, 24, params, STUB_CFG)
    assert pred.shape == (24,)
    assert np.max(np.abs(pred - truth)) < 1e-9


def test_predict_forecast_horizon_cap():
    params = init_params(STUB_CFG, 0)
    with pytest.raises(HorizonTooLongError):
        predict_forecast(gen_periodic(24, 168), 24, 24 * 100, params, STUB_CFG)


def test_predict_forecast_routing_guard():
    cfg = ModelConfig(arch="wolvm", task="forecast_linear", image_size=72,
                      patch_size=8, embed_dim=8, num_heads=2, horizon=24)
    with pytest.raises(RoutingError):
        predict_forecast(gen_periodic(24, 168), 24, 24, init_params(cfg, 0), cfg)


def test_build_reconstruct_sample_mask_and_targets():
    L = 24
    lookback = gen_periodic(L, 168, "sine")
    target = gen_periodic(L, 168 + 24, "sine")[168:] + 1.0  # differ from placeholder
    s = build_reconstruct_sample(lookback, target, L, STUB_CFG)
    n = STUB_CFG.n_patches
    assert s.patches.shape == (n, STUB_CFG.patch_dim)
    assert s.mask_rows.shape == (n,)
    # boundary col = round(72*7/8) = 63 lies inside patch column 7 of 9,
    # so patch columns 7 and 8 are masked
    g = STUB_CFG.grid_side
    assert s.mask_rows.sum() == 2 * g
    # lookback region identical between input and target images
    assert np.allclose(s.patches[~s.mask_rows], s.target_patches[~s.mask_rows],
                       atol=1e-9)
    assert not np.allclose(s.patches[s.mask_rows], s.target_patches[s.mask_rows])


def test_predict_forecast_mvh_identity_stub(monkeypatch):
    _identity_model(monkeypatch)
    rng = np.random.default_rng(3)
    lookback = rng.normal(size=(8, 16))  # 8 -> 72 rows (x9), 24 -> 72 cols (x3)
    params = init_params(STUB_CFG, 0)
    pred = predict_forecast_mvh(lookback, 8, params, STUB_CFG)
    assert pred.shape == (8, 8)
    expected = np.tile(lookback[:, -1:], (1, 8))
    assert np.max(np.abs(pred - expected)) < 1e-9


def test_build_reconstruct_sample_mvh_shapes():
    rng = np.random.default_rng(4)
    s = build_reconstruct_sample_mvh(rng.normal(size=(8, 16)),
                                     rng.normal(size=(8, 8)), STUB_CFG)
    assert s.patches.shape == (STUB_CFG.n_patches, STUB_CFG.patch_dim)
    assert s.mask_rows.any() and not s.mask_rows.all()


def test_trained_stub_free_round_trip_smoke():
    # end-to-end with real (untrained) weights: finite output, right shape
    cfg = ModelConfig(arch="minimae", task="forecast_reconstruct",
                      image_size=32, patch_size=8, embed_dim=16, num_heads=2,
                      horizon=24)
    pred = predict_forecast(gen_periodic(24, 96), 24, 24, init_params(cfg, 0), cfg)
    assert pred.shape == (24,) and np.all(np.isfinite(pred))


# --- narrow horizons still mask the last patch column ----------------------
#
# A horizon that is a small fraction of the image width rounds its boundary
# to S; the mask must still cover the last patch column, or the forecast
# would not depend on the model at all.

NARROW_CFG = ModelConfig(arch="minimae", task="forecast_reconstruct",
                         image_size=32, patch_size=8, embed_dim=16, num_heads=2,
                         horizon=24)


def _spy_masks(monkeypatch):
    seen = []
    real = pipeline.forward_reconstruct

    def spy(seq, mask, params, cfg):
        seen.append(mask)
        return real(seq, mask, params, cfg)

    monkeypatch.setattr(pipeline, "forward_reconstruct", spy)
    return seen


def test_predict_forecast_narrow_horizon_uses_model(monkeypatch):
    seen = _spy_masks(monkeypatch)
    lookback = gen_periodic(24, 2304, "composite")   # 96 columns + 1 horizon column
    preds = [predict_forecast(lookback, 24, 24, init_params(NARROW_CFG, seed), NARROW_CFG)
             for seed in (0, 1)]
    g = NARROW_CFG.grid_side
    assert len(seen) == 2
    assert all(sorted(m.masked_patch_indices) == [r * g + g - 1 for r in range(g)]
               for m in seen)
    assert not np.array_equal(preds[0], preds[1])


def test_predict_forecast_mvh_narrow_horizon_uses_model(monkeypatch):
    seen = _spy_masks(monkeypatch)
    lookback = np.random.default_rng(5).normal(size=(2, 96))   # 96 + 1 time columns
    preds = [predict_forecast_mvh(lookback, 1, init_params(NARROW_CFG, seed), NARROW_CFG)
             for seed in (0, 1)]
    assert len(seen) == 2
    assert all(len(m.masked_patch_indices) > 0 for m in seen)
    assert preds[0].shape == (2, 1)
    assert not np.array_equal(preds[0], preds[1])
