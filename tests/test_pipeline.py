import numpy as np
import pytest

import tsimg.pipeline as pipeline
from tsimg.alignment import (
    build_forecast_mask,
    patchify,
    replicate_channels,
    resize_bilinear,
    standardize_stack,
    unpatchify,
)
from tsimg.errors import HorizonTooLongError, InvalidLError, RoutingError, ShapeMismatchError
from tsimg.imaging import detect_period, uvh_inverse
from tsimg.models import ModelConfig, forward_reconstruct, init_params, predict_linear
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
        assert img.ndim == 2 and img.dtype == np.float64
    with pytest.raises(ShapeMismatchError):
        image_for_method("polar", x)


def test_image_for_method_rejects_unknown_options():
    # an option no transform takes is refused, not silently dropped
    x = gen_periodic(8, 64, "sine")
    with pytest.raises(TypeError):
        image_for_method("lineplot", x, line_thickness=3)
    with pytest.raises(TypeError):
        image_for_method("uvh", x, 8)                   # L is keyword-only


@pytest.mark.parametrize("method", ["lineplot", "mvh", "uvh", "stft", "wavelet", "filterbank",
                                    "gaf", "rp"])
@pytest.mark.parametrize("window", [np.zeros(0), np.zeros((2, 0)),
                                    np.r_[np.zeros(31), np.nan, np.zeros(32)],
                                    np.r_[np.zeros(31), np.inf, np.zeros(32)],
                                    np.r_[np.zeros(31), -np.inf, np.zeros(32)]])
def test_image_for_method_rejects_empty_or_non_finite_windows(method, window):
    with pytest.raises(ShapeMismatchError):
        image_for_method(method, window)


def test_image_for_method_uvh_default_period():
    x = gen_periodic(8, 64, "sine")
    assert image_for_method("uvh", x).shape == (8, 8)


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


@pytest.mark.parametrize("method", ["uvh", "mvh"])
@pytest.mark.parametrize("v", [0.1, 1 / 3, -1.3420444532864415, 2.2])
def test_build_classify_sample_flat_window_is_zero(method, v):
    cfg = ModelConfig(arch="wolvm", task="classify", image_size=64,
                      patch_size=8, embed_dim=8, num_heads=2, num_classes=2,
                      num_variates=3)
    s = build_classify_sample(WindowSample(lookback=np.full((3, 96), v),
                                           class_label=0), method, cfg)
    assert all(np.all(p == 0.0) for p in s.patch_seqs)


# --- overflowing windows are refused, not turned into zeros ---------------

BIG_SINE = gen_periodic(8, 64, "sine") * 1e200


def test_build_classify_sample_refuses_an_overflowing_transform():
    # the recurrence plot of a 1e200-scale series holds inf distances
    cfg = ModelConfig(arch="wolvm", task="classify", image_size=16, patch_size=8,
                      embed_dim=8, num_heads=2, num_variates=1)
    with np.errstate(over="ignore"), pytest.raises(ShapeMismatchError):
        build_classify_sample(WindowSample(lookback=BIG_SINE[None], class_label=0), "rp", cfg)


def test_uvh_window_whose_std_overflows_is_refused():
    # its UVH image is finite, but the image std overflows to inf: dividing
    # by it used to give all-zero patches and targets
    cls = ModelConfig(arch="wolvm", task="classify", image_size=16, patch_size=8,
                      embed_dim=8, num_heads=2, num_variates=1)
    rec = ModelConfig(arch="minimae", task="forecast_reconstruct", image_size=16,
                      patch_size=8, embed_dim=8, num_heads=2, horizon=8)
    lookbacks = np.stack([gen_periodic(8, 64, "sine"), BIG_SINE])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ShapeMismatchError):
            build_classify_sample(WindowSample(lookback=BIG_SINE[None], class_label=0),
                                  "uvh", cls, L=8)
        with pytest.raises(ShapeMismatchError):
            build_reconstruct_sample(BIG_SINE, BIG_SINE[:8], 8, rec)
        with pytest.raises(ShapeMismatchError):
            pipeline.build_reconstruct_samples(lookbacks, lookbacks[:, :8], 8, rec)
        with pytest.raises(ShapeMismatchError):
            predict_forecast(BIG_SINE, 8, 8, init_params(rec, 0), rec)
        with pytest.raises(ShapeMismatchError):
            predict_forecast_mvh(lookbacks, 8, init_params(rec, 0), rec)


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
    monkeypatch.setattr(pipeline, "forward_reconstruct_gray",
                        lambda patches, mask, params, cfg: patches)


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


@pytest.mark.parametrize("L", [0, -3])
def test_non_positive_segment_length_is_invalid_l(L):
    params = init_params(STUB_CFG, 0)
    lookback = gen_periodic(24, 168)
    stack = np.stack([lookback, lookback + 1.0])
    with pytest.raises(InvalidLError):
        predict_forecast(lookback, L, 24, params, STUB_CFG)
    with pytest.raises(InvalidLError):
        pipeline.predict_forecasts(stack, L, 24, params, STUB_CFG)
    with pytest.raises(InvalidLError):
        pipeline.build_reconstruct_samples(stack, np.zeros((2, 24)), L, STUB_CFG)


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
    assert s.patches.shape == s.target_patches.shape == (n, STUB_CFG.patch_size ** 2)
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
    assert s.patches.shape == s.target_patches.shape == (STUB_CFG.n_patches,
                                                         STUB_CFG.patch_size ** 2)
    assert s.mask_rows.any() and not s.mask_rows.all()


def test_trained_stub_free_round_trip_smoke():
    # end-to-end with real (untrained) weights: finite output, right shape
    cfg = ModelConfig(arch="minimae", task="forecast_reconstruct",
                      image_size=32, patch_size=8, embed_dim=16, num_heads=2,
                      horizon=24)
    pred = predict_forecast(gen_periodic(24, 96), 24, 24, init_params(cfg, 0), cfg)
    assert pred.shape == (24,) and np.all(np.isfinite(pred))


# --- the single-channel core against the three-channel model ---------------
#
# The reference runs the model as trained: the standardized image
# patchified, replicated into three channels, reconstructed by
# forward_reconstruct, averaged back to one channel and unpatchified.

def _three_channel_image(img, lookback_cols, horizon_cols, params, cfg):
    S, P = cfg.image_size, cfg.patch_size
    std, mu, sigma, _ = standardize_stack(resize_bilinear(img, S, S)[None])
    patches = replicate_channels(patchify(std, P))[0]
    mask = build_forecast_mask(lookback_cols, horizon_cols, S, P)
    out = forward_reconstruct(patches, mask, params, cfg)
    gray = unpatchify(out.reshape(1, -1, 3, P * P).mean(axis=2), P)[0]
    return gray * sigma[0] + mu[0]


@pytest.mark.parametrize("arch", ["wolvm", "lvm2attn", "minimae"])
def test_predict_forecast_matches_three_channel_reference(arch):
    cfg = ModelConfig(arch=arch, task="forecast_reconstruct", image_size=32,
                      patch_size=8, embed_dim=16, num_heads=2, horizon=24)
    params = init_params(cfg, 1)
    params["dec_b"] = np.random.default_rng(2).normal(size=params["dec_b"].shape)
    for seed, L, H in ((0, 24, 96), (1, 12, 100), (2, 17, 64)):
        lookback = gen_periodic(L, H, "composite", seed=seed, noise_std=0.1)
        in_stack, lay = pipeline._uvh_with_horizon(lookback[None], L, 24, None)
        ref_img = _three_channel_image(in_stack[0], lay.lookback_cols,
                                       lay.horizon_cols, params, cfg)
        ref = uvh_inverse(resize_bilinear(ref_img, L, lay.total_cols),
                          H + lay.horizon_cols * L)[H:H + 24]
        pred = predict_forecast(lookback, L, 24, params, cfg)
        assert pred.shape == (24,) and np.max(np.abs(pred - ref)) < 1e-12

    lookback = np.random.default_rng(3).normal(size=(3, 96)) + np.arange(3.0)[:, None]
    in_img = np.concatenate([lookback, np.tile(lookback[:, -1:], (1, 24))], axis=1)
    ref = resize_bilinear(_three_channel_image(in_img, 96, 24, params, cfg),
                          3, 120)[:, 96:]
    pred = predict_forecast_mvh(lookback, 24, params, cfg)
    assert pred.shape == (3, 24) and np.max(np.abs(pred - ref)) < 1e-12


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
    real = pipeline.forward_reconstruct_gray

    def spy(patches, mask, params, cfg):
        seen.append(mask)
        return real(patches, mask, params, cfg)

    monkeypatch.setattr(pipeline, "forward_reconstruct_gray", spy)
    return seen


def test_predict_forecast_narrow_horizon_uses_model(monkeypatch):
    seen = _spy_masks(monkeypatch)
    lookback = gen_periodic(24, 2304, "composite")   # 96 columns + 1 horizon column
    preds = [predict_forecast(lookback, 24, 24, init_params(NARROW_CFG, seed), NARROW_CFG)
             for seed in (0, 1)]
    g = NARROW_CFG.grid_side
    assert len(seen) == 2
    assert all(np.flatnonzero(m).tolist() == [r * g + g - 1 for r in range(g)]
               for m in seen)
    assert not np.array_equal(preds[0], preds[1])


def test_predict_forecast_mvh_narrow_horizon_uses_model(monkeypatch):
    seen = _spy_masks(monkeypatch)
    lookback = np.random.default_rng(5).normal(size=(2, 96))   # 96 + 1 time columns
    preds = [predict_forecast_mvh(lookback, 1, init_params(NARROW_CFG, seed), NARROW_CFG)
             for seed in (0, 1)]
    assert len(seen) == 2
    assert all(m.any() for m in seen)
    assert preds[0].shape == (2, 1)
    assert not np.array_equal(preds[0], preds[1])


# --- flat look-backs ---------------------------------------------------------
#
# A constant look-back gives a degenerate image with no scale to undo: the
# forecast is the constant itself and the model is not run.

@pytest.mark.parametrize("v", [0.1, 1 / 3, -1.3420444532864415])
def test_predict_forecast_flat_lookback_is_persistence(monkeypatch, v):
    seen = _spy_masks(monkeypatch)
    pred = predict_forecast(np.full(96, v), 24, 24, init_params(NARROW_CFG, 0),
                            NARROW_CFG)
    assert pred.shape == (24,) and np.all(pred == v)
    assert seen == []


@pytest.mark.parametrize("v", [0.1, 1 / 3, -1.3420444532864415])
def test_predict_forecast_mvh_flat_lookback_is_persistence(monkeypatch, v):
    seen = _spy_masks(monkeypatch)
    pred = predict_forecast_mvh(np.full((2, 96), v), 4, init_params(NARROW_CFG, 0),
                                NARROW_CFG)
    assert pred.shape == (2, 4) and np.all(pred == v)
    assert seen == []


@pytest.mark.parametrize("v", [0.1, 1 / 3])
def test_build_reconstruct_sample_flat_lookback_target_in_raw_units(v):
    # sigma of a degenerate input is replaced by 1: the target is the raw
    # offset from the look-back level, not a division by rounding noise
    s = build_reconstruct_sample(np.full(96, v), np.full(24, v + 1.0), 24,
                                 NARROW_CFG)
    assert np.all(s.patches == 0.0)
    assert np.max(np.abs(s.target_patches)) <= 1.0 + 1e-9
    assert np.max(s.target_patches[s.mask_rows]) > 0.5


# --- one forecast window: its samples and its forecast -------------------

def _window_cfg(task, method, d=3, horizon=6):
    # the linear head of an MVH window forecasts all d variates at once
    flat = task == "forecast_linear" and method == "mvh"
    return ModelConfig(arch="minimae", task=task, image_size=16, patch_size=8,
                       embed_dim=8, num_heads=2, horizon=horizon * (d if flat else 1))


def _window(d=3, H=48, horizon=6):
    rng = np.random.default_rng(7)
    x = np.stack([gen_periodic(12, H + horizon, "composite", seed=v, noise_std=0.1)
                  for v in range(d)]) + rng.normal(size=(d, 1))
    return WindowSample(lookback=x[:, :H], target=x[:, H:])


@pytest.mark.parametrize("task", ["forecast_linear", "forecast_reconstruct"])
@pytest.mark.parametrize("method", ["uvh", "mvh"])
@pytest.mark.parametrize("seg_len", [None, 12])
def test_forecast_samples_match_builders(task, method, seg_len):
    w, cfg = _window(), _window_cfg(task, method)
    got = pipeline.forecast_samples(w, method, cfg, seg_len)
    if method == "mvh":
        want = ([build_reconstruct_sample_mvh(w.lookback, w.target, cfg)]
                if task == "forecast_reconstruct"
                else [build_linear_sample(w.lookback, w.target.reshape(-1), "mvh", cfg)])
    elif task == "forecast_reconstruct":
        want = [build_reconstruct_sample(lb, tg, seg_len or detect_period(lb).chosen_L, cfg)
                for lb, tg in zip(w.lookback, w.target)]
    else:
        want = [build_linear_sample(lb, tg, method, cfg, L=seg_len)
                for lb, tg in zip(w.lookback, w.target)]
    assert len(got) == (1 if method == "mvh" else 3)
    width = cfg.patch_size ** 2 if task == "forecast_reconstruct" else cfg.patch_dim
    for g, s in zip(got, want):
        assert g.patches.shape == (cfg.n_patches, width)
        assert vars(g).keys() == vars(s).keys()
        assert all(np.array_equal(vars(g)[k], vars(s)[k]) for k in vars(s))
    if task == "forecast_linear":
        assert all(g.target.shape == (cfg.horizon,) for g in got)


@pytest.mark.parametrize("task", ["forecast_linear", "forecast_reconstruct"])
@pytest.mark.parametrize("method", ["uvh", "mvh"])
@pytest.mark.parametrize("seg_len", [None, 12])
def test_forecast_window_matches_predict_paths(task, method, seg_len):
    w, cfg = _window(), _window_cfg(task, method)
    params = init_params(cfg, 3)
    got = pipeline.forecast_window(w.lookback, method, 6, params, cfg, seg_len)
    if task == "forecast_reconstruct":
        want = (predict_forecast_mvh(w.lookback, 6, params, cfg) if method == "mvh" else
                np.stack([predict_forecast(lb, seg_len or detect_period(lb).chosen_L, 6,
                                           params, cfg) for lb in w.lookback]))
    else:
        want = np.stack([predict_linear(s.patches, params, cfg) for s in
                         pipeline.forecast_samples(w, method, cfg, seg_len)]).reshape(3, 6)
    assert got.shape == (3, 6) and np.all(np.isfinite(got))
    assert np.array_equal(got, want)


def test_forecast_window_routes_gaf_linear_per_variate():
    w, cfg = _window(), _window_cfg("forecast_linear", "gaf")
    assert pipeline.forecast_window(w.lookback, "gaf", 6, init_params(cfg, 0), cfg).shape == (3, 6)
    assert len(pipeline.forecast_samples(w, "gaf", cfg)) == 3


def test_forecast_window_rejects_reconstruct_on_gaf():
    w, cfg = _window(), _window_cfg("forecast_reconstruct", "gaf")
    with pytest.raises(RoutingError):
        pipeline.forecast_samples(w, "gaf", cfg)
    with pytest.raises(RoutingError):
        pipeline.forecast_window(w.lookback, "gaf", 6, init_params(cfg, 0), cfg)
