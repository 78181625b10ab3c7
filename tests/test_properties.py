"""Property tests for the alignment and imaging contracts: resize range
and bitwise agreement with the reference formula, exact round trips, the
patch layout and the sweep windows against the explicit slice formula, a
non-empty forecast mask, the flat-spectrum threshold, the stacked
reconstruction core against a loop of single-window calls, and the gray
reconstruction loss of a batch with mixed masks."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsimg.alignment import (
    build_forecast_mask,
    patchify,
    replicate_channels,
    resize_bilinear,
    unpatchify,
)
from tsimg import pipeline
from tsimg.evaluation import ForecastTask, _split_windows
from tsimg.imaging import detect_period, uvh, uvh_inverse
from tsimg.models import ModelConfig, ReconstructSample, backward, batch_loss, init_params

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
side = st.integers(1, 24)
images = st.tuples(side, side).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite))


def reference_resize(src, out_h, out_w):
    """The per-call np.ix_ formula the plan-cached resize replaced, plus
    the same clamp to the input range."""
    in_h, in_w = src.shape

    def axis_coords(n_out, n_in):
        c = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        c = np.clip(c, 0.0, n_in - 1)
        lo = np.floor(c).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, c - lo

    r0, r1, rf = axis_coords(out_h, in_h)
    c0, c1, cf = axis_coords(out_w, in_w)
    top = src[np.ix_(r0, c0)] * (1 - cf) + src[np.ix_(r0, c1)] * cf
    bot = src[np.ix_(r1, c0)] * (1 - cf) + src[np.ix_(r1, c1)] * cf
    out = top * (1 - rf)[:, None] + bot * rf[:, None]
    return np.clip(out, src.min(), src.max())


@given(images, st.integers(1, 40), st.integers(1, 40))
def test_resize_stays_inside_input_range(src, out_h, out_w):
    out = resize_bilinear(src, out_h, out_w)
    assert out.shape == (out_h, out_w)
    assert out.min() >= src.min() and out.max() <= src.max()


@given(images, st.integers(1, 40), st.integers(1, 40))
def test_resize_bitwise_equals_reference_formula(src, out_h, out_w):
    out = resize_bilinear(src, out_h, out_w)
    if (out_h, out_w) != src.shape:
        assert np.array_equal(out, reference_resize(src, out_h, out_w))


@given(images)
def test_resize_same_size_is_exact_identity(src):
    out = resize_bilinear(src, *src.shape)
    assert np.array_equal(out, src)


# n images of a g x g grid of P x P patches
patch_stacks = st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 8)).flatmap(
    lambda ngp: st.tuples(arrays(np.float64, (ngp[0], ngp[1] * ngp[2], ngp[1] * ngp[2]),
                                 elements=finite), st.just(ngp[2])))


@given(patch_stacks)
def test_patchify_unpatchify_round_trip_bitwise(stack_and_P):
    x, P = stack_and_P
    assert np.array_equal(unpatchify(patchify(x, P), P), x)


@given(patch_stacks)
def test_patchify_layout_equals_slice_formula(stack_and_P):
    # patch k = r * g + c of image i is x[i, rP:(r+1)P, cP:(c+1)P] row-major;
    # the model's input row is that patch once per channel, channel-major
    x, P = stack_and_P
    n, S, _ = x.shape
    g = S // P
    patches = patchify(x, P)
    model_in = replicate_channels(patches)
    assert patches.shape == (n, g * g, P * P)
    assert model_in.shape == (n, g * g, 3 * P * P)
    for i in range(n):
        for k in range(g * g):
            r, c = divmod(k, g)
            ref = x[i, r * P:(r + 1) * P, c * P:(c + 1) * P].ravel()
            assert np.array_equal(patches[i, k], ref)
            assert np.array_equal(model_in[i, k], np.concatenate([ref, ref, ref]))


@given(arrays(np.float64, st.integers(1, 300), elements=finite), st.integers(1, 50))
def test_uvh_round_trip_exact(x, L):
    assert np.array_equal(uvh_inverse(uvh(x, L), x.size), x)


@given(st.integers(1, 5000), st.integers(1, 720), st.integers(1, 200),
       st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 8))
def test_forecast_mask_never_empty(lookback, horizon, L, P, g):
    S = P * g
    m = build_forecast_mask(math.ceil(lookback / L), math.ceil(horizon / L), S, P)
    assert m.shape == (g * g,) and m.dtype == bool
    assert m.reshape(g, g)[:, -1].all()


@given(st.floats(-100, 100), st.integers(4, 512), st.data())
def test_detect_period_flat_threshold(c, T, data):
    f = data.draw(st.integers(1, T // 2))
    ripple = np.cos(2 * np.pi * f * np.arange(T) / T)
    assert detect_period(c + 1e-12 * ripple).degenerate
    assert not detect_period(c + 1e-6 * ripple).degenerate


def reference_split_windows(x, lookback, horizon, stride, ratios):
    """The explicit slice formula: chronological blocks, then every
    stride-th window that fits inside its block."""
    n_train, n_val = int(x.size * ratios[0]), int(x.size * ratios[1])
    out = []
    for b in (x[:n_train], x[n_train:n_train + n_val], x[n_train + n_val:]):
        out.append([(b[s:s + lookback], b[s + lookback:s + lookback + horizon])
                    for s in range(0, b.size - lookback - horizon + 1, stride)])
    return out


@given(st.integers(1, 400), st.integers(1, 80), st.integers(0, 40), st.integers(1, 25),
       st.sampled_from([(0.7, 0.1, 0.2), (0.6, 0.2, 0.2), (0.5, 0.25, 0.25)]),
       st.integers(0, 2**32 - 1))
def test_split_windows_equals_slice_formula(T, lookback, horizon, stride, ratios, seed):
    x = np.random.default_rng(seed).normal(size=T)
    task = ForecastTask(series=x, lookback=lookback, horizon=horizon,
                        ratios=ratios, stride=stride)
    got = _split_windows(task)
    want = reference_split_windows(x, lookback, horizon, stride, ratios)
    assert [len(w) for w in got] == [len(w) for w in want]
    for g_block, w_block in zip(got, want):
        for (g_lb, g_tg), (w_lb, w_tg) in zip(g_block, w_block):
            assert g_lb.dtype == g_tg.dtype == np.float64
            assert np.array_equal(g_lb, w_lb) and np.array_equal(g_tg, w_tg)


# --- the stacked reconstruction core is a loop of single-window calls ------

GEOMETRIES = [(16, 4), (16, 8), (32, 8)]          # (image_size, patch_size)


def _model(S, P, arch):
    cfg = ModelConfig(arch=arch, task="forecast_reconstruct", image_size=S,
                      patch_size=P, embed_dim=8, num_heads=2, horizon=8)
    params = init_params(cfg, S + P)
    params["dec_b"] = np.random.default_rng(P).normal(size=params["dec_b"].shape)
    return cfg, params


MODELS = {(S, P, arch): _model(S, P, arch) for S, P in GEOMETRIES
          for arch in ("wolvm", "minimae")}


def _windows(rng, shape, flat):
    """Random windows of (n, ...) `shape` at random levels and scales;
    window i is one constant where flat[i]."""
    x = rng.normal(size=shape) * rng.uniform(0.1, 10.0) + rng.normal()
    x[flat] = rng.normal(size=(int(flat.sum()),) + (1,) * (len(shape) - 1))
    return x


def _assert_same_samples(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for k in ("patches", "target_patches", "mask_rows"):
            a, b = getattr(g, k), getattr(w, k)
            assert a.dtype == b.dtype and np.array_equal(a, b)


stack_cases = st.tuples(st.integers(1, 6), st.integers(4, 120), st.integers(1, 30),
                        st.sampled_from(sorted(MODELS)), st.data())


@given(stack_cases, st.integers(1, 30))
def test_stacked_uvh_core_equals_single_window_loop(case, L):
    n, H, horizon, key, data = case
    cfg, params = MODELS[key]
    flat = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    x = _windows(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                 (n, H + horizon), flat)
    lb, tg = x[:, :H], x[:, H:]
    _assert_same_samples(pipeline.build_reconstruct_samples(lb, tg, L, cfg),
                         [pipeline.build_reconstruct_sample(a, b, L, cfg) for a, b in zip(lb, tg)])
    got = pipeline.predict_forecasts(lb, L, horizon, params, cfg)
    want = np.stack([pipeline.predict_forecast(a, L, horizon, params, cfg) for a in lb])
    assert got.shape == (n, horizon) and np.array_equal(got, want)
    assert np.all(got[flat] == lb[flat, :1])          # a flat window is persistence


@given(stack_cases, st.integers(1, 4))
def test_stacked_mvh_core_equals_single_window_loop(case, d):
    n, H, horizon, key, data = case
    cfg, params = MODELS[key]
    flat = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    x = _windows(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                 (n, d, H + horizon), flat)
    lb, tg = x[:, :, :H], x[:, :, H:]
    _assert_same_samples(pipeline.build_reconstruct_samples_mvh(lb, tg, cfg),
                         [pipeline.build_reconstruct_sample_mvh(a, b, cfg)
                          for a, b in zip(lb, tg)])
    got = pipeline.predict_forecasts_mvh(lb, horizon, params, cfg)
    want = np.stack([pipeline.predict_forecast_mvh(a, horizon, params, cfg) for a in lb])
    assert got.shape == (n, d, horizon) and np.array_equal(got, want)
    assert np.all(got[flat] == lb[flat, :, :1])


GRAY_CFG = ModelConfig(arch="lvm2attn", task="forecast_reconstruct", image_size=16,
                       patch_size=4, embed_dim=8, num_heads=2)
GRAY_PARAMS = init_params(GRAY_CFG, 5)


@given(st.lists(st.lists(st.booleans(), min_size=GRAY_CFG.n_patches,
                         max_size=GRAY_CFG.n_patches).filter(any), min_size=1, max_size=6),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_gray_batch_loss_is_size_weighted_mean_of_parts(masks, cut, seed):
    # every sample weighs the same whatever its number of masked rows, so
    # a batch's loss is the size-weighted mean of its parts' losses
    rng = np.random.default_rng(seed)
    shape = (GRAY_CFG.n_patches, GRAY_CFG.patch_size ** 2)
    batch = [ReconstructSample(rng.normal(size=shape), rng.normal(size=shape), np.array(m))
             for m in masks]
    loss = batch_loss(batch, GRAY_PARAMS, GRAY_CFG)
    assert backward(batch, GRAY_PARAMS, GRAY_CFG)[0] == loss
    singles = [batch_loss([s], GRAY_PARAMS, GRAY_CFG) for s in batch]
    assert math.isclose(loss, np.mean(singles), rel_tol=1e-12)
    parts = [p for p in (batch[:cut], batch[cut:]) if p]
    weighted = sum(len(p) * batch_loss(p, GRAY_PARAMS, GRAY_CFG) for p in parts) / len(batch)
    assert math.isclose(loss, weighted, rel_tol=1e-12)
