"""Each expression trimmed to fewer numpy calls on the forecast path, pinned
bit for bit to the expression it replaced, kept here as the oracle: the
period pick, the bilinear resize and its clamp, the forecast mask cache,
the attention row max, the attention layer norm forward and backward,
the one-channel reconstruction model against the three-channel one whose
weights it folds, the MSE, and the one framework-(d) image layout against
its UVH and MVH forms."""

import inspect
import itertools
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tsimg import imaging, models, pipeline
from tsimg.alignment import _axis_plan, build_forecast_mask, resize_stack
from tsimg.errors import IndivisiblePatchError, ShapeMismatchError
from tsimg.evaluation import metric_mse
from tsimg.imaging import detect_period
from tsimg.models import (
    ARCHS,
    ModelConfig,
    _draw_params,
    forward_attention,
    forward_reconstruct_gray,
    init_params,
)


# --- detect_period: argmax against the stable argsort -------------------------

def period_oracle(x):
    """(chosen_L, degenerate) as the stable argsort on -amplitude picked it."""
    T = x.size
    amps = np.abs(np.fft.rfft(x))[1:T // 2 + 1]
    if amps.max() <= 1e-8:
        return T, True
    quantized = np.round(amps / amps.max(), 9)
    f = int(np.argsort(-quantized, kind="stable")[0]) + 1
    return math.ceil(T / f), False


@st.composite
def period_series(draw):
    T = draw(st.integers(4, 400))
    kind = draw(st.sampled_from(["noise", "tie", "flat", "tiny"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(T)
    if kind == "noise":
        return rng.normal(size=T) * rng.uniform(0.01, 100.0) + rng.normal()
    if kind == "tie":       # equal-amplitude bins: an exact tie once quantized
        f1, f2 = sorted(rng.choice(np.arange(1, max(2, T // 2)), size=2, replace=True))
        return np.cos(2 * np.pi * f1 * t / T) + np.cos(2 * np.pi * f2 * t / T + rng.uniform())
    if kind == "flat":
        return np.full(T, rng.normal() * 10.0)
    return rng.normal() + rng.normal(size=T) * 1e-12     # a spectrum under the 1e-8 floor


@given(period_series())
@example(np.sin(2 * np.pi * 4 * np.arange(64) / 64) + np.sin(2 * np.pi * 8 * np.arange(64) / 64))
def test_detect_period_equals_stable_argsort_pick(x):
    est = detect_period(x)
    assert (est.chosen_L, est.degenerate) == period_oracle(x)


# --- resize_stack: .take and one flat clamp against np.take and axis=(1, 2) ----

def resize_oracle(src, out_h, out_w):
    """resize_stack as written with np.take and a clamp over axis=(1, 2)."""
    _, in_h, in_w = src.shape
    if (out_h, out_w) == (in_h, in_w):
        return src.copy()
    r0, r1, rf, rg = _axis_plan(out_h, in_h)
    c0, c1, cf, cg = _axis_plan(out_w, in_w)
    a, b = np.take(src, c0, axis=2), np.take(src, c1, axis=2)
    a *= cg
    b *= cf
    a += b
    top, bot = np.take(a, r0, axis=1), np.take(a, r1, axis=1)
    top *= rg[:, None]
    bot *= rf[:, None]
    top += bot
    np.maximum(top, src.min(axis=(1, 2), keepdims=True), out=top)
    return np.minimum(top, src.max(axis=(1, 2), keepdims=True), out=top)


@st.composite
def resize_cases(draw):
    n, h, w = draw(st.integers(1, 6)), draw(st.integers(1, 20)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["contiguous", "constant", "transposed", "strided"]))
    if layout == "transposed":        # an (n, h, w) view of a (w, h, n) array
        src = (rng.normal(size=(w, h, n)) * 100.0).T
    elif layout == "strided":         # every other row and column, reversed
        src = rng.normal(size=(n, 2 * h, 2 * w))[:, ::-2, ::2]
    else:
        src = rng.normal(size=(n, h, w)) * rng.uniform(0.01, 1e3)
        if layout == "constant":
            src[:] = rng.normal(size=(n, 1, 1))
    return src, draw(st.integers(1, 40)), draw(st.integers(1, 40))


@given(resize_cases())
def test_resize_stack_equals_np_take_oracle(case):
    src, out_h, out_w = case
    got, want = resize_stack(src, out_h, out_w), resize_oracle(src, out_h, out_w)
    assert got.shape == want.shape == (src.shape[0], out_h, out_w)
    assert got.tobytes() == want.tobytes()


# --- build_forecast_mask: one cached read-only mask, errors every time ---------

def test_forecast_mask_is_one_shared_read_only_array():
    first = build_forecast_mask(4, 1, 32, 8)
    assert build_forecast_mask(4, 1, 32, 8) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = True


@pytest.mark.parametrize("args, error", [((0, 1, 32, 8), ShapeMismatchError),
                                         ((4, 0, 32, 8), ShapeMismatchError),
                                         ((4, 1, 30, 8), IndivisiblePatchError)])
def test_forecast_mask_refuses_bad_sizes_on_every_call(args, error):
    for _ in range(3):
        with pytest.raises(error):
            build_forecast_mask(*args)


# --- forward_attention: the row max and the layer norm against A.max and np.mean ---

def attention_oracle(tokens, params, num_heads):
    """forward_attention's output, xhat and inv_std with np.mean and np.sqrt(dh)."""
    lead, (N, D) = tokens.shape[:-2], tokens.shape[-2:]
    dh = D // num_heads
    x = tokens.reshape(-1, D)
    Qh, Kh, Vh = (models._split_heads(x @ params[w], lead, N, num_heads)
                  for w in ("wq", "wk", "wv"))
    A = Qh @ Kh.swapaxes(-1, -2)
    A /= np.sqrt(dh, dtype=A.dtype)
    A -= A.max(axis=-1, keepdims=True)
    np.exp(A, out=A)
    A /= A.sum(axis=-1, keepdims=True)
    z = x + models._merge_heads(A @ Vh) @ params["wo"]
    z -= z.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt((z * z).mean(axis=1, keepdims=True) + models.LN_EPS)
    xhat = z * inv_std
    return (params["ln_g"] * xhat + params["ln_b"]).reshape(tokens.shape), xhat, inv_std


@pytest.mark.parametrize("B", [1, 16, 64])
@pytest.mark.parametrize("D, heads", [(32, 4), (8, 2), (12, 3)])
def test_attention_layer_norm_equals_np_mean_form(B, D, heads):
    for S, dtype in itertools.product([8, 24, 32, 64], [np.float32, np.float64]):  # N = 1-64
        cfg = ModelConfig(arch="minimae", task="forecast_reconstruct", image_size=S,
                          patch_size=8, embed_dim=D, num_heads=heads)
        rng = np.random.default_rng(B * D + S)
        params = {k: v.astype(dtype) for k, v in _draw_params(cfg, seed=B + D).items()}
        params["ln_g"] = rng.normal(size=D).astype(dtype)
        params["ln_b"] = rng.normal(size=D).astype(dtype)
        tokens = (rng.normal(size=(B, cfg.n_patches, D)) * 3.0).astype(dtype)
        out, cache = forward_attention(tokens, params, heads)
        want, xhat, inv_std = attention_oracle(tokens, params, heads)
        case = f"N={cfg.n_patches} {dtype.__name__}"
        assert out.dtype == dtype, case
        assert out.tobytes() == want.tobytes(), case
        assert cache["xhat"].tobytes() == xhat.tobytes(), case
        assert cache["inv_std"].tobytes() == inv_std.tobytes(), case


def row_shift(A):
    """forward_attention's softmax shift, copied from its source (the test below checks that)."""
    N = A.shape[-1]
    return A.reshape(len(A), -1, N).swapaxes(-1, -2).copy().max(axis=-2).reshape(A.shape[:-1] + (1,))


def test_row_shift_is_forward_attentions_line():
    expr = inspect.getsource(row_shift).splitlines()[-1].strip().removeprefix("return ")
    assert f"A -= {expr}\n" in inspect.getsource(forward_attention)


# values a score row can take: ties, both zeros, both infinities and NaN
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e4, -1e4]


@given(st.sampled_from(["h", "B h", "B V h"]), st.integers(1, 70), st.integers(1, 3),
       st.integers(1, 4), st.integers(1, 70), st.sampled_from([np.float32, np.float64]),
       st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.booleans(), st.integers(0, 2**32 - 1))
@example("B h", 16, 1, 4, 9, np.float32, 0.05, False, 0)
@example("B h", 16, 1, 4, 16, np.float32, 0.5, True, 1)
@example("B V h", 3, 3, 4, 64, np.float64, 0.05, False, 2)
def test_row_shift_equals_the_row_max(lead, B, V, h, N, dtype, special, small_ints, seed):
    rng = np.random.default_rng(seed)
    shape = {"h": (h,), "B h": (B, h), "B V h": (B, V, h)}[lead] + (N, N)
    A = (rng.integers(-2, 3, size=shape) if small_ints else rng.normal(size=shape)).astype(dtype)
    picks = rng.random(shape) < special
    A[picks] = rng.choice(np.array(SPECIAL, dtype), size=int(picks.sum()))
    got, want = row_shift(A), A.max(axis=-1, keepdims=True)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    # a max is exact, but which zero a row of +0 and -0 ties at depends on the
    # order numpy reduces in; only those rows may differ in the sign of zero
    zero_tie = ((A == 0) & np.signbit(A)).any(-1, keepdims=True) \
        & ((A == 0) & ~np.signbit(A)).any(-1, keepdims=True) & (want == 0)
    assert np.array_equal(np.signbit(got) | zero_tie, np.signbit(want) | zero_tie)
    # either zero shifts every score to the same value under exp, so the
    # softmax numerators are the same bits
    with np.errstate(invalid="ignore"):
        assert np.exp(A - got).tobytes() == np.exp(A - want).tobytes()


# --- backward_attention: the layer-norm means against np.mean ---------------------

def attention_backward_oracle(d_out, cache, params, grads):
    """backward_attention with its two layer-norm means taken by np.mean."""
    x, xhat, inv_std, A = cache["x"], cache["xhat"], cache["inv_std"], cache["A"]
    Qh, Kh, Vh = cache["Qh"], cache["Kh"], cache["Vh"]
    g = d_out.reshape(x.shape)
    grads["ln_g"] += (g * xhat).sum(axis=0)
    grads["ln_b"] += g.sum(axis=0)
    d_xhat = g * params["ln_g"]
    dz = inv_std * (d_xhat
                    - d_xhat.mean(axis=1, keepdims=True)
                    - xhat * (d_xhat * xhat).mean(axis=1, keepdims=True))
    grads["wo"] += cache["O"].T @ dz
    dOh = models._split_heads(dz @ params["wo"].T, A.shape[:-3], A.shape[-1], A.shape[-3])
    d_scores = dOh @ Vh.swapaxes(-1, -2)
    d_scores -= (d_scores * A).sum(axis=-1, keepdims=True)
    d_scores *= A
    scale = 1.0 / math.sqrt(Qh.shape[-1])    # a Python float keeps a float32 model float32
    dQ = models._merge_heads(d_scores @ Kh * scale)
    dK = models._merge_heads(d_scores.swapaxes(-1, -2) @ Qh * scale)
    dV = models._merge_heads(A.swapaxes(-1, -2) @ dOh)
    grads["wq"] += x.T @ dQ
    grads["wk"] += x.T @ dK
    grads["wv"] += x.T @ dV
    d_tokens = dz + dQ @ params["wq"].T + dK @ params["wk"].T + dV @ params["wv"].T
    return d_tokens.reshape(d_out.shape)


@pytest.mark.parametrize("B", [1, 16, 64])
@pytest.mark.parametrize("D, heads", [(32, 4), (8, 2), (12, 3)])
def test_attention_backward_layer_norm_equals_np_mean_form(B, D, heads):
    # in float64 and in float32 (parameters, ln_g, tokens and d_out), bitwise
    # in both: the float32 tolerance is 0 eps
    cfg = ModelConfig(arch="minimae", task="forecast_reconstruct", image_size=32,
                      patch_size=8, embed_dim=D, num_heads=heads)
    for dtype in (np.float64, np.float32):
        rng = np.random.default_rng(B * D + 1)
        params = {k: v.astype(dtype) for k, v in init_params(cfg, seed=B + D).items()}
        params["ln_g"] = rng.normal(size=D).astype(dtype)
        tokens = (rng.normal(size=(B, cfg.n_patches, D)) * 3.0).astype(dtype)
        d_out = rng.normal(size=tokens.shape).astype(dtype)
        _, cache = forward_attention(tokens, params, heads)
        got = {k: np.zeros_like(p) for k, p in params.items()}
        want = {k: np.zeros_like(p) for k, p in params.items()}
        d_tokens = models.backward_attention(d_out, cache, params, got)
        assert d_tokens.dtype == dtype
        want_tokens = attention_backward_oracle(d_out, cache, params, want)
        assert d_tokens.tobytes() == want_tokens.tobytes(), dtype
        for k in params:
            assert got[k].tobytes() == want[k].tobytes(), (dtype, k)


# --- the one-channel reconstruction model against the three-channel one ------
#
# The oracle is the three-channel model the reconstruct task had before it
# became one channel wide: its float64 draw, and its forward on gray
# patches, which folded the weights on every call (_gray_embed and the
# decoder fold, copied verbatim). The one-channel draw is that draw folded
# once, by block adds in np.sum's and np.mean's order, so an untrained model
# forecasts the same bits. test_models and test_pipeline take their
# three-channel references from here.

def three_channel_draw(cfg, seed):
    """The reconstruct task's float64 draw at three channels: embed_w
    (3 * P * P, D), dec_w (D, 3 * P * P), dec_b (3 * P * P,)."""
    rng = np.random.default_rng(seed)
    D, N, F = cfg.embed_dim, cfg.n_patches, 3 * cfg.patch_size ** 2
    p = {
        "embed_w": models._xavier(rng, F, D),
        "embed_b": np.zeros(D),
        "pos": rng.normal(0.0, 0.02, size=(N, D)),
    }
    if cfg.arch == "wolvm":
        p["body_w"] = models._xavier(rng, D, D)
        p["body_b"] = np.zeros(D)
    else:
        for name in ("wq", "wk", "wv", "wo"):
            p[name] = models._xavier(rng, D, D)
        p["ln_g"] = np.ones(D)
        p["ln_b"] = np.zeros(D)
    p["mask_token"] = rng.normal(0.0, 0.02, size=D)
    p["dec_w"] = models._xavier(rng, D, F)
    p["dec_b"] = np.zeros(F)
    return p


def _gray_embed(params, P2: int) -> dict:
    """`params` with embed_w's three channel blocks summed, to embed gray P2-pixel patches."""
    F, D = params["embed_w"].shape
    if F != 3 * P2:
        raise ShapeMismatchError(f"gray patch width {P2}, expected embed_w fan-in / 3 = {F / 3:g}")
    e = params["embed_w"].reshape(3, P2, D)
    return dict(params, embed_w=e[0] + e[1] + e[2])      # sum(axis=0)'s order


def three_channel_reconstruct(patches, mask, params, cfg):
    """The forward on the (N, 3 * P * P) patches of one image, as the
    three-channel model ran it on a gray image replicated into channels."""
    mask_rows = models._checked_mask(mask, patches.shape[0])
    out = patches.copy()
    out[mask_rows] = models._forward(patches, params, cfg, mask_rows)[0]
    return out


def three_channel_reconstruct_gray(patches, mask, params, cfg):
    """The forward on (..., N, P*P) gray patches of a three-channel model."""
    folded = _gray_embed(params, patches.shape[-1])
    P2, D = folded["embed_w"].shape
    if params["dec_w"].shape != (D, 3 * P2):
        raise ShapeMismatchError(
            f"dec_w {params['dec_w'].shape} does not fit three channels of {P2}-pixel patches")
    # the one (..., N) row mask; forward_embed builds its one inverse
    mask_rows = np.zeros(patches.shape[:-1], dtype=bool) | models._checked_mask(
        mask, patches.shape[-2])
    w, b = params["dec_w"].reshape(D, 3, P2).swapaxes(0, 1), params["dec_b"].reshape(3, P2)
    folded.update(dec_w=(w[0] + w[1] + w[2]) / 3, dec_b=(b[0] + b[1] + b[2]) / 3)  # mean's order
    out = patches.copy()
    out[mask_rows] = models._forward(patches, folded, cfg, mask_rows)[0]
    return out


@given(st.sampled_from(ARCHS), st.integers(1, 9), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_gray_embed_fold_equals_block_sum(arch, P, D, seed):
    cfg = ModelConfig(arch=arch, task="forecast_reconstruct", image_size=P, patch_size=P,
                      embed_dim=D, num_heads=1)
    w = three_channel_draw(cfg, seed)["embed_w"]
    got = _draw_params(cfg, seed)["embed_w"]
    assert got.tobytes() == w.reshape(3, P * P, D).sum(axis=0).tobytes()
    assert got.tobytes() == _gray_embed({"embed_w": w}, P * P)["embed_w"].tobytes()


@given(st.sampled_from(ARCHS), st.sampled_from([(8, 2), (8, 4), (16, 4), (24, 8), (32, 8)]),
       st.sampled_from([(4, 1), (8, 2), (32, 4)]), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_reconstruct_gray_folds_equal_sum_and_mean(arch, geometry, width, n, seed):
    (S, P), (D, heads) = geometry, width
    cfg = ModelConfig(arch=arch, task="forecast_reconstruct", image_size=S, patch_size=P,
                      embed_dim=D, num_heads=heads)
    rng = np.random.default_rng(seed)
    three = three_channel_draw(cfg, seed % 1000)
    three["dec_b"] = rng.normal(size=3 * P * P)
    params = _draw_params(cfg, seed % 1000)
    assert params.keys() == three.keys()
    params["dec_b"] = three["dec_b"].reshape(3, P * P).mean(axis=0)
    for k in params.keys() - {"embed_w", "dec_w", "dec_b"}:
        assert params[k].tobytes() == three[k].tobytes(), k
    assert params["embed_w"].tobytes() == three["embed_w"].reshape(3, P * P, D).sum(axis=0).tobytes()
    assert params["dec_w"].tobytes() == three["dec_w"].reshape(D, 3, P * P).mean(axis=1).tobytes()
    mask = build_forecast_mask(int(rng.integers(1, 8)), int(rng.integers(1, 8)), S, P)
    patches = rng.normal(size=(n, cfg.n_patches, P * P))
    got = forward_reconstruct_gray(patches, mask, params, cfg)
    want = three_channel_reconstruct_gray(patches, mask, three, cfg)
    assert got.tobytes() == want.tobytes()


# --- metric_mse: a sum and a divide against np.mean -------------------------------

@given(st.lists(st.integers(1, 7), min_size=1, max_size=3), st.integers(0, 2**32 - 1),
       st.floats(1e-6, 1e6))
def test_metric_mse_equals_np_mean(shape, seed, scale):
    rng = np.random.default_rng(seed)
    pred, truth = (rng.normal(size=shape) * scale for _ in range(2))
    d = pred - truth
    assert metric_mse(pred, truth) == float(np.mean(d * d))


# --- _with_horizon: one layout against the UVH and MVH builders it replaced -------

ReconstructLayout = namedtuple("ReconstructLayout", "lookback_cols horizon_cols")


def _uvh_with_horizon(lookbacks: np.ndarray, seg_len: int, horizon: int,
                      horizon_values: np.ndarray | None):
    """UVH images of (n, H) look-backs plus appended horizon columns, as an
    (n, seg_len, cols) stack and its layout.

    Horizon columns hold `horizon_values` ((n, T'), right-padded by
    repeating each row's final value) when given, else repeat the last
    look-back column as a neutral placeholder.
    """
    lb = imaging.uvh_stack(lookbacks, seg_len)
    cols_h = math.ceil(horizon / seg_len)
    if horizon_values is None:
        hz = np.repeat(lb[:, :, -1:], cols_h, axis=2)
    else:
        n, need = lookbacks.shape[0], cols_h * seg_len
        v = horizon_values
        if v.shape[1] < need:
            v = np.concatenate([v, np.repeat(v[:, -1:], need - v.shape[1], axis=1)], axis=1)
        hz = v[:, :need].reshape(n, cols_h, seg_len).swapaxes(1, 2)
    return np.concatenate([lb, hz], axis=2), ReconstructLayout(lb.shape[2], cols_h)


def _mvh_with_horizon(lookbacks: np.ndarray, horizon: int,
                      horizon_values: np.ndarray | None):
    """MVH images of (n, d, H) look-backs plus `horizon` time columns holding
    `horizon_values` ((n, d, horizon)) when given, else each look-back's
    last column repeated."""
    hz = (np.repeat(lookbacks[:, :, -1:], horizon, axis=2) if horizon_values is None
          else horizon_values)
    return (np.concatenate([lookbacks, hz], axis=2),
            ReconstructLayout(lookbacks.shape[2], horizon))


@st.composite
def layout_cases(draw):
    """(n, d, H) look-backs, L, a horizon and its (n, d, horizon) values or
    None: d = 1 at any L (UVH), or d up to 4 at L = 1 (MVH)."""
    d = draw(st.integers(1, 4))
    L = draw(st.integers(1, 40)) if d == 1 else 1
    n, H, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 120)), draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n, d, horizon)) if draw(st.booleans()) else None
    return rng.normal(size=(n, d, H)) * rng.uniform(0.01, 100.0), L, horizon, values


def _same_layout(got, want):
    (stack, lb_cols, h_cols), (w_stack, w_layout) = got, want
    assert (lb_cols, h_cols) == tuple(w_layout)
    assert stack.dtype == w_stack.dtype and stack.shape == w_stack.shape
    assert stack.tobytes() == w_stack.tobytes()


@given(layout_cases())
@example((np.arange(10.0).reshape(1, 1, 10), 7, 100, np.ones((1, 1, 100))))  # T' % L != 0
@example((np.arange(6.0).reshape(2, 3, 1), 1, 1, None))
def test_with_horizon_equals_the_uvh_and_mvh_builders(case):
    lookbacks, L, horizon, values = case
    got = pipeline._with_horizon(lookbacks, L, horizon, values)
    if lookbacks.shape[1] == 1:
        _same_layout(got, _uvh_with_horizon(lookbacks[:, 0], L, horizon,
                                            None if values is None else values[:, 0]))
    if L == 1:
        _same_layout(got, _mvh_with_horizon(lookbacks, horizon, values))
