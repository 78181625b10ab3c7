import numpy as np
import pytest

from tsimg.alignment import replicate_channels
from tsimg.errors import (
    EmptyMaskError,
    LabelOutOfRangeError,
    NonPositiveError,
    RoutingError,
    ShapeMismatchError,
)
from tsimg.models import (
    ARCHS,
    PASS_SAMPLES,
    SIZE_FIELDS,
    TASKS,
    ClassifySample,
    ForecastSample,
    ModelConfig,
    ReconstructSample,
    backward,
    batch_loss,
    forward_attention,
    forward_body,
    forward_embed,
    forward_reconstruct,
    forward_reconstruct_gray,
    init_params,
    predict_class,
    predict_linear,
    validate_routing,
)

SMALL = dict(image_size=16, patch_size=8, embed_dim=8, num_heads=2,
             horizon=5, num_classes=3, num_variates=2)


def small_cfg(arch, task):
    return ModelConfig(arch=arch, task=task, **SMALL)


def make_batch(cfg, rng, n=2):
    N, F = cfg.n_patches, cfg.patch_dim
    if cfg.task == "classify":
        return [ClassifySample([rng.normal(size=(N, F)) for _ in range(cfg.num_variates)],
                               label=int(rng.integers(cfg.num_classes)))
                for _ in range(n)]
    if cfg.task == "forecast_linear":
        return [ForecastSample(rng.normal(size=(N, F)), rng.normal(size=cfg.horizon))
                for _ in range(n)]
    out = []                                    # reconstruction samples are gray
    for _ in range(n):
        m = np.zeros(N, bool)
        m[rng.choice(N, N // 2, replace=False)] = True
        out.append(ReconstructSample(rng.normal(size=(N, F // 3)),
                                     rng.normal(size=(N, F // 3)), m))
    return out


def finite_difference_check(cfg, seed, step=1e-5, floor=1e-6):
    """Max relative error between analytic and central-difference gradients
    over every parameter element."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    batch = make_batch(cfg, rng)
    _, grads = backward(batch, params, cfg)
    worst = 0.0
    for k, p in params.items():
        flat = p.reshape(-1)
        g = grads[k].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = batch_loss(batch, params, cfg)
            flat[i] = orig - step
            lm = batch_loss(batch, params, cfg)
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            worst = max(worst, abs(fd - g[i]) / max(abs(fd), abs(g[i]), floor))
    return worst


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("task", TASKS)
def test_gradients_match_finite_differences(arch, task):
    for seed in (0, 1, 2):
        err = finite_difference_check(small_cfg(arch, task), seed)
        assert err < 1e-4, f"{arch}/{task} seed {seed}: rel err {err}"


def test_forward_embed_zero_patches():
    cfg = small_cfg("wolvm", "forecast_linear")
    params = init_params(cfg, 0)
    params["embed_b"][:] = 0.0
    tokens, _ = forward_embed(np.zeros((cfg.n_patches, cfg.patch_dim)), params)
    assert np.array_equal(tokens, params["pos"])


def test_forward_embed_linearity():
    cfg = small_cfg("wolvm", "forecast_linear")
    params = init_params(cfg, 0)
    rng = np.random.default_rng(0)
    patches = rng.normal(size=(cfg.n_patches, cfg.patch_dim))
    t1, _ = forward_embed(patches, params)
    params2 = dict(params)
    params2["embed_w"] = 2.0 * params["embed_w"]
    t2, _ = forward_embed(patches, params2)
    proj = t1 - params["pos"] - params["embed_b"]
    assert np.allclose(t2 - params["pos"] - params["embed_b"], 2.0 * proj)


def test_attention_rows_sum_to_one():
    cfg = small_cfg("lvm2attn", "forecast_linear")
    params = init_params(cfg, 0)
    rng = np.random.default_rng(1)
    tokens = rng.normal(size=(cfg.n_patches, cfg.embed_dim))
    _, cache = forward_attention(tokens, params, cfg.num_heads)
    sums = cache["A"].sum(axis=2)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_attention_single_token():
    cfg = small_cfg("lvm2attn", "forecast_linear")
    params = init_params(cfg, 0)
    token = np.random.default_rng(2).normal(size=(1, cfg.embed_dim))
    out, cache = forward_attention(token, params, cfg.num_heads)
    assert cache["A"].shape == (cfg.num_heads, 1, 1)
    assert np.allclose(cache["A"], 1.0)
    assert out.shape == (1, cfg.embed_dim)


def test_attention_permutation_equivariance():
    cfg = small_cfg("lvm2attn", "forecast_linear")
    params = init_params(cfg, 0)
    rng = np.random.default_rng(3)
    tokens = rng.normal(size=(cfg.n_patches, cfg.embed_dim))
    perm = rng.permutation(cfg.n_patches)
    out, _ = forward_attention(tokens, params, cfg.num_heads)
    out_p, _ = forward_attention(tokens[perm], params, cfg.num_heads)
    assert np.allclose(out_p, out[perm], atol=1e-12)


def _classify_patches(cfg, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(cfg.n_patches, cfg.patch_dim)) for _ in range(cfg.num_variates)]


def test_classify_head_zero_weights():
    cfg = small_cfg("wolvm", "classify")
    params = init_params(cfg, 0)
    params["head_w"][:] = 0.0
    params["head_b"][:] = 0.0
    assert predict_class(_classify_patches(cfg, 4), params, cfg) == 0


def test_argmax_tie_breaks_low():
    cfg = small_cfg("lvm2attn", "classify")
    params = init_params(cfg, 0)
    params["head_w"][:] = 0.0
    params["head_b"][:] = [0.0, 1.0, 1.0]
    assert predict_class(_classify_patches(cfg, 5), params, cfg) == 1


def test_forecast_linear_head():
    cfg = small_cfg("wolvm", "forecast_linear")
    params = init_params(cfg, 0)
    patches = np.random.default_rng(4).normal(size=(cfg.n_patches, cfg.patch_dim))
    out = predict_linear(patches, params, cfg)
    assert out.shape == (cfg.horizon,)
    params["head_w"][:] = 0.0
    params["head_b"][:] = 0.0
    assert np.array_equal(predict_linear(patches, params, cfg), np.zeros(cfg.horizon))


def _mask(n_patches, masked):
    mask = np.zeros(n_patches, dtype=bool)
    mask[list(masked)] = True
    return mask


def _patches_and_mask(cfg, rng, masked):
    return rng.normal(size=(cfg.n_patches, cfg.patch_dim)), _mask(cfg.n_patches, masked)


def test_reconstruct_empty_mask_pass_through():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    rng = np.random.default_rng(5)
    patches, mask = _patches_and_mask(cfg, rng, [])
    out = forward_reconstruct(patches, mask, params, cfg)
    assert np.array_equal(out, patches)


def test_reconstruct_unmasked_bitwise_pass_through():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    rng = np.random.default_rng(6)
    patches, mask = _patches_and_mask(cfg, rng, [1, 3])
    out = forward_reconstruct(patches, mask, params, cfg)
    keep = [0, 2]
    assert np.array_equal(out[keep], patches[keep])
    assert not np.array_equal(out[[1, 3]], patches[[1, 3]])


def test_reconstruct_zero_decoder():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    params["dec_w"][:] = 0.0
    params["dec_b"][:] = 0.0
    rng = np.random.default_rng(7)
    patches, mask = _patches_and_mask(cfg, rng, range(cfg.n_patches))
    out = forward_reconstruct(patches, mask, params, cfg)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("arch", ARCHS)
def test_reconstruct_gray_is_channel_mean_of_replicated(arch):
    # reference: replicate each gray patch into three channels, run the
    # three-channel model, average the output channels
    cfg = ModelConfig(arch=arch, task="forecast_reconstruct", image_size=32,
                      patch_size=8, embed_dim=16, num_heads=2)
    params = init_params(cfg, 0)
    rng = np.random.default_rng(12)
    params["dec_b"] = rng.normal(size=params["dec_b"].shape)
    P2 = cfg.patch_size ** 2
    gray = rng.normal(size=(cfg.n_patches, P2))
    mask = _mask(cfg.n_patches, {2, 3, 6, 7, 11, 15})
    ref = forward_reconstruct(replicate_channels(gray), mask, params, cfg)
    ref = ref.reshape(-1, 3, P2).mean(axis=1)
    out = forward_reconstruct_gray(gray, mask, params, cfg)
    assert out.shape == gray.shape
    assert np.max(np.abs(out - ref)) < 1e-12
    assert np.array_equal(out[~mask], gray[~mask])


def test_reconstruct_gray_rejects_mismatched_embed():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    mask = _mask(cfg.n_patches, {1})
    gray = np.zeros((cfg.n_patches, cfg.patch_size ** 2))
    other = ModelConfig(arch="minimae", task="forecast_reconstruct",
                        **dict(SMALL, patch_size=4))
    with pytest.raises(ShapeMismatchError):
        forward_reconstruct_gray(gray, mask, init_params(other, 0), cfg)
    with pytest.raises(ShapeMismatchError):
        forward_reconstruct_gray(np.tile(gray, (1, 3)), mask, init_params(cfg, 0), cfg)


def test_reconstruct_rejects_a_mask_that_does_not_fit():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    patches = np.zeros((cfg.n_patches, cfg.patch_dim))
    gray = np.zeros((2, cfg.n_patches, cfg.patch_size ** 2))
    for bad in (_mask(cfg.n_patches + 1, {1}), _mask(cfg.n_patches - 1, {1}),
                _mask(1, {0}), np.zeros((1, cfg.n_patches), dtype=bool),
                np.arange(cfg.n_patches) % 2):          # an index list, not a bool mask
        with pytest.raises(ShapeMismatchError):
            forward_reconstruct(patches, bad, params, cfg)
        with pytest.raises(ShapeMismatchError):
            forward_reconstruct_gray(gray, bad, params, cfg)


def test_reconstruct_loss_ignores_unmasked_targets():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    rng = np.random.default_rng(8)
    batch = make_batch(cfg, rng, n=1)
    s = batch[0]
    base = batch_loss(batch, params, cfg)
    perturbed = ReconstructSample(s.patches,
                                  s.target_patches + (~s.mask_rows)[:, None] * 5.0,
                                  s.mask_rows)
    assert batch_loss([perturbed], params, cfg) == base


def test_training_determinism_bitwise():
    from tsimg.training import TrainConfig, train
    cfg = small_cfg("lvm2attn", "forecast_linear")
    rng = np.random.default_rng(9)
    data = make_batch(cfg, rng, n=12)
    val = make_batch(cfg, rng, n=4)
    results = []
    for _ in range(2):
        params = init_params(cfg, 42)
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3,
                         patience=3, seed=42)
        params, _ = train(cfg, params, data, val, tc)
        results.append(params)
    for k in results[0]:
        assert np.array_equal(results[0][k], results[1][k]), k


def test_routing_enforcement():
    validate_routing("forecast_reconstruct", "uvh")
    validate_routing("forecast_reconstruct", "mvh")
    for method in ("gaf", "rp", "stft", "wavelet", "filterbank", "lineplot"):
        with pytest.raises(RoutingError):
            validate_routing("forecast_reconstruct", method)
        validate_routing("classify", method)
        validate_routing("forecast_linear", method)


def test_config_validation():
    with pytest.raises(ShapeMismatchError):
        ModelConfig(embed_dim=10, num_heads=3)
    with pytest.raises(ShapeMismatchError):
        ModelConfig(image_size=30, patch_size=8)
    with pytest.raises(ShapeMismatchError):
        ModelConfig(arch="resnet")


@pytest.mark.parametrize("value", [0, -32])
@pytest.mark.parametrize("field", SIZE_FIELDS)
def test_config_rejects_non_positive_sizes(field, value):
    # checked before the divisibility checks, which would divide by zero
    with pytest.raises(NonPositiveError, match=f"{field}={value}"):
        ModelConfig(**{field: value})


def test_count_params_closed_form():
    cfg = ModelConfig(arch="wolvm", task="forecast_linear", image_size=64,
                      patch_size=8, embed_dim=64, num_heads=4, horizon=96)
    n = sum(v.size for v in init_params(cfg, 0).values())
    F, D, N, Tp = 3 * 64, 64, 64, 96
    expected = (F * D + D) + (N * D) + (D * D + D) + (N * D * Tp + Tp)
    assert n == expected


def _equivalence_batch(cfg, rng):
    """Five samples; reconstruct samples have 1, 2, 3, 1, 2 masked rows."""
    batch = make_batch(cfg, rng, n=5)
    if cfg.task == "forecast_reconstruct":
        for s, n_masked in zip(batch, (1, 2, 3, 1, 2)):
            s.mask_rows[:] = False
            s.mask_rows[rng.choice(cfg.n_patches, n_masked, replace=False)] = True
    return batch


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("task", TASKS)
def test_batched_backward_equals_mean_of_single_samples(arch, task):
    cfg = small_cfg(arch, task)
    params = init_params(cfg, 3)
    batch = _equivalence_batch(cfg, np.random.default_rng(10))
    loss, grads = backward(batch, params, cfg)
    singles = [backward([s], params, cfg) for s in batch]
    mean_loss = np.mean([l for l, _ in singles])
    assert abs(loss - mean_loss) <= 1e-12 * abs(mean_loss)
    assert batch_loss(batch, params, cfg) == loss
    for k in params:
        mean_grad = np.mean([g[k] for _, g in singles], axis=0)
        scale = np.max(np.abs(mean_grad))
        assert np.max(np.abs(grads[k] - mean_grad)) <= 1e-12 * scale, k


def test_empty_mask_in_one_sample_raises():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    batch = make_batch(cfg, np.random.default_rng(11), n=3)
    batch[1].mask_rows[:] = False
    with pytest.raises(EmptyMaskError):
        backward(batch, params, cfg)
    with pytest.raises(EmptyMaskError):
        batch_loss(batch, params, cfg)


@pytest.mark.parametrize("arch", ARCHS)
def test_reconstruct_passes_unmasked_rows_bitwise(arch):
    cfg = small_cfg(arch, "forecast_reconstruct")
    params = init_params(cfg, 0)
    rng = np.random.default_rng(12)
    for masked in ([0], [1, 2], [0, 1, 3]):
        patches, mask = _patches_and_mask(cfg, rng, masked)
        out = forward_reconstruct(patches, mask, params, cfg)
        keep = [i for i in range(cfg.n_patches) if i not in masked]
        assert np.array_equal(out[keep], patches[keep])


def test_attention_weights_batched_rows_sum_to_one():
    cfg = small_cfg("lvm2attn", "forecast_linear")
    params = init_params(cfg, 0)
    tokens = np.random.default_rng(13).normal(size=(3, cfg.n_patches, cfg.embed_dim))
    A = forward_attention(tokens, params, cfg.num_heads)[1]["A"]
    assert A.shape == (3, cfg.num_heads, cfg.n_patches, cfg.n_patches)
    assert np.max(np.abs(A.sum(axis=-1) - 1.0)) < 1e-12
    single = forward_attention(tokens[1], params, cfg.num_heads)[1]["A"]
    assert np.allclose(A[1], single, rtol=0, atol=1e-15)


def test_classify_label_out_of_range_raises():
    cfg = small_cfg("wolvm", "classify")
    params = init_params(cfg, 0)
    batch = make_batch(cfg, np.random.default_rng(14), n=2)
    for bad in (-1, cfg.num_classes):
        batch[1].label = bad
        with pytest.raises(LabelOutOfRangeError):
            batch_loss(batch, params, cfg)


def test_batch_loss_past_one_pass_is_the_sample_mean():
    cfg = small_cfg("lvm2attn", "forecast_reconstruct")
    params = init_params(cfg, 4)
    batch = make_batch(cfg, np.random.default_rng(15), n=PASS_SAMPLES + 6)
    singles = [batch_loss([s], params, cfg) for s in batch]
    assert batch_loss(batch, params, cfg) == pytest.approx(np.mean(singles), rel=1e-12)


# --- the batched losses against per-sample reference losses ---------------

def cross_entropy(logits, label):
    """Reference loss: numerically stable -log softmax(logits)[label]."""
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


def masked_mse(pred_patches, target_patches, mask_rows):
    """Reference loss: MSE over the masked patch entries only."""
    diff = (pred_patches - target_patches)[mask_rows]
    return float(np.mean(diff * diff))


@pytest.mark.parametrize("arch", ARCHS)
def test_reconstruct_batch_loss_is_masked_mse(arch):
    # the three-channel reference: gray patches and targets replicated
    cfg = small_cfg(arch, "forecast_reconstruct")
    params = init_params(cfg, 16)
    s = make_batch(cfg, np.random.default_rng(16), n=1)[0]
    pred = forward_reconstruct(replicate_channels(s.patches), s.mask_rows, params, cfg)
    assert batch_loss([s], params, cfg) == pytest.approx(
        masked_mse(pred, replicate_channels(s.target_patches), s.mask_rows), rel=1e-12)


def _three_channel_loss(batch, params, cfg, grads):
    """The reconstruction loss as it was before training went gray: each
    sample replicated into three channels, its visible rows and masked
    targets gathered per sample, every 3 * P * P column embedded, and the
    batch's mean masked MSE backpropagated by hand."""
    from tsimg.models import _forward, backward_body
    B = len(batch)
    mask = np.stack([s.mask_rows for s in batch])
    visible = np.concatenate([replicate_channels(s.patches)[~s.mask_rows] for s in batch])
    target = np.concatenate([replicate_channels(s.target_patches)[s.mask_rows]
                             for s in batch])
    err, feat, body, (_, body_cache) = _forward(visible, params, cfg, mask)
    err -= target
    n_masked = mask.sum(axis=1)
    w = np.repeat(1.0 / (B * n_masked * target.shape[1]), n_masked)[:, None]
    d_out = 2.0 * w * err
    grads["dec_w"] += feat.T @ d_out
    grads["dec_b"] += d_out.sum(axis=0)
    d_body = np.zeros_like(body)
    d_body[mask] = d_out @ params["dec_w"].T
    d_tokens = backward_body(d_body, body_cache, params, grads)
    grads["pos"] += d_tokens.sum(axis=0)
    grads["mask_token"] += d_tokens[mask].sum(axis=0)
    d_proj = d_tokens[~mask]
    grads["embed_w"] += visible.T @ d_proj
    grads["embed_b"] += d_proj.sum(axis=0)
    return float((w * err * err).sum())


@pytest.mark.parametrize("arch", ARCHS)
def test_gray_backward_matches_three_channel_oracle(arch):
    cfg = small_cfg(arch, "forecast_reconstruct")
    params = init_params(cfg, 18)
    params["dec_b"] = np.random.default_rng(18).normal(size=params["dec_b"].shape)
    batch = _equivalence_batch(cfg, np.random.default_rng(18))
    loss, grads = backward(batch, params, cfg)
    want = {k: np.zeros_like(p) for k, p in params.items()}
    assert loss == pytest.approx(_three_channel_loss(batch, params, cfg, want), rel=1e-12)
    for k in params:
        scale = np.max(np.abs(want[k]))
        assert np.max(np.abs(grads[k] - want[k])) <= 1e-12 * scale, k
    blocks = grads["embed_w"].reshape(3, cfg.patch_size ** 2, cfg.embed_dim)
    assert np.array_equal(blocks[0], blocks[1]) and np.array_equal(blocks[0], blocks[2])


def test_three_channel_reconstruct_sample_is_refused():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    s = make_batch(cfg, np.random.default_rng(19), n=1)[0]
    three = ReconstructSample(replicate_channels(s.patches),
                              replicate_channels(s.target_patches), s.mask_rows)
    for run in (backward, batch_loss):
        with pytest.raises(ShapeMismatchError, match="expected embed_w fan-in / 3 = 64"):
            run([three], params, cfg)


@pytest.mark.parametrize("arch", ARCHS)
def test_classify_batch_loss_is_cross_entropy(arch):
    cfg = small_cfg(arch, "classify")
    params = init_params(cfg, 17)
    s = make_batch(cfg, np.random.default_rng(17), n=1)[0]
    tokens, _ = forward_embed(np.stack(s.patch_seqs), params)
    body, _ = forward_body(tokens, params, cfg)
    logits = body.mean(-2).reshape(-1) @ params["head_w"] + params["head_b"]
    assert batch_loss([s], params, cfg) == pytest.approx(
        cross_entropy(logits, s.label), rel=1e-12)
