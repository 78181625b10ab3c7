import numpy as np
import pytest

from test_trim_oracles import three_channel_draw, three_channel_reconstruct
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
    Samples,
    _draw_params,
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
    stack_samples,
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
        out.append(ReconstructSample(rng.normal(size=(N, F)),
                                     rng.normal(size=(N, F)), m))
    return out


def finite_difference_check(cfg, seed, step=1e-5, floor=1e-6):
    """Max relative error between analytic and central-difference gradients
    over every parameter element."""
    rng = np.random.default_rng(seed)
    params = _draw_params(cfg, seed)    # float64: central differences at step 1e-5
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


# The attention tests run in one dtype at a time, float64 and then float32,
# parameters and tokens alike; a float64 model is the float32 one cast. Each
# float32 bound is a multiple of float32's eps: a row of N weights sums to
# within N roundings of 1.
DTYPES = (np.float64, np.float32)
EPS32 = float(np.finfo(np.float32).eps)


def params_in(dtype, cfg, seed=0):
    return {k: v.astype(dtype) for k, v in init_params(cfg, seed).items()}


def test_attention_rows_sum_to_one():
    cfg = small_cfg("lvm2attn", "forecast_linear")
    for dtype, tol in zip(DTYPES, (1e-9, cfg.n_patches * EPS32)):
        rng = np.random.default_rng(1)
        tokens = rng.normal(size=(cfg.n_patches, cfg.embed_dim)).astype(dtype)
        _, cache = forward_attention(tokens, params_in(dtype, cfg), cfg.num_heads)
        sums = cache["A"].sum(axis=2)
        assert cache["A"].dtype == dtype
        assert np.max(np.abs(sums - 1.0)) < tol, dtype


def test_attention_softmax_is_stable_at_large_float32_scores():
    # scores near 1e4 overflow exp unshifted and underflow whole rows to 0/0
    # under a shift shared by a sample or a head; the row max keeps each row's
    # largest term at exp(0) = 1
    cfg = small_cfg("lvm2attn", "forecast_linear")
    params = init_params(cfg, 0)
    tokens = np.random.default_rng(4).normal(size=(16, cfg.n_patches, cfg.embed_dim)) * 50.0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        _, cache = forward_attention(tokens.astype(np.float32), params, cfg.num_heads)
    scores = cache["Qh"] @ cache["Kh"].swapaxes(-1, -2) / np.sqrt(cache["Qh"].shape[-1])
    assert cache["A"].dtype == np.float32 and 5e3 < np.abs(scores).max() < 5e4
    assert np.isfinite(cache["A"]).all()
    assert np.max(np.abs(cache["A"].sum(axis=-1, dtype=np.float64) - 1.0)) < 1e-6


def test_attention_single_token():
    cfg = small_cfg("lvm2attn", "forecast_linear")
    for dtype in DTYPES:
        token = np.random.default_rng(2).normal(size=(1, cfg.embed_dim)).astype(dtype)
        out, cache = forward_attention(token, params_in(dtype, cfg), cfg.num_heads)
        assert cache["A"].shape == (cfg.num_heads, 1, 1) and cache["A"].dtype == dtype
        if dtype == np.float32:
            assert np.max(np.abs(cache["A"] - 1.0)) <= EPS32      # exp(0) / exp(0)
        else:
            assert np.allclose(cache["A"], 1.0)
        assert out.shape == (1, cfg.embed_dim)


def test_attention_permutation_equivariance():
    # float32: outputs of order 1 summed over N keys in another order, 4 eps
    # at most over 300 seeds
    cfg = small_cfg("lvm2attn", "forecast_linear")
    for dtype, tol in zip(DTYPES, (dict(atol=1e-12), dict(rtol=0, atol=64 * EPS32))):
        params = params_in(dtype, cfg)
        rng = np.random.default_rng(3)
        tokens = rng.normal(size=(cfg.n_patches, cfg.embed_dim)).astype(dtype)
        perm = rng.permutation(cfg.n_patches)
        out, _ = forward_attention(tokens, params, cfg.num_heads)
        out_p, _ = forward_attention(tokens[perm], params, cfg.num_heads)
        assert out.dtype == out_p.dtype == dtype
        assert np.allclose(out_p, out[perm], **tol), dtype


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
    # reference: the three-channel model the one-channel draw folds, run on
    # each gray patch replicated into three channels, output channels averaged
    cfg = ModelConfig(arch=arch, task="forecast_reconstruct", image_size=32,
                      patch_size=8, embed_dim=16, num_heads=2)
    three = three_channel_draw(cfg, 0)
    rng = np.random.default_rng(12)
    P2 = cfg.patch_size ** 2
    three["dec_b"] = rng.normal(size=3 * P2)
    params = _draw_params(cfg, 0)       # float64, for the 1e-12 bound
    params["dec_b"] = three["dec_b"].reshape(3, P2).mean(axis=0)
    gray = rng.normal(size=(cfg.n_patches, P2))
    mask = _mask(cfg.n_patches, {2, 3, 6, 7, 11, 15})
    ref = three_channel_reconstruct(replicate_channels(gray), mask, three, cfg)
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
    params = _draw_params(cfg, 3)       # float64, for the 1e-12 bounds
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


@pytest.mark.parametrize("task", TASKS)
def test_stack_samples_indexes_like_its_list(task):
    cfg = small_cfg("minimae", task)
    batch = make_batch(cfg, np.random.default_rng(19), n=5)
    stack = stack_samples(batch)
    assert isinstance(stack, Samples) and stack_samples(stack) is stack and len(stack) == 5
    picked = stack[np.array([3, 0, 3])]
    assert isinstance(picked, Samples) and len(picked) == 3 and len(stack[1:4]) == 3
    for j, i in enumerate((3, 0, 3)):
        want = batch[i]
        for got in (stack[i], picked[j], list(stack)[i]):
            assert type(got) is type(want)
            for name in stack.names:
                assert np.array_equal(getattr(got, name), np.asarray(getattr(want, name)))


def test_stack_samples_refuses_empty_mixed_and_ragged_batches():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    batch = make_batch(cfg, np.random.default_rng(20), n=3)
    linear = make_batch(small_cfg("minimae", "forecast_linear"), np.random.default_rng(20), n=1)
    ragged = batch[:2] + [ReconstructSample(batch[2].patches[:-1], batch[2].target_patches[:-1],
                                            batch[2].mask_rows[:-1])]
    for bad in ([], stack_samples(batch)[3:], batch + linear, ragged):
        with pytest.raises(ShapeMismatchError):
            stack_samples(bad)


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
    bounds = ((1e-12, 1e-15), (cfg.n_patches * EPS32, 4 * EPS32))
    for dtype, (sum_tol, single_tol) in zip(DTYPES, bounds):
        params = params_in(dtype, cfg)
        tokens = np.random.default_rng(13).normal(size=(3, cfg.n_patches, cfg.embed_dim))
        tokens = tokens.astype(dtype)
        A = forward_attention(tokens, params, cfg.num_heads)[1]["A"]
        assert A.shape == (3, cfg.num_heads, cfg.n_patches, cfg.n_patches) and A.dtype == dtype
        assert np.max(np.abs(A.sum(axis=-1) - 1.0)) < sum_tol, dtype
        single = forward_attention(tokens[1], params, cfg.num_heads)[1]["A"]
        assert np.allclose(A[1], single, rtol=0, atol=single_tol), dtype


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
    params = _draw_params(cfg, 4)       # float64, for the 1e-12 bound
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
    cfg = small_cfg(arch, "forecast_reconstruct")
    params = _draw_params(cfg, 16)      # float64, for the 1e-12 bound
    s = make_batch(cfg, np.random.default_rng(16), n=1)[0]
    pred = forward_reconstruct(s.patches, s.mask_rows, params, cfg)
    assert batch_loss([s], params, cfg) == pytest.approx(
        masked_mse(pred, s.target_patches, s.mask_rows), rel=1e-12)


def test_three_channel_reconstruct_sample_is_refused():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    s = make_batch(cfg, np.random.default_rng(19), n=1)[0]
    three = ReconstructSample(replicate_channels(s.patches),
                              replicate_channels(s.target_patches), s.mask_rows)
    for run in (backward, batch_loss):
        with pytest.raises(ShapeMismatchError, match="patch dim 192 != embed fan-in 64"):
            run([three], params, cfg)


@pytest.mark.parametrize("arch", ARCHS)
def test_classify_batch_loss_is_cross_entropy(arch):
    cfg = small_cfg(arch, "classify")
    params = _draw_params(cfg, 17)      # float64, for the 1e-12 bound
    s = make_batch(cfg, np.random.default_rng(17), n=1)[0]
    tokens, _ = forward_embed(np.stack(s.patch_seqs), params)
    body, _ = forward_body(tokens, params, cfg)
    logits = body.mean(-2).reshape(-1) @ params["head_w"] + params["head_b"]
    assert batch_loss([s], params, cfg) == pytest.approx(
        cross_entropy(logits, s.label), rel=1e-12)


# --- the model dtype is the parameters' dtype ------------------------------

@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("task", TASKS)
def test_float32_parameters_promote_nothing_to_float64(arch, task, monkeypatch):
    # numpy 1.24 promotes by value and numpy 2 by NEP 50, which treat
    # scalars differently; on both, float32 parameters keep every array a
    # step makes float32, though the samples come in float64. Spies record
    # the dtypes that reach the backward kernels, backward and Adam in train.
    import tsimg.models as models
    import tsimg.training as training
    seen = []

    def spy(fn, *picks):
        def wrapped(*args):
            out = fn(*args)
            seen.extend(pick(args, out) for pick in picks)
            return out
        return wrapped

    monkeypatch.setattr(models, "backward_body", spy(models.backward_body,
                        lambda a, out: a[0].dtype, lambda a, out: out.dtype))
    monkeypatch.setattr(models, "backward_embed", spy(models.backward_embed,
                        lambda a, out: a[0].dtype))
    monkeypatch.setattr(training, "backward", spy(training.backward,
                        lambda a, out: a[1].vector.dtype, lambda a, out: out[1].vector.dtype,
                        lambda a, out: np.result_type(*(f for f in a[0].arrays
                                                        if f.dtype.kind == "f"))))
    monkeypatch.setattr(training, "adam_step", spy(training.adam_step,
                        lambda a, out: a[2].m.dtype, lambda a, out: a[2].v.dtype,
                        lambda a, out: a[2].scratch.dtype))
    cfg = small_cfg(arch, task)
    params = init_params(cfg, 5)
    samples = make_batch(cfg, np.random.default_rng(5), n=6)
    trained, _ = training.train(cfg, params, samples[:4], samples[4:],
                                training.TrainConfig(learning_rate=1e-3, batch_size=2,
                                                     max_epochs=1, seed=5))
    seen.extend(p.dtype for p in trained.values())

    batch = stack_samples(samples)
    loss, grads = backward(batch, params, cfg)
    assert np.isfinite(loss) and float(np.float32(loss)) == loss      # summed in float32
    seen.append(grads.vector.dtype)
    # the samples are cast before any arithmetic: float32 samples give the same bits
    loss32, grads32 = backward(batch.astype(np.float32), params, cfg)
    assert loss32 == loss and grads32.vector.tobytes() == grads.vector.tobytes()
    mask = batch.mask_rows if task == "forecast_reconstruct" else None
    out, feat, body, caches = models._forward(batch.arrays[0], params, cfg, mask)
    cached = [a for c in caches for a in c.values() if isinstance(a, np.ndarray)]
    seen.extend(a.dtype for a in [out, feat, body, *cached] if a.dtype.kind == "f")
    assert len(seen) > 20 and set(seen) == {np.dtype(np.float32)}


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("task", TASKS)
def test_float32_gradients_match_float64(arch, task):
    # the float64 parameters are the exact widening of the float32 draw, so
    # the two runs differ only in the precision of their arithmetic. Float32
    # rounds each operation to 6e-8 relative, and a gradient is a few dozen
    # dependent operations deep: each tensor's largest error stays within
    # 1e-5 of its largest entry (about 1e-6 at these sizes), the loss within
    # 1e-6. wolvm's reconstruction embed gradients are exactly zero in both:
    # its masked rows do not see the visible ones.
    cfg = small_cfg(arch, task)
    for seed in (0, 1, 2):
        p32 = init_params(cfg, seed)
        p64 = {k: v.astype(np.float64) for k, v in p32.items()}
        batch = make_batch(cfg, np.random.default_rng(seed), n=4)
        loss32, g32 = backward(batch, p32, cfg)
        loss64, g64 = backward(batch, p64, cfg)
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        for k in p32:
            scale = np.max(np.abs(g64[k]))
            assert np.max(np.abs(g32[k] - g64[k])) <= 1e-5 * scale, (seed, k)
