import numpy as np
import pytest

from tsimg.alignment import ForecastMask, PatchSequence
from tsimg.errors import (
    EmptyMaskError,
    LabelOutOfRangeError,
    RoutingError,
    ShapeMismatchError,
)
from tsimg.models import (
    ARCHS,
    PASS_SAMPLES,
    TASKS,
    ClassifySample,
    ForecastSample,
    ModelConfig,
    ReconstructSample,
    argmax_class,
    attention_weights,
    backward,
    batch_loss,
    count_params,
    forward_attention,
    forward_classify,
    forward_embed,
    forward_forecast_linear,
    forward_reconstruct,
    init_params,
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
    out = []
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


def test_classify_head_zero_weights():
    cfg = small_cfg("wolvm", "classify")
    params = init_params(cfg, 0)
    params["head_w"][:] = 0.0
    params["head_b"][:] = 0.0
    tokens = [np.ones((4, cfg.embed_dim)) for _ in range(cfg.num_variates)]
    assert np.array_equal(forward_classify(tokens, params), np.zeros(cfg.num_classes))


def test_argmax_tie_breaks_low():
    assert argmax_class(np.array([1.0, 1.0, 0.0])) == 0


def test_forecast_linear_head():
    cfg = small_cfg("wolvm", "forecast_linear")
    params = init_params(cfg, 0)
    tokens = np.random.default_rng(4).normal(size=(cfg.n_patches, cfg.embed_dim))
    out = forward_forecast_linear(tokens, params)
    assert out.shape == (cfg.horizon,)
    params["head_w"][:] = 0.0
    params["head_b"][:] = 0.0
    assert np.array_equal(forward_forecast_linear(tokens, params), np.zeros(cfg.horizon))


def _seq_and_mask(cfg, rng, masked):
    N, F = cfg.n_patches, cfg.patch_dim
    seq = PatchSequence(patches=rng.normal(size=(N, F)),
                        grid=(cfg.grid_side, cfg.grid_side),
                        patch_size=cfg.patch_size)
    mask = ForecastMask(masked_patch_indices=frozenset(masked), boundary_col=0)
    return seq, mask


def test_reconstruct_empty_mask_pass_through():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    rng = np.random.default_rng(5)
    seq, mask = _seq_and_mask(cfg, rng, [])
    out = forward_reconstruct(seq, mask, params, cfg)
    assert np.array_equal(out.patches, seq.patches)


def test_reconstruct_unmasked_bitwise_pass_through():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    rng = np.random.default_rng(6)
    seq, mask = _seq_and_mask(cfg, rng, [1, 3])
    out = forward_reconstruct(seq, mask, params, cfg)
    keep = [0, 2]
    assert np.array_equal(out.patches[keep], seq.patches[keep])
    assert not np.array_equal(out.patches[[1, 3]], seq.patches[[1, 3]])


def test_reconstruct_zero_decoder():
    cfg = small_cfg("minimae", "forecast_reconstruct")
    params = init_params(cfg, 0)
    params["dec_w"][:] = 0.0
    params["dec_b"][:] = 0.0
    rng = np.random.default_rng(7)
    seq, mask = _seq_and_mask(cfg, rng, range(cfg.n_patches))
    out = forward_reconstruct(seq, mask, params, cfg)
    assert np.all(out.patches == 0.0)


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


def test_count_params_closed_form():
    cfg = ModelConfig(arch="wolvm", task="forecast_linear", image_size=64,
                      patch_size=8, embed_dim=64, num_heads=4, horizon=96)
    n = count_params(init_params(cfg, 0))
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
        seq, mask = _seq_and_mask(cfg, rng, masked)
        out = forward_reconstruct(seq, mask, params, cfg)
        keep = [i for i in range(cfg.n_patches) if i not in masked]
        assert np.array_equal(out.patches[keep], seq.patches[keep])


def test_attention_weights_batched_rows_sum_to_one():
    cfg = small_cfg("lvm2attn", "forecast_linear")
    params = init_params(cfg, 0)
    tokens = np.random.default_rng(13).normal(size=(3, cfg.n_patches, cfg.embed_dim))
    A = attention_weights(tokens, params, cfg.num_heads)
    assert A.shape == (3, cfg.num_heads, cfg.n_patches, cfg.n_patches)
    assert np.max(np.abs(A.sum(axis=-1) - 1.0)) < 1e-12
    single = attention_weights(tokens[1], params, cfg.num_heads)
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
