import math

import numpy as np
import pytest

from tsimg.errors import NonPositiveError, ShapeMismatchError
from tsimg.training import AdamState, TrainConfig, adam_step, train
from tsimg.models import (
    ClassifySample,
    ForecastSample,
    ModelConfig,
    ReconstructSample,
    batch_loss,
    init_params,
    predict_linear,
)


def test_adam_zero_gradient_no_move():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = AdamState.init(params)
    adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)
    assert np.array_equal(params["w"], [1.0, -2.0, 3.0])


def test_adam_first_step_magnitude():
    # with bias correction, the first step is ~lr * sign(g)
    params = {"w": np.array([0.0])}
    state = AdamState.init(params)
    adam_step(params, {"w": np.array([5.0])}, state, lr=0.01)
    assert params["w"][0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_descends_quadratic():
    params = {"w": np.array([10.0])}
    state = AdamState.init(params)
    for _ in range(2000):
        g = {"w": 2.0 * params["w"]}
        adam_step(params, g, state, lr=0.05)
    assert abs(params["w"][0]) < 1e-2


def test_adam_shape_mismatch():
    params = {"w": np.zeros(3)}
    state = AdamState.init(params)
    with pytest.raises(ShapeMismatchError):
        adam_step(params, {"w": np.zeros(4)}, state, lr=0.1)


# --- the training losses: the models' batched losses on hand-set heads -----

def _cross_entropy(logits, label):
    """The classify loss of one sample under a zero head whose bias is
    `logits`, so the logits do not depend on the input."""
    cfg = ModelConfig(arch="wolvm", task="classify", image_size=8, patch_size=4,
                      embed_dim=8, num_heads=2, num_classes=len(logits))
    params = init_params(cfg, 0)
    params["head_w"][:] = 0.0
    params["head_b"][:] = logits
    return batch_loss([ClassifySample([np.ones((cfg.n_patches, cfg.patch_dim))], label)],
                      params, cfg)


def test_cross_entropy_uniform_two_way():
    assert _cross_entropy(np.array([0.0, 0.0]), 0) == pytest.approx(math.log(2.0))


def test_cross_entropy_shift_invariant_and_stable():
    logits = np.array([1.0, 3.0, -2.0])
    a = _cross_entropy(logits, 1)
    b = _cross_entropy(logits + 1000.0, 1)
    assert a == pytest.approx(b, abs=1e-9)
    big = _cross_entropy(np.array([1e4, 0.0]), 0)
    assert np.isfinite(big) and big == pytest.approx(0.0, abs=1e-9)


def test_masked_mse_oracle():
    # a zero decoder weight makes every masked row decode to dec_b
    cfg = ModelConfig(arch="wolvm", task="forecast_reconstruct", image_size=4,
                      patch_size=2, embed_dim=8, num_heads=2)
    params = init_params(cfg, 0)
    params["dec_w"][:] = 0.0
    params["dec_b"][:] = np.arange(cfg.patch_dim)
    target = np.zeros((cfg.n_patches, cfg.patch_dim))
    target[2] = 1.0
    mask = np.array([True, False, True, False])
    sample = ReconstructSample(np.ones_like(target), target, mask)
    row = np.arange(cfg.patch_dim)
    expected = (np.sum(row ** 2) + np.sum((row - 1.0) ** 2)) / (2 * cfg.patch_dim)
    assert batch_loss([sample], params, cfg) == pytest.approx(expected, rel=1e-12)


def _linear_task(n=48):
    # teacher/student: targets come from a frozen random instance of the
    # same architecture, so a zero-loss fit exists
    cfg = ModelConfig(arch="wolvm", task="forecast_linear", image_size=8,
                      patch_size=4, embed_dim=8, num_heads=2, horizon=2)
    teacher = init_params(cfg, 99)
    rng = np.random.default_rng(0)
    data = []
    for _ in range(n):
        patches = rng.normal(size=(cfg.n_patches, cfg.patch_dim))
        target = predict_linear(patches, teacher, cfg)
        data.append(ForecastSample(patches, target))
    return cfg, data


def test_train_learns_linear_map():
    cfg, data = _linear_task(n=480)
    params = init_params(cfg, 1)
    tc = TrainConfig(learning_rate=3e-3, batch_size=32, max_epochs=200,
                     patience=200, seed=1)
    params, history = train(cfg, params, data[:400], data[400:], tc)
    assert history[-1].val_metric < 0.05 * history[0].val_metric


def test_train_early_stop_and_best_restore():
    cfg, data = _linear_task(n=20)
    params = init_params(cfg, 2)
    # huge lr makes validation bounce; loop must stop early and hand back
    # the epoch with the best (lowest) validation loss
    tc = TrainConfig(learning_rate=5.0, batch_size=8, max_epochs=50,
                     patience=2, seed=2)
    params, history = train(cfg, params, data[:16], data[16:], tc)
    assert len(history) < 50
    best = min(r.val_metric for r in history)
    from tsimg.models import batch_loss
    assert batch_loss(data[16:], params, cfg) == pytest.approx(best)


def test_train_empty_data_rejected():
    cfg, data = _linear_task(n=4)
    with pytest.raises(ShapeMismatchError):
        train(cfg, init_params(cfg, 0), [], data, TrainConfig())


def test_train_config_presets():
    tc = TrainConfig.for_classification()
    assert tc.max_epochs == 30 and tc.patience == 8
    assert TrainConfig().max_epochs == 20 and TrainConfig().patience == 3


@pytest.mark.parametrize("field", ["batch_size", "max_epochs", "patience"])
def test_train_config_rejects_non_positive(field):
    with pytest.raises(NonPositiveError):
        TrainConfig(**{field: 0})
    with pytest.raises(NonPositiveError):
        TrainConfig.for_classification(**{field: 0})
