import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsimg.errors import NonFiniteLossError, NonPositiveError, ShapeMismatchError
from tsimg.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    train,
)
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
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.init(params)
    adam_step(params, np.zeros(3), state, lr=0.1)
    assert np.array_equal(params, [1.0, -2.0, 3.0])


def test_adam_first_step_magnitude():
    # with bias correction, the first step is ~lr * sign(g)
    params = np.array([0.0])
    state = AdamState.init(params)
    adam_step(params, np.array([5.0]), state, lr=0.01)
    assert params[0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_descends_quadratic():
    params = np.array([10.0])
    state = AdamState.init(params)
    for _ in range(2000):
        adam_step(params, 2.0 * params, state, lr=0.05)
    assert abs(params[0]) < 1e-2


def test_adam_shape_mismatch():
    params = np.zeros(3)
    state = AdamState.init(params)
    with pytest.raises(ShapeMismatchError):
        adam_step(params, np.zeros(4), state, lr=0.1)


def oracle_adam_step(params, grads, state, lr):
    """The per-tensor Adam loop over dicts that the whole-vector step
    replaced; `state` is {"t": int, "m": dict, "v": dict}."""
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for k, p in params.items():
        g = grads[k]
        state["m"][k] = ADAM_BETA1 * state["m"][k] + (1 - ADAM_BETA1) * g
        state["v"][k] = ADAM_BETA2 * state["v"][k] + (1 - ADAM_BETA2) * g * g
        m_hat = state["m"][k] / bc1
        v_hat = state["v"][k] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@given(st.lists(st.lists(st.integers(1, 4), min_size=0, max_size=3), min_size=1, max_size=5),
       st.integers(1, 30), st.floats(1e-6, 10.0), st.integers(0, 2**32 - 1))
def test_adam_step_bitwise_equals_per_tensor_oracle(shapes, steps, lr, seed):
    rng = np.random.default_rng(seed)
    params = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
    flat = np.concatenate([p.ravel() for p in params.values()])
    oracle_state = {"t": 0, "m": {k: np.zeros_like(p) for k, p in params.items()},
                    "v": {k: np.zeros_like(p) for k, p in params.items()}}
    state = AdamState.init(flat)
    for _ in range(steps):
        # zeros, unit-scale values and values near 1e150 (whose squares stay finite)
        g = rng.normal(size=flat.size) * rng.choice([0.0, 1.0, 1e150], size=flat.size)
        grads, start = {}, 0
        for k, p in params.items():
            grads[k] = g[start:start + p.size].reshape(p.shape).copy()
            start += p.size
        oracle_adam_step(params, grads, oracle_state, lr)
        adam_step(flat, g, state, lr)
        expected = np.concatenate([p.ravel() for p in params.values()])
        assert flat.tobytes() == expected.tobytes()
    assert state.t == oracle_state["t"] == steps


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
    target = np.zeros((cfg.n_patches, cfg.patch_size ** 2))     # gray: one channel
    target[2] = 1.0
    mask = np.array([True, False, True, False])
    sample = ReconstructSample(np.ones_like(target), target, mask)
    row = np.arange(cfg.patch_dim)              # all three decoded channels are scored
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


def test_train_updates_the_callers_arrays_and_returns_its_dict():
    cfg, data = _linear_task(n=20)
    params = init_params(cfg, 2)
    arrays = dict(params)
    entry = {k: p.copy() for k, p in params.items()}
    out, _ = train(cfg, params, data[:16], data[16:],
                   TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=3, seed=2))
    assert out is params
    assert all(out[k] is arrays[k] for k in arrays)
    assert not all(np.array_equal(out[k], entry[k]) for k in entry)


def test_train_best_epoch_restore_is_bitwise():
    cfg, data = _linear_task(n=20)
    # the bouncing run of test_train_early_stop_and_best_restore
    tc = TrainConfig(learning_rate=5.0, batch_size=8, max_epochs=50, patience=2, seed=2)
    stopped, history = train(cfg, init_params(cfg, 2), data[:16], data[16:], tc)
    best_epoch = min(history, key=lambda r: r.val_metric).epoch
    assert len(history) < tc.max_epochs and best_epoch < len(history) - 1
    fresh, _ = train(cfg, init_params(cfg, 2), data[:16], data[16:],
                     replace(tc, max_epochs=best_epoch + 1))
    for k in stopped:
        assert stopped[k].tobytes() == fresh[k].tobytes(), k


def test_train_non_finite_loss_leaves_entry_values():
    cfg, data = _linear_task(n=20)
    params = init_params(cfg, 2)
    entry = {k: p.copy() for k, p in params.items()}
    # the first step moves every parameter by about 1e200, so the forward
    # of the second batch overflows
    tc = TrainConfig(learning_rate=1e200, batch_size=8, max_epochs=3, seed=2)
    with pytest.raises(NonFiniteLossError), np.errstate(over="ignore", invalid="ignore"):
        train(cfg, params, data[:16], data[16:], tc)
    for k in entry:
        assert np.array_equal(params[k], entry[k]), k


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
