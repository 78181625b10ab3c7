"""Measure how much a trained forecaster relies on temporal order.

Train an attention forecaster on clean AR(1) data, then evaluate with the
test look-backs perturbed four ways: full shuffle, half shuffle, halves
exchanged, and random masking. The bigger the drop, the more the model
exploits temporal structure rather than marginal statistics.
"""

import numpy as np

from tsimg.evaluation import (
    ForecastTask,
    PERTURB_KINDS,
    PerturbMode,
    metric_mse,
    performance_drop,
    perturb,
    split_windows,
)
from tsimg.models import ModelConfig, init_params
from tsimg.pipeline import forecast_samples, forecast_windows
from tsimg.series import MultivariateSeries, gen_ar1
from tsimg.training import TrainConfig, train

L = 24
x = gen_ar1(0.9, 3000, seed=11)
task = ForecastTask(series=x, lookback=96, horizon=24, stride=8)
(tr_lb, tr_tg), (va_lb, va_tg), (te_lb, te_tg) = split_windows(task)

cfg = ModelConfig(arch="lvm2attn", task="forecast_linear", image_size=32,
                  patch_size=8, embed_dim=32, num_heads=4, horizon=24)
params = init_params(cfg, 0)
params, _ = train(cfg, params, forecast_samples(tr_lb, tr_tg, "uvh", cfg, L),
                  forecast_samples(va_lb, va_tg, "uvh", cfg, L),
                  TrainConfig(learning_rate=1e-3, batch_size=32,
                              max_epochs=30, patience=5, seed=0))


def test_mse(transform):
    lookbacks = np.stack([transform(lb) for lb in te_lb])
    return metric_mse(forecast_windows(lookbacks, "uvh", 24, params, cfg, L), te_tg)


clean = test_mse(lambda lb: lb)
print(f"clean test MSE: {clean:.4f}\n")
print(f"{'perturbation':<12} {'MSE':>8} {'drop':>8}")
for kind in PERTURB_KINDS:
    mode = PerturbMode(kind, seed=3)
    mse = test_mse(lambda lb: perturb(MultivariateSeries(lb), mode).values)
    print(f"{kind:<12} {mse:>8.4f} {performance_drop(clean, mse):>7.1f}%")
