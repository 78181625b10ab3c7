"""Forecast a periodic series two ways: the linear head on UVH images
and the mask-reconstruction pipeline.

The linear head regresses future values directly from the imaged
look-back; the reconstruction path instead inpaints the masked horizon
columns of the heatmap and reads the forecast back out of the image.
Both read the same (look-backs, targets) split stacks through the two
forecast entry points.
"""

from tsimg.evaluation import ForecastTask, metric_mae, metric_mse, split_windows
from tsimg.models import ModelConfig, init_params
from tsimg.pipeline import forecast_samples, forecast_windows
from tsimg.series import gen_periodic
from tsimg.training import TrainConfig, train

L, LOOKBACK, HORIZON = 24, 96, 24
x = gen_periodic(L, 2000, "composite", seed=3, noise_std=0.05)
task = ForecastTask(series=x, lookback=LOOKBACK, horizon=HORIZON, stride=4)
(tr_lb, tr_tg), (va_lb, va_tg), (te_lb, truth) = split_windows(task)
print(f"windows: {len(tr_lb)} train / {len(va_lb)} val / {len(te_lb)} test")


def fit_and_forecast(cfg, train_cfg):
    """Train on the train/val stacks, then forecast every test look-back."""
    params = init_params(cfg, 0)
    params, _ = train(cfg, params, forecast_samples(tr_lb, tr_tg, "uvh", cfg, L),
                      forecast_samples(va_lb, va_tg, "uvh", cfg, L), train_cfg)
    return forecast_windows(te_lb, "uvh", HORIZON, params, cfg, L)


# --- framework (c): linear forecasting head ------------------------------
cfg_c = ModelConfig(arch="wolvm", task="forecast_linear", image_size=32,
                    patch_size=8, embed_dim=32, num_heads=4, horizon=HORIZON)
pred_c = fit_and_forecast(cfg_c, TrainConfig(learning_rate=1e-2, batch_size=32,
                                             max_epochs=60, patience=60, seed=0))
print(f"linear head:     MSE {metric_mse(pred_c, truth):.2e}  "
      f"MAE {metric_mae(pred_c, truth):.2e}")

# --- framework (d): mask-reconstruction ----------------------------------
# every window shares one segment length, so each split is one stacked call
cfg_d = ModelConfig(arch="minimae", task="forecast_reconstruct",
                    image_size=32, patch_size=8, embed_dim=32, num_heads=4,
                    horizon=HORIZON)
pred_d = fit_and_forecast(cfg_d, TrainConfig(learning_rate=3e-3, batch_size=16,
                                             max_epochs=150, patience=150, seed=0))
print(f"reconstruction:  MSE {metric_mse(pred_d, truth):.2e}  "
      f"MAE {metric_mae(pred_d, truth):.2e}")
