"""Forecast a periodic series two ways: the linear head on UVH images
and the mask-reconstruction pipeline.

The linear head regresses future values directly from the imaged
look-back; the reconstruction path instead inpaints the masked horizon
columns of the heatmap and reads the forecast back out of the image.
"""

import numpy as np

from tsimg.evaluation import ForecastTask, _split_windows, metric_mae, metric_mse
from tsimg.models import ModelConfig, init_params, predict_linear
from tsimg.pipeline import build_linear_sample, build_reconstruct_samples, predict_forecasts
from tsimg.series import gen_periodic
from tsimg.training import TrainConfig, train

L, LOOKBACK, HORIZON = 24, 96, 24
x = gen_periodic(L, 2000, "composite", seed=3, noise_std=0.05)
task = ForecastTask(series=x, lookback=LOOKBACK, horizon=HORIZON, stride=4)
tr_w, va_w, te_w = _split_windows(task)
print(f"windows: {len(tr_w)} train / {len(va_w)} val / {len(te_w)} test")

# --- framework (c): linear forecasting head ------------------------------
cfg_c = ModelConfig(arch="wolvm", task="forecast_linear", image_size=32,
                    patch_size=8, embed_dim=32, num_heads=4, horizon=HORIZON)
mk = lambda lb, tg: build_linear_sample(lb, tg, "uvh", cfg_c, L=L)
params = init_params(cfg_c, 0)
params, _ = train(cfg_c, params, [mk(*w) for w in tr_w], [mk(*w) for w in va_w],
                  TrainConfig(learning_rate=1e-2, batch_size=32,
                              max_epochs=60, patience=60, seed=0))
pred_c = np.stack([predict_linear(mk(lb, tg).patches, params, cfg_c)
                   for lb, tg in te_w])
truth = np.stack([tg for _, tg in te_w])
print(f"linear head:     MSE {metric_mse(pred_c, truth):.2e}  "
      f"MAE {metric_mae(pred_c, truth):.2e}")

# --- framework (d): mask-reconstruction ----------------------------------
cfg_d = ModelConfig(arch="minimae", task="forecast_reconstruct",
                    image_size=32, patch_size=8, embed_dim=32, num_heads=4,
                    horizon=HORIZON)
# every window shares one segment length, so each split is one stacked call
stacks = [(np.stack([lb for lb, _ in w]), np.stack([tg for _, tg in w]))
          for w in (tr_w, va_w, te_w)]
params = init_params(cfg_d, 0)
params, _ = train(cfg_d, params,
                  build_reconstruct_samples(*stacks[0], L, cfg_d),
                  build_reconstruct_samples(*stacks[1], L, cfg_d),
                  TrainConfig(learning_rate=3e-3, batch_size=16,
                              max_epochs=150, patience=150, seed=0))
pred_d = predict_forecasts(stacks[2][0], L, HORIZON, params, cfg_d)
print(f"reconstruction:  MSE {metric_mse(pred_d, truth):.2e}  "
      f"MAE {metric_mae(pred_d, truth):.2e}")
