"""Time-series imaging toolkit: eight series-to-image transforms, three
desk-scale trainable frameworks (classification probe, linear forecasting,
mask-reconstruction forecasting), and the evaluation harness around them."""

__version__ = "0.1.0"

from .series import (
    MultivariateSeries,
    SplitStats,
    WindowSample,
    chronological_split,
    gen_ar1,
    gen_periodic,
    slide_windows,
    standardize_by_train,
)
from .imaging import (
    GafContext,
    PeriodEstimate,
    detect_period,
    filterbank_spectrogram,
    gaf,
    gaf_diag_inverse,
    lineplot_raster,
    mvh,
    recurrence_plot,
    stft_spectrogram,
    uvh,
    uvh_inverse,
    wavelet_scalogram,
)
from .alignment import (
    build_forecast_mask,
    patchify,
    replicate_channels,
    resize_bilinear,
    standardize_image,
    unpatchify,
)
from .models import ModelConfig, backward, init_params, validate_routing
from .training import AdamState, TrainConfig, adam_step, train
from .evaluation import (
    ForecastTask,
    PerturbMode,
    SweepResult,
    lookback_sweep,
    metric_accuracy,
    metric_mae,
    metric_mse,
    performance_drop,
    perturb,
    reoccurrence_brute_force,
    reoccurrence_n,
    segment_sweep,
)
from .pipeline import predict_forecast, predict_forecast_mvh
