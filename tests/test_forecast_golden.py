"""The single-window forecast path against committed golden outputs.

`data/forecast_golden.npz` holds :func:`~tsimg.pipeline.predict_forecast`
and :func:`~tsimg.pipeline.predict_forecast_mvh` outputs for every arch at
each (image_size, patch_size) geometry of the property tests, on a flat and
a noisy window. The models run on float64 parameters, the float64 draw that
init_params casts to float32 (models._draw_params), so the file pins the
float64 arithmetic of the code float32 models run through. On the platform
that wrote the file the forecasts must match it bit for bit, so a change
that only trims numpy calls off the forecast path is shown to change no
output. The file was written when the reconstruction model had three
channels; the one-channel model is drawn as the fold of that model's draw,
so its forecasts still match it. Elsewhere they are held to 1e-10: another
CPU makes OpenBLAS pick another kernel, which rounds matmuls differently
(about 1e-14 relative when a Haswell or Zen kernel is forced on an AVX-512
machine with OPENBLAS_CORETYPE).

Regenerate it (only when a change is meant to move forecasts) with
``PYTHONPATH=src python tests/test_forecast_golden.py``.
"""

import os
import platform
from pathlib import Path

import numpy as np
import pytest

from tsimg.models import ARCHS, ModelConfig, _draw_params
from tsimg.pipeline import predict_forecast, predict_forecast_mvh
from tsimg.series import gen_periodic

GOLDEN = Path(__file__).parent / "data" / "forecast_golden.npz"
GEOMETRIES = [(16, 4), (16, 8), (32, 8)]          # as in test_properties.py
LOOKBACK, HORIZON, L, D = 48, 8, 12, 3


def _platform() -> str:
    """What the forecast bits depend on besides the code: numpy's version,
    the machine, the CPU features numpy dispatches on (which also decide
    OpenBLAS's kernels) and a forced OpenBLAS kernel."""
    core = np._core if hasattr(np, "_core") else np.core
    features = sorted(k for k, on in core._multiarray_umath.__cpu_features__.items() if on)
    forced = os.environ.get("OPENBLAS_CORETYPE", "")
    return " ".join([np.__version__, platform.machine(), f"coretype={forced}"] + features)


def _windows() -> dict:
    """(d, H) look-backs: one constant everywhere, one noisy and periodic."""
    noisy = np.stack([gen_periodic(L, LOOKBACK, wave, seed=v, noise_std=0.3) * (1 + v) + v
                      for v, wave in enumerate(("sine", "composite", "sawtooth"))])
    return {"flat": np.full((D, LOOKBACK), 1.7), "noisy": noisy}


KEYS = sorted(f"{layout}_{arch}_{S}x{P}_{kind}" for layout in ("uvh", "mvh")
              for S, P in GEOMETRIES for arch in ARCHS for kind in ("flat", "noisy"))


def _forecasts() -> dict:
    out = {}
    windows = _windows()
    for S, P in GEOMETRIES:
        for k, arch in enumerate(ARCHS):
            cfg = ModelConfig(arch=arch, task="forecast_reconstruct", image_size=S,
                              patch_size=P, embed_dim=8, num_heads=2, horizon=HORIZON)
            params = _draw_params(cfg, seed=S + P + k)
            # a random decoder bias, drawn at three channels and folded by
            # their mean as the model's decoder is (models._draw_params)
            b = np.random.default_rng(P + k).normal(size=(3, P * P))
            params["dec_b"] = (b[0] + b[1] + b[2]) / 3
            for kind, lb in windows.items():
                key = f"{arch}_{S}x{P}_{kind}"
                out[f"uvh_{key}"] = predict_forecast(lb[1], L, HORIZON, params, cfg)
                out[f"mvh_{key}"] = predict_forecast_mvh(lb, HORIZON, params, cfg)
    return out


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as f:
        return {k: f[k] for k in f.files if k != "platform"}, str(f["platform"])


@pytest.fixture(scope="module")
def forecasts():
    return _forecasts()


def test_golden_covers_every_case(golden, forecasts):
    assert sorted(golden[0]) == sorted(forecasts) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_single_window_forecast_is_bitwise_golden(golden, forecasts, key):
    got, want = forecasts[key], golden[0][key]
    assert got.dtype == want.dtype and got.shape == want.shape
    if golden[1] == _platform():
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez(GOLDEN, platform=np.array(_platform()), **_forecasts())
    print(f"wrote {GOLDEN}")
