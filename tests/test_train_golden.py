"""Training against committed golden outputs.

`data/train_golden.npz` holds the parameters and the per-epoch train losses
and validation metrics after 3 epochs of :func:`~tsimg.training.train` for
every arch and task on small seeded splits. The reconstruct split comes from
:func:`~tsimg.pipeline.forecast_samples` with FFT-detected segment lengths on
two variates of different periods, so it mixes two forecast masks, as
``tsimg train`` does; its validation split is larger than one
``PASS_SAMPLES`` pass. Training starts from float64 parameters, the float64
draw that init_params casts to float32 (models._draw_params), so the file
pins the float64 arithmetic of the code float32 models train through. On the
platform that wrote the file the results must match it bit for bit, so a
change that only reorganizes how training reads its samples is shown to
change no bit of training. The reconstruct cases were re-recorded when that
model became one channel wide; the classify and linear ones were not.
Elsewhere they are held to 1e-10 (see test_forecast_golden.py for why).

Regenerate it (only when a change is meant to move training) with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_train_golden.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from test_forecast_golden import _platform
from tsimg.models import ARCHS, PASS_SAMPLES, TASKS, ClassifySample, ModelConfig, _draw_params
from tsimg.pipeline import forecast_samples
from tsimg.series import MultivariateSeries, gen_periodic, window_stacks
from tsimg.training import TrainConfig, train

GOLDEN = Path(__file__).parent / "data" / "train_golden.npz"
S, P, LOOKBACK, HORIZON = 16, 4, 48, 8
PERIODS = (12, 24)          # FFT segment lengths whose forecast masks differ at S, P
EPOCHS = 3


def _forecast_split(n: int, seed: int):
    """(n, 2, LOOKBACK) look-backs and (n, 2, HORIZON) targets of two noisy
    variates with periods PERIODS."""
    values = np.stack([gen_periodic(L, LOOKBACK + HORIZON + n - 1, "composite",
                                    seed=seed + v, noise_std=0.1)
                       for v, L in enumerate(PERIODS)])
    return window_stacks(MultivariateSeries(values), LOOKBACK, HORIZON)


def _splits(cfg: ModelConfig) -> tuple:
    """Seeded (train, val) samples for cfg.task."""
    if cfg.task == "classify":
        rng = np.random.default_rng(5)
        return tuple([ClassifySample([rng.normal(size=(cfg.n_patches, cfg.patch_dim))
                                      for _ in range(cfg.num_variates)],
                                     int(rng.integers(cfg.num_classes)))
                      for _ in range(n)] for n in (20, 9))
    seg_len = None if cfg.task == "forecast_reconstruct" else PERIODS[0]
    n_val = PASS_SAMPLES // 2 + 3       # two samples per window: more than one pass
    return tuple(forecast_samples(*_forecast_split(n, seed), "uvh", cfg, seg_len)
                 for n, seed in ((10, 1), (n_val, 7)))


CASES = [(arch, task) for arch in ARCHS for task in TASKS]


def _run(arch: str, task: str) -> dict:
    cfg = ModelConfig(arch=arch, task=task, image_size=S, patch_size=P, embed_dim=8,
                      num_heads=2, horizon=HORIZON, num_classes=3, num_variates=2)
    train_s, val_s = _splits(cfg)
    params = _draw_params(cfg, seed=ARCHS.index(arch) + 3 * TASKS.index(task))
    tc = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=EPOCHS,
                     patience=EPOCHS, seed=11)
    params, history = train(cfg, params, train_s, val_s, tc)
    out = {f"param_{k}": v for k, v in params.items()}
    out["train_loss"] = np.array([e.train_loss for e in history])
    out["val_metric"] = np.array([e.val_metric for e in history])
    return {f"{arch}_{task}_{k}": v for k, v in out.items()}


def _all_runs() -> dict:
    return {k: v for arch, task in CASES for k, v in _run(arch, task).items()}


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as f:
        return {k: f[k] for k in f.files if k != "platform"}, str(f["platform"])


@pytest.fixture(scope="module")
def runs():
    return _all_runs()


def test_reconstruct_split_mixes_two_masks():
    cfg = ModelConfig(arch="minimae", task="forecast_reconstruct", image_size=S,
                      patch_size=P, embed_dim=8, num_heads=2, horizon=HORIZON)
    train_s, _ = _splits(cfg)
    masks = {tuple(train_s[i].mask_rows) for i in range(len(train_s))}
    assert len(masks) == 2


def test_golden_covers_every_case(golden, runs):
    assert sorted(golden[0]) == sorted(runs)
    assert {k.split("_param")[0] for k in runs if "_param_" in k} == \
        {f"{arch}_{task}" for arch, task in CASES}


@pytest.mark.parametrize("case", [f"{a}_{t}" for a, t in CASES])
def test_training_is_bitwise_golden(golden, runs, case):
    keys = sorted(k for k in runs if k.startswith(case + "_"))
    assert keys
    for key in keys:
        got, want = runs[key], golden[0][key]
        assert got.dtype == want.dtype and got.shape == want.shape, key
        if golden[1] == _platform():
            assert got.tobytes() == want.tobytes(), key
        else:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12, err_msg=key)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez(GOLDEN, platform=np.array(_platform()), **_all_runs())
    print(f"wrote {GOLDEN}")
