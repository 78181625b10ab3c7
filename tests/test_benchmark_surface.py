"""The benchmark's tracer replaces every function that perfbench/spans.py
names in LAYERS; a renamed or deleted one fails the traced benchmark run.
It also reads the batches that models.backward receives, sample by sample.
This pins that surface in tier-1, reading spans.py without changing it."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tsimg import training
from tsimg.imaging import detect_period
from tsimg.models import ModelConfig, Samples, init_params
from tsimg.pipeline import build_reconstruct_sample
from tsimg.series import gen_periodic

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _layers() -> dict:
    return _spans().LAYERS


@pytest.mark.parametrize("name", [f"{layer}.{fn}" for layer, fns in _layers().items()
                                  for fn in fns])
def test_traced_function_is_callable(name):
    layer, fn = name.split(".")
    module = importlib.import_module(f"tsimg.{layer}")
    assert callable(getattr(module, fn, None)), f"tsimg.{name} is missing"


def test_tracer_counts_a_training_batch_as_its_list_of_samples(monkeypatch):
    """A batch that train passes to models.backward is a Samples stack; the
    tracer iterates it and must read the counts of the same samples as a list."""
    cfg = ModelConfig(arch="minimae", task="forecast_reconstruct", image_size=16,
                      patch_size=4, embed_dim=8, num_heads=2, horizon=8)
    samples = []                                    # forecast_eval's set-up: n = 1 builds
    for k, period in enumerate((12, 24, 12, 24, 12, 24, 12)):
        x = gen_periodic(period, 56, "composite", seed=k, noise_std=0.1)
        samples.append(build_reconstruct_sample(x[:48], x[48:], detect_period(x[:48]).chosen_L,
                                                cfg))
    assert len({tuple(s.mask_rows) for s in samples}) == 2
    seen = []
    real_backward = training.backward

    def spy(batch, *args):
        seen.append(batch)
        return real_backward(batch, *args)

    monkeypatch.setattr(training, "backward", spy)
    params = init_params(cfg, seed=0)
    tc = training.TrainConfig(batch_size=4, max_epochs=1, seed=3)
    training.train(cfg, params, samples, samples, tc)
    order = np.random.default_rng(tc.seed).permutation(len(samples))
    spans = _spans()
    for start, batch in zip(range(0, len(samples), tc.batch_size), seen, strict=True):
        assert isinstance(batch, Samples)
        as_list = [samples[i] for i in order[start:start + tc.batch_size]]
        counts = []
        for b in (batch, as_list):
            tracer = spans.Tracer()
            tracer._count_model_inputs("models.backward", (b, params, cfg))
            counts.append(tracer._model)
        assert counts[0] == counts[1]
        assert counts[0]["samples"] == len(as_list) and counts[0]["masked"] > 0


def test_reconstruct_train_and_forecasts_run_under_the_tracer():
    """A traced benchmark run replaces every function in LAYERS, and the
    tracer reads the inputs of some of them, such as `.patches` of
    models.forward_reconstruct's first argument. So a library path that
    reaches a traced name with arguments the tracer cannot read fails the
    traced run: train and forecast with a reconstruct model under it."""
    import tsimg
    import tsimg.alignment
    import tsimg.dataio
    import tsimg.evaluation
    import tsimg.series  # noqa: F401  (patched reaches each layer as a package attribute)
    from tsimg import pipeline
    spans = _spans()
    cfg = ModelConfig(arch="minimae", task="forecast_reconstruct", image_size=16,
                      patch_size=4, embed_dim=8, num_heads=2, horizon=8)
    windows = [gen_periodic(12, 56, "composite", seed=k, noise_std=0.1) for k in range(4)]
    samples = [build_reconstruct_sample(x[:48], x[48:], 12, cfg) for x in windows]
    tracer = spans.Tracer()
    with spans.patched(tsimg, tracer.replacements()), tracer.item_span():
        params, history = training.train(cfg, init_params(cfg, seed=0), samples, samples,
                                         training.TrainConfig(batch_size=2, max_epochs=1))
        uvh = pipeline.predict_forecast(windows[0][:48], 12, 8, params, cfg)
        mvh = pipeline.predict_forecast_mvh(np.stack(windows)[:, :48], 8, params, cfg)
    assert uvh.shape == (8,) and mvh.shape == (4, 8) and len(history) == 1
    called = {tracer.names[i] for i in tracer.name_id}
    assert {"training.train", "models.backward", "models.forward_embed",
            "pipeline.predict_forecast", "pipeline.predict_forecast_mvh"} <= called
    # one epoch: each sample once through models.backward, once through batch_loss
    assert tracer.train_calls == 1 and tracer._model["samples"] == 2 * len(samples)
