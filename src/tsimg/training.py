"""Adam optimization and the train/validate loop with early stopping and
best-epoch restoration. Training keeps one contiguous vector each, in the
model dtype, for the parameters, the gradients, Adam's m and v and the
best-epoch snapshot; the model reads the first two by name through
models.flat_views, and an Adam step is a few whole-vector ufunc calls. Each
split is one models.Samples stack, its float fields cast once to that dtype,
and a batch is one index gather per field of it."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveError, ShapeMismatchError
from .models import (
    ModelConfig,
    ParamSet,
    Samples,
    backward,
    batch_loss,
    flat_views,
    predict_class,
    stack_samples,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        if min(self.batch_size, self.max_epochs, self.patience) < 1:
            raise NonPositiveError("batch_size, max_epochs and patience must be >= 1")

    @classmethod
    def for_classification(cls, **kw) -> "TrainConfig":
        return cls(max_epochs=kw.pop("max_epochs", 30),
                   patience=kw.pop("patience", 8), **kw)


@dataclass
class AdamState:
    """Adam's step count and moments for one flat vector, and scratch for a step."""
    t: int
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray = field(repr=False)

    @classmethod
    def init(cls, params: np.ndarray) -> "AdamState":
        return cls(0, np.zeros_like(params), np.zeros_like(params),
                   np.empty((2, params.size), params.dtype))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_metric: float
    seconds: float


History = list  # of EpochRecord


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float) -> None:
    """One bias-corrected Adam update of a flat parameter vector, in place and
    in the operand order of m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g
    and p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)."""
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ShapeMismatchError(f"grads {grads.shape}, moments {state.m.shape} != {params.shape}")
    state.t += 1
    m, v, (num, den) = state.m, state.v, state.scratch
    m *= ADAM_BETA1
    m += np.multiply(grads, 1 - ADAM_BETA1, out=num)
    v *= ADAM_BETA2
    np.multiply(grads, 1 - ADAM_BETA2, out=num)
    v += np.multiply(num, grads, out=num)
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=den), out=den)
    den += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1 ** state.t, out=num)
    num *= lr
    params -= np.divide(num, den, out=num)


def _validation_metric(val: Samples, params: ParamSet, cfg: ModelConfig) -> float:
    """Accuracy for classification (higher better), one sample at a time;
    mean loss otherwise (lower better)."""
    if cfg.task == "classify":
        return sum(predict_class(x, params, cfg) == y
                   for x, y in zip(val.patch_seqs, val.label.tolist())) / len(val)
    return batch_loss(val, params, cfg)


def best_epoch(history: History, task: str) -> EpochRecord:
    """The first epoch of the best val_metric (accuracy rises, loss falls)."""
    return max(history, key=lambda e: e.val_metric if task == "classify" else -e.val_metric)


def train(model_cfg: ModelConfig, params: ParamSet, train_data, val_data,
          cfg: TrainConfig) -> tuple[ParamSet, History]:
    """Seeded mini-batch Adam loop on a copy of `params` packed into one
    vector of the model dtype (embed_w's); stops after `patience` consecutive
    non-improving epochs, writes the best-validation epoch's values into the
    caller's arrays and returns the caller's dict. Each split is a Samples or
    a list of samples, stacked and cast once here. A non-finite loss raises
    NonFiniteLossError and leaves the caller's arrays at their entry values."""
    if not train_data or not val_data:
        raise ShapeMismatchError("train and val data must be non-empty")
    live = flat_views(np.concatenate([p.ravel() for p in params.values()],
                                     dtype=params["embed_w"].dtype), params)
    train_data, val_data = (stack_samples(s).astype(live.vector.dtype)
                            for s in (train_data, val_data))
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.init(live.vector)
    history: History = []
    best, top = live.vector.copy(), None
    for epoch in range(cfg.max_epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_data))
        epoch_loss = 0.0
        starts = range(0, len(train_data), cfg.batch_size)
        for start in starts:
            batch = train_data[order[start:start + cfg.batch_size]]
            loss, grads = backward(batch, live, model_cfg)
            adam_step(live.vector, grads.vector, state, cfg.learning_rate)
            epoch_loss += loss
        metric = _validation_metric(val_data, live, model_cfg)
        history.append(EpochRecord(epoch=epoch, train_loss=epoch_loss / len(starts),
                                   val_metric=metric, seconds=time.perf_counter() - t0))
        top = best_epoch([top, history[-1]] if top else history, model_cfg.task)  # running best
        if top is history[-1]:
            np.copyto(best, live.vector)
        elif epoch - top.epoch >= cfg.patience:
            break
    for k, p in flat_views(best, params).items():
        params[k][...] = p
    return params, history
