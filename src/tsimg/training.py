"""Adam optimization and the train/validate loop with early stopping and
best-epoch restoration."""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveError, ShapeMismatchError
from .models import ModelConfig, ParamSet, backward, batch_loss, predict_class

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
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def init(cls, params: ParamSet) -> "AdamState":
        return cls(t=0,
                   m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_metric: float
    seconds: float


History = list  # of EpochRecord


def adam_step(params: ParamSet, grads: dict, state: AdamState,
              lr: float) -> None:
    """One in-place Adam update with bias correction."""
    state.t += 1
    t = state.t
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ShapeMismatchError(f"grad shape {g.shape} != param shape {p.shape} for {k!r}")
        state.m[k] = ADAM_BETA1 * state.m[k] + (1 - ADAM_BETA1) * g
        state.v[k] = ADAM_BETA2 * state.v[k] + (1 - ADAM_BETA2) * g * g
        m_hat = state.m[k] / bc1
        v_hat = state.v[k] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _validation_metric(val_data: list, params: ParamSet, cfg: ModelConfig) -> float:
    """Accuracy for classification (higher better), mean loss otherwise
    (lower better)."""
    if cfg.task == "classify":
        correct = sum(predict_class(s.patch_seqs, params, cfg) == s.label
                      for s in val_data)
        return correct / len(val_data)
    return batch_loss(val_data, params, cfg)


def _improved(metric: float, best: float, cfg: ModelConfig) -> bool:
    if cfg.task == "classify":
        return metric > best
    return metric < best


def train(model_cfg: ModelConfig, params: ParamSet, train_data: list,
          val_data: list, cfg: TrainConfig) -> tuple[ParamSet, History]:
    """Seeded mini-batch Adam loop; restores the best-validation
    parameters on exit and stops after `patience` consecutive
    non-improving epochs."""
    if not train_data or not val_data:
        raise ShapeMismatchError("train and val data must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.init(params)
    history: History = []
    best_metric = -np.inf if model_cfg.task == "classify" else np.inf
    best_params = copy.deepcopy(params)
    bad_epochs = 0
    n = len(train_data)
    for epoch in range(cfg.max_epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            batch = [train_data[i] for i in order[start:start + cfg.batch_size]]
            loss, grads = backward(batch, params, model_cfg)
            adam_step(params, grads, state, cfg.learning_rate)
            epoch_loss += loss
            n_batches += 1
        metric = _validation_metric(val_data, params, model_cfg)
        history.append(EpochRecord(epoch=epoch, train_loss=epoch_loss / n_batches,
                                   val_metric=metric,
                                   seconds=time.perf_counter() - t0))
        if _improved(metric, best_metric, model_cfg):
            best_metric = metric
            best_params = copy.deepcopy(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    for k in params:
        params[k][...] = best_params[k]
    return params, history
