import math

import numpy as np
import pytest

from tsimg import evaluation
from tsimg.errors import (
    DivByZeroError,
    EmptyResultError,
    NonIntegerSegmentError,
    NonPositiveError,
    ShapeMismatchError,
    TooShortError,
)
from tsimg.evaluation import (
    ForecastTask,
    PerturbMode,
    PERTURB_KINDS,
    lookback_sweep,
    metric_accuracy,
    metric_mae,
    metric_mse,
    minmax_normalize,
    performance_drop,
    perturb,
    reoccurrence_brute_force,
    reoccurrence_n,
    segment_sweep,
    split_windows,
)
from tsimg.models import ModelConfig
from tsimg.series import MultivariateSeries, gen_periodic
from tsimg.training import TrainConfig


# --- metrics vs naive double-loop oracles --------------------------------

def _naive_mse(pred, truth):
    total, count = 0.0, 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            total += (pred[i, j] - truth[i, j]) ** 2
            count += 1
    return total / count


def _naive_mae(pred, truth):
    total, count = 0.0, 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            total += abs(pred[i, j] - truth[i, j])
            count += 1
    return total / count


def test_metrics_match_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d, t = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        pred = rng.normal(size=(d, t))
        truth = rng.normal(size=(d, t))
        assert abs(metric_mse(pred, truth) - _naive_mse(pred, truth)) < 1e-12
        assert abs(metric_mae(pred, truth) - _naive_mae(pred, truth)) < 1e-12


def test_metric_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        metric_mse(np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        metric_accuracy([1, 2], [1])


@pytest.mark.parametrize("metric, empty", [(metric_mse, []), (metric_mse, np.zeros((2, 0))),
                                           (metric_mae, []), (metric_mae, np.zeros((2, 0))),
                                           (metric_accuracy, [])])
def test_metric_of_empty_input_raises(metric, empty):
    # metric_mse and metric_mae used to return nan with a RuntimeWarning
    with pytest.raises(EmptyResultError):
        metric(empty, empty)


def test_metric_accuracy_values():
    assert metric_accuracy([0, 1, 2, 1], [0, 1, 1, 1]) == 0.75
    assert metric_accuracy([5], [5]) == 1.0


# --- perturbations -------------------------------------------------------

def _series(T=20, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return MultivariateSeries(rng.normal(size=(d, T)))


def test_perturb_preserves_multiset():
    s = _series()
    for kind in ("sf_all", "sf_half", "ex_half"):
        out = perturb(s, PerturbMode(kind, seed=1))
        for v in range(2):
            assert sorted(out.values[v]) == pytest.approx(sorted(s.values[v]))


def test_perturb_joint_across_variates():
    # same permutation for every variate: equal variates stay equal
    base = np.arange(10.0)
    s = MultivariateSeries(np.stack([base, base]))
    for kind in PERTURB_KINDS:
        out = perturb(s, PerturbMode(kind, seed=2))
        assert np.array_equal(out.values[0], out.values[1])


def test_perturb_sf_half_keeps_tail():
    s = _series(T=11)
    out = perturb(s, PerturbMode("sf_half", seed=3))
    assert np.array_equal(out.values[:, 5:], s.values[:, 5:])


def test_perturb_ex_half_even_is_involution():
    s = _series(T=16)
    mode = PerturbMode("ex_half")
    assert np.array_equal(perturb(perturb(s, mode), mode).values, s.values)


def test_perturb_ex_half_odd_rotation():
    s = MultivariateSeries(np.arange(5.0)[None, :])
    out = perturb(s, PerturbMode("ex_half"))
    assert np.array_equal(out.values[0], [3.0, 4.0, 0.0, 1.0, 2.0])


def test_perturb_masking_zero_count():
    s = _series(T=21)
    out = perturb(s, PerturbMode("masking", seed=4))
    zeroed = np.all(out.values == 0.0, axis=0)
    assert zeroed.sum() == 10  # floor(21/2)


def test_perturb_deterministic_and_validated():
    s = _series()
    a = perturb(s, PerturbMode("sf_all", seed=7))
    b = perturb(s, PerturbMode("sf_all", seed=7))
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ShapeMismatchError):
        PerturbMode("reverse")
    with pytest.raises(TooShortError):
        perturb(MultivariateSeries(np.ones((1, 1))), PerturbMode("sf_all"))


# --- performance drop ----------------------------------------------------

def test_performance_drop_directions():
    assert performance_drop(0.90, 0.45, better="higher") == pytest.approx(50.0)
    assert performance_drop(1.0, 1.5, better="lower") == pytest.approx(50.0)
    assert performance_drop(1.0, 0.5, better="lower") == pytest.approx(-50.0)
    with pytest.raises(DivByZeroError):
        performance_drop(0.0, 1.0)
    with pytest.raises(ShapeMismatchError):
        performance_drop(1.0, 1.0, better="sideways")


# --- segment reoccurrence ------------------------------------------------

def test_reoccurrence_closed_form_cases():
    assert reoccurrence_n(1, 2) == 2    # half-period segments: n = 2
    assert reoccurrence_n(2, 2) == 1    # full period: immediate
    assert reoccurrence_n(3, 2) == 2
    assert reoccurrence_n(1, 4) == 4
    assert reoccurrence_n(6, 4) == 2
    with pytest.raises(NonPositiveError):
        reoccurrence_n(0, 2)


def test_reoccurrence_brute_force_matches_closed_form():
    L = 24
    for k in (2, 3, 4):
        for i in range(1, 3 * k + 1):
            assert reoccurrence_brute_force(i, k, L) == reoccurrence_n(i, k)


def test_reoccurrence_brute_force_rejects_fractional():
    with pytest.raises(NonIntegerSegmentError):
        reoccurrence_brute_force(1, 5, 24)


# --- sweep plumbing ------------------------------------------------------

def test_minmax_normalize():
    assert minmax_normalize([2.0, 4.0, 3.0]) == [0.0, 1.0, 0.5]
    assert minmax_normalize([5.0, 5.0]) == [0.0, 0.0]
    assert minmax_normalize([]) == []       # a look-back sweep whose every length is skipped


def test_split_windows_chronological():
    task = ForecastTask(series=np.arange(100.0), lookback=5, horizon=2,
                        stride=1)
    (tr_lb, tr_tg), (va_lb, _), (te_lb, _) = split_windows(task)
    assert len(tr_lb) == 70 - 5 - 2 + 1
    assert len(va_lb) == 10 - 5 - 2 + 1
    assert len(te_lb) == 20 - 5 - 2 + 1
    # first test window starts where the test block starts
    assert te_lb[0, 0, 0] == 80.0
    # no window crosses a block boundary
    assert tr_tg[-1, 0, -1] == 69.0


def test_lookback_sweep_skips_too_long_lengths():
    # a 600-step series leaves a 120-step test block: look-back 48 fits,
    # 200 does not and is skipped with its reason
    task = ForecastTask(series=gen_periodic(12, 600, "composite", noise_std=0.05),
                        lookback=48, horizon=12, stride=16)
    cfg = ModelConfig(arch="minimae", task="forecast_reconstruct", image_size=16,
                      patch_size=8, embed_dim=8, num_heads=2, horizon=12)
    tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=1, patience=1, seed=0)
    res = lookback_sweep(task, cfg, tc, [48, 200], seg_len=12)
    assert res.axis == [48]
    assert res.skipped == [(200, "series too short for this look-back length")]
    assert len(res.mse) == len(res.mae) == 1
    assert np.all(np.isfinite(res.mse + res.mae))


@pytest.mark.parametrize("ratios", [(0.5, 0.1, 0.2), (0.7, 0.2, 0.2)])
def test_forecast_task_ratios_must_sum_to_one(ratios):
    task = ForecastTask(series=np.arange(100.0), lookback=5, horizon=2, ratios=ratios)
    with pytest.raises(ShapeMismatchError, match="sum to 1"):
        split_windows(task)


def test_sweeps_split_the_series_once_per_task(monkeypatch):
    calls = []

    def counting(task):
        calls.append(task.lookback)
        return split_windows(task)

    split_windows = evaluation.split_windows
    monkeypatch.setattr(evaluation, "split_windows", counting)
    task = ForecastTask(series=gen_periodic(12, 600, "composite", noise_std=0.05),
                        lookback=48, horizon=12, stride=16)
    cfg = ModelConfig(arch="wolvm", task="forecast_reconstruct", image_size=16,
                      patch_size=8, embed_dim=8, num_heads=2, horizon=12)
    tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=1, patience=1, seed=0)
    segment_sweep(task, cfg, tc, L=12, k=3, i_values=[2, 3, 4, 6])
    assert calls == [48]
    calls.clear()
    res = lookback_sweep(task, cfg, tc, [24, 48, 200], seg_len=12)
    assert res.axis == [24, 48] and calls == [24, 48, 200]


def test_sweeps_seed_time_and_record_cells_through_one_loop(monkeypatch):
    # cell i trains with seed ^ i; a skipped look-back keeps its index
    calls = []

    def fake_cell(splits, seg, model_cfg, train_cfg, seed):
        calls.append((len(splits[2][0]), seg, seed))
        return float(seed), -float(seed)

    monkeypatch.setattr(evaluation, "_train_eval_reconstruct", fake_cell)
    task = ForecastTask(series=gen_periodic(12, 600, "composite"), lookback=48, horizon=12,
                        stride=16)
    cfg = ModelConfig(arch="wolvm", task="forecast_reconstruct", image_size=16,
                      patch_size=8, embed_dim=8, num_heads=2, horizon=12)
    tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=1, patience=1, seed=5)
    res = segment_sweep(task, cfg, tc, L=12, k=3, i_values=[2, 3, 6])
    assert calls == [(4, 8, 5), (4, 12, 4), (4, 24, 7)]
    assert (res.axis, res.mse, res.mae) == ([8, 12, 24], [5.0, 4.0, 7.0], [-5.0, -4.0, -7.0])
    assert res.normalized_mse == [1 / 3, 0.0, 1.0] and res.n_values == [3, 1, 1]
    assert res.zero_length_estimate == 5.5 and len(res.seconds) == 3 and res.skipped == []
    calls.clear()
    res = lookback_sweep(task, cfg, tc, [24, 48, 72], seg_len=12)
    assert calls == [(6, 12, 5), (4, 12, 4)]
    assert (res.axis, res.mse, res.normalized_mse) == ([24, 48], [5.0, 4.0], [1.0, 0.0])
    assert res.skipped == [(72, "series too short for this look-back length")]
    assert len(res.seconds) == 2 and res.n_values == [] and res.zero_length_estimate is None


@pytest.mark.parametrize("i_values, error", [([6, 12, 0], NonPositiveError),
                                              ([2, 4, 1], NonIntegerSegmentError)])
def test_segment_sweep_checks_every_i_before_the_first_cell(monkeypatch, i_values, error):
    cells = []
    monkeypatch.setattr(evaluation, "_train_eval_reconstruct", lambda *a, **k: cells.append(a))
    task = ForecastTask(series=gen_periodic(12, 600, "composite"), lookback=48, horizon=12)
    cfg = ModelConfig(arch="wolvm", task="forecast_reconstruct", image_size=16,
                      patch_size=8, embed_dim=8, num_heads=2, horizon=12)
    tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=1, patience=1, seed=0)
    with pytest.raises(error):
        segment_sweep(task, cfg, tc, L=10, k=4, i_values=i_values)
    assert cells == []


def _unsplittable_sweep_args(monkeypatch):
    """A sweep's task, model and train configs, with split_windows failing if it runs."""
    def no_split(task):
        raise AssertionError("split_windows ran")

    monkeypatch.setattr(evaluation, "split_windows", no_split)
    task = ForecastTask(series=gen_periodic(12, 600, "composite"), lookback=48, horizon=12)
    cfg = ModelConfig(arch="wolvm", task="forecast_reconstruct", image_size=16,
                      patch_size=8, embed_dim=8, num_heads=2, horizon=12)
    tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=1, patience=1, seed=0)
    return task, cfg, tc


def test_segment_sweep_refuses_empty_i_values_before_splitting(monkeypatch):
    with pytest.raises(EmptyResultError, match="at least one i"):
        segment_sweep(*_unsplittable_sweep_args(monkeypatch), L=12, k=3, i_values=[])


def test_lookback_sweep_refuses_empty_lengths_before_splitting(monkeypatch):
    with pytest.raises(EmptyResultError, match="at least one length"):
        lookback_sweep(*_unsplittable_sweep_args(monkeypatch), [])


@pytest.mark.parametrize("lengths", [[48, 48], [24, 48, 48, 96], [96, 48]])
def test_lookback_sweep_refuses_repeated_or_decreasing_lengths_before_splitting(
        monkeypatch, lengths):
    with pytest.raises(ShapeMismatchError, match="strictly increasing"):
        lookback_sweep(*_unsplittable_sweep_args(monkeypatch), lengths, seg_len=12)


def test_split_windows_short_block_is_empty():
    # 100 steps: the 10-step val block cannot hold a 12-step window
    (tr, _), (va, va_tg), (te, _) = split_windows(ForecastTask(series=np.arange(100.0),
                                                               lookback=8, horizon=4, stride=3))
    assert va.shape == (0, 1, 8) and va_tg.shape == (0, 1, 4)
    assert len(tr) == (70 - 12) // 3 + 1 and len(te) == (20 - 12) // 3 + 1
