import numpy as np
import pytest

from tsimg.errors import (
    EmptyResultError,
    InvalidPeriodError,
    ShapeMismatchError,
    UnstableCoefficientError,
)
from tsimg.series import (
    MultivariateSeries,
    chronological_split,
    gen_ar1,
    gen_periodic,
    slide_windows,
    standardize_by_train,
    window_stacks,
)


def test_slide_windows_count():
    s = MultivariateSeries(np.arange(10.0)[None, :])
    wins = slide_windows(s, lookback=4, horizon=2, stride=1)
    assert len(wins) == 5  # 10 - 4 - 2 + 1


def test_slide_windows_contiguous_and_adjacent():
    s = MultivariateSeries(np.arange(20.0)[None, :])
    wins = slide_windows(s, lookback=3, horizon=2, stride=1)
    for i, w in enumerate(wins):
        assert np.array_equal(w.lookback[0], np.arange(i, i + 3, dtype=float))
        assert np.array_equal(w.target[0], np.arange(i + 3, i + 5, dtype=float))


def test_slide_windows_covers_all_indices():
    T = 30
    s = MultivariateSeries(np.arange(float(T))[None, :])
    wins = slide_windows(s, lookback=5, horizon=3, stride=1)
    seen = set()
    for w in wins:
        seen.update(int(v) for v in w.lookback[0])
        seen.update(int(v) for v in w.target[0])
    assert seen == set(range(T))


def test_slide_windows_are_read_only_views():
    s = MultivariateSeries(np.arange(40.0).reshape(2, 20))
    for w in slide_windows(s, lookback=5, horizon=3, stride=4):
        for part in (w.lookback, w.target):
            assert np.shares_memory(part, s.values)
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 1.0
    assert s.values.flags.writeable


def test_window_stacks_are_read_only_views():
    s = MultivariateSeries(np.arange(60.0).reshape(3, 20))
    lookbacks, targets = window_stacks(s, lookback=5, horizon=3, stride=4)
    assert lookbacks.shape == (4, 3, 5) and targets.shape == (4, 3, 3)
    assert np.array_equal(targets[1], s.values[:, 9:12])
    for part in (lookbacks, targets):
        assert np.shares_memory(part, s.values) and not part.flags.writeable
    # each window keeps the strides of the series it views
    assert [w.lookback.strides for w in slide_windows(s, 5, 3, 4)] == [s.values.strides] * 4


@pytest.mark.parametrize("T, lookback, horizon", [(5, 4, 2), (3, 4, 0), (1, 1, 1)])
def test_window_stacks_of_a_short_series_are_empty(T, lookback, horizon):
    s = MultivariateSeries(np.zeros((2, T)))
    lookbacks, targets = window_stacks(s, lookback, horizon, stride=3)
    assert lookbacks.shape == (0, 2, lookback) and targets.shape == (0, 2, horizon)


def test_slide_windows_too_short():
    s = MultivariateSeries(np.arange(5.0)[None, :])
    with pytest.raises(EmptyResultError):
        slide_windows(s, lookback=4, horizon=2)


def test_standardize_train_stats():
    tr = MultivariateSeries(np.array([[1.0, 2.0, 3.0]]))
    va = MultivariateSeries(np.array([[4.0, 5.0]]))
    te = MultivariateSeries(np.array([[6.0]]))
    tr2, va2, te2, stats = standardize_by_train(tr, va, te)
    assert abs(tr2.values.mean()) < 1e-9
    assert abs(tr2.values.std() - 1.0) < 1e-9
    # val transformed with train's stats, not its own
    assert abs(va2.values.mean()) > 1.0


def test_standardize_degenerate_variate():
    tr = MultivariateSeries(np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]))
    va = MultivariateSeries(tr.values.copy())
    te = MultivariateSeries(tr.values.copy())
    tr2, _, _, stats = standardize_by_train(tr, va, te)
    assert np.all(tr2.values[0] == 0.0)
    assert stats.degenerate.tolist() == [True, False]


def test_standardize_refuses_a_variate_whose_scale_overflows():
    # the sum of squares of a 1e200-scale sine overflows: its std reads inf,
    # and dividing by it would turn every split of the variate into zeros
    with np.errstate(over="ignore", invalid="ignore"):
        x = gen_periodic(8, 200, "sine") * 1e200
        tr, va, te = chronological_split(MultivariateSeries(np.stack([x, x / 1e200])))
        with pytest.raises(ShapeMismatchError):
            standardize_by_train(tr, va, te)
        # a constant variate has no scale to overflow: it still maps to zeros
        flat = MultivariateSeries(np.stack([np.full(100, 1e307), np.arange(100.0)]))
        tr2, _, _, stats = standardize_by_train(flat, flat, flat)
    assert stats.degenerate.tolist() == [True, False] and np.all(tr2.values[0] == 0.0)


@pytest.mark.parametrize("v", [0.1, 1 / 3, -1.3420444532864415])
def test_standardize_constant_variate_with_inexact_mean_is_degenerate(v):
    # over 100 steps the rounded mean of each v differs from v: std is not 0
    tr = MultivariateSeries(np.stack([np.full(100, v), np.arange(100.0)]))
    assert tr.values[0].std() > 0.0
    tr2, va2, _, stats = standardize_by_train(tr, tr, tr)
    assert stats.degenerate.tolist() == [True, False]
    assert np.all(tr2.values[0] == 0.0) and np.all(va2.values[0] == 0.0)
    # the rounded mean of 100 copies of v is not v; the stored mean must be
    assert stats.mean[0] == v


def test_chronological_split_sizes():
    s = MultivariateSeries(np.arange(100.0)[None, :])
    a, b, c = chronological_split(s)
    assert (a.length, b.length, c.length) == (70, 10, 20)
    assert a.values[0, 0] == 0.0 and c.values[0, -1] == 99.0


@pytest.mark.parametrize("shape", [(2, 0), (1, 0), (0, 5), (0,)])
def test_a_series_without_steps_or_variates_is_refused(shape):
    with pytest.raises(ShapeMismatchError, match="non-empty"):
        MultivariateSeries(np.zeros(shape))


@pytest.mark.parametrize("T, ratios, block", [
    (9, (0.7, 0.1, 0.2), "val"),            # int(0.9) = 0 val steps
    (1, (0.7, 0.1, 0.2), "train"),
    (10, (0.7, 0.3, 0.0), "test"),
    (10, (0.0, 0.5, 0.5), "train"),
])
def test_chronological_split_names_an_empty_block(T, ratios, block):
    s = MultivariateSeries(np.arange(float(T))[None, :])
    with pytest.raises(EmptyResultError, match=f"leaves {block} empty"):
        chronological_split(s, ratios)


def test_chronological_split_of_the_shortest_series_with_three_blocks():
    a, b, c = chronological_split(MultivariateSeries(np.arange(10.0)[None, :]))
    assert (a.length, b.length, c.length) == (7, 1, 2)
    assert np.array_equal(np.concatenate([a.values, b.values, c.values], axis=1),
                          np.arange(10.0)[None, :])


def test_gen_periodic_exact_periodicity():
    x = gen_periodic(24, 96, "sine")
    for s in (24, 48, 72):
        assert np.array_equal(x[: 96 - s], x[s:])


def test_gen_periodic_waveforms_and_determinism():
    for wf in ("sine", "sawtooth", "composite"):
        a = gen_periodic(12, 100, wf, seed=5, noise_std=0.1)
        b = gen_periodic(12, 100, wf, seed=5, noise_std=0.1)
        assert np.array_equal(a, b)


def test_gen_periodic_invalid_period():
    with pytest.raises(InvalidPeriodError):
        gen_periodic(0, 10)
    with pytest.raises(InvalidPeriodError):
        gen_periodic(11, 10)


def test_gen_ar1_autocorrelation():
    x = gen_ar1(0.9, 10000, seed=1)
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert 0.85 <= r1 <= 0.95
    white = gen_ar1(0.0, 10000, seed=2)
    r1w = np.corrcoef(white[:-1], white[1:])[0, 1]
    assert abs(r1w) < 0.05


def test_gen_ar1_unstable():
    with pytest.raises(UnstableCoefficientError):
        gen_ar1(1.0, 100)


def test_gen_ar1_deterministic():
    assert np.array_equal(gen_ar1(0.5, 500, seed=9), gen_ar1(0.5, 500, seed=9))
