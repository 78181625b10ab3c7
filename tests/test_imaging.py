import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsimg.errors import (
    EmbeddingTooLargeError,
    NonPositiveError,
    NotSquareError,
    SeriesTooShortError,
    ShapeMismatchError,
    WindowTooLongError,
)
from tsimg.imaging import (
    MORLET_W0,
    detect_period,
    filterbank_spectrogram,
    gaf,
    gaf_diag_inverse,
    lineplot_raster,
    morlet_fourier_period,
    mvh,
    recurrence_plot,
    stft_spectrogram,
    uvh,
    uvh_inverse,
    wavelet_scalogram,
    wavelet_scales,
    _morlet_daughters,
    _segment_pixels,
    _triangular_filterbank,
)
from tsimg.series import MultivariateSeries, gen_periodic


# --- period detection ---------------------------------------------------

def test_detect_period_pure_sine():
    x = gen_periodic(24, 1152, "sine")
    est = detect_period(x)
    assert est.chosen_L == 24


@pytest.mark.parametrize("L,T", [(12, 480), (7, 700), (50, 2000)])
def test_detect_period_various(L, T):
    x = gen_periodic(L, T, "sine")
    assert detect_period(x).chosen_L == L


def test_detect_period_constant_degenerate():
    est = detect_period(np.ones(64))
    assert est.degenerate
    assert est.chosen_L == 64


def test_detect_period_too_short():
    with pytest.raises(SeriesTooShortError):
        detect_period(np.array([1.0, 2.0, 3.0]))


def test_detect_period_tie_prefers_longer_period():
    # two equal-amplitude sinusoids at bin frequencies 4 and 8 over T=64
    t = np.arange(64)
    x = np.sin(2 * np.pi * 4 * t / 64) + np.sin(2 * np.pi * 8 * t / 64)
    assert detect_period(x).chosen_L == 16  # ceil(64/4)


# --- UVH ----------------------------------------------------------------

def test_uvh_stacking():
    img = uvh(np.arange(1.0, 9.0), 4)
    assert img.shape == (4, 2)
    assert np.array_equal(img[:, 0], [1, 2, 3, 4])
    assert np.array_equal(img[:, 1], [5, 6, 7, 8])


def test_uvh_padding():
    img = uvh(np.arange(1.0, 8.0), 4)
    assert img.shape == (4, 2)
    assert np.array_equal(img[:, 0], [1, 1, 2, 3])  # one pad, the first observed value


def test_uvh_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        T = int(rng.integers(1, 200))
        L = int(rng.integers(1, 40))
        x = rng.normal(size=T)
        assert np.array_equal(uvh_inverse(uvh(x, L), T), x)


# --- MVH ----------------------------------------------------------------

def test_mvh_identity_layout():
    v = np.arange(6.0).reshape(2, 3)
    img = mvh(MultivariateSeries(v))
    assert np.array_equal(img, v)


# --- GAF ----------------------------------------------------------------

def test_gaf_extremes():
    img, ctx = gaf(np.array([0.0, 1.0]))
    assert img[1, 1] == pytest.approx(1.0)    # x_hat = 1 -> cos(0)
    assert img[0, 0] == pytest.approx(-1.0)   # x_hat = 0 -> cos(pi)


def test_gaf_symmetry_range_diagonal():
    rng = np.random.default_rng(1)
    x = rng.normal(size=30)
    p, ctx = gaf(x)
    assert np.allclose(p, p.T)
    assert p.min() >= -1.0 - 1e-12 and p.max() <= 1.0 + 1e-12
    xh = (x - ctx.min) / (ctx.max - ctx.min)
    assert np.allclose(np.diagonal(p), 2 * xh * xh - 1, atol=1e-12)


def test_gaf_degenerate_midpoint():
    img, ctx = gaf(np.full(5, 3.0))
    assert ctx.degenerate
    # x_hat = 0.5 -> cos(2 arccos(.5)) = -0.5 on the diagonal
    assert np.allclose(np.diagonal(img), -0.5)


def test_gaf_diag_inverse_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=25)
        img, ctx = gaf(x)
        assert np.max(np.abs(gaf_diag_inverse(img, ctx) - x)) < 1e-9


def test_gaf_diag_inverse_bounds():
    img, ctx = gaf(np.array([2.0, 5.0, 3.0]))
    assert gaf_diag_inverse(np.eye(3), ctx).max() == pytest.approx(5.0)
    assert gaf_diag_inverse(-np.eye(3) * 1.0, ctx).min() == pytest.approx(2.0)
    with pytest.raises(NotSquareError):
        gaf_diag_inverse(np.zeros((2, 3)), ctx)


# --- recurrence plot ----------------------------------------------------

def test_rp_constant_series_zero():
    img = recurrence_plot(np.full(10, 2.0))
    assert np.all(img == 0.0)


def test_rp_symmetric_zero_diag():
    rng = np.random.default_rng(4)
    p = recurrence_plot(rng.normal(size=20), embed_dim=3, delay=2)
    assert p.shape == (16, 16)
    assert np.allclose(p, p.T)
    assert np.all(np.diagonal(p) == 0.0)
    assert np.all(p >= 0.0)


def test_rp_periodic_off_diagonal_zero():
    x = gen_periodic(8, 40, "sawtooth")
    p = recurrence_plot(x, embed_dim=1, delay=1)
    assert np.all(np.diagonal(p, offset=8) == 0.0)


def test_rp_embedding_too_large():
    with pytest.raises(EmbeddingTooLargeError):
        recurrence_plot(np.arange(5.0), embed_dim=3, delay=3)


@pytest.mark.parametrize("embed_dim, delay", [(0, 1), (-2, 1), (2, 0), (1, 0), (2, -1)])
def test_rp_rejects_nonpositive_embedding(embed_dim, delay):
    with pytest.raises(NonPositiveError):
        recurrence_plot(np.arange(20.0), embed_dim=embed_dim, delay=delay)


# --- STFT ---------------------------------------------------------------

def test_stft_shape_and_zero_input():
    img = stft_spectrogram(np.zeros(128), window_len=32, hop=16)
    assert img.shape == (17, (128 - 32) // 16 + 1)
    assert np.all(img == 0.0)


def test_stft_pure_sine_dominant_row():
    T, win = 512, 64
    t = np.arange(T)
    for bin_f in (4, 8, 16):
        x = np.sin(2 * np.pi * bin_f * t / win)
        img = stft_spectrogram(x, window_len=win, hop=32)
        assert np.argmax(img.mean(axis=1)) == bin_f


def test_stft_window_too_long():
    for transform in (stft_spectrogram, filterbank_spectrogram):
        with pytest.raises(WindowTooLongError):
            transform(np.zeros(10), window_len=20)


@pytest.mark.parametrize("transform", [stft_spectrogram, filterbank_spectrogram])
@pytest.mark.parametrize("window_len, hop", [(0, None), (-4, None), (16, 0), (16, -1),
                                             (None, 0)])
def test_stft_front_end_rejects_nonpositive_window_or_hop(transform, window_len, hop):
    with pytest.raises(NonPositiveError):
        transform(np.zeros(100), window_len=window_len, hop=hop)


# --- wavelet ------------------------------------------------------------

def test_wavelet_zero_and_linearity():
    z = wavelet_scalogram(np.zeros(64), num_scales=8)
    assert np.all(z == 0.0)
    rng = np.random.default_rng(5)
    x = rng.normal(size=64)
    a = wavelet_scalogram(x, num_scales=8)
    b = wavelet_scalogram(3.0 * x, num_scales=8)
    assert np.allclose(b, 3.0 * a, atol=1e-9)


def test_wavelet_sine_peaks_near_period():
    T, period = 512, 32
    x = np.sin(2 * np.pi * np.arange(T) / period)
    img = wavelet_scalogram(x, num_scales=32)
    scales = wavelet_scales(T, 32)
    best_row = int(np.argmax(img.mean(axis=1)))
    expected = int(np.argmin(np.abs(
        np.array([morlet_fourier_period(s) for s in scales]) - period)))
    assert abs(best_row - expected) <= 1


# --- filterbank ---------------------------------------------------------

def test_filterbank_zero_input():
    img = filterbank_spectrogram(np.zeros(128), window_len=32, hop=16, n_filters=8)
    assert img.shape[0] == 8
    assert np.all(img == 0.0)


def test_filterbank_weights_positive():
    fb = _triangular_filterbank(8, 33)
    assert np.all(fb.sum(axis=1) > 0.0)


def test_filterbank_sine_energy_location():
    T, win = 512, 64
    bin_f = 16  # middle of the 33-bin axis
    x = np.sin(2 * np.pi * bin_f * np.arange(T) / win)
    img = filterbank_spectrogram(x, window_len=win, hop=32, n_filters=8)
    best = int(np.argmax(img.mean(axis=1)))
    fb = _triangular_filterbank(8, win // 2 + 1)
    assert fb[best, bin_f] > 0.0  # winning filter covers the sine's bin


# --- line plot ----------------------------------------------------------

def test_lineplot_constant_midline():
    img = lineplot_raster(np.full(10, 7.0), height=9, width=12)
    assert np.array_equal(np.nonzero(img.any(axis=1))[0], [4])


def test_lineplot_binary_and_diagonal():
    img = lineplot_raster(np.array([0.0, 1.0]), height=8, width=8)
    assert set(np.unique(img)) <= {0.0, 1.0}
    assert img[7, 0] == 1.0 and img[0, 7] == 1.0
    # an 8-connected path exists: every column holds at least one pixel
    assert np.all(img.any(axis=0))


# --- loop oracles for the cached and closed-form transforms ---------------

def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _wavelet_loop(x, num_scales):
    """wavelet_scalogram as one ifft per scale, its daughter built per call."""
    x = np.asarray(x, dtype=np.float64)
    T = x.size
    xf = np.fft.fft(x)
    omega = 2.0 * np.pi * np.fft.fftfreq(T)
    out = np.empty((num_scales, T))
    for j, s in enumerate(wavelet_scales(T, num_scales)):
        psi_hat = (np.pi ** -0.25) * np.sqrt(2 * np.pi * s) * \
            np.exp(-0.5 * (s * omega - MORLET_W0) ** 2) * (omega > 0)
        out[j] = np.abs(np.fft.ifft(xf * np.conj(psi_hat)))
    return out


def _filterbank_loop(n_filters, n_bins):
    """_triangular_filterbank built one filter at a time."""
    points = np.linspace(0, n_bins - 1, n_filters + 2)
    fb = np.zeros((n_filters, n_bins))
    bins = np.arange(n_bins, dtype=np.float64)
    for m in range(n_filters):
        left, center, right = points[m], points[m + 1], points[m + 2]
        up = (bins - left) / max(center - left, 1e-12)
        down = (right - bins) / max(right - center, 1e-12)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def _bresenham(r0, c0, r1, c1):
    """The integer-error Bresenham loop over one segment: the pixels from
    (r0, c0) to (r1, c1) in drawing order."""
    dr, dc = abs(r1 - r0), abs(c1 - c0)
    sr = 1 if r0 < r1 else -1
    sc = 1 if c0 < c1 else -1
    err = dc - dr
    r, c = r0, c0
    pixels = []
    while True:
        pixels.append((r, c))
        if r == r1 and c == c1:
            return pixels
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr


def _lineplot_loop(x, height, width):
    """lineplot_raster with one Bresenham loop per segment."""
    T = x.size
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        rows = np.full(T, (height - 1) // 2)
    else:
        rows = np.rint((1.0 - (x - lo) / (hi - lo)) * (height - 1)).astype(int)
    cols = np.array([0]) if T == 1 else np.rint(np.arange(T) * (width - 1) / (T - 1)).astype(int)
    img = np.zeros((height, width))
    img[rows[0], cols[0]] = 1.0
    for i in range(T - 1):
        for r, c in _bresenham(int(rows[i]), int(cols[i]), int(rows[i + 1]), int(cols[i + 1])):
            img[r, c] = 1.0
    return img


def _series(seed, T, scale, constant):
    x = np.random.default_rng(seed).normal(size=T) * scale
    return np.full(T, x[0]) if constant else x


@given(st.integers(1, 800), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 1.0, 1e4]), st.booleans())
def test_wavelet_bitwise_equals_per_scale_loop(T, num_scales, seed, scale, constant):
    x = _series(seed, T, scale, constant)
    _assert_bitwise(wavelet_scalogram(x, num_scales), _wavelet_loop(x, num_scales))


def test_filterbank_bitwise_equals_per_filter_loop():
    for n_filters in range(1, 41):
        for n_bins in range(1, 80):
            _assert_bitwise(_triangular_filterbank(n_filters, n_bins),
                            _filterbank_loop(n_filters, n_bins))


def test_shape_caches_are_read_only_and_bounded():
    for cached in (_morlet_daughters(96, 32), _triangular_filterbank(32, 33)):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    for cache in (_morlet_daughters, _triangular_filterbank):
        assert cache.cache_info().maxsize is not None
        assert cache.cache_info().maxsize <= 8


@pytest.mark.parametrize("transform", [wavelet_scalogram, filterbank_spectrogram])
def test_cached_transforms_return_independent_writable_arrays(transform):
    x = np.sin(np.arange(96) / 3.0)
    a, b = transform(x), transform(x)
    assert a.flags.writeable and b.flags.writeable
    assert not np.shares_memory(a, b)
    a += 1.0
    _assert_bitwise(b, transform(x))


def test_segment_pixels_match_bresenham_loop_exhaustively():
    # every |dr|, |dc| < 80 in all four sign combinations, from a non-zero start
    g = np.arange(-79, 80)
    delta = np.stack([np.repeat(g, g.size), np.tile(g, g.size)])
    start = np.stack([np.full(delta.shape[1], 7), np.full(delta.shape[1], -3)])
    rows, cols = _segment_pixels(start, delta)
    ends = np.cumsum(np.abs(delta).max(axis=0) + 1)
    for i, (a, b) in enumerate(zip(np.r_[0, ends[:-1]], ends)):
        dr, dc = int(delta[0, i]), int(delta[1, i])
        assert list(zip(rows[a:b].tolist(), cols[a:b].tolist())) == \
            _bresenham(7, -3, 7 + dr, -3 + dc), (dr, dc)


@given(st.integers(1, 400), st.integers(2, 300), st.integers(2, 300),
       st.integers(0, 2**32 - 1), st.booleans())
def test_lineplot_bitwise_equals_bresenham_loop(T, height, width, seed, constant):
    x = _series(seed, T, 1.0, constant)
    _assert_bitwise(lineplot_raster(x, height, width), _lineplot_loop(x, height, width))


@pytest.mark.parametrize("x", [[0.0, np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [],
                               [-1e308, 1e308]])
def test_lineplot_rejects_non_finite_empty_or_overflowing_series(x):
    with pytest.raises(ShapeMismatchError):
        lineplot_raster(np.array(x))


@pytest.mark.parametrize("x, L", [([], 4), ([0.0, np.nan, 1.0, 2.0], 2), ([1.0, -np.inf], 1)])
def test_uvh_rejects_empty_or_non_finite_series(x, L):
    # uvh([], 4) used to return a (4, 0) image and uvh([0, nan, 1, 2], 2)
    # an image holding the NaN
    with pytest.raises(ShapeMismatchError):
        uvh(np.array(x), L)


@pytest.mark.parametrize("transform", [gaf, recurrence_plot, stft_spectrogram,
                                       wavelet_scalogram, filterbank_spectrogram])
@pytest.mark.parametrize("x", [[], [0.0, np.nan], [0.0, np.inf, 1.0], [-np.inf, 0.0]])
def test_transforms_reject_empty_or_non_finite_series(transform, x):
    # gaf([0, nan]) and wavelet_scalogram([0, inf, 1]) used to return
    # all-NaN images, and an empty series died in numpy
    with pytest.raises(ShapeMismatchError):
        transform(np.array(x))
