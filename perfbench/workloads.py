"""The three benchmark workloads.

Each workload is a single-threaded closed loop: the next request starts when
the previous one has returned. A workload sets itself up from the seed, warms
up on inputs of its own (so nothing the timed loop sees is computed early),
then runs whole rounds. A round is the smallest unit over which every count
repeats exactly, so per-item counts from a traced run do not depend on where
the time budget ran out.
"""

from __future__ import annotations

import csv
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tsimg import dataio, evaluation, imaging, models, pipeline, series, training
from tsimg.errors import TsimgError


# A shared host can change a CPU's speed from minute to minute; on a 2-CPU
# virtual machine that moved every timing by up to 1.7x between runs. Right
# after each chunk of requests the benchmark times this fixed loop, which
# runs no library code, and scales the chunk's times by REFERENCE_NOMINAL_S /
# (loop time): the times the chunk would have taken on a machine where the
# loop takes exactly REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 1e-3
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.normal(size=(16, 192))
_REF_B = _REF_RNG.normal(size=(192, 32))
_REF_X = _REF_RNG.normal(size=96)


def _reference_loop() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        h = _REF_A @ _REF_B
        acc += float(np.exp(np.tanh(h)).sum())
        acc += float(np.abs(np.fft.rfft(_REF_X)).max())
        acc += sum(i * i for i in range(200))
    return time.perf_counter() - t0


def machine_scale() -> float:
    """REFERENCE_NOMINAL_S over the median of five reference-loop times."""
    return REFERENCE_NOMINAL_S / sorted(_reference_loop() for _ in range(5))[2]


@contextmanager
def untraced_item():
    yield


@dataclass
class Chunk:
    """Consecutive requests timed under one machine scale."""

    work: int               # units of throughput done
    seconds: float          # time inside the requests, as measured
    latencies_ms: list      # one per latency sample, as measured
    scale: float            # machine_scale() right after the chunk


@dataclass
class Round:
    # throughput is the median over chunks, so a burst of contention from
    # outside the process moves few of them
    chunks: list = field(default_factory=list)

    def add_chunk(self, work: int, seconds: float, latencies_ms: list,
                  scale: float | None = None) -> None:
        if work:
            scale = machine_scale() if scale is None else scale
            self.chunks.append(Chunk(work, seconds, latencies_ms, scale))


class Workload:
    """Shared bookkeeping: attempted operations and failed ones. An
    operation fails when the library raises TsimgError (it is not retried)
    or when its output check fails."""

    name = ""
    work_unit = ""          # what one unit of throughput is
    item_unit = ""          # what one latency sample is
    tail_pct = 99           # highest percentile with >= 10 samples beyond it
    # names of throughput, p50 and tail latency in this workload's terms
    names = ("", "", "")
    setup_reps = 3
    patch_size = 8

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.extra_counts: dict[str, float] = {}

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def hooks(self) -> dict:
        """Wrapper factories installed for every round, traced or not."""
        return {}

    def final_checks(self) -> None:
        pass

    def quality(self) -> dict:
        """Named quality results: name -> (value, unit)."""
        return {}


# --- train_reconstruct ----------------------------------------------------

class TrainReconstruct(Workload):
    """The criterion-6 segment-length sweep: each round is one
    ``segment_sweep`` call that builds, trains and evaluates a fresh minimae
    reconstructor per segment length, on a fresh noisy series."""

    name = "train_reconstruct"
    work_unit = "training sample-epoch"
    item_unit = "epoch"
    tail_pct = 90
    names = ("sweep_samples_per_s", "epoch_ms_p50", "epoch_ms_p90")
    setup_reps = 9
    PERIOD, LENGTH, NOISE = 24, 4000, 0.05
    LOOKBACK, HORIZON, STRIDE = 96, 24, 16
    L, K, I_VALUES = 24, 6, (4, 6, 9, 12)     # segment lengths 16, 24, 36, 48
    EPOCHS = 12
    POOL = 32               # series per run; rounds past this reuse them
    MSE_CEILING = 0.3       # per-cell test MSE; the series variance is ~0.66

    def __init__(self, workdir):
        super().__init__(workdir)
        self.train_calls: list[tuple[int, list]] = []   # (n_train, history)
        self.cell_mse: list[float] = []

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.tasks = [
            evaluation.ForecastTask(
                series=series.gen_periodic(self.PERIOD, self.LENGTH, "composite",
                                           seed=int(s), noise_std=self.NOISE),
                lookback=self.LOOKBACK, horizon=self.HORIZON, stride=self.STRIDE)
            for s in rng.integers(0, 2**31, size=self.POOL + 1)]
        self.train_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.POOL + 1)]
        self.model_cfg = models.ModelConfig(
            arch="minimae", task="forecast_reconstruct", image_size=32,
            patch_size=self.patch_size, embed_dim=32, num_heads=4, horizon=self.HORIZON)

    def hooks(self) -> dict:
        # segment_sweep keeps only cell MSEs; the epoch times and sample
        # counts come from the train calls it makes
        def capture(_name, train):
            def wrapper(model_cfg, params, train_data, val_data, cfg):
                out = train(model_cfg, params, train_data, val_data, cfg)
                self.train_calls.append((len(train_data), out[1]))
                return out
            return wrapper
        return {"training.train": capture}

    def _sweep(self, k: int, epochs: int, i_values):
        tc = training.TrainConfig(learning_rate=3e-3, batch_size=16, max_epochs=epochs,
                                  patience=epochs, seed=self.train_seeds[k])
        return evaluation.segment_sweep(self.tasks[k], self.model_cfg, tc, self.L,
                                        self.K, list(i_values))

    def warmup(self) -> None:
        self._sweep(self.POOL, 1, self.I_VALUES[:1])   # the spare series

    def run_round(self, r: int, item_scope) -> Round:
        n_cells = len(self.I_VALUES)
        self.train_calls.clear()
        before = machine_scale()
        try:
            with item_scope():
                res = self._sweep(r % self.POOL, self.EPOCHS, self.I_VALUES)
        except TsimgError:
            self.attempted += n_cells
            self.failed += n_cells
            return Round()
        fixed_epochs = (len(self.train_calls) == n_cells
                        and all(len(h) == self.EPOCHS for _, h in self.train_calls))
        for mse in res.mse:
            self.check(fixed_epochs and math.isfinite(mse) and mse < self.MSE_CEILING)
        self.cell_mse.extend(res.mse)
        # a sweep lasts seconds, so its cells share the geometric mean of the
        # machine scales taken just before and just after it
        scale = math.sqrt(before * machine_scale())
        rd = Round()
        # one chunk per cell: build, train and predict
        for (n_train, history), seconds in zip(self.train_calls, res.seconds):
            rd.add_chunk(n_train * len(history), seconds, [e.seconds * 1e3 for e in history],
                         scale)
        return rd

    def quality(self) -> dict:
        return {"sweep_test_mse": (float(np.mean(self.cell_mse)) if self.cell_mse else 0.0,
                                   "mse")}


# --- image_dataset ----------------------------------------------------------

class ImageDataset(Workload):
    """Classification samples for all eight imaging methods; no model runs."""

    name = "image_dataset"
    work_unit = "image sample"
    item_unit = "image sample"
    names = ("images_per_s", "image_ms_p50", "image_ms_p99")
    setup_reps = 5
    LOOKBACKS = (96, 336)
    PERIODS = (12, 24, 48)              # class label = index of the period
    WAVEFORMS = ("sine", "sawtooth", "composite")
    VARIATES, PER_CLASS, NOISE = 3, 2, 0.1
    POOL_ROUNDS = 128       # rounds of fresh windows; later rounds reuse them

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.rounds = [self._windows(rng) for _ in range(self.POOL_ROUNDS + 1)]
        # the alignment geometry of `tsimg train --task classify`
        self.cfg = models.ModelConfig(arch="lvm2attn", task="classify", image_size=64,
                                      patch_size=self.patch_size,
                                      num_classes=len(self.PERIODS),
                                      num_variates=self.VARIATES)
        self.n_patches = self.cfg.n_patches
        self.patch_dim = 3 * self.patch_size ** 2

    def _windows(self, rng) -> list:
        out = []
        for H in self.LOOKBACKS:
            for label, period in enumerate(self.PERIODS):
                for _ in range(self.PER_CLASS):
                    rows = []
                    for _ in range(self.VARIATES):
                        wave = self.WAVEFORMS[int(rng.integers(len(self.WAVEFORMS)))]
                        off = int(rng.integers(period))
                        x = series.gen_periodic(period, H + period, wave,
                                                seed=int(rng.integers(2**31)),
                                                noise_std=self.NOISE)
                        rows.append(x[off:off + H])
                    out.append(series.WindowSample(lookback=np.stack(rows),
                                                   class_label=label))
        return out

    def warmup(self) -> None:
        for w in self.rounds[-1]:
            for method in imaging.IMAGING_METHODS:
                pipeline.build_classify_sample(w, method, self.cfg)

    def _valid(self, sample, method: str, label: int) -> bool:
        seqs = sample.patch_seqs
        return (sample.label == label
                and len(seqs) == (1 if method == "mvh" else self.VARIATES)
                and all(s.shape == (self.n_patches, self.patch_dim)
                        and bool(np.isfinite(s).all()) for s in seqs))

    def run_round(self, r: int, item_scope) -> Round:
        busy, latencies = 0.0, []
        clock = time.perf_counter
        for w in self.rounds[r % self.POOL_ROUNDS]:
            for method in imaging.IMAGING_METHODS:
                try:
                    with item_scope():
                        t0 = clock()
                        sample = pipeline.build_classify_sample(w, method, self.cfg)
                        dt = clock() - t0
                except TsimgError:
                    self.check(False)
                    continue
                if self.check(self._valid(sample, method, w.class_label)):
                    busy += dt
                    latencies.append(dt * 1e3)
        rd = Round()
        rd.add_chunk(len(latencies), busy, latencies)
        return rd


# --- forecast_eval ----------------------------------------------------------

class ForecastEval(Workload):
    """`tsimg eval` on an ETT-style CSV: per test window, UVH forecasts per
    variate and one MVH forecast, every other window perturbed first."""

    name = "forecast_eval"
    work_unit = "window request"
    item_unit = "window request"
    names = ("forecasts_per_s", "forecast_ms_p50", "forecast_ms_p99")
    setup_reps = 5
    LENGTH = 6000
    VARIATES = (("sine", 24), ("composite", 24), ("sawtooth", 24), ("composite", 12))
    NOISE = 0.1
    LOOKBACK, HORIZON = 96, 24
    # a stride prime to the periods, so training windows cover every phase
    TRAIN_STRIDE, EPOCHS = 37, 6
    DETERMINISM_SUBSET = 64
    CHUNK = 64              # requests per throughput chunk
    # mean test MSE on train-standardized data: forecasting the train mean
    # scores about 1.0, repeating the last value about 2.0
    MSE_CEILING = 1.0

    def __init__(self, workdir):
        super().__init__(workdir)
        self.first_pass: dict[int, bytes] = {}
        self.mse: list[float] = []

    def _write_csv(self, path: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        cols = []
        for k, (wave, period) in enumerate(self.VARIATES):
            x = series.gen_periodic(period, self.LENGTH, wave, seed=int(rng.integers(2**31)),
                                    noise_std=self.NOISE)
            cols.append(x * (1.0 + k) + k)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["date"] + [f"v{k}" for k in range(len(cols))])
            for t in range(self.LENGTH):
                w.writerow([f"t{t}"] + [f"{c[t]:.6f}" for c in cols])

    def _train(self, samples, val, seed: int, path: Path):
        params = models.init_params(self.cfg, seed=seed)
        tc = training.TrainConfig(learning_rate=3e-3, batch_size=16,
                                  max_epochs=self.EPOCHS, patience=self.EPOCHS, seed=seed)
        params, _ = training.train(self.cfg, params, samples, val, tc)
        dataio.save_checkpoint(params, str(path))
        loaded = dataio.load_checkpoint(str(path))
        self.check(loaded.keys() == params.keys()
                   and all(np.array_equal(loaded[k], params[k]) for k in params))
        return loaded

    def _uvh_samples(self, windows) -> list:
        # one sample per variate, segment length from FFT, as `tsimg train` does
        return [pipeline.build_reconstruct_sample(
                    w.lookback[v], w.target[v],
                    imaging.detect_period(w.lookback[v]).chosen_L, self.cfg)
                for w in windows for v in range(w.lookback.shape[0])]

    def _mvh_samples(self, windows) -> list:
        return [pipeline.build_reconstruct_sample_mvh(w.lookback, w.target, self.cfg)
                for w in windows]

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.cfg = models.ModelConfig(arch="minimae", task="forecast_reconstruct",
                                      image_size=32, patch_size=self.patch_size,
                                      embed_dim=32, num_heads=4, horizon=self.HORIZON)
        csv_path = self.workdir / "ett.csv"
        self._write_csv(csv_path, int(rng.integers(2**31)))
        mts = dataio.load_ett_csv(str(csv_path))
        tr, va, te, _ = series.standardize_by_train(*series.chronological_split(mts))
        train_w = series.slide_windows(tr, self.LOOKBACK, self.HORIZON, self.TRAIN_STRIDE)
        self.val_w = series.slide_windows(va, self.LOOKBACK, self.HORIZON, self.TRAIN_STRIDE)
        self.test_w = series.slide_windows(te, self.LOOKBACK, self.HORIZON)
        uvh_path, mvh_path = self.workdir / "uvh.bin", self.workdir / "mvh.bin"
        self.uvh_params = self._train(self._uvh_samples(train_w), self._uvh_samples(self.val_w),
                                      int(rng.integers(2**31)), uvh_path)
        self.mvh_params = self._train(self._mvh_samples(train_w), self._mvh_samples(self.val_w),
                                      int(rng.integers(2**31)), mvh_path)
        self.perturb_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(self.test_w))]
        written = uvh_path.stat().st_size + mvh_path.stat().st_size
        self.extra_counts["dataio.bytes_written_per_setup"] = float(written)
        self.extra_counts["dataio.bytes_read_per_setup"] = float(
            written + csv_path.stat().st_size)

    def _request(self, j: int, lookback: np.ndarray, target: np.ndarray):
        """One eval request: perturb odd windows, forecast every variate
        through UVH and the whole window through MVH, score both."""
        if j % 2:
            mode = evaluation.PerturbMode(evaluation.PERTURB_KINDS[(j // 2) % 4],
                                          seed=self.perturb_seeds[j])
            lookback = evaluation.perturb(series.MultivariateSeries(lookback), mode).values
        uvh = np.stack([
            pipeline.predict_forecast(lookback[v], imaging.detect_period(lookback[v]).chosen_L,
                                      self.HORIZON, self.uvh_params, self.cfg)
            for v in range(lookback.shape[0])])
        mvh = pipeline.predict_forecast_mvh(lookback, self.HORIZON, self.mvh_params, self.cfg)
        scores = (evaluation.metric_mse(uvh, target), evaluation.metric_mse(mvh, target))
        return uvh, mvh, scores

    def warmup(self) -> None:
        for j, w in enumerate(self.val_w):
            self._request(j, w.lookback, w.target)

    def run_round(self, r: int, item_scope) -> Round:
        rd = Round()
        busy, latencies = 0.0, []
        clock = time.perf_counter
        for j, w in enumerate(self.test_w):
            try:
                with item_scope():
                    t0 = clock()
                    uvh, mvh, scores = self._request(j, w.lookback, w.target)
                    dt = clock() - t0
            except TsimgError:
                self.check(False)
                continue
            if not self.check(bool(np.isfinite(uvh).all() and np.isfinite(mvh).all())):
                continue
            busy += dt
            latencies.append(dt * 1e3)
            if len(latencies) == self.CHUNK:
                rd.add_chunk(len(latencies), busy, latencies)
                busy, latencies = 0.0, []
            if r == 0:
                if j % 2 == 0:
                    self.mse.append(float(np.mean(scores)))
                if j < self.DETERMINISM_SUBSET:
                    self.first_pass[j] = uvh.tobytes() + mvh.tobytes()
        rd.add_chunk(len(latencies), busy, latencies)
        if r == 0:
            self.check(bool(self.mse) and float(np.mean(self.mse)) < self.MSE_CEILING)
        return rd

    def final_checks(self) -> None:
        # the README's promise: same inputs and seed, bitwise-equal outputs
        for j in range(self.DETERMINISM_SUBSET):
            w = self.test_w[j]
            try:
                uvh, mvh, _ = self._request(j, w.lookback, w.target)
            except TsimgError:
                self.check(False)
                continue
            self.check(self.first_pass.get(j) == uvh.tobytes() + mvh.tobytes())

    def quality(self) -> dict:
        return {"forecast_test_mse": (float(np.mean(self.mse)) if self.mse else 0.0, "mse")}


WORKLOADS = {w.name: w for w in (TrainReconstruct, ImageDataset, ForecastEval)}
