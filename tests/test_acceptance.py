"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with the pinned tolerance."""

import numpy as np
import pytest

from tsimg.alignment import patchify, resize_bilinear, standardize_image, unpatchify
from tsimg.cli import main as cli_main
from tsimg.dataio import load_checkpoint, save_checkpoint
from tsimg.evaluation import (
    ForecastTask,
    PerturbMode,
    _split_windows,
    _train_eval_reconstruct,
    metric_accuracy,
    metric_mae,
    metric_mse,
    performance_drop,
    perturb,
    reoccurrence_brute_force,
    reoccurrence_n,
    segment_sweep,
)
from tsimg.imaging import IMAGING_METHODS, gaf, gaf_diag_inverse, uvh, uvh_inverse
from tsimg.models import (
    ARCHS,
    TASKS,
    ClassifySample,
    ForecastSample,
    ModelConfig,
    ReconstructSample,
    backward,
    batch_loss,
    init_params,
    predict_linear,
)
from tsimg.pipeline import build_linear_sample
from tsimg.series import MultivariateSeries, gen_ar1, gen_periodic
from tsimg.training import TrainConfig, train


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


# --- criterion 1: Lemma oracle equivalence -------------------------------

def test_c1_lemma_oracle_equivalence():
    mismatches = []
    for k in range(1, 25):
        for i in range(1, 25):
            closed = reoccurrence_n(i, k)
            brute = reoccurrence_brute_force(i, k, 4 * k)
            if closed != brute:
                mismatches.append((i, k, closed, brute))
    _report("C1 lemma-oracle-equivalence (i,k in 1..24, exact)",
            not mismatches, f"mismatches={mismatches[:3]}" if mismatches else
            "576 cases")


# --- criterion 2: gradient correctness -----------------------------------

def _grad_batch(cfg, rng, n=2):
    N, F = cfg.n_patches, cfg.patch_dim
    if cfg.task == "classify":
        return [ClassifySample([rng.normal(size=(N, F))
                                for _ in range(cfg.num_variates)],
                               label=int(rng.integers(cfg.num_classes)))
                for _ in range(n)]
    if cfg.task == "forecast_linear":
        return [ForecastSample(rng.normal(size=(N, F)),
                               rng.normal(size=cfg.horizon)) for _ in range(n)]
    out = []                                    # reconstruction samples are gray
    for _ in range(n):
        m = np.zeros(N, bool)
        m[rng.choice(N, N // 2, replace=False)] = True
        out.append(ReconstructSample(rng.normal(size=(N, F // 3)),
                                     rng.normal(size=(N, F // 3)), m))
    return out


def _max_grad_error(cfg, seed, step=1e-5):
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    batch = _grad_batch(cfg, rng)
    _, grads = backward(batch, params, cfg)
    worst = 0.0
    for k, p in params.items():
        flat, g = p.reshape(-1), grads[k].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            lp = batch_loss(batch, params, cfg)
            flat[j] = orig - step
            lm = batch_loss(batch, params, cfg)
            flat[j] = orig
            fd = (lp - lm) / (2 * step)
            worst = max(worst, abs(fd - g[j]) / max(abs(fd), abs(g[j]), 1e-6))
    return worst


def test_c2_gradient_correctness():
    worst = 0.0
    for arch in ARCHS:
        for task in TASKS:
            cfg = ModelConfig(arch=arch, task=task, image_size=16,
                              patch_size=8, embed_dim=8, num_heads=2,
                              horizon=5, num_classes=3, num_variates=2)
            for seed in (0, 1, 2):
                worst = max(worst, _max_grad_error(cfg, seed))
    _report("C2 gradcheck (9 arch/task combos, 3 seeds, rel err < 1e-4)",
            worst < 1e-4, f"max rel err {worst:.3e}")


# --- criterion 3: round trips --------------------------------------------

def test_c3_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    ok, details = True, []

    for _ in range(20):
        T, L = int(rng.integers(5, 150)), int(rng.integers(1, 30))
        x = rng.normal(size=T)
        if not np.array_equal(uvh_inverse(uvh(x, L), T), x):
            ok, details = False, details + ["uvh"]
            break

    gaf_err = 0.0
    for _ in range(20):
        x = rng.normal(size=30)
        img, ctx = gaf(x)
        gaf_err = max(gaf_err, float(np.max(np.abs(gaf_diag_inverse(img, ctx) - x))))
    if gaf_err > 1e-9:
        ok, details = False, details + [f"gaf {gaf_err:.2e}"]

    stack = rng.normal(size=(2, 64, 64))
    if not np.array_equal(unpatchify(patchify(stack, 8), 8), stack):
        ok, details = False, details + ["patchify"]

    params = {"a": rng.normal(size=(7, 3)), "b": rng.normal(size=11)}
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    if not all(np.array_equal(back[k], params[k]) for k in params):
        ok, details = False, details + ["checkpoint"]

    img = rng.normal(size=(13, 9))
    rt = resize_bilinear(img, 13, 9)
    resize_err = float(np.max(np.abs(rt - img)))
    if resize_err > 1e-12:
        ok, details = False, details + [f"resize {resize_err:.2e}"]

    _report("C3 round trips (uvh exact, gaf 1e-9, patchify/checkpoint "
            "bitwise, same-size resize 1e-12)", ok, "; ".join(details))


# --- criterion 4: standardization invariants -----------------------------

def test_c4_standardization_invariants():
    rng = np.random.default_rng(1)
    worst_mean = worst_std = worst_idem = 0.0
    for _ in range(100):
        h, w = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        img = rng.normal(rng.normal(), 1 + rng.random() * 5, size=(h, w))
        std = standardize_image(img)
        worst_mean = max(worst_mean, abs(float(std.mean())))
        worst_std = max(worst_std, abs(float(std.std()) - 1.0))
        again = standardize_image(std)
        worst_idem = max(worst_idem, float(np.max(np.abs(again - std))))
    ok = worst_mean <= 1e-9 and worst_std <= 1e-9 and worst_idem <= 1e-9
    _report("C4 standardization (100 random images, mean/std/idempotence 1e-9)",
            ok, f"mean {worst_mean:.1e} std {worst_std:.1e} idem {worst_idem:.1e}")


# --- criterion 5: metric oracle ------------------------------------------

def test_c5_metric_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        d, t = int(rng.integers(1, 8)), int(rng.integers(1, 50))
        pred, truth = rng.normal(size=(d, t)), rng.normal(size=(d, t))
        mse_naive = sum((pred[i, j] - truth[i, j]) ** 2
                        for i in range(d) for j in range(t)) / (d * t)
        mae_naive = sum(abs(pred[i, j] - truth[i, j])
                        for i in range(d) for j in range(t)) / (d * t)
        worst = max(worst, abs(metric_mse(pred, truth) - mse_naive),
                    abs(metric_mae(pred, truth) - mae_naive))
    acc_ok = (metric_accuracy([0, 1, 2, 1], [0, 1, 1, 1]) == 0.75
              and metric_accuracy([3], [3]) == 1.0
              and metric_accuracy([0, 0], [1, 1]) == 0.0)
    _report("C5 metric oracle (100 matrices vs double loops, 1e-12; "
            "accuracy exact)", worst < 1e-12 and acc_ok, f"max dev {worst:.1e}")


# --- criterion 6: M-shape bias reproduction ------------------------------

SWEEP_SERIES = dict(period=24, length=4000, waveform="composite", seed=7,
                    noise_std=0.05)
SWEEP_TASK = dict(lookback=96, horizon=24, stride=16)
SWEEP_MODEL = dict(arch="minimae", task="forecast_reconstruct", image_size=32,
                   patch_size=8, embed_dim=32, num_heads=4, horizon=24)
SWEEP_TRAIN = dict(learning_rate=3e-3, batch_size=16, max_epochs=120,
                   patience=120, seed=0)


def test_c6_m_shape_bias():
    x = gen_periodic(**SWEEP_SERIES)
    task = ForecastTask(series=x, **SWEEP_TASK)
    res = segment_sweep(task, ModelConfig(**SWEEP_MODEL),
                        TrainConfig(**SWEEP_TRAIN), L=24, k=6,
                        i_values=list(range(1, 13)))
    n_ok = res.n_values == [6, 3, 2, 3, 6, 1, 6, 3, 2, 3, 6, 1]
    at_L = res.normalized_mse[5]       # i=6  -> segment length L
    at_15L = res.normalized_mse[8]     # i=9  -> 1.5 L
    at_2L = res.normalized_mse[11]     # i=12 -> 2 L
    dip_ok = at_L <= 0.7 * at_15L and at_2L <= 0.7 * at_15L
    _report("C6 M-shape (norm MSE at L and 2L each >=30% below 1.5L; "
            "n-curve exact)", n_ok and dip_ok,
            f"L={at_L:.3f} 1.5L={at_15L:.3f} 2L={at_2L:.3f} n_ok={n_ok}")


# --- criterion 7: perturbation sensitivity -------------------------------

def test_c7_perturbation_sensitivity():
    x = gen_ar1(0.9, 3000, seed=11)
    task = ForecastTask(series=x, lookback=96, horizon=24, stride=8)
    tr_w, va_w, te_w = _split_windows(task)
    cfg = ModelConfig(arch="lvm2attn", task="forecast_linear", image_size=32,
                      patch_size=8, embed_dim=32, num_heads=4, horizon=24)

    def sample(lb, tg):
        return build_linear_sample(lb, tg, "uvh", cfg, L=24)

    params = init_params(cfg, 0)
    params, _ = train(cfg, params, [sample(*w) for w in tr_w],
                      [sample(*w) for w in va_w],
                      TrainConfig(learning_rate=1e-3, batch_size=32,
                                  max_epochs=30, patience=5, seed=0))

    def test_mse(transform):
        preds, truths = [], []
        for lb, tg in te_w:
            preds.append(predict_linear(sample(transform(lb), tg).patches,
                                        params, cfg))
            truths.append(tg)
        return metric_mse(np.stack(preds), np.stack(truths))

    clean = test_mse(lambda lb: lb)
    shuffled = test_mse(lambda lb: perturb(
        MultivariateSeries(lb[None, :]), PerturbMode("sf_all", seed=3)).values[0])
    drop = performance_drop(clean, shuffled, better="lower")

    mode = PerturbMode("ex_half")
    twice = test_mse(lambda lb: perturb(perturb(
        MultivariateSeries(lb[None, :]), mode), mode).values[0])
    involution_ok = twice == clean

    _report("C7 perturbation (Sf-All MSE drop >= 20%; Ex-Half twice exact)",
            drop >= 20.0 and involution_ok,
            f"drop {drop:.1f}% involution={involution_ok}")


# --- criterion 8: trainability -------------------------------------------

def test_c8_trainability():
    x = gen_periodic(24, 2000, "sine")
    task = ForecastTask(series=x, lookback=96, horizon=24, stride=4)
    tr_w, va_w, te_w = _split_windows(task)

    # framework (c): linear forecasting head
    cfg_c = ModelConfig(arch="wolvm", task="forecast_linear", image_size=32,
                        patch_size=8, embed_dim=32, num_heads=4, horizon=24)
    sample = lambda lb, tg: build_linear_sample(lb, tg, "uvh", cfg_c, L=24)
    params = init_params(cfg_c, 0)
    params, _ = train(cfg_c, params, [sample(*w) for w in tr_w],
                      [sample(*w) for w in va_w],
                      TrainConfig(learning_rate=1e-2, batch_size=32,
                                  max_epochs=60, patience=60, seed=0))
    preds = [predict_linear(sample(lb, tg).patches, params, cfg_c)
             for lb, tg in te_w]
    mse_c = metric_mse(np.stack(preds), np.stack([tg for _, tg in te_w]))

    # framework (d): mask-reconstruction forecasting
    cfg_d = ModelConfig(arch="minimae", task="forecast_reconstruct",
                        image_size=32, patch_size=8, embed_dim=32,
                        num_heads=4, horizon=24)
    mse_d, _ = _train_eval_reconstruct(
        (tr_w, va_w, te_w), 24, cfg_d,
        TrainConfig(learning_rate=3e-3, batch_size=16, max_epochs=300, patience=300, seed=0),
        seed=0)

    _report("C8 trainability (linear head MSE < 0.01; reconstruction "
            "MSE < 0.05 on noiseless sine)",
            mse_c < 0.01 and mse_d < 0.05,
            f"linear {mse_c:.2e} reconstruct {mse_d:.2e}")


# --- criterion 9: routing enforcement ------------------------------------

def test_c9_routing_enforcement(tmp_path):
    task_flags = {"classify": None, "forecast-linear": None,
                  "forecast-reconstruct": ("uvh", "mvh")}
    bad = []
    for flag, allowed in task_flags.items():
        for method in IMAGING_METHODS:
            rc = cli_main(["train", "--task", flag, "--imaging", method,
                           "--arch", "wolvm",
                           "--input", str(tmp_path / "missing.csv"),
                           "--out", str(tmp_path / "run")])
            # allowed combos get past routing and fail on the absent input
            # file (1); disallowed combos must be usage errors (2)
            expected = 2 if (allowed is not None and method not in allowed) else 1
            if rc != expected:
                bad.append((flag, method, rc, expected))
    _report("C9 routing (8 methods x 3 tasks; reconstruct limited to "
            "uvh/mvh, exit 2)", not bad, f"bad={bad}" if bad else "24 combos")


# --- criterion 10: determinism -------------------------------------------

def test_c10_determinism(tmp_path):
    args = ["sweep", "--kind", "segment",
            "--synthetic-period", str(SWEEP_SERIES["period"]),
            "--synthetic-length", str(SWEEP_SERIES["length"]),
            "--waveform", SWEEP_SERIES["waveform"],
            "--noise", str(SWEEP_SERIES["noise_std"]),
            "--lookback", str(SWEEP_TASK["lookback"]),
            "--horizon", str(SWEEP_TASK["horizon"]),
            "--stride", str(SWEEP_TASK["stride"]),
            "--L", "24", "--k", "6", "--i-values", "1,2,3,4,5,6,7,8,9,10,11,12",
            "--arch", "minimae", "--image-size", "32", "--patch-size", "8",
            "--embed-dim", "32", "--heads", "4", "--lr", "3e-3",
            "--batch-size", "16", "--epochs", "120", "--patience", "120",
            "--seed", "0"]
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli_main(args + ["--out", str(out)])
        assert rc == 0
        outs.append((out / "sweep.csv").read_bytes())
    _report("C10 determinism (same-seed criterion-6 sweeps byte-identical)",
            outs[0] == outs[1], f"{len(outs[0])} bytes")
