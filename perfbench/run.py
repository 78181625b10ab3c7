#!/usr/bin/env python3
"""tsimg benchmark: one command, three workloads (see README.md).

    python3 perfbench/run.py --workload train_reconstruct --seed 1 --seconds 30 --trace 0

Runs from a checkout of the repository and imports the library from its
``src/``. The last line of stdout is one JSON object: with ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer ones. The exit
code is non-zero when an output check failed or the library is missing.
"""

import os

# BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"


def import_tsimg():
    """The library from this checkout's src/, never an installed copy."""
    if not (SRC / "tsimg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tsimg package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import tsimg
    if Path(tsimg.__file__).resolve().parent != (SRC / "tsimg").resolve():
        sys.exit(f"perfbench: imported tsimg from {tsimg.__file__}, not {SRC}")
    return tsimg


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train_reconstruct", "image_dataset", "forecast_eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct)) if values else 0.0


def run(args) -> dict:
    tsimg = import_tsimg()
    from spans import Tracer, patched, per_layer_metric_specs
    from workloads import WORKLOADS, machine_scale, untraced_item

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](workdir)
        tracer = Tracer() if args.trace else None
        hooks = wl.hooks()
        traced_hooks = tracer.replacements(hooks) if tracer else hooks

        setup_s, setup_scale = [], []
        for _ in range(wl.setup_reps):
            with patched(tsimg, traced_hooks):
                t0 = time.perf_counter()
                wl.setup(args.seed)
                setup_s.append(time.perf_counter() - t0)
            setup_scale.append(machine_scale())
        with patched(tsimg, hooks):
            wl.warmup()
        gc.collect()

        # A traced run alternates traced and untraced rounds, so the two
        # halves see the same conditions and their ratio is the overhead.
        rounds = []
        min_rounds = 2 if tracer else 1
        t_start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - t_start < args.seconds:
            traced = tracer is not None and len(rounds) % 2 == 0
            with patched(tsimg, traced_hooks if traced else hooks):
                rd = wl.run_round(len(rounds), tracer.item_span if traced else untraced_item)
            rounds.append((traced, rd))
        loop_s = time.perf_counter() - t_start
        with patched(tsimg, hooks):
            wl.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def chunks(traced: bool) -> list:
        return [c for t, rd in rounds if t == traced for c in rd.chunks]

    def throughput(cs, scaled=True) -> float:
        rates = [c.work / (c.seconds * (c.scale if scaled else 1.0)) for c in cs]
        return statistics.median(rates) if rates else 0.0

    def latencies(cs, scaled=True) -> list:
        return [x * (c.scale if scaled else 1.0) for c in cs for x in c.latencies_ms]

    plain = chunks(traced=False)
    quality = wl.quality()
    scales = [c.scale for t, rd in rounds for c in rd.chunks]
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop_s": loop_s, "rounds": len(rounds),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(), "platform": platform.platform(),
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "attempted": wl.attempted, "failed": wl.failed,
        "setup_s_reps": setup_s, "setup_scale_reps": setup_scale,
        "machine_scale_median": statistics.median(scales) if scales else 0.0,
        "quality": {k: v for k, (v, _) in quality.items()},
    }
    if tracer is None:
        raw = latencies(plain, scaled=False)
        tp_name, p50_name, tail_name = wl.names
        report["named"] = {
            tp_name: (throughput(plain, scaled=False), f"{wl.work_unit}/s as measured"),
            p50_name: (percentile(raw, 50), f"ms per {wl.item_unit} as measured"),
            tail_name: (percentile(raw, wl.tail_pct), f"ms per {wl.item_unit} as measured"),
            **quality,
            "latency_samples": (len(raw), "count"),
        }
        lat = latencies(plain)
        metrics = {
            "throughput_per_s": (throughput(plain), "1/s"),
            "latency_ms_p50": (percentile(lat, 50), "ms"),
            "latency_ms_p90": (percentile(lat, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(t * k for t, k in zip(setup_s, setup_scale)), "s"),
        }
    else:
        traced_chunks = chunks(traced=True)
        items = sum(len(c.latencies_ms) for c in traced_chunks)
        values = tracer.summarize(items, wl.setup_reps)
        values["training.epochs_per_train"] = (
            tracer.train_epochs / tracer.train_calls if tracer.train_calls else 0.0)
        values["dataio.bytes_read_per_setup"] = 0.0
        values["dataio.bytes_written_per_setup"] = 0.0
        values.update(wl.extra_counts)
        values["evaluation.test_mse"] = next(iter(report["quality"].values()), 0.0)
        traced_tp = throughput(traced_chunks)
        values["trace.overhead_pct"] = (
            (throughput(plain) / traced_tp - 1) * 100 if traced_tp else 0.0)
        units = {name: unit for name, unit, _ in per_layer_metric_specs()}
        metrics = {name: (values[name], units[name]) for name in units}
        trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.npz"
        tracer.save(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        report["traced_items"] = items
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    report = run(args)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"result-{report['workload']}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    env = report["env"]
    print(f"env python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"blas_threads={env['blas_threads']} seed={args.seed} "
          f"setup_reps={len(report['setup_s_reps'])} rounds={report['rounds']} "
          f"machine_scale={report['machine_scale_median']:.4f}")
    for name, (value, unit) in report.get("named", {}).items():
        print(f"{name} = {value:.6g} {unit}")
    for name, m in report["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    correct = report["failed"] == 0 and report["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
