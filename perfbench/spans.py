"""Span tracing for the benchmark, applied from outside the library.

Each traced function is replaced at every module attribute of the ``tsimg``
package that refers to it (``tsimg.models.backward``,
``tsimg.training.backward``, ``tsimg.backward`` ...), because the library
calls its own functions through module globals. Spans (name, start, end,
parent, item) are kept in flat in-memory arrays while the run lasts and are
written to one ``.npz`` file when it ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# The layers are the modules of the package; ``cli`` is a thin argparse
# wrapper and is not timed.
LAYERS = {
    "models": ("backward", "batch_loss", "forward_embed", "backward_embed",
               "forward_attention", "backward_attention", "forward_reconstruct"),
    "training": ("adam_step", "train"),
    "pipeline": ("build_reconstruct_sample", "build_classify_sample",
                 "image_for_method", "predict_forecast", "predict_forecast_mvh"),
    "imaging": ("gaf", "recurrence_plot", "stft_spectrogram", "wavelet_scalogram",
                "filterbank_spectrogram", "lineplot_raster", "uvh", "mvh",
                "detect_period", "uvh_inverse"),
    "alignment": ("resize_bilinear", "standardize_image", "replicate_channels",
                  "patchify", "unpatchify", "build_forecast_mask"),
    "evaluation": ("perturb", "metric_mse", "segment_sweep"),
    "series": ("slide_windows", "chronological_split", "standardize_by_train"),
    "dataio": ("load_ett_csv", "save_checkpoint", "load_checkpoint"),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Functions whose spans enclose other traced spans. Every other traced
# function is a leaf, whose self time equals its busy time, so only these
# report self_s.
NON_LEAF = ("models.backward", "models.batch_loss", "models.forward_reconstruct",
            "training.train", "pipeline.build_reconstruct_sample",
            "pipeline.build_classify_sample", "pipeline.image_for_method",
            "pipeline.predict_forecast", "pipeline.predict_forecast_mvh",
            "evaluation.segment_sweep")

# Functions that run only while a workload sets up; they also report calls
# per set-up.
SETUP_FUNCTIONS = tuple(f for f in FUNCTIONS if f.split(".")[0] in ("series", "dataio"))

ROOT_SPAN = "bench.item"
SETUP_ITEM = -1


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order."""
    specs = []
    for f in FUNCTIONS:
        specs.append((f"{f}.calls_per_item", "count", "lower"))
        specs.append((f"{f}.busy_s", "s", "lower"))
        if f in NON_LEAF:
            specs.append((f"{f}.self_s", "s", "lower"))
        if f in SETUP_FUNCTIONS:
            specs.append((f"{f}.calls_per_setup", "count", "lower"))
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [
        ("models.attention_calls_per_sample", "count", "lower"),
        ("models.decoded_rows_used_ratio", "ratio", "higher"),
        ("models.embed_redundant_flop_share", "ratio", "lower"),
        ("models.computed_mflop_per_item", "MFLOP", "lower"),
        ("training.epochs_per_train", "count", "lower"),
        ("dataio.bytes_read_per_setup", "bytes", "lower"),
        ("dataio.bytes_written_per_setup", "bytes", "lower"),
        ("evaluation.test_mse", "mse", "lower"),
        ("trace.spans_per_item", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return specs


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


@contextmanager
def patched(package, replacements: dict):
    """Replace each named function (``"layer.fn"`` -> wrapper factory) at
    every module attribute of the package that refers to it; restore on
    exit."""
    originals = {name: getattr(getattr(package, name.split(".")[0]), name.split(".")[1])
                 for name in replacements}
    wrappers = {id(fn): replacements[name](name, fn) for name, fn in originals.items()}
    undo = []
    try:
        for mod in _package_modules(package.__name__):
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    setattr(mod, attr, w)
                    undo.append((mod, attr, value))
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


class Tracer:
    """In-memory span store. ``item`` is the request a span belongs to
    (SETUP_ITEM while the workload sets up); ``parent`` is the index of the
    enclosing span, or -1."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.current_item = SETUP_ITEM
        self._items = 0
        self._stack: list[int] = []
        # sums over the samples that model calls inside requests receive
        self._model = {"samples": 0, "masked": 0, "decoded": 0,
                       "flop": 0.0, "redundant_flop": 0.0}
        self.train_calls = 0
        self.train_epochs = 0

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        opn, close = self._open, self._close
        count_inputs = name in ("models.backward", "models.batch_loss",
                                "models.forward_reconstruct")
        count_epochs = name == "training.train"
        tracer = self

        def traced(*args, **kwargs):
            if count_inputs and tracer.current_item >= 0:
                tracer._count_model_inputs(name, args)
            idx = opn(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if count_epochs:
                tracer.train_calls += 1
                tracer.train_epochs += len(out[1])
            return out

        traced.__wrapped__ = fn
        return traced

    def replacements(self, hooks: dict | None = None) -> dict:
        """Wrapper factories for every traced function. A hook (``(name,
        fn) -> fn``) runs inside the span of the function it names."""
        hooks = hooks or {}
        out = {name: (lambda n, fn: self.wrap(n, fn)) for name in FUNCTIONS}
        for name, hook in hooks.items():
            out[name] = (lambda n, fn, hook=hook: self.wrap(n, hook(n, fn)))
        return out

    @contextmanager
    def item_span(self):
        """Root span of one request; spans opened inside it carry its id."""
        self.current_item = self._items
        self._items += 1
        idx = self._open(self._intern(ROOT_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            self.current_item = SETUP_ITEM

    def _count_model_inputs(self, kind: str, args: tuple) -> None:
        """Masked rows, decoded rows and computed FLOPs (matmuls only, from
        shapes; not measured) of one model call."""
        if kind == "models.forward_reconstruct":
            seq, mask, params, cfg = args[:4]
            rows = [(seq.patches.shape, len(mask.masked_patch_indices))]
            training = False
        else:
            batch, params, cfg = args[:3]
            rows = [(s.patches.shape, int(s.mask_rows.sum())) for s in batch]
            training = kind == "models.backward"
        D = params["embed_w"].shape[1]
        P2 = cfg.patch_size ** 2
        m = self._model
        for (N, F), n_masked in rows:
            embed = 2 * N * F * D * (2 if training else 1)
            decode = 2 * N * D * F * (3 if training else 1)
            body = (8 * N * D * D + 4 * N * N * D) if cfg.arch != "wolvm" else 2 * N * D * D
            body *= 3 if training else 1
            m["samples"] += 1
            m["masked"] += n_masked
            m["decoded"] += N
            m["flop"] += embed + decode + body
            m["redundant_flop"] += (embed + decode) * (F - P2) / F

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int64),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "item": np.frombuffer(self.item, dtype=np.int64)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summarize(self, items: int, setups: int) -> dict:
        """Per-function and per-layer metrics. ``items`` is the number of
        workload units done in traced rounds, ``setups`` the number of
        traced set-ups."""
        a = self.arrays()
        n_names = len(self.names)
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        in_loop = a["item"] >= 0
        busy = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        own = np.bincount(a["name_id"], weights=self_t, minlength=n_names)
        loop_calls = np.bincount(a["name_id"][in_loop], minlength=n_names)
        setup_calls = np.bincount(a["name_id"][~in_loop], minlength=n_names)

        def of(table, name):
            nid = self._name_ids.get(name)
            return float(table[nid]) if nid is not None else 0.0

        out = {}
        for f in FUNCTIONS:
            out[f"{f}.calls_per_item"] = of(loop_calls, f) / items if items else 0.0
            out[f"{f}.busy_s"] = of(busy, f)
            if f in NON_LEAF:
                out[f"{f}.self_s"] = of(own, f)
            if f in SETUP_FUNCTIONS:
                out[f"{f}.calls_per_setup"] = of(setup_calls, f) / setups if setups else 0.0
        for layer, fns in LAYERS.items():
            out[f"{layer}.self_s"] = sum(of(own, f"{layer}.{fn}") for fn in fns)
        m = self._model
        out["models.attention_calls_per_sample"] = (
            of(loop_calls, "models.forward_attention") / m["samples"] if m["samples"] else 0.0)
        out["models.decoded_rows_used_ratio"] = m["masked"] / m["decoded"] if m["decoded"] else 0.0
        out["models.embed_redundant_flop_share"] = (
            m["redundant_flop"] / m["flop"] if m["flop"] else 0.0)
        out["models.computed_mflop_per_item"] = m["flop"] / 1e6 / items if items else 0.0
        root = self._name_ids.get(ROOT_SPAN)
        spans_in_items = int(in_loop.sum()) - (int(loop_calls[root]) if root is not None else 0)
        out["trace.spans_per_item"] = spans_in_items / items if items else 0.0
        return out
