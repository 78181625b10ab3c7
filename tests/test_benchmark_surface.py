"""The benchmark's tracer replaces every function that perfbench/spans.py
names in LAYERS; a renamed or deleted one fails the traced benchmark run.
This pins that surface in tier-1, reading spans.py without changing it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("name", [f"{layer}.{fn}" for layer, fns in _layers().items()
                                  for fn in fns])
def test_traced_function_is_callable(name):
    layer, fn = name.split(".")
    module = importlib.import_module(f"tsimg.{layer}")
    assert callable(getattr(module, fn, None)), f"tsimg.{name} is missing"
